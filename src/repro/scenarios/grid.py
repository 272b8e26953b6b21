"""Scenario grids: expand a base spec over axes of varying parameters.

A grid cell is one fully resolved :class:`ScenarioSpec`.  Axes address
spec fields either directly (``"seed"``, ``"payload_size"``) or through a
dotted path into the nested specs (``"topology.n"``, ``"delay.kind"``),
and cells are produced in deterministic row-major order — the order the
sweep executor preserves in its results.

Workloads are an axis like any other: ``expand_grid(base, {"workload":
[None, WorkloadSpec.repeated(0, 5, 40.0)]})`` sweeps the same scenario
over the single-broadcast form and a sensor-style repeated workload, and
the scenario hash keeps their cache slots apart (a trivial workload
normalizes to ``None`` and shares the legacy slot by design).

So are message loss and adaptive adversaries: ``expand_grid(base,
{"delay.loss": [0.0, 0.05, 0.2]})`` sweeps the same scenario over
increasingly lossy links, and ``{"adaptive": [(), (CrashWhen(pid=0,
after=ObservationFilter(kind="send"), count=3),)]}`` compares the
fault-free run against a trigger-driven source crash.  Cells whose new
fields sit at their defaults keep their pre-loss hashes and cache slots.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, is_dataclass, replace
from typing import Any, Mapping, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.scenarios.spec import ScenarioSpec


def _replace_path(spec: Any, path: str, value: Any) -> Any:
    """Functional update of a (possibly dotted) field path on nested specs."""
    head, _, rest = path.partition(".")
    if not is_dataclass(spec) or head not in {f.name for f in fields(spec)}:
        raise ConfigurationError(
            f"unknown scenario grid axis {path!r} on {type(spec).__name__}"
        )
    if rest:
        value = _replace_path(getattr(spec, head), rest, value)
    return replace(spec, **{head: value})


def expand_grid(
    base: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> Tuple[ScenarioSpec, ...]:
    """Cartesian product of ``axes`` applied to ``base``, row-major.

    >>> cells = expand_grid(base, {"topology.n": [10, 16], "seed": range(3)})
    >>> len(cells)
    6
    """
    names = list(axes)
    value_lists = [list(axes[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ConfigurationError(f"scenario grid axis {name!r} has no values")
    combos = itertools.product(*value_lists)
    cells = []
    for combo in combos:
        spec = base
        for name, value in zip(names, combo):
            spec = _replace_path(spec, name, value)
        cells.append(spec)
    return tuple(cells)


def seed_cells(base: ScenarioSpec, runs: int, *, base_seed: int = None) -> Tuple[ScenarioSpec, ...]:
    """``runs`` copies of ``base`` with consecutive seeds (one cell per run)."""
    start = base.seed if base_seed is None else base_seed
    return tuple(base.with_seed(start + index) for index in range(runs))


__all__ = ["expand_grid", "seed_cells"]
