"""Unbounded randomized scenario streams for the fuzzing farm.

:func:`stream_fuzz_specs` turns the oracle suite's one-shot randomized
grid sampler
(:func:`~repro.scenarios.oracle.sample_lossy_adaptive_specs`) into an
infinite, seed-deterministic generator: round ``r`` draws one batch with
derived seed ``seed + r``, decorates a deterministic fraction of the
cells with multi-broadcast workloads (the workload axis the one-shot
sampler does not cover) and spreads the cells over the requested
backends.  Two streams with the same arguments yield the same specs in
the same order, which is what makes a fuzz run — and any shrink that
follows — replayable from its seed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterator, Sequence

from repro.scenarios.faults import JoinAt, LeaveAt, RewireLinkAt
from repro.scenarios.oracle import sample_lossy_adaptive_specs
from repro.scenarios.spec import AdversarySpec, ScenarioSpec, WorkloadSpec

#: Cells drawn per sampler round (one derived seed each round).
BATCH_SIZE = 32

#: Mixing constant separating the per-round decoration RNG from the
#: sampler's own seed stream.
_DECORATION_SALT = 0x5EEDF022

#: The attacker-taxonomy behaviours beyond the original four, which the
#: ``behaviour_fraction`` decoration forces into a cell.
_EXTENDED_BEHAVIOURS = (
    "alter_sender",
    "send_empty",
    "limited_broadcast",
    "truncate_path",
)


def _with_random_workload(spec: ScenarioSpec, rng: random.Random) -> ScenarioSpec:
    """Attach a small sensor-style workload to ``spec`` (seed-driven)."""
    n = spec.topology.node_count
    count = rng.randint(2, 4)
    interval = rng.choice((10.0, 25.0, 40.0))
    if n >= 2 and rng.random() < 0.5:
        sources = (0, 1)
        workload = WorkloadSpec.round_robin(sources, count, interval)
    else:
        workload = WorkloadSpec.repeated(0, count, interval)
    return spec.with_workload(workload)


def _as_rco_cell(spec: ScenarioSpec, rng: random.Random) -> ScenarioSpec:
    """Restack ``spec`` onto the causal-order wrapper (seed-driven).

    The protocol swap alone already fuzzes the pending-set machinery
    under the cell's loss/adaptive axes; half of the undecorated cells
    additionally get a causally-chained workload so cross-source
    dependency ordering is exercised, not just same-source FIFO.
    """
    spec = replace(spec, protocol="rco_cross_layer")
    n = spec.topology.node_count
    if spec.workload is None and n >= 2 and rng.random() < 0.5:
        chain = (0, rng.randint(1, n - 1), 0)
        interval = rng.choice((25.0, 40.0))
        spec = spec.with_workload(WorkloadSpec.causal_chain(chain, interval))
    return spec


def _with_extended_behaviour(spec: ScenarioSpec, rng: random.Random) -> ScenarioSpec:
    """Force one of the extended taxonomy behaviours into ``spec``.

    Adds a one-process static adversary when the ``f`` budget has room
    (static placements plus adaptive conversions both count), otherwise
    swaps the behaviour of an existing non-equivocate placement; a cell
    with no room and no swappable placement is returned unchanged.
    """
    behaviour = rng.choice(_EXTENDED_BEHAVIOURS)
    if spec.f - spec.byzantine_requested >= 1:
        return replace(
            spec,
            adversaries=spec.adversaries
            + (AdversarySpec(behaviour=behaviour, count=1),),
        )
    swappable = [
        index
        for index, adversary in enumerate(spec.adversaries)
        if adversary.behaviour != "equivocate"
    ]
    if swappable:
        index = rng.choice(swappable)
        adversaries = list(spec.adversaries)
        adversaries[index] = replace(adversaries[index], behaviour=behaviour)
        return replace(spec, adversaries=tuple(adversaries))
    return spec


def _with_churn(spec: ScenarioSpec, rng: random.Random) -> ScenarioSpec:
    """Attach one membership-churn fault to ``spec`` (seed-driven).

    Joins, leaves and link rewires over the non-source pids; a rewire
    needs a non-neighbor to rewire toward, so fully connected cells fall
    back to a leave.  Churn never targets the pinned source pid 0 — an
    absent source is a degenerate cell the static crash axis already
    covers.
    """
    n = spec.topology.node_count
    if n < 3:
        return spec
    pid = rng.randint(1, n - 1)
    draw = rng.random()
    if draw < 0.4:
        fault = JoinAt(pid=pid, time_ms=rng.choice((0.0, 20.0, 60.0)))
    elif draw < 0.75:
        fault = LeaveAt(pid=pid, time_ms=rng.choice((10.0, 40.0)))
    else:
        topology = spec.topology.build(spec.seed)
        neighbors = sorted(topology.neighbors(pid))
        candidates = sorted(set(topology.nodes) - set(neighbors) - {pid})
        if not neighbors or not candidates:
            fault = LeaveAt(pid=pid, time_ms=20.0)
        else:
            fault = RewireLinkAt(
                pid=pid,
                old_peer=rng.choice(neighbors),
                new_peer=rng.choice(candidates),
                time_ms=rng.choice((10.0, 30.0)),
            )
    return replace(spec, faults=spec.faults + (fault,))


def stream_fuzz_specs(
    *,
    seed: int = 0,
    backends: Sequence[str] = ("simulation",),
    name: str = "fuzz",
    batch_size: int = BATCH_SIZE,
    workload_fraction: float = 0.25,
    rco_fraction: float = 0.15,
    behaviour_fraction: float = 0.2,
    churn_fraction: float = 0.15,
) -> Iterator[ScenarioSpec]:
    """Yield an endless, deterministic stream of fuzz cells.

    ``backends`` spreads the stream over execution backends (each cell
    is assigned one); ``workload_fraction`` of the cells carry a
    randomized multi-broadcast workload on top of the lossy/adaptive
    axes; ``rco_fraction`` of the cells are restacked onto the
    causal-order wrapper (``rco_cross_layer``), so the pending-set
    delivery rule is fuzzed under the same loss/adaptive adversaries as
    the bare protocol; ``behaviour_fraction`` of the cells are forced to
    carry one of the extended taxonomy behaviours
    (``alter_sender``/``send_empty``/``limited_broadcast``/
    ``truncate_path``); ``churn_fraction`` of the cells gain one
    membership-churn fault (join/leave/link rewire).  The caller bounds
    consumption — typically via
    :meth:`~repro.runner.parallel.SweepExecutor.run_stream` budgets.
    """
    backends = tuple(backends)
    if not backends:
        raise ValueError("stream_fuzz_specs needs at least one backend")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    round_index = 0
    while True:
        cells = sample_lossy_adaptive_specs(
            batch_size, seed=seed + round_index, name=f"{name}-r{round_index}"
        )
        rng = random.Random(seed * 1_000_003 + round_index + _DECORATION_SALT)
        for spec in cells:
            backend = backends[0] if len(backends) == 1 else rng.choice(backends)
            if backend != spec.backend:
                spec = spec.with_backend(backend)
            if rng.random() < workload_fraction:
                spec = _with_random_workload(spec, rng)
            if rng.random() < rco_fraction:
                spec = _as_rco_cell(spec, rng)
            if rng.random() < behaviour_fraction:
                spec = _with_extended_behaviour(spec, rng)
            if rng.random() < churn_fraction:
                spec = _with_churn(spec, rng)
            yield spec
        round_index += 1


__all__ = ["BATCH_SIZE", "stream_fuzz_specs"]
