"""The five observatory workloads: generators, reasons and seed plumbing.

Everything the program under test receives is a
:class:`~repro.scenarios.spec.ScenarioSpec` built here from the single
``--seed`` argument; the same seed gives the same specs.  Sizes are for
the committed ``run_seconds`` (15 s): one *pass* over a workload's cells
takes 4–7 s on two shared hardware threads and the harness repeats
passes until the run has measured for ``--seconds``, so ``--seconds 30``
doubles every sample count without changing a single cell.

Seeds.  ``run.py`` defaults to seed 1, the seed every number in the
README was measured with and the one to develop against; 20211 is held
out: never used while a change is written, and the second seed a gain
must also hold on.  :func:`check_plan` validates what any seed must keep
true (cell counts, ``n * k`` even, ``k >= 2f + 1``) on every set-up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, FrozenSet, Tuple

from repro.runner.configs import modification_set_for
from repro.scenarios.spec import DelaySpec, ScenarioSpec, TopologySpec, WorkloadSpec

#: The paper's named configurations, reference first (Sec. 7.4).
PAPER_CONFIGURATIONS = ("bdopt", "lat", "bdw", "lat_bdw", "all")

#: The fuzz farm's *structural* stream is pinned to this seed, so every
#: run judges the same mix of sizes, faults, adversaries and churn;
#: ``--seed`` re-seeds each cell (link delays, loss draws, placements).
#: Drawing the structure from ``--seed`` as well makes 400-cell totals
#: differ by 10–15 % between seeds, more than any bound below.
FUZZ_STREAM_SEED = 0
FUZZ_CELLS = 240
#: Adversaries whose crafted traffic every correct process re-relays: one
#: such cell costs 0.4–32 s against a 10 ms median, so a cell budget
#: would measure whether the stream drew one, not the executor.
FUZZ_FLOODING_BEHAVIOURS = frozenset({"alter_sender", "send_empty"})
#: Cells also replayed serially, one by one, for the per-cell time.
FUZZ_SERIAL_SAMPLE = 100
FUZZ_WARM_RERUNS = 5


@dataclass(frozen=True)
class Cell:
    """One scenario of a workload, labelled for the per-configuration table."""

    label: str
    spec: ScenarioSpec


@dataclass(frozen=True)
class Plan:
    """What one pass over a workload runs."""

    #: The timed cells (for ``fuzz_sweep`` none: the farm draws its own).
    cells: Tuple[Cell, ...] = ()
    #: Untimed cell run first in every pass; its seed is no timed cell's,
    #: so it warms the interpreter without pre-building a timed topology.
    warmup: Tuple[Cell, ...] = ()
    #: ``fuzz_sweep`` only: the seed that re-seeds the pinned stream.
    reseed: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulator" | "fuzz" | "asyncio"
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_sparse",
            "simulator",
            "Paper headline point N=31 f=4 k=10 16 B: long paths make "
            "disjoint-path verification the largest share of a cell.",
        ),
        Workload(
            "paper_dense",
            "simulator",
            "Same five configurations at k=24 with 1 KiB payloads: short paths, "
            "so handler, scheduler and byte accounting dominate instead.",
        ),
        Workload(
            "async_layered",
            "simulator",
            "Plain Bracha-over-Dolev under Normal(50,50) ms delays: unique "
            "timestamps and sampled delays drive the scheduler the other way.",
        ),
        Workload(
            "fuzz_sweep",
            "fuzz",
            "400 ten-millisecond fuzz cells through the 2-worker pool, cold then "
            "over the warm cache: executor, cache, codec and oracle do the work.",
        ),
        Workload(
            "asyncio_loopback",
            "asyncio",
            "Real TCP on 127.0.0.1 (loopback, not a link), paced then burst: the "
            "only workload that runs the asyncio runtime and its backend.",
        ),
    )
}


def _paper_cells(seed: int, skip: FrozenSet[int], *, k: int, payload: int, seeds: int) -> Plan:
    def spec(configuration: str, scenario_seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"{configuration}-s{scenario_seed}",
            topology=TopologySpec("random_regular", n=31, k=k, min_connectivity=9),
            delay=DelaySpec("fixed", mean_ms=50.0),
            protocol="cross_layer",
            modifications=modification_set_for(configuration),
            f=4,
            payload_size=payload,
            seed=scenario_seed,
        )

    scenario_seeds = list(itertools.islice(
        (candidate for candidate in itertools.count(seed * 1000) if candidate not in skip),
        seeds))
    return Plan(
        cells=tuple(
            Cell(configuration, spec(configuration, scenario_seed))
            for scenario_seed in scenario_seeds
            for configuration in PAPER_CONFIGURATIONS
        ),
        warmup=(Cell("lat_bdw", spec("lat_bdw", seed * 1000 + 999)),),
    )


def _async_layered_cells(seed: int) -> Plan:
    def spec(k: int, scenario_seed: int) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"bd-k{k}-s{scenario_seed}",
            topology=TopologySpec("random_regular", n=16, k=k, min_connectivity=5),
            delay=DelaySpec("normal", mean_ms=50.0, std_ms=50.0),
            protocol="bracha_dolev",
            modifications=modification_set_for("bdopt"),
            f=2,
            payload_size=1024,
            seed=scenario_seed,
        )

    return Plan(
        cells=tuple(
            Cell(f"k{k}", spec(k, seed * 1000 + index))
            for index in range(8)
            for k in (7, 11)
        ),
        warmup=(Cell("k7", spec(7, seed * 1000 + 999)),),
    )


def _asyncio_cells(seed: int) -> Plan:
    def spec(label: str, workload: WorkloadSpec, scenario_seed: int) -> Cell:
        return Cell(
            label,
            ScenarioSpec(
                name=f"{label}-s{scenario_seed}",
                topology=TopologySpec("random_regular", n=10, k=5, min_connectivity=5),
                protocol="cross_layer",
                modifications=modification_set_for("lat_bdw"),
                f=2,
                payload_size=16,
                seed=scenario_seed,
                backend="asyncio",
                workload=workload,
            ),
        )

    # Paced is closed-loop in effect: a broadcast completes in about
    # half the 80 ms interval, so none queues behind another.  Burst is
    # open loop: all 20 broadcasts are due at t=0.
    paced = WorkloadSpec.repeated(0, 10, interval_ms=80.0)
    burst = WorkloadSpec.round_robin(range(10), 20, interval_ms=0.0)
    return Plan(
        cells=tuple(spec("paced", paced, seed * 1000 + index) for index in range(3))
        + tuple(spec("burst", burst, seed * 1000 + index) for index in range(2)),
        warmup=(spec("paced", WorkloadSpec.repeated(0, 2, 80.0), seed * 1000 + 999),),
    )


def build_plan(name: str, seed: int, skip: FrozenSet[int] = frozenset()) -> Plan:
    """The plan of workload ``name`` for ``--seed seed`` (validated).

    ``skip`` holds scenario seeds the paper workloads must not use; see
    :func:`screened`.
    """
    if name == "paper_sparse":
        plan = _paper_cells(seed, skip, k=10, payload=16, seeds=3)
    elif name == "paper_dense":
        plan = _paper_cells(seed, skip, k=24, payload=1024, seeds=4)
    elif name == "async_layered":
        plan = _async_layered_cells(seed)
    elif name == "fuzz_sweep":
        plan = Plan(reseed=seed)
    elif name == "asyncio_loopback":
        plan = _asyncio_cells(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {tuple(WORKLOADS)}")
    check_plan(name, plan)
    return plan


def screened(name: str, seed: int, plan: Plan,
             delivers: Callable[[ScenarioSpec], bool]) -> Plan:
    """``plan`` with every graph replaced on which ``all`` does not deliver.

    No operation of a workload may fail, and ``all`` does not deliver on
    every graph: on random_regular(31, 10) seed 202001 with source 0
    (connectivity 10) MBD.2 together with MBD.11 leaves every process
    short of its quorum — disabling either delivers; 1 of about 200
    graphs tried.  ``all`` is the only configuration combining the two,
    so the harness runs each ``all`` cell once before the first pass
    (``delivers``) and draws the next scenario seed for a graph it fails
    on.  This is the harness checking its inputs, not set-up a user pays,
    so it is not part of ``setup_s``.
    """
    skip: FrozenSet[int] = frozenset()
    while True:
        failing = {cell.spec.seed for cell in plan.cells
                   if cell.label == "all" and not delivers(cell.spec)}
        if not failing:
            return plan
        skip |= failing
        plan = build_plan(name, seed, skip)


_EXPECTED_CELLS = {
    "paper_sparse": 15,
    "paper_dense": 20,
    "async_layered": 16,
    "fuzz_sweep": 0,
    "asyncio_loopback": 5,
}


def check_plan(name: str, plan: Plan) -> None:
    """What any seed must keep true for the workload to mean what it says."""
    if len(plan.cells) != _EXPECTED_CELLS[name]:
        raise ValueError(
            f"{name}: expected {_EXPECTED_CELLS[name]} cells, built {len(plan.cells)}"
        )
    timed_seeds = {cell.spec.seed for cell in plan.cells}
    for cell in plan.cells + plan.warmup:
        topology, f = cell.spec.topology, cell.spec.f
        if (topology.n * topology.k) % 2:
            raise ValueError(f"{name}/{cell.spec.name}: n*k must be even")
        if topology.k < 2 * f + 1 or (topology.min_connectivity or 0) < 2 * f + 1:
            raise ValueError(f"{name}/{cell.spec.name}: needs (2f+1)-connectivity")
    for cell in plan.warmup:
        if cell.spec.seed in timed_seeds:
            raise ValueError(f"{name}: the warm-up cell shares a timed cell's seed")


def fuzz_cell_is_measured(spec: ScenarioSpec) -> bool:
    """Whether the farm's stream cell ``spec`` belongs to ``fuzz_sweep``."""
    return all(
        adversary.behaviour not in FUZZ_FLOODING_BEHAVIOURS
        for adversary in spec.adversaries
    )


def reseed_fuzz_cell(spec: ScenarioSpec, reseed: int) -> ScenarioSpec:
    """The stream cell with its random draws re-keyed by ``--seed``."""
    return spec.with_seed(spec.seed + 100_003 * reseed)
