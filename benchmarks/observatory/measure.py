"""Runs one workload, untraced or traced, and checks what it produced.

One *pass* runs every cell of the workload's plan once.  A run repeats
passes until it has measured for ``--seconds``; every pass does the same
work (topology cache cleared, one untimed warm-up cell first), so on the
simulation backend every pass must produce equal results — a difference
is an error, not noise (:class:`ExactMismatch`).  With a tracer the same
pass code runs under the wrappers of :mod:`tracing`.

Host-time statistics pool the samples of all passes and are at reference
speed (see :mod:`calibration`: every timed region is divided by the
slowdown a fixed kernel showed right around it); simulated statistics
are exact and taken from the first pass.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.fuzz.farm import FuzzFarm
from repro.network.asyncio_runtime.cluster import AsyncioCluster
from repro.runner.configs import protocol_factory
from repro.runner.parallel import SweepExecutor
from repro.scenarios import engine
from repro.scenarios import spec as spec_module
from repro.scenarios.backends import AsyncioBackend
from repro.scenarios.oracle import check_result

import workloads
from calibration import LOOPBACK_REFERENCE_SECONDS, Gauge, LoopbackKernel
from tracing import Tracer, install

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Pool width of ``fuzz_sweep``: never more processes than cores.
WORKERS = min(2, os.cpu_count() or 1)


class ExactMismatch(Exception):
    """Two passes of one run disagreed on a simulated (exact) result."""


@dataclass
class Pass:
    """What one pass over a workload produced."""

    #: Wall seconds of each timed cell (fuzz: of each serially replayed cell).
    raw_times: List[float]
    #: Host slowdown around each of them (1.0 = the reference host).
    factors: List[float]
    #: The cells' results, in plan order (fuzz: in stream order, cold run).
    results: list
    labels: List[str]
    failed: int
    attempted: int
    #: Wall seconds spent judging the results after the timed cells.
    judge_seconds: float = 0.0
    #: Fuzz only: wall seconds of the cold farm run, which is what
    #: defines ``cells_per_s`` there.  Not scaled: the gauge is one
    #: thread, and with both hardware threads busy in the pool the cold
    #: run repeats to 8 % raw and to 20 % scaled.
    cold: Optional[float] = None
    #: Workload-specific extras (fuzz: reports, warm reruns, span rows).
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def times(self) -> List[float]:
        """Reference-speed seconds of each timed sample."""
        return [raw / factor for raw, factor in zip(self.raw_times, self.factors)]

    @property
    def wall(self) -> float:
        """Seconds of the part that defines ``cells_per_s`` (see ``cold``)."""
        return self.cold if self.cold else sum(self.times)

    @property
    def raw_wall(self) -> float:
        """Wall seconds from the first timed region to the last judged result."""
        timed = self.extra["timed_seconds"] if self.cold else sum(self.raw_times)
        return timed + self.judge_seconds


def temp_dir(name: str) -> Path:
    """This process's scratch directory, inside the checkout."""
    return RESULTS_DIR / "tmp" / f"{name}-{os.getpid()}"


def set_up(name: str, seed: int) -> workloads.Plan:
    """Everything before the first timed cell: specs and scratch space."""
    plan = workloads.build_plan(name, seed)
    temp_dir(name).mkdir(parents=True, exist_ok=True)
    return plan


def tear_down(name: str) -> None:
    shutil.rmtree(temp_dir(name), ignore_errors=True)


def cluster_start_seconds(cell: workloads.Cell, repeats: int = 3) -> float:
    """Median ``AsyncioCluster`` start-to-ready time for ``cell``'s system."""
    spec = cell.spec
    topology = spec.topology.build(spec.seed)
    builder = protocol_factory(spec.protocol, spec.modifications)

    async def once() -> float:
        cluster = AsyncioCluster(topology, spec.system(), builder)
        start = perf_counter()
        try:
            await cluster.start()
            return perf_counter() - start
        finally:
            await cluster.stop()

    return statistics.median(asyncio.run(once()) for _ in range(repeats))


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def repeat_passes(one_pass: Callable[[], Pass], seconds: float, minimum: int) -> List[Pass]:
    """Run passes until the run has measured for about ``seconds``.

    Stops where one more pass would overshoot the target by more than
    stopping now undershoots it, but never before ``minimum`` passes.
    """
    started = perf_counter()
    passes: List[Pass] = []
    while True:
        passes.append(one_pass())
        elapsed = perf_counter() - started
        if len(passes) >= minimum and elapsed + elapsed / len(passes) / 2 > seconds:
            return passes


def _span(tracer: Optional[Tracer], name: str, layer: str, *, cell: bool = True,
          scenario_hash: Optional[str] = None):
    """A span when tracing, else a context that does nothing."""
    if tracer is None:
        return nullcontext([None])
    return tracer.span(name, layer, cell=cell, scenario_hash=scenario_hash)


def _begin_pass(tracer: Optional[Tracer]) -> None:
    """Put the process in the state every pass starts from.

    ``TopologySpec.build`` memoizes per process; clearing the memo makes
    each pass build its graphs afresh, the way a new sweep process does,
    instead of making every pass after the first a different workload.
    """
    spec_module._build_topology.cache_clear()
    if tracer is not None:
        tracer.built_topologies.clear()
    gc.collect()


def _judge(result, tracer: Optional[Tracer]) -> list:
    with _span(tracer, "oracle.check_result", "scenarios.oracle",
               scenario_hash=result.scenario_hash):
        violations = check_result(result)
    if tracer is not None:
        tracer.counts["oracle.violations"] += len(violations)
    return violations


# ----------------------------------------------------------------------
# The three kinds of pass
# ----------------------------------------------------------------------
def _timed(run: Callable, cells: Sequence[workloads.Cell], gauge: Gauge):
    """Run and time ``cells`` one by one, gauging the host around each."""
    raw, factors, results = [], [], []
    for cell in cells:
        start = perf_counter()
        results.append(run(cell))
        raw.append(perf_counter() - start)
        factors.append(gauge.factor())
    return raw, factors, results


def simulator_pass(plan: workloads.Plan, tracer: Optional[Tracer] = None) -> Pass:
    _begin_pass(tracer)
    for cell in plan.warmup:
        engine.simulate_scenario(cell.spec)
    uninstall = install(tracer) if tracer is not None else None
    try:
        raw, factors, results = _timed(
            lambda cell: engine.simulate_scenario(cell.spec), plan.cells, Gauge())
    finally:
        if uninstall is not None:
            uninstall()
    start = perf_counter()
    failed = sum(
        1 for result in results
        if _judge(result, tracer) or not result.all_correct_delivered
    )
    return Pass(raw, factors, results, [cell.label for cell in plan.cells], failed,
                len(results), judge_seconds=perf_counter() - start)


def asyncio_pass(plan: workloads.Plan, tracer: Optional[Tracer] = None) -> Pass:
    _begin_pass(tracer)
    backend = AsyncioBackend()
    for cell in plan.warmup:
        backend.run(cell.spec)

    def run(cell: workloads.Cell):
        with _span(tracer, "asyncio.backend_run", "scenarios.backends") as holder:
            result = backend.run(cell.spec)
            holder[0] = result.scenario_hash
        return result

    uninstall = install(tracer) if tracer is not None else None
    kernel = LoopbackKernel()
    try:
        raw, factors, results = _timed(
            run, plan.cells, Gauge(kernel, LOOPBACK_REFERENCE_SECONDS))
    finally:
        kernel.close()
        if uninstall is not None:
            uninstall()
    # A failure is a broadcast some correct node did not deliver or
    # delivered wrongly; an oracle violation of another kind counts too.
    start = perf_counter()
    failed = attempted = 0
    for result in results:
        attempted += len(result.outcomes)
        undelivered = sum(
            1 for outcome in result.outcomes
            if not (outcome.all_correct_delivered and outcome.agreement_holds
                    and outcome.validity_holds)
        )
        failed += max(undelivered, len(_judge(result, tracer)))
    return Pass(raw, factors, results, [cell.label for cell in plan.cells], failed,
                attempted, judge_seconds=perf_counter() - start)


class _MeasuredStream:
    """Executor adapter: the farm's stream, filtered and re-seeded.

    The farm draws its own cells; this is the one place the harness can
    apply :func:`workloads.fuzz_cell_is_measured` and ``--seed`` to them
    before the program's executor sees them.
    """

    def __init__(self, inner: SweepExecutor, reseed: int) -> None:
        self.inner = inner
        self.reseed = reseed

    def run_stream(self, specs, **budget):
        return self.inner.run_stream(
            (workloads.reseed_fuzz_cell(spec, self.reseed)
             for spec in specs if workloads.fuzz_cell_is_measured(spec)),
            **budget,
        )

    @property
    def cache_hits(self) -> int:
        return self.inner.cache_hits


def _farm_run(directory: Path, reseed: int, tracer: Optional[Tracer]):
    """One budgeted farm run over ``directory``'s cache and corpus."""
    judged: list = []

    def judge(result):
        judged.append(result)
        return _judge(result, tracer)

    farm = FuzzFarm(
        directory / "corpus",
        executor=_MeasuredStream(
            SweepExecutor(workers=WORKERS, cache_dir=directory / "cache"), reseed
        ),
        seed=workloads.FUZZ_STREAM_SEED,
        check=judge,
    )
    first_row = len(tracer.rows) if tracer is not None else 0
    start = perf_counter()
    with _span(tracer, "fuzz.farm_run", "fuzz", cell=False):
        report = farm.run(max_cells=workloads.FUZZ_CELLS)
    wall = perf_counter() - start
    rows = tracer.rows[first_row:] if tracer is not None else []
    return wall, report, judged, rows


def fuzz_pass(plan: workloads.Plan, tracer: Optional[Tracer] = None, *,
              serial_cells: int = workloads.FUZZ_SERIAL_SAMPLE) -> Pass:
    """Cold farm run, warm reruns over its cache, then a serial replay."""
    _begin_pass(tracer)
    directory = temp_dir("fuzz_sweep") / "pass"
    shutil.rmtree(directory, ignore_errors=True)
    uninstall = install(tracer) if tracer is not None else None
    gauge = Gauge()
    try:
        cold_wall, report, cold, cold_rows = _farm_run(directory, plan.reseed, tracer)
        gauge.factor()
        failed = report.violation_count
        attempted = len(cold)
        warm = []  # (wall seconds, host slowdown, cache hits) per rerun
        for _ in range(workloads.FUZZ_WARM_RERUNS):
            wall, warm_report, rerun, _ = _farm_run(directory, plan.reseed, tracer)
            warm.append((wall, gauge.factor(), warm_report.cache_hits))
            attempted += len(cold)
            failed += sum(1 for a, b in zip(cold, rerun) if a != b) + abs(len(cold) - len(rerun))
        records = list((directory / "cache").glob("*.pkl"))
        cache_bytes = sum(path.stat().st_size for path in records)
        # The same cells, one by one in this process: the per-cell time
        # no pool hides, and a check that the pool changed no result.
        # Cells take milliseconds, so the gauge is read every tenth.
        engine.run_scenario(cold[0].spec)
        gauge.factor()
        raw, factors = [], []
        for index, expected in enumerate(cold[:serial_cells], start=1):
            start = perf_counter()
            replayed = engine.run_scenario(expected.spec)
            raw.append(perf_counter() - start)
            attempted += 1
            failed += replayed != expected
            if index % 10 == 0 or index == len(cold[:serial_cells]):
                factors.extend([gauge.factor()] * (len(raw) - len(factors)))
    finally:
        if uninstall is not None:
            uninstall()
        shutil.rmtree(directory, ignore_errors=True)
    return Pass(
        raw, factors, cold, ["fuzz"] * len(cold), failed, attempted,
        cold=cold_wall,
        extra={
            "report": report,
            "cold_rows": cold_rows,
            "warm": warm,
            "cache_records": len(records),
            "cache_bytes": cache_bytes,
            "timed_seconds": cold_wall + sum(wall for wall, _, _ in warm) + sum(raw),
        },
    )


PASS_OF_KIND = {"simulator": simulator_pass, "fuzz": fuzz_pass, "asyncio": asyncio_pass}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def simulated_statistics(results: Sequence) -> Dict[str, float]:
    """The paper's metrics over ``results`` (backend clock and counts).

    ``last_latency_ms`` is the paper's latency — broadcast to the last
    correct delivery, mean over broadcasts.  Under fixed 50 ms links it
    is a multiple of 50 per broadcast and reads the same on most graphs,
    so ``latency_ms`` is the finer mean over every correct process's own
    delivery, which no two graphs share.
    """
    delivered = sum(result.delivered_broadcast_count for result in results)
    last = [
        outcome.latency_ms
        for result in results
        for outcome in result.outcomes
        if outcome.latency_ms is not None
    ]
    each = [
        entry[0] - outcome.start_time_ms
        for result in results
        for outcome in result.outcomes
        for entry in outcome.delivery_trace
        if entry[1] in result.correct_processes
    ]
    if not delivered or not last:
        return dict.fromkeys(
            ("msgs_per_delivery", "bytes_per_delivery", "latency_ms", "last_latency_ms"), 0.0)
    return {
        "msgs_per_delivery": sum(r.message_count for r in results) / delivered,
        "bytes_per_delivery": sum(r.total_bytes for r in results) / delivered,
        "latency_ms": statistics.fmean(each),
        "last_latency_ms": statistics.fmean(last),
    }


def by_label(first: Pass) -> Dict[str, Dict[str, float]]:
    """:func:`simulated_statistics` per cell label, in first-seen order."""
    groups: Dict[str, list] = {}
    for label, result in zip(first.labels, first.results):
        groups.setdefault(label, []).append(result)
    return {label: simulated_statistics(results) for label, results in groups.items()}


def versus_bdopt(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """``lat_bdw`` as a percentage of ``bdopt`` (100 = no change)."""
    if "bdopt" not in table or "lat_bdw" not in table:
        return {}
    reference, candidate = table["bdopt"], table["lat_bdw"]
    return {
        "bytes_vs_bdopt_pct": 100.0 * candidate["bytes_per_delivery"]
        / reference["bytes_per_delivery"],
        "latency_vs_bdopt_pct": 100.0 * candidate["last_latency_ms"]
        / reference["last_latency_ms"],
    }


def labelled(passes: Sequence[Pass], label: str):
    """``(result, wall seconds, host slowdown)`` of every ``label`` cell."""
    return [
        (result, raw, factor)
        for one in passes
        for cell_label, result, raw, factor
        in zip(one.labels, one.results, one.raw_times, one.factors)
        if cell_label == label
    ]


def wall_latencies(passes: Sequence[Pass], label: str) -> List[float]:
    """Wall latency of every broadcast of the ``label`` cells.

    Plain wall milliseconds: the process idles between paced broadcasts,
    and a kernel that keeps a core busy does not see the host the way
    they do (scaled, these latencies repeat to 11 %, raw to 7 %).  A
    broadcast some correct node never delivered counts as the delivery
    timeout, so it cannot improve a percentile by vanishing.
    """
    timeout_ms = AsyncioBackend().delivery_timeout_s * 1000.0
    return [
        outcome.latency_ms if outcome.latency_ms is not None else timeout_ms
        for result, _, _ in labelled(passes, label)
        for outcome in result.outcomes
    ]


def frames_per_second(passes: Sequence[Pass], label: str) -> List[float]:
    """Per ``label`` cell: messages sent per reference-speed second between
    the opening of the epoch and the last delivery."""
    return [
        result.message_count / (result.metrics.end_time / 1000.0 / factor)
        for result, _, factor in labelled(passes, label)
    ]


def check_passes_agree(kind: str, passes: Sequence[Pass]) -> None:
    """Simulated results are exact: every pass must equal the first."""
    if kind == "asyncio":
        return
    for index, other in enumerate(passes[1:], start=2):
        if other.results != passes[0].results:
            raise ExactMismatch(
                f"pass {index} produced different simulated results than pass 1"
            )


def end_to_end(kind: str, passes: Sequence[Pass]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (all but set-up)."""
    if kind == "asyncio":
        # Wall clock throughout.  The paced cells wait on timers, so only
        # their broadcasts' latencies are used; throughput and cells per
        # second come from the burst cells, which the CPU bounds.
        everything = [result for one in passes for result in one.results]
        bursts = [raw / factor for _, raw, factor in labelled(passes, "burst")]
        metrics = simulated_statistics(everything)
        metrics["latency_ms"] = statistics.median(wall_latencies(passes, "paced"))
        metrics["cells_per_s"] = len(bursts) / sum(bursts)
        metrics["msgs_per_s"] = statistics.median(frames_per_second(passes, "burst"))
    else:
        wall = sum(one.wall for one in passes)
        metrics = simulated_statistics(passes[0].results)
        metrics["cells_per_s"] = sum(len(one.results) for one in passes) / wall
        metrics["msgs_per_s"] = sum(
            result.message_count for one in passes for result in one.results) / wall
    del metrics["last_latency_ms"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics
