"""Per-layer metrics of a traced run.

Two sources: the spans and counts the :class:`~tracing.Tracer` recorded
at the layer boundaries during the traced passes, and a few direct
timings of public calls over the workload's own specs and results
(codecs, frame encoding, ``lru_cache`` hit, ``tracemalloc`` peak) taken
after the wrappers are gone.  Totals are per pass (the mean over the
traced passes), so they do not grow with ``--seconds``; times are at
reference speed like the end-to-end ones, scaled by the mean host
slowdown the gauge saw during the passes (``host.slowdown``).

A layer metric that does not apply to a workload is reported as 0:
``codec.*``, ``cache.*``, ``runner.*`` and ``fuzz.*`` are zero on the
serial simulator workloads because those never serialise, cache or pool
anything, and ``asyncio.*`` is zero wherever no socket is opened.
"""

from __future__ import annotations

import itertools
import statistics
import tracemalloc
from time import perf_counter
from typing import Callable, Dict, Sequence

from repro.fuzz.sample import stream_fuzz_specs
from repro.network.asyncio_runtime.framing import encode_frame
from repro.scenarios import engine
from repro.scenarios.jsonio import dumps_spec_json, loads_spec_json
from repro.scenarios.oracle import totality_expected
from repro.scenarios.serialize import dumps_result, dumps_spec, loads_result, loads_spec

import measure
import workloads
from calibration import Gauge
from tracing import BUSY, NAME, Tracer


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _microseconds_each(call: Callable, items: Sequence) -> float:
    """Reference-speed microseconds of ``call(item)``, averaged over ``items``."""
    gauge = Gauge()
    start = perf_counter()
    for item in items:
        call(item)
    wall = perf_counter() - start
    return 1e6 * wall / gauge.factor() / len(items)


def host_slowdown(passes: Sequence[measure.Pass]) -> float:
    """Mean host slowdown over every gauged region of ``passes``."""
    return statistics.fmean(factor for one in passes for factor in one.factors)


def span_metrics(tracer: Tracer, passes: Sequence[measure.Pass]) -> Dict[str, float]:
    """What the spans and counts say, for every kind of workload."""
    slowdown = host_slowdown(passes)

    def per_pass(total: float) -> float:
        return total / len(passes)

    def busy(name: str) -> float:
        return sum(tracer.busy_seconds(name)) / slowdown

    def own(name: str) -> float:
        return tracer.self_seconds(name) / slowdown

    def typical_ms(name: str, pick=_mean) -> float:
        return 1000.0 * pick(tracer.busy_seconds(name) or [0.0]) / slowdown

    cell_seconds = busy("engine.simulate_scenario") + busy("asyncio.backend_run")
    events = tracer.counts["sim.events"]
    add_path_calls = tracer.calls("paths.add_path")
    return {
        "host.slowdown": slowdown,
        "topology.build_ms_p50": typical_ms("topology.build", statistics.median),
        "topology.builds": per_pass(tracer.calls("topology.build")),
        "engine.build_network_ms": 1000.0 * _ratio(
            own("engine.build_network"), tracer.calls("engine.build_network")),
        "engine.freeze_result_ms": typical_ms("engine.freeze_result"),
        "sim.run_s": per_pass(busy("sim.run")),
        "sim.events": per_pass(events),
        "sim.events_per_s": _ratio(events, busy("sim.run")),
        "sim.us_per_event": 1e6 * _ratio(busy("sim.run"), events),
        "sim.dropped_messages": per_pass(tracer.counts["sim.dropped_messages"]),
        "brb.on_message_s": per_pass(busy("brb.on_message")),
        "brb.on_message_self_s": per_pass(own("brb.on_message")),
        "brb.calls": per_pass(tracer.calls("brb.on_message")),
        "paths.add_path_s": per_pass(busy("paths.add_path")),
        "paths.add_path_calls": per_pass(add_path_calls),
        "paths.us_per_add_path": 1e6 * _ratio(busy("paths.add_path"), add_path_calls),
        "paths.stored_ratio": _ratio(tracer.counts["paths.stored"], add_path_calls),
        "paths.share_of_run": _ratio(busy("paths.add_path"), cell_seconds),
        "metrics.record_send_s": per_pass(busy("metrics.record_send")),
        "metrics.sends": per_pass(tracer.calls("metrics.record_send")),
        "oracle.check_result_us": 1000.0 * typical_ms("oracle.check_result"),
        "oracle.violations": per_pass(tracer.counts["oracle.violations"]),
        "cache.store_ms": typical_ms("cache.store"),
        "cache.load_ms": typical_ms("cache.load_hit"),
        "cache.hit_ratio": _ratio(tracer.counts["cache.hits"], tracer.counts["cache.loads"]),
        "asyncio.cluster_start_ms": typical_ms("asyncio.cluster_start", statistics.median),
        # The share of the traced passes' wall the spans account for:
        # every layer's self time over the harness's own clock.
        "trace.self_sum_ratio": _ratio(
            sum(tracer.self_seconds_by_layer().values()),
            sum(one.raw_wall for one in passes)),
    }


def result_metrics(kind: str, passes: Sequence[measure.Pass]) -> Dict[str, float]:
    """What the results themselves say (exact on the simulation backend)."""
    first = passes[0]
    table = measure.by_label(first)
    metrics = {
        f"brb.{label}.{name}": table[label][column]
        for label in workloads.PAPER_CONFIGURATIONS if label in table
        for name, column in (
            ("msgs_per_delivery", "msgs_per_delivery"),
            ("bytes_per_delivery", "bytes_per_delivery"),
            ("sim_latency_ms", "last_latency_ms"),
        )
    }
    metrics.update({f"brb.{name}": value
                    for name, value in measure.versus_bdopt(table).items()})
    specs = [result.spec for result in first.results]
    metrics["oracle.totality_checked_ratio"] = _ratio(
        sum(1 for spec in specs if totality_expected(spec)), len(specs))
    if kind == "asyncio":
        everything = [result for one in passes for result in one.results]
        latencies = measure.wall_latencies(passes, "paced")
        metrics.update({
            "asyncio.us_per_msg": 1e6 / statistics.median(
                measure.frames_per_second(passes, "burst")),
            "asyncio.msgs_per_delivery":
                measure.simulated_statistics(everything)["msgs_per_delivery"],
            "asyncio.undelivered": sum(
                len(set(result.correct_processes) - set(outcome.delivered_processes))
                for result in everything for outcome in result.outcomes) / len(passes),
            "asyncio.run_wall_s": sum(sum(one.times) for one in passes) / len(passes),
            "asyncio.wall_latency_ms_p50": statistics.median(latencies),
            "asyncio.wall_latency_ms_p90": statistics.quantiles(latencies, n=10)[-1],
            "asyncio.frame_encode_us": _frame_encode_microseconds(everything),
        })
    return metrics


def fuzz_metrics(passes: Sequence[measure.Pass]) -> Dict[str, float]:
    """Executor, cache, codec and farm numbers of ``fuzz_sweep``."""
    count = len(passes)
    cold_wall = sum(one.wall for one in passes)
    # Executor wall of the cold runs: time inside ``run_stream``'s
    # ``next`` (dispatch, waiting for workers, cache stores).
    pool_wall = sum(row[BUSY] for one in passes for row in one.extra["cold_rows"]
                    if row[NAME] == "runner.run_stream") / 1e9
    serial_sum = sum(sum(one.times) for one in passes)
    serial_wall = sum(sum(one.raw_times) for one in passes)
    warm = [(wall / factor, hits) for one in passes for wall, factor, hits in one.extra["warm"]]
    first = passes[0]
    report = first.extra["report"]
    results = first.results[:100]
    specs = [result.spec for result in results]
    return {
        "runner.serial_cell_s_sum": serial_sum / count,
        "runner.pool_wall_s": pool_wall / count,
        # Wall over wall: the pool's time is not scaled (see ``Pass.cold``).
        "runner.parallel_efficiency": _ratio(serial_wall, measure.WORKERS * pool_wall),
        "runner.cache_hits": _mean([hits for _, hits in warm]),
        "cache.warm_cells_per_s": statistics.median(
            workloads.FUZZ_CELLS / wall for wall, _ in warm),
        "cache.bytes_per_record": _ratio(first.extra["cache_bytes"],
                                         first.extra["cache_records"]),
        "fuzz.judge_and_corpus_s": (cold_wall - pool_wall) / count,
        "fuzz.corpus_records": sum(len(hashes) for hashes in report.new_records.values()),
        "fuzz.shrink_attempts": report.shrink_attempts,
        "fuzz.sample_us_per_spec": _microseconds_each(
            lambda _: list(itertools.islice(
                stream_fuzz_specs(seed=workloads.FUZZ_STREAM_SEED), workloads.FUZZ_CELLS)),
            [None]) / workloads.FUZZ_CELLS,
        # Round trips, the way the pool and the cache pay them.
        "codec.spec_pickle_us": _microseconds_each(lambda s: loads_spec(dumps_spec(s)), specs),
        "codec.result_pickle_us": _microseconds_each(
            lambda r: loads_result(dumps_result(r)), results),
        "codec.spec_json_us": _microseconds_each(
            lambda s: loads_spec_json(dumps_spec_json(s)), specs),
        "codec.spec_bytes": _mean([len(dumps_spec(spec)) for spec in specs]),
        "codec.result_bytes": _mean([len(dumps_result(result)) for result in results]),
        "spec.hash_us": _microseconds_each(lambda s: s.scenario_hash(), specs),
    }


def _frame_encode_microseconds(results: Sequence) -> float:
    """``encode_frame`` over the run's mean message size per type,
    weighted by how many messages of each type the run sent."""
    sent: Dict[str, int] = {}
    size: Dict[str, int] = {}
    for result in results:
        for name, messages in result.metrics.messages_by_type.items():
            sent[name] = sent.get(name, 0) + messages
            size[name] = size.get(name, 0) + result.metrics.bytes_by_type[name]
    return sum(
        messages * _microseconds_each(encode_frame, [bytes(size[name] // messages)] * 2000)
        for name, messages in sorted(sent.items())
    ) / sum(sent.values())


def direct_metrics(kind: str, passes: Sequence[measure.Pass]) -> Dict[str, float]:
    """Timings taken with no wrapper installed, after the traced passes."""
    spec = passes[0].results[0].spec
    spec.topology.build(spec.seed)
    metrics = {
        "topology.repeat_build_us": _microseconds_each(
            lambda seed: spec.topology.build(seed), [spec.seed] * 2000),
    }
    if kind != "asyncio":
        # One representative cell: the first of the plan.
        tracemalloc.start()
        try:
            engine.run_scenario(spec)
            metrics["mem.tracemalloc_peak_kb_per_cell"] = (
                tracemalloc.get_traced_memory()[1] / 1024.0)
        finally:
            tracemalloc.stop()
    return metrics


def per_layer(kind: str, tracer: Tracer, passes: Sequence[measure.Pass],
              untraced: measure.Pass) -> Dict[str, float]:
    """Every per-layer metric the traced run of one workload can compute."""
    metrics = span_metrics(tracer, passes)
    metrics.update(result_metrics(kind, passes))
    if kind == "fuzz":
        metrics.update(fuzz_metrics(passes))
    metrics.update(direct_metrics(kind, passes))
    metrics["engine.cell_ms_p50"] = 1000.0 * statistics.median(
        seconds for one in passes for label, seconds in zip(one.labels, one.times)
        if label != "paced")
    traced_wall = statistics.median(one.wall for one in passes)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced.wall - 1.0)
    return metrics
