"""Scenario-engine sweep through the parallel executor, end to end.

Expands a base scenario into a grid of cells (adversary placement ×
connectivity × seeds), runs it twice — once serially, once over a
process pool with ``workers > 1`` — verifies both paths agree cell by
cell, and reports the aggregate impact of the adversary placements on
latency and network consumption.
A second pass times a sensor-style multi-broadcast workload
(:meth:`WorkloadSpec.repeated`) and records the delivered-broadcast
throughput next to the single-shot numbers.

This is the harness every later scaling PR plugs new workloads into; the
serial/parallel agreement check doubles as a continuous
guard on the scenario engine's determinism contract.
"""

import time
from dataclasses import replace

from repro.core.modifications import ModificationSet
from repro.runner.parallel import SweepExecutor
from repro.scenarios import (
    AdversarySpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    expand_grid,
)

from benchmarks.common import (
    current_scale,
    emit,
    emit_header,
    mean_or_none,
    save_record,
    sweep_workers,
)

SCALE = current_scale()

ADVERSARIES = {
    "none": (),
    "mute@random": (AdversarySpec(behaviour="mute", count=2, placement="random"),),
    "mute@max_degree": (AdversarySpec(behaviour="mute", count=2, placement="max_degree"),),
    "forge@articulation": (
        AdversarySpec(behaviour="forge", count=2, placement="articulation_adjacent"),
    ),
}


def build_cells():
    """The labeled scenario grid: ≥ 24 cells at every scale."""
    n = 16 if SCALE.name == "default" else 30
    f = 2 if SCALE.name == "default" else 4
    ks = (7, 11) if SCALE.name == "default" else (11, 20)
    runs = max(3, SCALE.runs)
    base = ScenarioSpec(
        name="scenario-sweep",
        topology=TopologySpec(kind="random_regular", n=n, k=ks[0], min_connectivity=2 * f + 1),
        delay=DelaySpec(kind="fixed", mean_ms=50.0),
        modifications=ModificationSet.latency_and_bandwidth_optimized(),
        f=f,
        payload_size=16,
        seed=17,
    )
    labeled = []
    for label, adversaries in ADVERSARIES.items():
        variant = replace(base, adversaries=adversaries)
        for cell in expand_grid(
            variant, {"topology.k": list(ks), "seed": range(17, 17 + runs)}
        ):
            labeled.append((label, cell))
    return labeled


def test_scenario_sweep_parallel_executor(benchmark):
    labeled = build_cells()
    labels = [label for label, _ in labeled]
    cells = [cell for _, cell in labeled]
    assert len(cells) >= 24, "the sweep must cover at least 24 scenario cells"

    workers = max(2, sweep_workers())
    serial = SweepExecutor(workers=1).run(cells)

    def parallel_sweep():
        return SweepExecutor(workers=workers).run(cells)

    parallel = benchmark.pedantic(parallel_sweep, rounds=1, iterations=1)

    # The determinism contract: the pool returns exactly the serial results.
    assert parallel == serial

    emit_header(
        f"Scenario sweep — {len(cells)} cells, {workers} workers (scale={SCALE.name})"
    )
    summary = {}
    for label in dict.fromkeys(labels):
        rows = [r for row_label, r in zip(labels, parallel) if row_label == label]
        latency = mean_or_none([r.latency_ms for r in rows])
        kilobytes = mean_or_none([r.total_bytes / 1000.0 for r in rows])
        delivered = sum(r.all_correct_delivered for r in rows)
        summary[label] = {
            "cells": len(rows),
            "mean_latency_ms": latency,
            "mean_kilobytes": kilobytes,
            "all_correct_delivered": delivered,
        }
        latency_text = f"{latency:7.1f} ms" if latency is not None else "    n/a"
        emit(
            f"{label:>20} | cells={len(rows)} | lat={latency_text} | "
            f"kB={kilobytes:8.1f} | totality {delivered}/{len(rows)}"
        )

    # Safety holds in every cell: ≤ f Byzantine on a (2f+1)-connected graph.
    assert all(r.agreement_holds and r.validity_holds for r in parallel)

    # Multi-broadcast throughput: the same base scenario under a
    # sensor-style repeated workload, timed through the parallel
    # executor.  Rides the same CI artifact as the single-shot sweep so
    # the throughput trajectory is tracked per commit.
    base = cells[0]
    broadcasts = 5 if SCALE.name == "default" else 10
    workload_cells = [
        replace(cell, name="scenario-sweep-workload", adversaries=()).with_workload(
            WorkloadSpec.repeated(0, broadcasts, interval_ms=40.0)
        )
        for cell in expand_grid(base, {"seed": range(17, 17 + max(3, SCALE.runs))})
    ]
    started = time.perf_counter()
    workload_results = SweepExecutor(workers=workers).run(workload_cells)
    workload_seconds = time.perf_counter() - started
    assert all(r.broadcast_count == broadcasts for r in workload_results)
    assert all(r.agreement_holds and r.validity_holds for r in workload_results)
    throughput = mean_or_none(
        [r.throughput_dps for r in workload_results if r.throughput_dps is not None]
    )
    workload_latency = mean_or_none(
        [
            latency
            for r in workload_results
            for latency in r.broadcast_latencies
            if latency is not None
        ]
    )
    emit(
        f"workload mode: {len(workload_cells)} cells × {broadcasts} broadcasts "
        f"in {workload_seconds:.2f}s | "
        f"throughput {throughput:.1f} delivered-broadcasts/s (simulated) | "
        f"mean per-broadcast latency {workload_latency:.1f} ms"
    )

    # CI uploads this record as a per-commit artifact; the backend is
    # part of it so sweeps on other execution backends (spec.backend)
    # stay distinguishable in the perf trajectory.
    backends = sorted({cell.backend for cell in cells})
    save_record(
        "scenario_sweep",
        {
            "scale": SCALE.name,
            "workers": workers,
            "cells": len(cells),
            "backends": backends,
            "workload": {
                "cells": len(workload_cells),
                "broadcasts_per_cell": broadcasts,
                "seconds": workload_seconds,
                "mean_throughput_dps": throughput,
                "mean_broadcast_latency_ms": workload_latency,
                "delivered_broadcasts": sum(
                    r.delivered_broadcast_count for r in workload_results
                ),
            },
            "summary": summary,
        },
    )
