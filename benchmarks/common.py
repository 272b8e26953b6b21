"""Shared infrastructure of the benchmark harness.

Every benchmark module reproduces one table or figure of the paper's
evaluation: it runs the relevant parameter sweep, prints the same rows or
series the paper reports, and appends a JSON record to
``benchmarks/results/`` that EXPERIMENTS.md summarizes.

Two scales are supported, selected with the ``REPRO_SCALE`` environment
variable:

* ``default`` — a scaled-down grid (N ≤ 20) that runs the full benchmark
  suite in a few minutes on a laptop;
* ``paper`` — the paper's parameters (N up to 50, f up to 10), which takes
  much longer because the unoptimized baseline exchanges tens of
  thousands of messages per broadcast.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.modifications import ModificationSet
from repro.metrics.report import relative_variation_percent
from repro.runner.parallel import SweepExecutor
from repro.scenarios import DelaySpec, ScenarioResult, ScenarioSpec, TopologySpec, seed_cells

RESULTS_DIR = Path(__file__).parent / "results"

#: Marker used by every benchmark when printing reproduced rows.
ROW_PREFIX = "[repro]"


@dataclass(frozen=True)
class Scale:
    """Benchmark scale parameters."""

    name: str
    #: (n, k, f) grid for the per-modification studies (Table 1, Figs 7-10).
    modification_grid: Tuple[Tuple[int, int, int], ...]
    #: Parameters of the Fig. 4 study (selected modifications vs k).
    fig4_n: int
    fig4_f: int
    fig4_ks: Tuple[int, ...]
    #: Parameters of the Fig. 5 study (composite configurations vs k).
    fig5_n: int
    fig5_f: int
    fig5_ks: Tuple[int, ...]
    #: N values of the Fig. 6 scaling study.
    fig6_ns: Tuple[int, ...]
    #: N values of the Sec. 7.3 CPU/memory study.
    sec73_ns: Tuple[int, ...]
    #: Number of seeds per experiment point.
    runs: int


DEFAULT_SCALE = Scale(
    name="default",
    modification_grid=((16, 7, 2), (16, 11, 2)),
    fig4_n=20,
    fig4_f=3,
    fig4_ks=(8, 12, 16, 19),
    fig5_n=20,
    fig5_f=3,
    fig5_ks=(8, 12, 16, 19),
    fig6_ns=(15, 20),
    sec73_ns=(10, 15, 20),
    runs=2,
)

PAPER_SCALE = Scale(
    name="paper",
    modification_grid=((30, 11, 4), (30, 20, 4), (50, 21, 9)),
    fig4_n=50,
    fig4_f=9,
    fig4_ks=(20, 25, 30, 35, 40, 45, 49),
    fig5_n=50,
    fig5_f=10,
    fig5_ks=(21, 25, 30, 35, 40, 45, 49),
    fig6_ns=(30, 50),
    sec73_ns=(10, 30, 50),
    runs=5,
)


def current_scale() -> Scale:
    """The scale selected by the ``REPRO_SCALE`` environment variable."""
    if os.environ.get("REPRO_SCALE", "default").lower() == "paper":
        return PAPER_SCALE
    return DEFAULT_SCALE


def sweep_workers(default: int = 2) -> int:
    """Worker count for the parallel sweep executor.

    Controlled by the ``REPRO_WORKERS`` environment variable; the default
    keeps the benchmarks exercising the multiprocessing path (``workers >
    1``) even on small machines.
    """
    try:
        return max(1, int(os.environ.get("REPRO_WORKERS", default)))
    except ValueError:
        return default


def mean_or_none(values) -> Optional[float]:
    """Mean of the non-``None`` values, or ``None`` when there are none."""
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def paper_cell(
    n: int,
    k: int,
    f: int,
    modifications: ModificationSet,
    *,
    payload_size: int,
    seed: int,
    synchronous: bool = True,
    protocol: str = "cross_layer",
    name: str = "paper-point",
) -> ScenarioSpec:
    """One measurement of Sec. 7.1 as a scenario cell.

    A random ``k``-regular graph regenerated until it is
    ``min(k, 2f+1)``-connected (plain ``bracha`` needs a complete graph
    instead), the fixed 50 ms or Normal(50, 50) ms delay model, one
    broadcast from process 0, and the 1 Gb/s shared medium of the paper's
    single-host ``netem`` testbed.
    """
    if protocol == "bracha":
        topology = TopologySpec(kind="complete", n=n)
    else:
        topology = TopologySpec(
            kind="random_regular", n=n, k=k, min_connectivity=min(k, 2 * f + 1)
        )
    return ScenarioSpec(
        name=name,
        topology=topology,
        delay=DelaySpec(
            kind="fixed" if synchronous else "normal", mean_ms=50.0, std_ms=50.0
        ),
        protocol=protocol,
        modifications=modifications,
        f=f,
        payload_size=payload_size,
        seed=seed,
        shared_bandwidth_bps=1e9,
    )


def run_points(
    points: Iterable[ScenarioSpec],
) -> Dict[ScenarioSpec, List[ScenarioResult]]:
    """Run every point over the scale's seeds in one parallel sweep.

    Returns ``{point: [one result per seed]}``.  Equal points are run
    once, however many studies compare against them (every Table 1 row
    but the first shares the BDopt + MBD.1 reference).
    """
    unique = list(dict.fromkeys(points))
    runs = current_scale().runs
    cells = [cell for point in unique for cell in seed_cells(point, runs)]
    results = SweepExecutor(workers=sweep_workers()).run(cells)
    return {
        point: results[index * runs : (index + 1) * runs]
        for index, point in enumerate(unique)
    }


def mean_latency_and_kilobytes(
    results: Sequence[ScenarioResult],
) -> Tuple[Optional[float], Optional[float]]:
    """Mean latency (ms, over the runs that delivered) and consumption (kB)."""
    return (
        mean_or_none([r.latency_ms for r in results]),
        mean_or_none([r.total_bytes / 1000.0 for r in results]),
    )


def connectivity_series(
    configurations: Mapping[str, ModificationSet],
    n: int,
    f: int,
    ks: Sequence[int],
    *,
    seed: int,
) -> Dict[str, List[Dict[str, Optional[float]]]]:
    """Mean latency and consumption of each configuration at every ``k``.

    The Figs. 4–5 series: 1 KiB payloads on the synchronous model, one
    ``{"k", "latency_ms", "kilobytes"}`` point per connectivity.
    """
    points = {
        (name, k): paper_cell(n, k, f, modifications, payload_size=1024, seed=seed)
        for name, modifications in configurations.items()
        for k in ks
    }
    results = run_points(points.values())
    series = {}
    for name in configurations:
        series[name] = []
        for k in ks:
            latency, kilobytes = mean_latency_and_kilobytes(results[points[name, k]])
            series[name].append({"k": k, "latency_ms": latency, "kilobytes": kilobytes})
    return series


def paired_variations(
    indices: Iterable[int],
    *,
    payload_size: int,
    seed: int,
    synchronous: bool = True,
) -> Dict[int, Dict[str, List[float]]]:
    """Relative variation of each single modification vs. its reference.

    MBD.1 is compared against BDopt, MBD.2–12 against BDopt + MBD.1.
    Candidate and reference run on the same topologies and seeds at
    every ``(n, k, f)`` of the scale's modification grid.  Each index
    maps to ``{"latency_variation_percent", "bytes_variation_percent"}``
    lists with one entry per grid point: the variation (in %) of mean
    latency — over the seeds where both delivered; points where none
    did are left out — and of mean bytes, the per-setting measurements
    Table 1 and Figs. 7–10 summarize.
    """
    studies = {
        index: (
            ModificationSet.dolev_optimized()
            if index == 1
            else ModificationSet.bdopt_with_mbd1(),
            ModificationSet.single_mbd(index),
        )
        for index in indices
    }
    grid = current_scale().modification_grid

    def point(modifications: ModificationSet, n: int, k: int, f: int) -> ScenarioSpec:
        return paper_cell(
            n, k, f, modifications,
            payload_size=payload_size, seed=seed, synchronous=synchronous,
        )

    results = run_points(
        point(modifications, *nkf)
        for pair in studies.values()
        for modifications in pair
        for nkf in grid
    )
    table = {}
    for index, (reference, candidate) in studies.items():
        latency, size = [], []
        for nkf in grid:
            ref_runs = results[point(reference, *nkf)]
            cand_runs = results[point(candidate, *nkf)]
            delivered = [
                (ref.latency_ms, cand.latency_ms)
                for ref, cand in zip(ref_runs, cand_runs)
                if ref.latency_ms is not None and cand.latency_ms is not None
            ]
            if delivered:
                latency.append(
                    relative_variation_percent(
                        mean_or_none([cand for _, cand in delivered]),
                        mean_or_none([ref for ref, _ in delivered]),
                    )
                )
            size.append(
                relative_variation_percent(
                    mean_or_none([r.total_bytes for r in cand_runs]),
                    mean_or_none([r.total_bytes for r in ref_runs]),
                )
            )
        table[index] = {
            "latency_variation_percent": latency,
            "bytes_variation_percent": size,
        }
    return table


def emit(line: str) -> None:
    """Print a reproduced table/figure row (always visible under pytest -s)."""
    print(f"{ROW_PREFIX} {line}", file=sys.stderr)


def emit_header(title: str) -> None:
    """Print a section header for one table or figure."""
    emit("")
    emit("=" * 72)
    emit(title)
    emit("=" * 72)


def save_record(name: str, record: Dict) -> Path:
    """Persist a benchmark record under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)
    return path


def format_range(values: Sequence[float]) -> str:
    """Render a ``[min, max]`` interval like Table 1."""
    if not values:
        return "[n/a]"
    return f"[{min(values):+.1f}, {max(values):+.1f}]"


def k_grid_for(n: int, f: int, ks: Sequence[int]) -> List[int]:
    """Filter a connectivity grid to feasible values (2f+1 ≤ k < n, n*k even)."""
    feasible = []
    for k in ks:
        if k >= n or k < 2 * f + 1:
            continue
        if (n * k) % 2 != 0:
            k = k - 1 if k - 1 >= 2 * f + 1 else k + 1
            if k >= n or (n * k) % 2 != 0:
                continue
        if k not in feasible:
            feasible.append(k)
    return feasible
