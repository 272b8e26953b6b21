"""Fig. 6a / 6b — improvement of the lat. and bdw. configurations vs BDopt+MBD.1.

The paper plots, for N = 30 and N = 50 with a 1024 B payload, the relative
variation (in %) of network consumption and latency of the *lat.* and
*bdw.* configurations over BDopt + MBD.1, as a function of connectivity.

Ported to the scenario engine: every (configuration, k, seed) point is
one scenario cell, and candidate and reference cells for the whole figure
are fanned out together through the parallel sweep executor.
"""

from repro.core.modifications import ModificationSet
from repro.metrics.report import relative_variation_percent
from repro.runner.parallel import SweepExecutor
from repro.scenarios import seed_cells

from benchmarks.common import (
    current_scale,
    emit,
    emit_header,
    k_grid_for,
    mean_latency_and_kilobytes,
    paper_cell,
    save_record,
    sweep_workers,
)

SCALE = current_scale()

CONFIGURATIONS = {
    "Lat.": ModificationSet.latency_optimized(),
    "Bdw.": ModificationSet.bandwidth_optimized(),
}


def _cells(n, k, f, mods):
    base = paper_cell(n, k, f, mods, payload_size=1024, seed=31, name=f"fig6-n{n}-k{k}")
    return seed_cells(base, SCALE.runs)


def fig6_layout():
    """Lay out every cell of the figure at the current scale.

    Returns ``(points, cells)``: each point is ``(series name, n, k,
    reference slice, candidate slice)`` indexing into ``cells``.
    """
    points = []  # (series name, n, k, slice of reference cells, slice of candidate cells)
    cells = []
    for n in SCALE.fig6_ns:
        f = max(1, n // 7)  # mid-range f, as in the paper's choice
        ks = k_grid_for(n, f, tuple(sorted({max(2 * f + 1, n // 3), n // 2, n - n // 4})))
        for k in ks:
            # One shared reference slice per (n, k): both candidate
            # configurations compare against the same runs.
            reference = _cells(n, k, f, ModificationSet.bdopt_with_mbd1())
            ref_slice = slice(len(cells), len(cells) + len(reference))
            cells.extend(reference)
            for name, mods in CONFIGURATIONS.items():
                candidate = _cells(n, k, f, mods)
                cand_slice = slice(len(cells), len(cells) + len(candidate))
                cells.extend(candidate)
                points.append((f"{name}, N={n}", n, k, ref_slice, cand_slice))
    return points, cells


def test_fig6_scaling_with_number_of_processes(benchmark):
    # Reference and candidates on the same topologies and seeds, run in
    # one parallel sweep.
    points, cells = fig6_layout()

    executor = SweepExecutor(workers=sweep_workers())

    def study():
        return executor.run(cells)

    results = benchmark.pedantic(study, rounds=1, iterations=1)

    series = {}
    for series_name, n, k, ref_slice, cand_slice in points:
        ref_lat, ref_kb = mean_latency_and_kilobytes(results[ref_slice])
        cand_lat, cand_kb = mean_latency_and_kilobytes(results[cand_slice])
        series.setdefault(series_name, []).append(
            {
                "k": k,
                "bytes_variation_percent": relative_variation_percent(cand_kb, ref_kb),
                "latency_variation_percent": (
                    relative_variation_percent(cand_lat, ref_lat)
                    if ref_lat and cand_lat
                    else None
                ),
            }
        )

    emit_header(f"Fig. 6a — network consumption variation (%) vs k (scale={SCALE.name})")
    for name, rows in series.items():
        emit(
            f"{name:>14} | "
            + " | ".join(
                f"k={p['k']}: {p['bytes_variation_percent']:+6.1f}%"
                if p["bytes_variation_percent"] is not None
                else f"k={p['k']}: n/a"
                for p in rows
            )
        )
    emit_header("Fig. 6b — latency variation (%) vs k")
    for name, rows in series.items():
        emit(
            f"{name:>14} | "
            + " | ".join(
                f"k={p['k']}: {p['latency_variation_percent']:+6.1f}%"
                if p["latency_variation_percent"] is not None
                else f"k={p['k']}: n/a"
                for p in rows
            )
        )
    save_record("fig6_scaling", {"scale": SCALE.name, "series": series})

    # Shape check: the bdw. configuration reduces network consumption at the
    # largest N (the paper reports around -40% to -55%).
    largest_n = max(SCALE.fig6_ns)
    bdw_points = series[f"Bdw., N={largest_n}"]
    assert all(
        p["bytes_variation_percent"] is not None and p["bytes_variation_percent"] < 0
        for p in bdw_points
    )
