"""Figs. 7–10 — per-modification box plots of network-consumption and latency impact.

The appendix figures summarize, over all experiment settings, the relative
impact (in %) of each single modification on network consumption (Figs. 7
and 8) and latency (Figs. 9 and 10), for synchronous and asynchronous
networks, with 1 KiB payloads.  Each row prints the five statistics the
paper annotates: [2.5%, Q1, median, Q3, 97.5%].
"""

import pytest

from repro.metrics.report import boxplot_stats

from benchmarks.common import (
    current_scale,
    emit,
    emit_header,
    paired_variations,
    save_record,
)

SCALE = current_scale()


def _collect(synchronous: bool):
    variations = paired_variations(
        range(1, 13), payload_size=1024, seed=41, synchronous=synchronous
    )
    return {
        index: {
            "bytes": columns["bytes_variation_percent"],
            "latency": columns["latency_variation_percent"],
        }
        for index, columns in variations.items()
    }


def _report(impacts, *, figure_bytes: str, figure_latency: str, suffix: str):
    emit_header(f"{figure_bytes} — network consumption impact (%) per modification ({suffix})")
    for index, data in impacts.items():
        stats = boxplot_stats(data["bytes"]) if data["bytes"] else None
        emit(f"MBD.{index:<2} {stats.format() if stats else '[n/a]'}")
    emit_header(f"{figure_latency} — latency impact (%) per modification ({suffix})")
    for index, data in impacts.items():
        stats = boxplot_stats(data["latency"]) if data["latency"] else None
        emit(f"MBD.{index:<2} {stats.format() if stats else '[n/a]'}")


@pytest.mark.parametrize("synchronous", [True, False], ids=["sync", "async"])
def test_fig7_to_10_per_modification_boxplots(benchmark, synchronous):
    impacts = benchmark.pedantic(_collect, args=(synchronous,), rounds=1, iterations=1)
    if synchronous:
        _report(impacts, figure_bytes="Fig. 7", figure_latency="Fig. 9", suffix="synchronous")
        name = "fig7_fig9_sync_boxplots"
    else:
        _report(impacts, figure_bytes="Fig. 8", figure_latency="Fig. 10", suffix="asynchronous")
        name = "fig8_fig10_async_boxplots"
    save_record(name, {"scale": SCALE.name, "impacts": impacts})

    # Shape check: the most important modification for network consumption is
    # MBD.1, with a median impact below -90% (the paper reports ~ -98%).
    from statistics import median

    assert median(impacts[1]["bytes"]) < -90.0
