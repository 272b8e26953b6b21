"""Ablation — the value of MD.1–5 and of the cross-layer combination.

Not a table of the paper, but a sanity study DESIGN.md calls out: it
compares, on a small partially connected network, (i) the unmodified
layered Bracha-Dolev combination (*BD*), (ii) the layered combination
with Bonomi et al.'s optimizations (*BDopt*), (iii) the cross-layer
implementation of BDopt, and (iv) the cross-layer protocol with every
MBD modification.  It regenerates the motivation for the paper's claim
that BD does not scale and BDopt is the right baseline.
"""


from repro.core.modifications import ModificationSet
from repro.runner.parallel import SweepExecutor

from benchmarks.common import (
    current_scale,
    emit,
    emit_header,
    paper_cell,
    save_record,
    sweep_workers,
)

SCALE = current_scale()

VARIANTS = {
    "BD (layered, unmodified)": ("bracha_dolev", ModificationSet.none()),
    "BDopt (layered, MD.1-5)": ("bracha_dolev", ModificationSet.dolev_optimized()),
    "BDopt (cross-layer)": ("cross_layer", ModificationSet.dolev_optimized()),
    "Cross-layer, all MBD": ("cross_layer", ModificationSet.all_enabled()),
}


def test_ablation_baseline_comparison(benchmark):
    n, k, f = 10, 5, 2  # kept small: plain BD floods exponentially

    def study():
        cells = [
            paper_cell(n, k, f, mods, payload_size=1024, seed=71, protocol=protocol)
            for protocol, mods in VARIANTS.values()
        ]
        results = SweepExecutor(workers=sweep_workers()).run(cells)
        return {
            name: {
                "latency_ms": result.latency_ms,
                "messages": result.message_count,
                "kilobytes": result.total_bytes / 1000.0,
                "all_delivered": result.all_correct_delivered,
            }
            for name, result in zip(VARIANTS, results)
        }

    rows = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(f"Ablation — baselines on N={n}, k={k}, f={f}, 1024 B payload")
    emit(f"{'variant':>26} | {'latency':>8} | {'messages':>9} | {'kB':>10}")
    for name, row in rows.items():
        emit(
            f"{name:>26} | {row['latency_ms']:>7.0f} | {row['messages']:>9} | {row['kilobytes']:>10.1f}"
        )
    save_record("ablation_baselines", {"rows": rows})

    assert all(row["all_delivered"] for row in rows.values())
    # MD.1-5 are what make the combination practical (fewer messages), and
    # the MBD modifications further reduce the bytes on the wire.
    assert rows["BDopt (layered, MD.1-5)"]["messages"] < rows["BD (layered, unmodified)"]["messages"]
    assert rows["Cross-layer, all MBD"]["kilobytes"] < rows["BDopt (cross-layer)"]["kilobytes"]
