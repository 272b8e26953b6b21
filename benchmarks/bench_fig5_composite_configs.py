"""Fig. 5a / 5b — composite configurations (lat., bdw., lat.&bdw.) vs k.

The paper compares, for (N, f) = (50, 10) and a 1024 B payload, the
latency and network consumption of BDopt+MBD.1 with the three composite
configurations of Sec. 7.4 as the connectivity k grows.
"""


from repro.core.modifications import ModificationSet

from benchmarks.common import (
    connectivity_series,
    current_scale,
    emit,
    emit_header,
    k_grid_for,
    save_record,
)

SCALE = current_scale()

CONFIGURATIONS = {
    "BDopt + MBD.1": ModificationSet.bdopt_with_mbd1(),
    "Lat.": ModificationSet.latency_optimized(),
    "Bdw.": ModificationSet.bandwidth_optimized(),
    "Lat. & Bdw.": ModificationSet.latency_and_bandwidth_optimized(),
}


def test_fig5_composite_configurations_vs_connectivity(benchmark):
    n, f = SCALE.fig5_n, SCALE.fig5_f
    ks = k_grid_for(n, f, SCALE.fig5_ks)

    def study():
        return connectivity_series(CONFIGURATIONS, n, f, ks, seed=23)

    series = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(f"Fig. 5a — latency (ms) vs connectivity, (N,f)=({n},{f}), 1024 B")
    emit(f"{'configuration':>16} | " + " | ".join(f"k={k:>3}" for k in ks))
    for name, points in series.items():
        emit(f"{name:>16} | " + " | ".join(f"{p['latency_ms']:>5.0f}" for p in points))
    emit_header(f"Fig. 5b — network consumption (kB) vs connectivity, (N,f)=({n},{f})")
    for name, points in series.items():
        emit(f"{name:>16} | " + " | ".join(f"{p['kilobytes']:>5.1f}" for p in points))
    save_record("fig5_composite_configurations", {"scale": SCALE.name, "n": n, "f": f, "series": series})

    # Shape check: the composite configurations reduce network consumption
    # compared to BDopt + MBD.1 (Fig. 5b shows ~190 kB -> ~90 kB at k=30).
    # At very high connectivity (k close to N-1) the suppression rules have
    # little traffic left to remove, so only require strict improvement at
    # the lowest connectivity and no regression elsewhere.
    for index in range(len(ks)):
        base = series["BDopt + MBD.1"][index]["kilobytes"]
        assert series["Bdw."][index]["kilobytes"] <= base * 1.01
        assert series["Lat. & Bdw."][index]["kilobytes"] <= base * 1.01
    lowest_k_base = series["BDopt + MBD.1"][0]["kilobytes"]
    assert series["Bdw."][0]["kilobytes"] < lowest_k_base
    assert series["Lat. & Bdw."][0]["kilobytes"] < lowest_k_base
