"""Pinned paper points: what one Sec. 7.1 measurement *is*.

``golden/paper_points.json`` holds ``(latency_ms, total_bytes,
message_count, peak_state_size)`` as the legacy ``run_experiment`` engine
returned them for a fixed set of ``(N, k, f)`` points, recorded right
before that engine was deleted.  The scenario engine must reproduce every
number exactly from the specs spelled out below — a random ``k``-regular
graph regenerated until it is ``min(k, 2f+1)``-connected (a complete
graph for plain Bracha), the fixed 50 ms or Normal(50, 50) ms delay model,
one broadcast from process 0 over a shared 1 Gb/s medium.  The specs are
written here, not imported from ``benchmarks/common.py``, so the test pins
the paper point itself rather than whatever the benchmark helper builds.
"""

import json
from pathlib import Path

import pytest

from repro.core.modifications import ModificationSet
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, run_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "paper_points.json").read_text()
)

MODIFICATIONS = {
    "dolev_optimized": ModificationSet.dolev_optimized(),
    "bdopt_with_mbd1": ModificationSet.bdopt_with_mbd1(),
    "single_mbd7": ModificationSet.single_mbd(7),
    "all_enabled": ModificationSet.all_enabled(),
}


def paper_point(protocol, n, k, f, synchronous, modifications, payload_size, seed):
    if protocol == "bracha":
        topology = TopologySpec(kind="complete", n=n)
    else:
        topology = TopologySpec(
            kind="random_regular", n=n, k=k, min_connectivity=min(k, 2 * f + 1)
        )
    return ScenarioSpec(
        name="paper-point",
        topology=topology,
        delay=DelaySpec(
            kind="fixed" if synchronous else "normal", mean_ms=50.0, std_ms=50.0
        ),
        protocol=protocol,
        modifications=MODIFICATIONS[modifications],
        f=f,
        payload_size=payload_size,
        seed=seed,
        shared_bandwidth_bps=1e9,
    )


def _points():
    points = {}
    for n, k, f in ((10, 5, 2), (16, 7, 2), (12, 7, 2)):
        for synchronous in (True, False):
            for modifications in MODIFICATIONS:
                for payload_size in (16, 1024):
                    for seed in (0, 41):
                        key = (
                            f"cross_layer n={n} k={k} f={f} "
                            f"{'sync' if synchronous else 'async'} "
                            f"{modifications} {payload_size}B seed={seed}"
                        )
                        points[key] = paper_point(
                            "cross_layer", n, k, f, synchronous,
                            modifications, payload_size, seed,
                        )
    points["bracha_dolev n=10 k=5 f=2 sync dolev_optimized 1024B seed=71"] = paper_point(
        "bracha_dolev", 10, 5, 2, True, "dolev_optimized", 1024, 71
    )
    points["bracha n=7 k=4 f=2 async dolev_optimized 16B seed=5"] = paper_point(
        "bracha", 7, 4, 2, False, "dolev_optimized", 16, 5
    )
    return points


POINTS = _points()


def test_every_golden_point_is_spelled_out():
    assert GOLDEN["columns"] == [
        "latency_ms", "total_bytes", "message_count", "peak_state_size"
    ]
    assert sorted(GOLDEN["points"]) == sorted(POINTS)


@pytest.mark.parametrize("key", sorted(POINTS))
def test_scenario_engine_reproduces_the_legacy_numbers(key):
    result = run_scenario(POINTS[key])
    assert result.all_correct_delivered
    assert [
        result.latency_ms,
        result.total_bytes,
        result.message_count,
        result.metrics.peak_state_size,
    ] == GOLDEN["points"][key]
