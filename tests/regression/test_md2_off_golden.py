"""Pinned runs with MD.2 off: the runs that read a satisfied verifier.

With MD.2 on, a process discards its stored paths and combinations as soon
as it delivers, so the other goldens never read what a *satisfied*
``DisjointPathVerifier`` still holds.  With MD.2 off nothing is discarded
and the simulator's end-of-run ``state_size_estimate()`` sweep reads every
verifier's combinations — including those the satisfying ``add_path``
call left pending.  ``golden/md2_off.json`` holds, per cell,
``(peak_state_size, message_count, total_bytes, latency_ms)``.

The file was recorded once, from the verifier as it stood before a
satisfying ``add_path`` stopped growing the combination levels eagerly,
and has no regenerate path on purpose: if a cell fails, the verifier's
stored state (or something upstream of it) changed.
"""

import json
from pathlib import Path

import pytest

from repro.core.modifications import ModificationSet
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, run_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden" / "md2_off.json").read_text())

_MD2 = "md2_empty_path_after_delivery"

MODIFICATIONS = {
    "none": ModificationSet.none(),
    "dolev_optimized_without_md2": ModificationSet.dolev_optimized().with_disabled(_MD2),
    "latency_and_bandwidth_optimized_without_md2": (
        ModificationSet.latency_and_bandwidth_optimized().with_disabled(_MD2)
    ),
}


def _cells():
    cells = {}
    for protocol in ("cross_layer", "bracha_dolev"):
        for modifications, mods in MODIFICATIONS.items():
            for delay in ("fixed", "normal"):
                for seed in (1, 2):
                    key = f"{protocol} {modifications} {delay} seed={seed}"
                    cells[key] = ScenarioSpec(
                        name="md2-off",
                        topology=TopologySpec(
                            kind="random_regular", n=10, k=5, min_connectivity=5
                        ),
                        delay=DelaySpec(kind=delay, mean_ms=50.0, std_ms=50.0),
                        protocol=protocol,
                        modifications=mods,
                        f=2,
                        payload_size=16,
                        seed=seed,
                    )
    return cells


CELLS = _cells()


def observed(spec):
    result = run_scenario(spec)
    assert result.all_correct_delivered
    return [
        result.metrics.peak_state_size,
        result.message_count,
        result.total_bytes,
        result.latency_ms,
    ]


def test_every_golden_cell_is_spelled_out():
    assert GOLDEN["columns"] == [
        "peak_state_size", "message_count", "total_bytes", "latency_ms"
    ]
    assert sorted(GOLDEN["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("key", sorted(CELLS))
def test_satisfied_verifiers_hold_the_recorded_state(key):
    assert observed(CELLS[key]) == GOLDEN["cells"][key]
