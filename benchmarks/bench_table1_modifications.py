"""Table 1 — impact of each modification MBD.1–12 (synchronous networks).

For every modification the paper reports the range of relative variation
of latency and network consumption ("# bits") across its experiment grid,
for a small (16 B) and a large (1024 B) payload.  MBD.1 is compared
against BDopt; MBD.2–12 are compared against BDopt + MBD.1.
"""

import pytest

from benchmarks.common import (
    current_scale,
    emit,
    emit_header,
    format_range,
    paired_variations,
    save_record,
)

SCALE = current_scale()
PAYLOAD_SIZES = (16, 1024)


@pytest.mark.parametrize("payload_size", PAYLOAD_SIZES)
def test_table1_impact_of_each_modification(benchmark, payload_size):
    """Regenerate the Table 1 rows for one payload size."""

    def study():
        return paired_variations(range(1, 13), payload_size=payload_size, seed=0)

    rows = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(
        f"Table 1 — per-modification impact, synchronous, payload {payload_size} B "
        f"(scale={SCALE.name}, grid={SCALE.modification_grid})"
    )
    emit(f"{'MBD':>4} | {'Lat. var. %':>16} | {'# bits var. %':>16}")
    record = {}
    for index, variations in rows.items():
        latencies = variations["latency_variation_percent"]
        sizes = variations["bytes_variation_percent"]
        emit(f"{index:>4} | {format_range(latencies):>16} | {format_range(sizes):>16}")
        record[f"mbd{index}"] = variations
    save_record(f"table1_payload{payload_size}_sync", {
        "scale": SCALE.name,
        "payload_size": payload_size,
        "grid": list(SCALE.modification_grid),
        "rows": record,
    })

    # Shape checks mirroring the paper's headline observations: MBD.1 slashes
    # network consumption (−61/−68% at 16 B, −97/−98% at 1024 B in the paper;
    # the exact magnitude at 16 B depends on the header/payload ratio).
    mbd1_bytes = record["mbd1"]["bytes_variation_percent"]
    threshold = -20.0 if payload_size <= 64 else -80.0
    assert max(mbd1_bytes) < threshold, "MBD.1 should slash network consumption"
    mbd7_bytes = record["mbd7"]["bytes_variation_percent"]
    assert min(mbd7_bytes) < 0.0, "MBD.7 should reduce network consumption"
