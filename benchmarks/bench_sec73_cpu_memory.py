"""Sec. 7.3 — CPU and memory consumption proxies.

The paper measures, with 16 B payloads, the per-process memory consumption
for N = 10, 30 and 50 and attributes its growth to the storage of received
transmission paths.  This benchmark runs one Dolev-optimized (MD.1–5)
cell per N and prints, per row:

* ``peak state`` / ``total state`` — the largest and the summed
  per-process ``state_size_estimate()`` (stored paths, path combinations
  and quorum entries), read once after the cell's last event;
* ``py peak MB`` — the Python-level peak allocation of the whole cell,
  measured with ``tracemalloc`` (the one nondeterministic column);
* ``messages`` — the messages the cell sent.

It reports no CPU measure of its own; ``messages`` is the only work count.
"""

import tracemalloc


from repro.core.modifications import ModificationSet
from repro.runner.parallel import SweepExecutor

from benchmarks.common import current_scale, emit, emit_header, paper_cell, save_record

SCALE = current_scale()


def test_sec73_state_and_memory_growth(benchmark):
    def study():
        rows = []
        for n in SCALE.sec73_ns:
            f = max(1, (n - 1) // 6)
            k = max(2 * f + 1, n // 3)
            if (n * k) % 2:
                k += 1
            cell = paper_cell(
                n, k, f, ModificationSet.dolev_optimized(), payload_size=16, seed=51
            )
            # One worker: the cell must run in this process for
            # tracemalloc to see its allocations.
            tracemalloc.start()
            (result,) = SweepExecutor(workers=1).run([cell])
            _, python_peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "f": f,
                    "peak_state_entries": result.metrics.peak_state_size,
                    "total_state_entries": result.metrics.total_state_size,
                    "python_peak_bytes": python_peak,
                    "messages": result.message_count,
                }
            )
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)

    emit_header(f"Sec. 7.3 — memory/CPU proxies, 16 B payload (scale={SCALE.name})")
    emit(f"{'N':>4} {'k':>4} {'f':>3} | {'peak state':>12} {'total state':>12} | {'py peak MB':>10} | {'messages':>9}")
    for row in rows:
        emit(
            f"{row['n']:>4} {row['k']:>4} {row['f']:>3} | "
            f"{row['peak_state_entries']:>12} {row['total_state_entries']:>12} | "
            f"{row['python_peak_bytes'] / 1e6:>10.1f} | {row['messages']:>9}"
        )
    save_record("sec73_cpu_memory", {"scale": SCALE.name, "rows": rows})

    # Shape check: memory (stored paths) grows with the system size, as the
    # paper observes (47 MB -> 618 MB from N=10 to N=50 in their C++ runs).
    peaks = [row["peak_state_entries"] for row in rows]
    assert peaks == sorted(peaks)
    assert peaks[-1] > peaks[0]
