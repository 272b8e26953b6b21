#!/usr/bin/env python3
"""Run the same declarative scenario on both execution backends.

The scenario engine is backend-pluggable: a ``ScenarioSpec`` declares
whether it runs on the deterministic discrete-event simulator or on the
asyncio TCP runtime (real sockets on localhost).  This demo executes a
no-fault scenario and a crash-fault variant on both backends and shows
that the verdicts — the safety oracle's violations (none, on an honest
run) and, per broadcast, who delivered and whether every correct process
did — are identical, while the timings differ (simulated milliseconds
vs the wall clock).

Run with:  python examples/backend_conformance.py
"""

from dataclasses import replace

from repro import CrashAt, ScenarioSpec, TopologySpec, run_conformance


def show(spec: ScenarioSpec) -> None:
    report = run_conformance(spec)
    latencies = dict(report.latencies_ms)
    print(f"scenario {spec.name!r} ({report.mode} mode):")
    for backend, verdict in report.verdicts:
        latency_ms = latencies[backend]
        latency = f"{latency_ms:8.1f} ms" if latency_ms is not None else "     n/a"
        print(f"  {backend:>10}: correct={verdict.correct_processes} latency={latency}")
        for broadcast in verdict.broadcasts:
            print(
                f"    broadcast ({broadcast.source}, {broadcast.bid}): "
                f"delivered={broadcast.delivered_correct} "
                f"totality={broadcast.all_correct_delivered}"
            )
        for invariant, detail in verdict.safety:
            print(f"    VIOLATION [{invariant}] {detail}")
        if not verdict.safety:
            print("    safety violations: none")
    print(f"  verdicts agree: {report.agree}")
    for mismatch in report.mismatches():
        print(f"    MISMATCH {mismatch}")
    print()


def main() -> None:
    base = ScenarioSpec(
        name="conformance-demo",
        topology=TopologySpec(kind="harary", n=6, k=4),
        f=1,
        seed=5,
    )
    show(base)
    show(
        replace(
            base,
            name="conformance-demo-crash",
            faults=(CrashAt(pid=4, time_ms=0.0),),
        )
    )


if __name__ == "__main__":
    main()
