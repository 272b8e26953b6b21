"""Observatory benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/observatory/run.py                      # all five, untraced
    python3 benchmarks/observatory/run.py --trace 1            # all five, traced
    python3 benchmarks/observatory/run.py --workload paper_sparse --seed 1 \\
            --seconds 10 --trace 0                             # one (driver's call)
    python3 benchmarks/observatory/run.py --agree              # two sets, compared

One workload runs in one fresh process (this one when ``--workload`` is
given, a child per workload otherwise), prints every metric by name with
its unit and, as its last line, the JSON object ``BENCHMARK.json``'s
contract asks for.  See README.md for what each metric means.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up time counts from here: before any import of repro.
_STARTED = perf_counter()

#: Simulated statistics: exact for a seed on every workload but
#: ``asyncio_loopback``, whose clock and interleavings are real.
EXACT = ("msgs_per_delivery", "bytes_per_delivery", "latency_ms")
SET_UP_PROBES = 4
DEFAULT_SEED = 1
#: Never run while a change is written; a claimed gain must hold on it too.
HELD_OUT_SEED = 20211


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src`` — only."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"repro was imported from {repro.__file__}, not this checkout")


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "gc_threshold": list(gc.get_threshold()),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (randomized)"),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def set_up_probe(name: str, seed: int) -> None:
    """Set up and tear down once; print how long set-up took."""
    import_program()
    import measure

    measure.set_up(name, seed)
    elapsed = perf_counter() - _STARTED
    measure.tear_down(name)
    print(repr(elapsed))


def set_up_seconds(name: str, seed: int, own: float) -> float:
    """Median set-up time over this process and fresh probe processes.

    Plain wall seconds: imports are file reads and module execution, and
    scaling them by the gauge makes them less steady (18 % against 7 %).
    """
    samples = [own]
    for _ in range(SET_UP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--set-up-probe",
             "--workload", name, "--seed", str(seed)],
            check=True, capture_output=True, text=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in this process and print its block and result line."""
    manifest = load_manifest()
    import_program()
    import layers
    import measure
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    if {"name": name, "why": workload.why} not in manifest["workloads"]:
        raise SystemExit(f"{name}: BENCHMARK.json and workloads.py give different reasons")
    plan = measure.set_up(name, seed)
    own_set_up = perf_counter() - _STARTED
    plan = workloads.screened(
        name, seed, plan,
        lambda spec: measure.engine.simulate_scenario(spec).all_correct_delivered)
    one_pass = measure.PASS_OF_KIND[workload.kind]
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}")
    print(f"   why: {workload.why}")
    print(f"   environment: {json.dumps(environment())}; pool/cluster workers <= "
          f"{measure.WORKERS}")
    try:
        if not trace:
            set_up = set_up_seconds(name, seed, own_set_up)
            if workload.kind == "asyncio":
                set_up += measure.cluster_start_seconds(plan.cells[0])
            passes = measure.repeat_passes(lambda: one_pass(plan), seconds, minimum=2)
            measure.check_passes_agree(workload.kind, passes)
            metrics = {"setup_s": set_up, **measure.end_to_end(workload.kind, passes)}
        else:
            # One untraced pass first: the reference for the overhead.
            untraced = one_pass(plan)
            tracer = Tracer()
            extra = {"serial_cells": workloads.FUZZ_CELLS} if workload.kind == "fuzz" else {}
            passes = measure.repeat_passes(
                lambda: one_pass(plan, tracer, **extra), seconds - untraced.raw_wall, minimum=1)
            measure.check_passes_agree(workload.kind, [untraced, *passes])
            metrics = layers.per_layer(workload.kind, tracer, passes, untraced)
            measure.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            trace_path = measure.RESULTS_DIR / f"trace-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            print(f"   {len(tracer.rows)} spans -> {trace_path.relative_to(ROOT)}")
            print("   self seconds by layer (all traced passes): " + ", ".join(
                f"{layer} {value:.3f}"
                for layer, value in sorted(tracer.self_seconds_by_layer().items())))
    except measure.ExactMismatch as error:
        print(f"exact metric mismatch: {error}", file=sys.stderr)
        return 2
    finally:
        measure.tear_down(name)

    # A per-layer metric that does not apply to this workload reads 0;
    # an end-to-end metric has to be measured on every workload.
    declared = manifest["per_layer" if trace else "end_to_end"]
    unknown = sorted(set(metrics) - {metric["name"] for metric in declared})
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    values = {metric["name"]: metrics[metric["name"]] if not trace
              else metrics.get(metric["name"], 0.0) for metric in declared}

    attempted = sum(one.attempted for one in passes)
    failed = sum(one.failed for one in passes)
    print(f"   {len(passes)} passes, {sum(len(one.results) for one in passes)} cells, "
          f"{sum(len(one.times) for one in passes)} timed samples; "
          f"failed_share {failed}/{attempted}")
    slowdown = layers.host_slowdown(passes)
    print(f"   host ran {slowdown:.2f}x slower than the reference host; scaled times are "
          f"at reference speed (wall = value x {slowdown:.2f})")
    for metric in declared:
        exact = "exact" if metric["name"] in EXACT and workload.kind != "asyncio" else ""
        print(f"   {metric['name']:34s} {values[metric['name']]:16.6f} "
              f"{metric['unit']:8s} {exact}")
    if not trace:
        table = measure.by_label(passes[0])
        if len(table) > 1:
            print("   per label (backend clock and counts, first pass):")
            for label, row in table.items():
                print(f"     {label:8s} msgs/delivery {row['msgs_per_delivery']:12.2f}  "
                      f"bytes/delivery {row['bytes_per_delivery']:14.2f}  latency mean "
                      f"{row['latency_ms']:7.2f} last {row['last_latency_ms']:7.2f} ms")
        for versus, value in measure.versus_bdopt(table).items():
            print(f"   {versus}: lat_bdw is {value:.2f} % of bdopt ({value - 100.0:+.2f} %)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in declared},
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# All workloads, one child process each
# ----------------------------------------------------------------------
def run_set(seed: int, seconds: int, trace: int) -> dict:
    """Run every workload in its own process; returns name -> result line."""
    results = {}
    for name in (entry["name"] for entry in load_manifest()["workloads"]):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        if child.returncode not in (0, 1):
            raise SystemExit(f"{name} exited with {child.returncode}")
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    return results


def write_summary(kind: str, payload: dict) -> None:
    directory = HERE / "results"
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"summary-{kind}.json", "w", encoding="utf-8") as handle:
        json.dump({"environment": environment(), **payload}, handle, indent=2)


def agree(seed: int, seconds: int) -> int:
    """Two sets of runs of the same tree must agree within the bounds."""
    manifest = load_manifest()
    first, second = run_set(seed, seconds, 0), run_set(seed, seconds, 0)
    write_summary("agree", {"seed": seed, "first": first, "second": second})
    outside = 0
    print(f"\n{'workload':18s} {'metric':20s} {'first':>16s} {'second':>16s} "
          f"{'diff':>9s} {'bound':>7s}")
    for name in first:
        for metric in manifest["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]["value"]
            b = second[name]["metrics"][metric["name"]]["value"]
            exact = metric["name"] in EXACT and name != "asyncio_loopback"
            difference = abs(b - a) / abs(a)
            agrees = a == b if exact else difference <= metric["bound"]
            outside += not agrees
            bound = "exact" if exact else format(metric["bound"], ".0%")
            print(f"{name:18s} {metric['name']:20s} {a:16.6f} {b:16.6f} "
                  f"{100 * difference:8.2f}% {bound:>7s}{'' if agrees else '   OUTSIDE'}")
    incorrect = [name for results in (first, second)
                 for name, result in results.items() if not result["correct"]]
    print(f"\n{outside} pairs outside their bound; incorrect runs: {incorrect or 'none'}")
    return 1 if outside or incorrect else 0


def main() -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                             "held out for claims)")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--agree", action="store_true",
                        help="run two untraced sets and compare them within the bounds")
    parser.add_argument("--set-up-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.set_up_probe:
        set_up_probe(args.workload, args.seed)
        return 0
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.agree:
        return agree(args.seed, args.seconds)
    results = run_set(args.seed, args.seconds, args.trace)
    write_summary("traced" if args.trace else "untraced", {"seed": args.seed, "runs": results})
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
