"""Paired base/change runs of one observatory workload, with a verdict.

    python3 benchmarks/pairs.py --base HEAD --workload fuzz_sweep --seed 1
    python3 benchmarks/pairs.py --base main --workload paper_dense --pairs 10 --table

Exports ``--base`` with ``git archive`` into a temporary directory
(the committed files only, nothing registered in ``.git``, removed on
exit), then alternates which side runs first over ``--pairs`` pairs of
``benchmarks/observatory/run.py --workload W --seed S`` at the run
length ``BENCHMARK.json`` fixes (``run_seconds``) — the base from that
export, the change from this checkout as it is on disk, committed or
not — and reads the JSON result line of each run.
Per end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartiles, the pairs the change won (ties count for neither side) and
a verdict:

* **gain** — the change won at least nine tenths of the pairs and the
  medians lie further apart than the base's own quartiles;
* **regression** — the change's median is worse than the base's by more
  than the metric's bound;
* **unresolved** — neither, and the base's quartile spread is wider than
  the bound, so "no regression" cannot be read off these runs;
* **within bound** — neither, and the spread is narrower than the bound
  (**equal** when every run of both sides read the same value).

The observatory already scales its timings to a reference host speed
(``observatory/calibration.py``), so the values are compared as printed.
``--table`` adds every run as a Markdown table for the README.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "observatory" / "run.py"
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced run in ``checkout``; metric name -> value."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or line["failed"]:
        raise SystemExit(f"{checkout}: {workload} failed {line['failed']}/{line['attempted']}")
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile."""
    return statistics.quantiles(values, n=4, method="inclusive")


def shown(value: float) -> str:
    """Four significant digits, without an exponent for large values."""
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def oriented(values: Sequence[float], better: str) -> List[float]:
    """``values`` with the sign that makes larger mean better."""
    return [value if better == "higher" else -value for value in values]


def pairs_won(base: Sequence[float], change: Sequence[float]) -> int:
    return sum(c > b for b, c in zip(base, change))


def verdict(base: Sequence[float], change: Sequence[float], bound: float) -> str:
    """Judge one metric's oriented runs, pair ``i`` being ``base[i]``, ``change[i]``."""
    if len(set(base) | set(change)) == 1:
        return "equal"
    low, base_median, high = quartiles(base)
    advance = statistics.median(change) - base_median
    if pairs_won(base, change) >= WIN_SHARE * len(base) and advance > high - low:
        return "gain"
    if -advance > bound * abs(base_median):
        return "regression"
    if high - low > bound * abs(base_median) and min(change) <= max(base):
        return "unresolved"
    return "within bound"


def main(argv: Sequence[str] = ()) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git ref of the parent (default HEAD)")
    parser.add_argument("--workload", required=True,
                        choices=[entry["name"] for entry in manifest["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--table", action="store_true", help="print every run as Markdown")
    args = parser.parse_args(argv or None)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    seconds = manifest["run_seconds"]
    runs: Dict[str, List[Dict[str, float]]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-") as base_checkout:
        archive = subprocess.run(["git", "archive", "--format=tar", args.base],
                                 cwd=ROOT, check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_checkout], input=archive.stdout, check=True)
        checkouts = {"base": Path(base_checkout), "change": ROOT}
        for pair in range(args.pairs):
            for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
                runs[side].append(run_once(checkouts[side], args.workload, args.seed, seconds))
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{args.workload}  seed {args.seed}  {args.pairs} alternating pairs, "
          f"{seconds} s each, base {args.base}")
    print(f"{'metric':20s} {'base q1/median/q3':>36s} {'change q1/median/q3':>36s} "
          f"{'won':>6s}  verdict")
    worst = 0
    for metric in manifest["end_to_end"]:
        name, better = metric["name"], metric["better"]
        base = [run[name] for run in runs["base"]]
        change = [run[name] for run in runs["change"]]
        good_base, good_change = oriented(base, better), oriented(change, better)
        result = verdict(good_base, good_change, metric["bound"])
        worst |= result == "regression"
        won = pairs_won(good_base, good_change)
        print(f"{name:20s} {'/'.join(map(shown, quartiles(base))):>36s} "
              f"{'/'.join(map(shown, quartiles(change))):>36s} "
              f"{won:>3d}/{args.pairs:<2d}  {result}")
    if args.table:
        names = [metric["name"] for metric in manifest["end_to_end"]]
        print("\n| pair | side | " + " | ".join(names) + " |")
        print("|---|---|" + "---|" * len(names))
        for pair in range(args.pairs):
            for side in ("base", "change"):
                print(f"| {pair + 1} | {side} | "
                      + " | ".join(shown(runs[side][pair][name]) for name in names) + " |")
    return int(worst)


if __name__ == "__main__":
    sys.exit(main())
