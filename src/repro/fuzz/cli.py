"""``repro-fuzz`` — the fuzzing farm's command line.

One budgeted farm pass per invocation (CI's scheduled lanes re-invoke
it; an operator loops it).  Exit status is the farm's verdict: ``0`` for
an oracle-green run, ``2`` when violations were found (new or
re-discovered), ``1`` for corpus-validation failures — so a cron lane
turns red exactly when the oracle fires.  A usage error (no budget, a
negative or NaN budget, fewer than one worker, a fraction outside
``[0, 1]``) exits through argparse with status ``2`` before anything
runs.

Besides fuzzing, the tool serves the corpus:

* ``--validate-corpus`` checks every record against the schema and
  prints the manifest hash (the CI fuzz lanes' post-run assertion and
  cache key);
* ``--list`` prints the stored records;
* ``--replay HASH`` re-runs one stored spec by scenario hash and
  re-checks the oracle on the result.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.fuzz.corpus import DEFAULT_TRANSIENT_CAP, Corpus
from repro.fuzz.farm import FuzzFarm
from repro.scenarios.oracle import check_result
from repro.scenarios.spec import BACKEND_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fuzz",
        description=(
            "Budgeted adversarial scenario fuzzing: stream randomized "
            "lossy/adaptive/workload cells, check the safety oracle, "
            "persist interesting specs, shrink any violation to a "
            "minimal reproducer."
        ),
    )
    parser.add_argument(
        "--corpus-dir",
        default="corpus",
        help="directory of JSON corpus records (default: ./corpus)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="shared scenario-hash result cache directory (default: off)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop consuming new cells after this many seconds",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        metavar="N",
        help="stop after consuming N cells",
    )
    parser.add_argument("--seed", type=int, default=0, help="stream seed (default: 0)")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool width of the in-process executor (default: 1)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend(s) to fuzz (repeatable; default: simulation)",
    )
    parser.add_argument(
        "--conformance",
        action="store_true",
        help=(
            "re-run violation-free cells on the other backend and record "
            "diverging safety verdicts (expensive; nightly lane)"
        ),
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="record violations without delta-debugging them",
    )
    parser.add_argument(
        "--workload-fraction",
        type=float,
        default=0.25,
        help="fraction of cells decorated with multi-broadcast workloads",
    )
    parser.add_argument(
        "--rco-fraction",
        type=float,
        default=0.15,
        help=(
            "fraction of cells restacked onto the causal-order wrapper "
            "(rco_cross_layer)"
        ),
    )
    parser.add_argument(
        "--behaviour-fraction",
        type=float,
        default=0.2,
        help=(
            "fraction of cells forced to carry one of the extended "
            "taxonomy behaviours (alter_sender, send_empty, "
            "limited_broadcast, truncate_path)"
        ),
    )
    parser.add_argument(
        "--churn-fraction",
        type=float,
        default=0.15,
        help=(
            "fraction of cells decorated with one membership-churn "
            "fault (join, leave, link rewire)"
        ),
    )
    parser.add_argument(
        "--transient-cap",
        type=int,
        default=None,
        metavar="N",
        help=(
            "age out all but N records per transient corpus category "
            "(near_f_bound, latency_outlier) after the run; violation "
            "records are kept forever (default: 64, 0 keeps none, "
            "negative disables pruning)"
        ),
    )
    parser.add_argument(
        "--validate-corpus",
        action="store_true",
        help="validate every corpus record against the schema and exit",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_records",
        help="list the stored corpus records and exit",
    )
    parser.add_argument(
        "--replay",
        metavar="HASH",
        default=None,
        help="re-run one stored spec by scenario hash and re-check the oracle",
    )
    return parser


def _validate(corpus: Corpus) -> int:
    problems = corpus.validate()
    hashes = corpus.hashes()
    if problems:
        for name, found in sorted(problems.items()):
            for problem in found:
                print(f"{name}: {problem}", file=sys.stderr)
        print(f"corpus INVALID: {len(problems)}/{len(hashes)} records failed")
        return 1
    print(f"corpus OK: {len(hashes)} records")
    print(f"manifest hash: {corpus.manifest_hash()}")
    return 0


def _list(corpus: Corpus) -> int:
    for record in corpus.records():
        shrunk = "" if record.shrunk_spec is None else " [shrunk]"
        print(f"{record.scenario_hash}  {record.category}{shrunk}")
    print(f"{len(corpus.hashes())} records")
    return 0


def _replay(corpus: Corpus, scenario_hash: str) -> int:
    try:
        result = corpus.replay(scenario_hash)
    except KeyError:
        print(f"no corpus record {scenario_hash}", file=sys.stderr)
        return 1
    violations = check_result(result)
    print(
        f"replayed {scenario_hash}: latency_ms={result.latency_ms} "
        f"messages={result.message_count} dropped={result.dropped_messages}"
    )
    if violations:
        for violation in violations:
            print(f"  [{violation.invariant}] {violation.detail}")
        return 2
    print("  oracle green")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    corpus = Corpus(args.corpus_dir)

    try:
        if args.validate_corpus:
            return _validate(corpus)
        if args.list_records:
            return _list(corpus)
        if args.replay is not None:
            return _replay(corpus, args.replay)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early (e.g.
        # ``repro-fuzz --list | head``): not an error.  Detach stdout so
        # interpreter shutdown does not trip over the dead pipe again.
        sys.stdout = open(os.devnull, "w")  # noqa: SIM115 - lives until exit
        return 0

    if args.time_budget is None and args.max_cells is None:
        parser.error("a fuzz run needs --time-budget and/or --max-cells")
    for flag, value, low in (
        ("--workers", args.workers, 1),
        ("--time-budget", args.time_budget, 0),
        ("--max-cells", args.max_cells, 0),
    ):
        # ``not >=`` also catches NaN: a NaN budget would run no cell and exit 0.
        if value is not None and not value >= low:
            parser.error(f"{flag} must be >= {low}, got {value}")
    for flag, value in (
        ("--workload-fraction", args.workload_fraction),
        ("--rco-fraction", args.rco_fraction),
        ("--behaviour-fraction", args.behaviour_fraction),
        ("--churn-fraction", args.churn_fraction),
    ):
        if not 0 <= value <= 1:
            parser.error(f"{flag} must be within [0, 1], got {value}")
    backends = tuple(args.backend) if args.backend else ("simulation",)
    if args.transient_cap is None:
        transient_cap = DEFAULT_TRANSIENT_CAP
    elif args.transient_cap < 0:
        transient_cap = None
    else:
        transient_cap = args.transient_cap
    farm = FuzzFarm(
        args.corpus_dir,
        cache_dir=args.cache_dir,
        workers=args.workers,
        seed=args.seed,
        backends=backends,
        conformance_backends=("simulation", "asyncio") if args.conformance else (),
        shrink=not args.no_shrink,
        workload_fraction=args.workload_fraction,
        rco_fraction=args.rco_fraction,
        behaviour_fraction=args.behaviour_fraction,
        churn_fraction=args.churn_fraction,
        transient_cap=transient_cap,
    )
    report = farm.run(time_budget_s=args.time_budget, max_cells=args.max_cells)
    for line in report.summary_lines():
        print(line)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
