"""The fuzzing farm: budgeted adversarial scenario search, forever.

:class:`FuzzFarm` is the always-on analogue of the oracle suite's
one-shot 60-cell sweep: it streams the unbounded randomized spec stream
of :mod:`repro.fuzz.sample` through a sweep executor under a time or
cell budget, judges every result, and persists the interesting ones to a
:class:`~repro.fuzz.corpus.Corpus`:

* **oracle violations** are shrunk on the spot
  (:mod:`repro.fuzz.shrink`) and recorded with their minimal reproducer
  and a regression test stub;
* (optionally) **cross-backend conformance divergences** — the cell's
  mirror run on another backend breaks a safety invariant differently
  — are shrunk with the conformance evaluator (a candidate survives only
  while the backends still disagree) and recorded with their minimal
  reproducer;
* **near-f-bound survivors** and **latency outliers** are recorded
  as-is, and their corpus tiers are bounded: after every run the farm
  ages out all but the first ``transient_cap`` records per transient
  category (sorted-hash order, the only order every process agrees on),
  so the CI manifest-hash cache key stays bounded while violation
  records are kept forever.

Dedupe is layered: the shared scenario-hash
:class:`~repro.runner.cache.ResultCache` keeps re-fuzzed cells from
re-executing, and the corpus keys records by the same hash, so a
re-discovered offender never produces a second record (nor a second
shrink) — unless the stored record is a transient one, which the
violation or divergence replaces, so pruning cannot age out the only
copy of a bug.  Violations and divergences, new or re-discovered, both turn
the run's exit status to 2.  Everything is seed-deterministic — two
farms with the same seed and cell budget judge the same cells and write
the same records — which is what lets CI replay any finding.

Cells run through :meth:`~repro.runner.parallel.SweepExecutor.run_stream`
(worker churn = process pool).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.parallel import SweepExecutor
from repro.scenarios.conformance import verdict_of
from repro.scenarios.engine import ScenarioResult, run_scenario
from repro.scenarios.oracle import OracleViolation, check_result
from repro.fuzz.corpus import (
    DEFAULT_TRANSIENT_CAP,
    TRANSIENT_CATEGORIES,
    Corpus,
    CorpusRecord,
)
from repro.fuzz.sample import stream_fuzz_specs
from repro.fuzz.shrink import (
    ShrinkResult,
    conformance_evaluator,
    oracle_evaluator,
    regression_stub,
    shrink_failing_spec,
)
from repro.scenarios.spec import ScenarioSpec

#: Result checker signature: one run's oracle violations.
ResultChecker = Callable[[ScenarioResult], Sequence[OracleViolation]]


@dataclass
class FuzzReport:
    """What one budgeted farm run did."""

    cells_run: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    #: New corpus records written this run, hash by category.
    new_records: Dict[str, List[str]] = field(default_factory=dict)
    #: Cells whose oracle violation or conformance divergence was
    #: already in the corpus.
    duplicate_violations: int = 0
    #: Shrink statistics of this run's violations.
    shrink_steps: int = 0
    shrink_attempts: int = 0
    #: Transient records (near_f_bound / latency_outlier) aged out of
    #: the corpus at the end of this run.
    pruned_records: int = 0
    manifest_hash: str = ""

    @property
    def violation_count(self) -> int:
        """Oracle violations and conformance divergences, new or known."""
        return (
            len(self.new_records.get("oracle_violation", []))
            + len(self.new_records.get("conformance_divergence", []))
            + self.duplicate_violations
        )

    @property
    def exit_code(self) -> int:
        """Process exit status: 0 = green, 2 = violations or divergences."""
        return 2 if self.violation_count else 0

    def record(self, category: str, scenario_hash: str) -> None:
        self.new_records.setdefault(category, []).append(scenario_hash)

    def summary_lines(self) -> List[str]:
        lines = [
            f"cells run: {self.cells_run} (cache hits: {self.cache_hits}) "
            f"in {self.elapsed_s:.1f}s",
        ]
        for category in sorted(self.new_records):
            hashes = self.new_records[category]
            lines.append(f"new {category} records: {len(hashes)}")
            lines.extend(f"  {scenario_hash}" for scenario_hash in hashes)
        if self.duplicate_violations:
            lines.append(
                f"re-discovered known violations: {self.duplicate_violations}"
            )
        if self.shrink_steps or self.shrink_attempts:
            lines.append(
                f"shrinker: {self.shrink_steps} accepted steps / "
                f"{self.shrink_attempts} attempts"
            )
        if self.pruned_records:
            lines.append(f"pruned transient records: {self.pruned_records}")
        lines.append(f"corpus manifest hash: {self.manifest_hash}")
        return lines


class FuzzFarm:
    """Long-lived fuzzing coordinator over a sweep executor.

    Parameters
    ----------
    corpus_dir:
        Where interesting specs are persisted (created on demand).
    cache_dir:
        Shared scenario-hash result cache; ``None`` disables caching
        (every cell re-executes).
    workers:
        Process-pool width of the default executor (ignored when an
        ``executor`` is supplied).
    executor:
        Any object with :meth:`SweepExecutor.run_stream`'s signature
        (``run_stream(specs, time_budget_s=, max_cells=)`` yielding items
        with ``spec`` and ``result``) and a ``cache_hits`` count; the
        default is a :class:`SweepExecutor` over ``workers`` and
        ``cache_dir``.
    check:
        Result checker (default: the safety oracle's
        :func:`~repro.scenarios.oracle.check_result`).  Tests inject
        instrumented checkers here; the shrinker sees the same checker,
        so an injected violation shrinks exactly like a real one.
    backends:
        Execution backends the spec stream spreads cells over.
    conformance_backends:
        When set (e.g. ``("simulation", "asyncio")``), every violation-
        free cell is re-run on the *other* backend and a diverging safety
        verdict (:func:`~repro.scenarios.conformance.verdict_of` in
        ``"safety"`` mode) is recorded and fails the run — expensive,
        meant for the nightly lane.
    shrink:
        Whether to delta-debug violations down to minimal reproducers
        (oracle violations via the farm's result checker, conformance
        divergences via the cross-backend evaluator).
    rco_fraction:
        Fraction of cells restacked onto the causal-order wrapper.
    behaviour_fraction:
        Fraction of cells forced to carry one of the extended taxonomy
        behaviours (alter_sender / send_empty / limited_broadcast /
        truncate_path).
    churn_fraction:
        Fraction of cells decorated with one membership-churn fault
        (join / leave / link rewire).
    transient_cap:
        Per-category retention cap applied to the transient corpus
        tiers (near-f-bound, latency outliers) after each run, so the
        CI manifest-hash cache key stops growing without bound;
        ``None`` disables pruning.  Violation records are kept forever.
    latency_outlier_factor / latency_warmup:
        A delivered cell whose latency exceeds ``factor ×`` the stream's
        running mean (after ``warmup`` delivered cells) is recorded as a
        latency outlier.
    """

    def __init__(
        self,
        corpus_dir: Union[str, Path],
        *,
        cache_dir: Optional[Union[str, Path]] = None,
        workers: int = 1,
        executor: Optional[object] = None,
        check: Optional[ResultChecker] = None,
        seed: int = 0,
        backends: Sequence[str] = ("simulation",),
        conformance_backends: Tuple[str, ...] = (),
        shrink: bool = True,
        shrink_max_attempts: int = 500,
        workload_fraction: float = 0.25,
        rco_fraction: float = 0.15,
        behaviour_fraction: float = 0.2,
        churn_fraction: float = 0.15,
        transient_cap: Optional[int] = DEFAULT_TRANSIENT_CAP,
        latency_outlier_factor: float = 4.0,
        latency_warmup: int = 24,
    ) -> None:
        self.corpus = Corpus(corpus_dir)
        self.executor = executor or SweepExecutor(
            workers=workers, cache_dir=cache_dir
        )
        self.check: ResultChecker = check if check is not None else check_result
        self.seed = seed
        self.backends = tuple(backends)
        self.conformance_backends = tuple(conformance_backends)
        self.shrink_enabled = shrink
        self.shrink_max_attempts = shrink_max_attempts
        self.workload_fraction = workload_fraction
        self.rco_fraction = rco_fraction
        self.behaviour_fraction = behaviour_fraction
        self.churn_fraction = churn_fraction
        self.transient_cap = transient_cap
        self.latency_outlier_factor = latency_outlier_factor
        self.latency_warmup = latency_warmup
        # Running latency statistics (across one run() call).
        self._latency_sum = 0.0
        self._latency_count = 0

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        time_budget_s: Optional[float] = None,
        max_cells: Optional[int] = None,
    ) -> FuzzReport:
        """One budgeted pass: stream, judge, persist; returns the report.

        At least one budget must be given — the spec stream is infinite.
        """
        if time_budget_s is None and max_cells is None:
            raise ValueError(
                "an unbounded farm run needs a budget: pass time_budget_s "
                "and/or max_cells"
            )
        started = time.monotonic()
        report = FuzzReport()
        self._latency_sum = 0.0
        self._latency_count = 0
        specs = stream_fuzz_specs(
            seed=self.seed,
            backends=self.backends,
            workload_fraction=self.workload_fraction,
            rco_fraction=self.rco_fraction,
            behaviour_fraction=self.behaviour_fraction,
            churn_fraction=self.churn_fraction,
        )
        for item in self.executor.run_stream(
            specs, time_budget_s=time_budget_s, max_cells=max_cells
        ):
            report.cells_run += 1
            self._judge(item.spec, item.result, report)
        report.cache_hits = self.executor.cache_hits
        report.elapsed_s = time.monotonic() - started
        if self.transient_cap is not None:
            report.pruned_records = len(
                self.corpus.prune(max_per_category=self.transient_cap)
            )
        self.corpus.write_manifest()
        report.manifest_hash = self.corpus.manifest_hash()
        return report

    # ------------------------------------------------------------------
    # Judging
    # ------------------------------------------------------------------
    def _judge(
        self, spec: ScenarioSpec, result: ScenarioResult, report: FuzzReport
    ) -> None:
        violations = tuple(self.check(result))
        if violations:
            self._record_violation(spec, result, violations, report)
            return
        if self.conformance_backends and spec.backend in self.conformance_backends:
            self._check_conformance(spec, result, report)
        byzantine_count = len(result.byzantine)
        if spec.f > 0 and byzantine_count >= spec.f:
            self._record(
                report,
                CorpusRecord(
                    category="near_f_bound",
                    spec=spec,
                    stats=self._stats(result),
                    discovery=self._discovery(spec),
                ),
            )
        latency = result.latency_ms
        if latency is not None:
            if (
                self._latency_count >= self.latency_warmup
                and self._latency_count > 0
                and latency
                > self.latency_outlier_factor
                * (self._latency_sum / self._latency_count)
            ):
                self._record(
                    report,
                    CorpusRecord(
                        category="latency_outlier",
                        spec=spec,
                        stats=self._stats(result),
                        discovery=self._discovery(spec),
                    ),
                )
            self._latency_sum += latency
            self._latency_count += 1

    def _record_violation(
        self,
        spec: ScenarioSpec,
        result: ScenarioResult,
        violations: Tuple[OracleViolation, ...],
        report: FuzzReport,
    ) -> None:
        if self._known_bug(spec):
            report.duplicate_violations += 1
            return
        shrunk: Optional[ShrinkResult] = None
        stub: Optional[str] = None
        if self.shrink_enabled:
            shrunk = shrink_failing_spec(
                spec,
                oracle_evaluator(self.check),
                max_attempts=self.shrink_max_attempts,
            )
            report.shrink_steps += len(shrunk.steps)
            report.shrink_attempts += shrunk.attempts
            stub = regression_stub(shrunk.minimal, shrunk.violations)
        self._record(
            report,
            CorpusRecord(
                category="oracle_violation",
                spec=spec,
                violations=tuple((v.invariant, v.detail) for v in violations),
                stats=self._stats(result),
                shrunk_spec=None if shrunk is None else shrunk.minimal,
                shrunk_violations=()
                if shrunk is None
                else tuple((v.invariant, v.detail) for v in shrunk.violations),
                regression_stub=stub,
                discovery=self._discovery(spec),
            ),
        )

    def _check_conformance(
        self, spec: ScenarioSpec, result: ScenarioResult, report: FuzzReport
    ) -> None:
        reference = verdict_of(result, "safety")
        others = [b for b in self.conformance_backends if b != spec.backend]
        for backend in others:
            mirrored = run_scenario(spec.with_backend(backend))
            if verdict_of(mirrored, "safety") == reference:
                continue
            if self._known_bug(spec):
                report.duplicate_violations += 1
                return
            shrunk = self._shrink_divergence(spec, backend, report)
            self._record(
                report,
                CorpusRecord(
                    category="conformance_divergence",
                    spec=spec,
                    stats={**self._stats(result), "diverging_backend": backend},
                    shrunk_spec=None if shrunk is None else shrunk.minimal,
                    shrunk_violations=()
                    if shrunk is None
                    else tuple((v.invariant, v.detail) for v in shrunk.violations),
                    discovery=self._discovery(spec),
                ),
            )
            return

    def _shrink_divergence(
        self, spec: ScenarioSpec, backend: str, report: FuzzReport
    ) -> Optional[ShrinkResult]:
        """Delta-debug a diverging spec with the conformance evaluator.

        A wall-clock-sensitive divergence may not reproduce when the
        evaluator re-runs the original spec (the baseline raises
        ``ValueError``); the raw offender is then recorded unshrunk —
        still replayable, just not minimized.
        """
        if not self.shrink_enabled:
            return None
        evaluate = conformance_evaluator(
            (spec.backend, backend), mode="safety"
        )
        try:
            shrunk = shrink_failing_spec(
                spec, evaluate, max_attempts=self.shrink_max_attempts
            )
        except ValueError:
            return None
        report.shrink_steps += len(shrunk.steps)
        report.shrink_attempts += shrunk.attempts
        return shrunk

    # ------------------------------------------------------------------
    # Record helpers
    # ------------------------------------------------------------------
    def _known_bug(self, spec: ScenarioSpec) -> bool:
        """Whether the corpus holds ``spec`` as a violation or divergence.

        A transient record of the same cell is no known bug: the new
        record replaces it (:meth:`Corpus.add`).
        """
        category = self.corpus.category(spec.scenario_hash())
        return category is not None and category not in TRANSIENT_CATEGORIES

    def _record(self, report: FuzzReport, record: CorpusRecord) -> None:
        if self.corpus.add(record):
            report.record(record.category, record.scenario_hash)

    def _discovery(self, spec: ScenarioSpec) -> Dict[str, object]:
        return {
            "stream_seed": self.seed,
            "backend": spec.backend,
            "spec_name": spec.name,
        }

    @staticmethod
    def _stats(result: ScenarioResult) -> Dict[str, object]:
        return {
            "latency_ms": result.latency_ms,
            "total_bytes": result.total_bytes,
            "message_count": result.message_count,
            "dropped_messages": result.dropped_messages,
            "byzantine": len(result.byzantine),
            "crashed": len(result.crashed),
            "broadcasts": result.broadcast_count,
        }


__all__ = [
    "FuzzReport",
    "FuzzFarm",
    "ResultChecker",
]
