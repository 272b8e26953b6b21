"""Cross-backend conformance: do two backends agree on one scenario?

The simulation backend is deterministic down to the timestamp; the
asyncio backend runs over real sockets and its timings are wall-clock.
What *must* agree between them — and what CI asserts — is how the
safety oracle judges each run, plus (for reliable scenarios) the
timing-free delivery outcome.  Conformance judges nothing itself:
:func:`verdict_of` projects a
:class:`~repro.scenarios.engine.ScenarioResult` onto a
:class:`BackendVerdict` whose ``safety`` field is the
:func:`~repro.scenarios.oracle.check_safety` violation list, and
:func:`run_conformance` runs one spec on several backends and compares
the verdicts field by field.

The comparison has two modes.  ``"full"`` compares the safety
violations *and* the delivery outcome: the correct/crashed/Byzantine
rosters and one :class:`BroadcastVerdict` per broadcast (who delivered,
what, and whether every correct process did).  ``"safety"`` compares
the safety violations only.  Which messages a lossy link loses — and
therefore which processes deliver, and whether an adaptive trigger
fires at all — legitimately differs between a seeded simulation and
real sockets, so ``run_conformance``'s default ``mode="auto"`` selects
``"safety"`` exactly when the spec is lossy, adaptive or churned.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.scenarios.engine import BroadcastOutcome, ScenarioResult, run_scenario
from repro.scenarios.oracle import check_safety
from repro.scenarios.spec import ScenarioSpec

#: Verdict-comparison modes of :func:`run_conformance`.
CONFORMANCE_MODES = ("auto", "full", "safety")


@dataclass(frozen=True)
class BroadcastVerdict:
    """Timing-free delivery projection of one broadcast outcome."""

    source: int
    bid: int
    #: Correct processes that delivered this broadcast, sorted.
    delivered_correct: Tuple[int, ...]
    #: (pid, payload_hex) for every correct process that delivered it.
    payloads: Tuple[Tuple[int, str], ...]
    all_correct_delivered: bool


@dataclass(frozen=True)
class BackendVerdict:
    """What conformance compares of one scenario result.

    ``safety`` is filled in both modes; the rosters and ``broadcasts``
    only in ``"full"`` mode (empty in ``"safety"`` mode, where an
    adaptive conversion may fire on one backend and not the other).
    """

    #: :func:`~repro.scenarios.oracle.check_safety`'s
    #: ``(invariant, detail)`` pairs, in the oracle's order.
    safety: Tuple[Tuple[str, str], ...]
    correct_processes: Tuple[int, ...] = ()
    crashed: Tuple[int, ...] = ()
    byzantine: Tuple[Tuple[int, str], ...] = ()
    #: Per-broadcast delivery verdicts, sorted by ``(source, bid)``.
    broadcasts: Tuple[BroadcastVerdict, ...] = ()


def broadcast_verdict_of(
    outcome: BroadcastOutcome, correct: frozenset
) -> BroadcastVerdict:
    """Project one broadcast outcome onto its comparable delivery fields."""
    return BroadcastVerdict(
        source=outcome.source,
        bid=outcome.bid,
        delivered_correct=tuple(
            sorted(pid for pid in outcome.delivered_processes if pid in correct)
        ),
        payloads=tuple(
            sorted(
                (pid, payload)
                for _, pid, _, _, payload in outcome.delivery_trace
                if pid in correct
            )
        ),
        all_correct_delivered=outcome.all_correct_delivered,
    )


def verdict_of(result: ScenarioResult, mode: str) -> BackendVerdict:
    """Project a result onto the verdict compared in ``mode``.

    ``mode`` is a resolved mode, ``"full"`` or ``"safety"`` (see
    :func:`conformance_mode_for`).
    """
    safety = tuple(
        (violation.invariant, violation.detail)
        for violation in check_safety(result)
    )
    if mode == "safety":
        return BackendVerdict(safety=safety)
    correct = frozenset(result.correct_processes)
    return BackendVerdict(
        safety=safety,
        correct_processes=tuple(sorted(correct)),
        crashed=result.crashed,
        byzantine=result.byzantine,
        broadcasts=tuple(
            broadcast_verdict_of(outcome, correct) for outcome in result.outcomes
        ),
    )


@dataclass(frozen=True)
class ConformanceReport:
    """Verdicts of one spec across backends, plus the disagreement list."""

    spec_name: str
    scenario_hashes: Tuple[Tuple[str, str], ...]
    #: Per-backend verdicts, projected in ``mode``.
    verdicts: Tuple[Tuple[str, object], ...]
    #: Per-backend latency until all correct processes delivered (None if
    #: some did not).  Informational only — simulated vs wall-clock
    #: milliseconds — and deliberately not part of the agreement check.
    latencies_ms: Tuple[Tuple[str, object], ...] = ()
    #: The comparison that was applied: ``"full"`` or ``"safety"``.
    mode: str = "full"

    @property
    def agree(self) -> bool:
        """Whether every backend produced the same verdict."""
        return not self.mismatches()

    def mismatches(self) -> List[str]:
        """Human-readable field-level disagreements against the first backend."""
        if len(self.verdicts) < 2:
            return []
        reference_name, reference = self.verdicts[0]
        problems: List[str] = []
        for name, verdict in self.verdicts[1:]:
            for field_ in fields(type(reference)):
                expected = getattr(reference, field_.name)
                observed = getattr(verdict, field_.name)
                if expected != observed:
                    problems.append(
                        f"{field_.name}: {reference_name}={expected!r} "
                        f"vs {name}={observed!r}"
                    )
        return problems


def conformance_mode_for(spec: ScenarioSpec, mode: str = "auto") -> str:
    """Resolve the comparison mode for ``spec``.

    ``"auto"`` compares full delivery verdicts for reliable, statically
    faulted scenarios and falls back to safety-only verdicts for lossy,
    adaptive or churned ones, whose delivery sets legitimately differ
    between a seeded simulation and real sockets (under churn, which
    in-flight copies the graph edit catches is a timing property).
    """
    if mode not in CONFORMANCE_MODES:
        raise ConfigurationError(
            f"unknown conformance mode {mode!r}; expected one of {CONFORMANCE_MODES}"
        )
    if mode != "auto":
        return mode
    return (
        "safety"
        if (spec.is_lossy or spec.is_adaptive or spec.has_churn)
        else "full"
    )


def run_conformance(
    spec: ScenarioSpec,
    backends: Sequence[str] = ("simulation", "asyncio"),
    *,
    overrides: Dict[str, object] = None,
    mode: str = "auto",
) -> ConformanceReport:
    """Run one spec on every listed backend and compare the verdicts.

    ``overrides`` optionally maps a backend name to a configured
    backend instance (e.g. an
    :class:`~repro.scenarios.backends.AsyncioBackend` with a shorter
    delivery timeout for CI).  ``mode`` selects the verdict projection
    compared across backends — ``"full"`` (safety violations + delivery
    outcome), ``"safety"`` (safety violations only) or ``"auto"``
    (safety exactly when the spec is lossy, adaptive or churned; see
    :func:`conformance_mode_for`).
    """
    overrides = overrides or {}
    resolved = conformance_mode_for(spec, mode)
    results: List[Tuple[str, ScenarioResult]] = []
    for name in backends:
        result = run_scenario(spec.with_backend(name), backend=overrides.get(name))
        results.append((name, result))
    return ConformanceReport(
        spec_name=spec.name,
        scenario_hashes=tuple(
            (name, result.scenario_hash) for name, result in results
        ),
        verdicts=tuple(
            (name, verdict_of(result, resolved)) for name, result in results
        ),
        latencies_ms=tuple((name, result.latency_ms) for name, result in results),
        mode=resolved,
    )


__all__ = [
    "CONFORMANCE_MODES",
    "BroadcastVerdict",
    "BackendVerdict",
    "ConformanceReport",
    "broadcast_verdict_of",
    "verdict_of",
    "conformance_mode_for",
    "run_conformance",
]
