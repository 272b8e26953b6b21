"""Safety oracle: the paper's BRB invariants, checked on scenario results.

Byzantine reliable broadcast makes three *safety* promises that must
survive any adversary, any message loss and any trigger-driven behaviour
change (Sec. 3 of the paper):

* **No forgery** — no correct process delivers a broadcast its correct
  source never made;
* **Agreement** — no two correct processes deliver different payloads
  for the same broadcast;
* **Validity** — when the source is correct, correct processes only
  deliver what it actually sent.

*Totality* (every correct process eventually delivers) is a liveness
property: it additionally needs the network to stay ``(2f + 1)``-
connected and the links to actually carry the messages, so the oracle
only asserts it for cells where delivery is guaranteed — no loss, no
adaptive triggers, and no static fault event that can keep a message
from a correct process (a delayed start, which only postpones, is
admitted; see :func:`totality_expected`).

The oracle is the one judge of a run every execution backend must pass:
:func:`check_safety` turns one
:class:`~repro.scenarios.engine.ScenarioResult` into its safety
:class:`OracleViolation` list (plus causal order on RCO protocols),
:func:`check_result` adds totality where it is expected (empty = the
invariants held), and cross-backend conformance
(:mod:`repro.scenarios.conformance`) compares :func:`check_safety`'s
output between backends rather than judging the run a second time.
:func:`sample_lossy_adaptive_specs` draws the randomized lossy/adaptive
scenario grids the ``tests/oracles`` suite sweeps on both backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.rco.causal import causal_order_violations, is_rco_result
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.faults import (
    CrashWhen,
    CutLinkWhen,
    ObservationFilter,
    TurnByzantineWhen,
)
from repro.scenarios.spec import (
    AdversarySpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
)


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant, with enough detail to reproduce the failure."""

    invariant: str
    detail: str


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def check_no_forgery(result: ScenarioResult) -> List[OracleViolation]:
    """No correct process delivered a forged broadcast.

    A *forged* delivery is one whose ``(source, bid)`` key is not in the
    scenario's schedule while ``source`` is a correct process — the
    adversary manufactured a broadcast and pinned it on an honest
    process, which the authenticated-channel / disjoint-path machinery
    must prevent.  Keys attributed to Byzantine processes are fine (a
    Byzantine source may broadcast anything).  Every protocol, plain
    Dolev included, delivers under the ``(source, bid)`` its broadcast
    carries, so no delivery is exempt.
    """
    scheduled = {broadcast.key for broadcast in result.spec.broadcasts()}
    byzantine = {pid for pid, _ in result.byzantine}
    correct = set(result.correct_processes)
    forged = sorted(
        {
            (pid, key)
            for pid, key in result.metrics.delivery_times
            if pid in correct
            and key not in scheduled
            and key[0] not in byzantine
        }
    )
    return [
        OracleViolation(
            invariant="no_forgery",
            detail=(
                f"correct process {pid} delivered unscheduled broadcast "
                f"{key} attributed to a correct source"
            ),
        )
        for pid, key in forged
    ]


def check_agreement(result: ScenarioResult) -> List[OracleViolation]:
    """No two correct processes delivered conflicting payloads per key."""
    return [
        OracleViolation(
            invariant="agreement",
            detail=(
                f"broadcast {outcome.key}: correct processes delivered "
                "conflicting payloads"
            ),
        )
        for outcome in result.outcomes
        if not outcome.agreement_holds
    ]


def check_validity(result: ScenarioResult) -> List[OracleViolation]:
    """Correct deliverers only got what each correct source sent.

    Per-outcome ``validity_holds`` is already vacuously true for
    broadcasts whose source is Byzantine (including sources an adaptive
    trigger converted mid-run), matching BRB-Validity's scope.
    """
    return [
        OracleViolation(
            invariant="validity",
            detail=(
                f"broadcast {outcome.key}: a correct process delivered a "
                f"payload the source never sent"
            ),
        )
        for outcome in result.outcomes
        if not outcome.validity_holds
    ]


def check_totality(result: ScenarioResult) -> List[OracleViolation]:
    """Every correct process delivered every correct-source broadcast.

    Only meaningful where delivery is guaranteed — gate calls on
    :func:`totality_expected`; :func:`check_result` does.
    """
    byzantine = {pid for pid, _ in result.byzantine}
    return [
        OracleViolation(
            invariant="totality",
            detail=(
                f"broadcast {outcome.key}: correct processes "
                f"{sorted(set(result.correct_processes) - set(outcome.delivered_processes))} "
                "never delivered"
            ),
        )
        for outcome in result.outcomes
        if outcome.source not in byzantine and not outcome.all_correct_delivered
    ]


def totality_expected(spec: ScenarioSpec) -> bool:
    """Whether the oracle may assert totality for ``spec``.

    Totality is guaranteed only when nothing can keep a message from a
    correct process: reliable links (no lossy delay regime), no adaptive
    triggers (a fired trigger may crash or partition mid-run) and no
    *delivery-breaking* static fault events — a crash silences a process
    for good and a link-drop window loses messages, but a fault that
    declares ``postpones_only`` (a delayed start) only postpones them: a
    dormant node buffers everything that arrives early and replays it in
    arrival order at wake-up, so every correct process still delivers.
    Membership churn (``JoinAt``/``LeaveAt``/``RewireLinkAt``) is
    delivery-breaking by construction — a late joiner misses early
    traffic and graph edits lose in-flight messages — so churn specs
    fail the test and totality stays conservative.  What each fault
    declares decides, not mere presence.  Connectivity
    (``>= 2f + 1``) is the spec author's obligation, as in the property
    suite; the randomized oracle grids only emit compliant topologies.
    """
    return (
        not spec.is_lossy
        and not spec.is_adaptive
        and all(fault.postpones_only for fault in spec.faults)
    )


def check_causal_order(result: ScenarioResult) -> List[OracleViolation]:
    """Correct processes delivered in causal order (RCO protocols only).

    The predicate of :mod:`repro.rco.causal` is loss-tolerant — it only
    constrains processes that actually delivered the causally-later
    broadcast — so it is asserted unconditionally for RCO specs, lossy
    and adaptive cells included.  Vacuously green off RCO.
    """
    if not is_rco_result(result):
        return []
    return [
        OracleViolation(invariant="causal_order", detail=detail)
        for detail in causal_order_violations(result)
    ]


def check_safety(result: ScenarioResult) -> List[OracleViolation]:
    """The safety invariants of one run, asserted on every cell.

    No forgery, agreement and validity — plus causal order on RCO
    protocols.  None depends on which messages a lossy link lost or
    whether an adaptive trigger fired, so these are also what
    cross-backend conformance compares in its ``safety`` mode.
    """
    return (
        check_no_forgery(result)
        + check_agreement(result)
        + check_validity(result)
        + check_causal_order(result)
    )


def check_result(result: ScenarioResult) -> List[OracleViolation]:
    """Every violated invariant of one run (empty = the oracle is green).

    :func:`check_safety`, plus totality where
    :func:`totality_expected` says delivery is guaranteed.
    """
    violations = check_safety(result)
    if totality_expected(result.spec):
        violations += check_totality(result)
    return violations


def assert_safe(result: ScenarioResult) -> None:
    """Raise ``AssertionError`` listing every violated invariant."""
    violations = check_result(result)
    if violations:
        lines = "\n".join(
            f"  [{violation.invariant}] {violation.detail}"
            for violation in violations
        )
        raise AssertionError(
            f"safety oracle violated for scenario "
            f"{result.spec.name!r} (seed {result.spec.seed}):\n{lines}"
        )


# ----------------------------------------------------------------------
# Randomized lossy/adaptive scenario grids
# ----------------------------------------------------------------------
_DELAY_BASES = (
    DelaySpec(kind="fixed", mean_ms=10.0),
    DelaySpec(kind="normal", mean_ms=15.0, std_ms=15.0),
    DelaySpec(kind="uniform", low_ms=1.0, high_ms=25.0),
)

_LOSS_LEVELS = (0.02, 0.05, 0.1, 0.2)

_STATIC_BEHAVIOURS = (
    "mute",
    "drop",
    "forge",
    "equivocate",
    "alter_sender",
    "send_empty",
    "limited_broadcast",
    "truncate_path",
)


def sample_lossy_adaptive_specs(
    count: int,
    *,
    seed: int = 0,
    backend: str = "simulation",
    name: str = "oracle",
) -> Tuple[ScenarioSpec, ...]:
    """Draw ``count`` randomized scenario cells for the oracle suite.

    Deterministic in ``seed``.  Every cell respects the paper's fault
    model — at most ``f`` Byzantine processes (static placements plus
    adaptive conversions combined) on a ``(2f + 1)``-connected topology —
    while mixing in the adversarial conditions the safety invariants
    must survive: independent and bursty message loss, adaptive crashes
    of the source keyed on in-flight ECHO traffic, mid-run Byzantine
    conversions keyed on first delivery, and reactive link cuts.  A
    fraction of the cells stays loss-free and trigger-free so totality
    is exercised too.
    """
    rng = random.Random(seed)
    cells = []
    for index in range(count):
        f = rng.choice((0, 1, 1, 2))
        required = 2 * f + 1
        n = rng.randint(max(3 * f + 1, required + 1, 4), 10)
        kind = rng.choice(("complete", "harary", "complete"))
        if kind == "complete" or required < 2:
            topology = TopologySpec(kind="complete", n=n)
        else:
            topology = TopologySpec(kind="harary", n=n, k=required)

        budget = f
        adversaries: Tuple[AdversarySpec, ...] = ()
        if budget and rng.random() < 0.5:
            behaviour = rng.choice(_STATIC_BEHAVIOURS)
            static_count = 1 if behaviour == "equivocate" else rng.randint(1, budget)
            adversaries = (
                AdversarySpec(behaviour=behaviour, count=static_count),
            )
            budget -= static_count

        adaptive = []
        lossy = rng.random() < 0.6
        if rng.random() < 0.6:
            choice = rng.random()
            if choice < 0.4:
                # Crash the source once enough ECHO/SEND traffic is in
                # flight — the paper-style adaptive source crash.
                adaptive.append(
                    CrashWhen(
                        pid=0,
                        after=ObservationFilter(kind="send"),
                        count=f + 1,
                    )
                )
            elif choice < 0.7 and budget:
                # Turn a relay Byzantine after its first delivery.
                adaptive.append(
                    TurnByzantineWhen(
                        pid=rng.randint(1, n - 1),
                        after=ObservationFilter(kind="deliver"),
                        count=1,
                        behaviour=rng.choice(("mute", "drop", "forge")),
                    )
                )
                budget -= 1
            elif kind == "complete":
                # Cut a link the instant it first carries traffic.
                u = rng.randint(0, n - 2)
                v = rng.randint(u + 1, n - 1)
                adaptive.append(
                    CutLinkWhen(
                        u=u,
                        v=v,
                        after=ObservationFilter(kind="send", pid=u, dest=v),
                        count=1,
                        duration_ms=rng.choice((None, 30.0)),
                    )
                )

        delay = rng.choice(_DELAY_BASES)
        if lossy:
            if rng.random() < 0.7:
                delay = replace(delay, loss=rng.choice(_LOSS_LEVELS))
            else:
                delay = replace(
                    delay,
                    burst_period_ms=60.0,
                    burst_len_ms=rng.choice((5.0, 15.0)),
                )

        cells.append(
            ScenarioSpec(
                name=f"{name}-{index}",
                topology=topology,
                delay=delay,
                protocol="cross_layer",
                f=f,
                payload_size=rng.choice((0, 16, 48)),
                seed=rng.randint(0, 100_000),
                adversaries=adversaries,
                adaptive=tuple(adaptive),
                backend=backend,
            )
        )
    return tuple(cells)


__all__ = [
    "OracleViolation",
    "check_no_forgery",
    "check_agreement",
    "check_validity",
    "check_totality",
    "check_causal_order",
    "check_safety",
    "check_result",
    "assert_safe",
    "totality_expected",
    "sample_lossy_adaptive_specs",
]
