"""Trace-level causal delivery predicate for RCO scenario runs.

The wrapper of :mod:`repro.rco.protocol` promises *causal order*: if the
sender of broadcast ``B`` had RCO-delivered broadcast ``A`` before
sending ``B``, then no correct process delivers ``B`` without having
delivered ``A`` first.  This module checks that promise against the
recorded delivery trace of one scenario run, using only facts the trace
itself proves:

* **same-source FIFO** — two broadcasts by the same *correct* source are
  causally ordered by their schedule (the sender's send counter embeds
  the order in the clock), so every correct process must deliver them in
  schedule order;
* **cross-source chains** — broadcast ``A`` precedes ``B`` from a
  different *correct* source when the trace shows ``B``'s source
  delivered ``A`` strictly before ``B``'s nominal start time.  Both
  backends initiate a broadcast no earlier than its nominal start (the
  asyncio runtime's wall-clock scheduling can only be late), so a
  delivery timestamped before the nominal start happened before the
  send — a sound under-approximation of the true causal past.

Both dependency families are restricted to broadcasts whose sources the
run reports as correct: a Byzantine source may stamp arbitrary clocks,
so no ordering promise exists for its traffic.  The predicate is
loss-tolerant by construction — it only constrains processes that
actually delivered the later broadcast — so the oracle asserts it
unconditionally for RCO specs, lossy and adaptive cells included.

The check reads per-process delivery *order* from the insertion order of
``result.metrics.delivery_times`` (deliveries are recorded in the order
they happen on both backends), never from timestamp comparisons, so
wall-clock jitter cannot produce false positives.

This module deliberately imports nothing from :mod:`repro.scenarios`:
the safety oracle builds on it (and cross-backend conformance compares
the oracle's output), so it sits below them in the import graph.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.rco.protocol import RCO_PROTOCOLS

#: A broadcast key, as used by the metrics layer.
Key = Tuple[int, int]


def is_rco_result(result) -> bool:
    """Whether ``result`` ran an RCO protocol (the predicate's scope)."""
    return result.spec.protocol in RCO_PROTOCOLS


def causal_dependencies(result) -> List[Tuple[Key, Key]]:
    """Provable ``(earlier, later)`` broadcast pairs of one run.

    Only dependencies between broadcasts of *correct* sources are
    emitted; see the module docstring for the two families.
    """
    correct = set(result.correct_processes)
    schedule = [
        broadcast
        for broadcast in result.spec.broadcasts()
        if broadcast.source in correct
    ]
    dependencies: List[Tuple[Key, Key]] = []

    last_by_source: Dict[int, Key] = {}
    for broadcast in schedule:
        previous = last_by_source.get(broadcast.source)
        if previous is not None:
            dependencies.append((previous, broadcast.key))
        last_by_source[broadcast.source] = broadcast.key

    delivery_times = result.metrics.delivery_times
    for later in schedule:
        for earlier in schedule:
            if earlier.source == later.source:
                continue
            delivered_at = delivery_times.get((later.source, earlier.key))
            if delivered_at is not None and delivered_at < later.start_time_ms:
                dependencies.append((earlier.key, later.key))
    return dependencies


def causal_order_violations(result) -> List[str]:
    """Causal-order breaches of one run, as human-readable details.

    Empty list = every correct process delivered in causal order.
    """
    correct = set(result.correct_processes)
    order: Dict[int, Dict[Key, int]] = {}
    for position, (pid, key) in enumerate(result.metrics.delivery_times):
        order.setdefault(pid, {})[key] = position

    problems: List[str] = []
    for earlier, later in causal_dependencies(result):
        for pid in sorted(correct):
            positions = order.get(pid, {})
            if later not in positions:
                continue
            if earlier not in positions:
                problems.append(
                    f"process {pid} delivered {later} without its causal "
                    f"predecessor {earlier}"
                )
            elif positions[earlier] > positions[later]:
                problems.append(
                    f"process {pid} delivered {later} before its causal "
                    f"predecessor {earlier}"
                )
    return problems


__all__ = [
    "Key",
    "is_rco_result",
    "causal_dependencies",
    "causal_order_violations",
]
