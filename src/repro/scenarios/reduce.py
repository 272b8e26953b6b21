"""Spec-level reduction operators for delta-debugging failing scenarios.

When the safety oracle fires on a fuzzed cell, the raw offender is
usually noisy: several adversaries, a stack of adaptive triggers, a
multi-broadcast workload and a lossy delay regime, most of it incidental
to the actual bug.  The shrinker (:mod:`repro.fuzz.shrink`) walks the
candidates produced here, keeping a reduction only when the violation
survives — classic delta debugging, specialized to the scenario algebra:

* **drop fault machinery** — remove one static fault event, one adaptive
  trigger or one adversary placement (or lower a multi-process
  placement's count);
* **shrink the topology** toward the paper's ``2f + 1`` connectivity
  bound (fewer processes, never more, keeping every referenced pid
  valid);
* **shorten the workload** — drop broadcasts, or collapse the workload
  back to the legacy single broadcast;
* **unstack the protocol** — reduce an RCO-wrapped protocol to its
  inner BRB layer;
* **simplify the delay model** — strip message loss, strip burst
  windows, collapse stochastic delay kinds to the fixed synchronous
  setting;
* **lower budgets** — trigger counts, the fault bound ``f``, payload
  size.

Every operator is deterministic, emits candidates in a fixed order and
*strictly decreases* :func:`spec_size`, so greedy shrinking terminates
and two shrinks of the same spec take identical paths.  Candidates are
constructed to pass spec validation; anything a run still rejects
(e.g. a ``CutLinkWhen`` whose link a smaller random topology no longer
has) is simply discarded by the shrinker when evaluation fails.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Tuple

from repro.rco.protocol import RCO_PROTOCOLS
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec


def fault_event_count(spec: ScenarioSpec) -> int:
    """Fault machinery of a spec: static events, triggers and placements."""
    return (
        len(spec.faults)
        + len(spec.adaptive)
        + sum(adversary.count for adversary in spec.adversaries)
    )


def _delay_complexity(spec: ScenarioSpec) -> int:
    delay = spec.delay
    return (
        int(delay.loss > 0.0)
        + int(delay.burst_period_ms > 0.0 or delay.burst_len_ms > 0.0)
        + int(delay.kind != "fixed")
    )


def _workload_length(spec: ScenarioSpec) -> int:
    return 0 if spec.workload is None else len(spec.workload.broadcasts)


def _trigger_budget(spec: ScenarioSpec) -> int:
    return sum(fault.count for fault in spec.adaptive)


def _protocol_complexity(spec: ScenarioSpec) -> int:
    """1 for a stacked (RCO-wrapped) protocol, 0 for a bare one.

    Gives :func:`simplify_protocol` a strictly decreasing size step
    while leaving every non-RCO spec's size — and therefore every
    existing shrink path — unchanged.
    """
    return int(spec.protocol in RCO_PROTOCOLS)


def spec_size(spec: ScenarioSpec) -> int:
    """Scalar size measure every reduction operator strictly decreases.

    The components are independent non-negative integers, so any single
    strict decrease shrinks the sum — which is what guarantees greedy
    shrinking terminates (and makes "is this spec minimal?" a simple
    fixpoint check).
    """
    return (
        fault_event_count(spec)
        + _trigger_budget(spec)
        + spec.topology.node_count
        + spec.f
        + _workload_length(spec)
        + _delay_complexity(spec)
        + _protocol_complexity(spec)
        + spec.payload_size
    )


# ----------------------------------------------------------------------
# Operators (each yields strictly smaller candidate specs, in order)
# ----------------------------------------------------------------------
def drop_adaptive_fault(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Remove one adaptive trigger at a time."""
    for index in range(len(spec.adaptive)):
        yield replace(
            spec, adaptive=spec.adaptive[:index] + spec.adaptive[index + 1 :]
        )


def drop_static_fault(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Remove one timed fault event at a time."""
    for index in range(len(spec.faults)):
        yield replace(spec, faults=spec.faults[:index] + spec.faults[index + 1 :])


def drop_adversary(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Remove one adversary placement, or lower a multi-process count."""
    for index, adversary in enumerate(spec.adversaries):
        yield replace(
            spec, adversaries=spec.adversaries[:index] + spec.adversaries[index + 1 :]
        )
        if adversary.count > 1:
            reduced = replace(adversary, count=adversary.count - 1)
            yield replace(
                spec,
                adversaries=spec.adversaries[:index]
                + (reduced,)
                + spec.adversaries[index + 1 :],
            )


def reduce_trigger_count(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Lower an adaptive trigger's match count to 1 (fire on first match)."""
    for index, fault in enumerate(spec.adaptive):
        if fault.count > 1:
            yield replace(
                spec,
                adaptive=spec.adaptive[:index]
                + (replace(fault, count=1),)
                + spec.adaptive[index + 1 :],
            )


def shorten_workload(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Fewer broadcasts: single-broadcast collapse first, then halving,
    then dropping one broadcast at a time (keeping at least one)."""
    workload = spec.workload
    if workload is None:
        return
    broadcasts = workload.broadcasts
    first = broadcasts[0]
    # Collapse to the legacy single-broadcast form entirely.
    yield replace(
        spec, workload=None, source=first.source, bid=first.bid
    )
    if len(broadcasts) > 2:
        yield replace(
            spec, workload=WorkloadSpec(broadcasts=broadcasts[: len(broadcasts) // 2])
        )
    if len(broadcasts) > 1:
        for index in range(len(broadcasts)):
            yield replace(
                spec,
                workload=WorkloadSpec(
                    broadcasts=broadcasts[:index] + broadcasts[index + 1 :]
                ),
            )


def _referenced_pids(spec: ScenarioSpec) -> List[int]:
    pids = [spec.source]
    for broadcast in spec.broadcasts():
        pids.append(broadcast.source)
        if broadcast.successor is not None:
            pids.append(broadcast.successor)
    for fault in (*spec.faults, *spec.adaptive):
        pids.extend(fault.processes)
    for fault in spec.adaptive:
        for attr in ("pid", "dest", "source"):
            value = getattr(fault.after, attr, None)
            if value is not None:
                pids.append(value)
    return pids


def _min_nodes(spec: ScenarioSpec) -> int:
    """Smallest node count a reduced topology may legally have.

    Keeps every referenced pid in range, keeps room for the static
    adversary placements (which exclude the source), and respects the
    connectivity the paper's bound asks of the kind: a complete graph is
    ``(n - 1)``-connected so ``n >= 2f + 2`` preserves ``2f + 1``;
    harary/random-regular keep their explicit ``k``.
    """
    topology = spec.topology
    floor = max(_referenced_pids(spec), default=0) + 1
    floor = max(floor, sum(adv.count for adv in spec.adversaries) + 1, 2)
    if topology.kind == "complete":
        floor = max(floor, 2 * spec.f + 2)
    elif topology.kind in ("harary", "random_regular"):
        floor = max(floor, topology.k + 1, 2 * spec.f + 2)
        if topology.min_connectivity:
            floor = max(floor, topology.min_connectivity + 1)
    else:
        floor = max(floor, 3)
    return floor


def shrink_topology(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Fewer processes, never more: jump to the bound, then bisect."""
    topology = spec.topology
    if topology.kind == "torus":
        return
    n = topology.node_count
    floor = _min_nodes(spec)
    candidates = []
    for candidate in (floor, (n + floor) // 2, n - 1):
        if floor <= candidate < n and candidate not in candidates:
            candidates.append(candidate)
    for candidate in candidates:
        yield replace(spec, topology=replace(topology, n=candidate))


def reduce_f(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Lower the fault bound when the placed/converted budget allows it."""
    if spec.f <= 0:
        return
    if spec.byzantine_requested <= spec.f - 1:
        yield replace(spec, f=spec.f - 1)


def simplify_protocol(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Unstack an RCO wrapper down to its inner BRB protocol.

    A violation that survives without the causal-order layer was never
    about causal order — the shrinker proves it by re-running on the
    bare protocol.  (A ``causal_order`` violation cannot survive this
    reduction — the predicate is vacuous off RCO — so such shrinks
    reject the candidate via the invariant-preservation rule.)
    """
    inner = RCO_PROTOCOLS.get(spec.protocol)
    if inner is not None:
        yield replace(spec, protocol=inner)


def simplify_delay(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Strip loss, then burst windows, then collapse the kind to fixed."""
    delay = spec.delay
    if delay.loss > 0.0:
        yield replace(spec, delay=replace(delay, loss=0.0))
    if delay.burst_period_ms > 0.0 or delay.burst_len_ms > 0.0:
        yield replace(
            spec, delay=replace(delay, burst_period_ms=0.0, burst_len_ms=0.0)
        )
    if delay.kind != "fixed":
        yield replace(spec, delay=replace(delay, kind="fixed"))


def shrink_payload(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Smaller payloads: empty first, then the 16-byte default."""
    if spec.payload_size > 0:
        yield replace(spec, payload_size=0)
    if spec.payload_size > 16:
        yield replace(spec, payload_size=16)


#: Greedy application order: fault machinery first (the usual culprit),
#: then structure (workload, topology, f), then cosmetics (delay kind,
#: payload).  The shrinker walks operators — and each operator's
#: candidates — in exactly this order, which is what makes shrinking
#: replayable.
REDUCTION_OPERATORS: Tuple[Tuple[str, Callable[[ScenarioSpec], Iterator[ScenarioSpec]]], ...] = (
    ("drop_adaptive_fault", drop_adaptive_fault),
    ("drop_static_fault", drop_static_fault),
    ("drop_adversary", drop_adversary),
    ("reduce_trigger_count", reduce_trigger_count),
    ("shorten_workload", shorten_workload),
    ("shrink_topology", shrink_topology),
    ("reduce_f", reduce_f),
    ("simplify_protocol", simplify_protocol),
    ("simplify_delay", simplify_delay),
    ("shrink_payload", shrink_payload),
)


def reduction_candidates(
    spec: ScenarioSpec,
) -> Iterator[Tuple[str, ScenarioSpec]]:
    """Every reduction of ``spec``, tagged with its operator, in order.

    Candidates that fail spec-level validation (an operator interaction
    the conservative constructors could not foresee) are skipped rather
    than raised: the shrinker treats "cannot even build the candidate"
    and "candidate no longer violates" identically.
    """
    for name, operator in REDUCTION_OPERATORS:
        iterator = operator(spec)
        while True:
            try:
                candidate = next(iterator)
            except StopIteration:
                break
            except Exception:
                continue
            yield name, candidate


__all__ = [
    "REDUCTION_OPERATORS",
    "reduction_candidates",
    "fault_event_count",
    "spec_size",
    "drop_adaptive_fault",
    "drop_static_fault",
    "drop_adversary",
    "reduce_trigger_count",
    "shorten_workload",
    "shrink_topology",
    "reduce_f",
    "simplify_protocol",
    "simplify_delay",
    "shrink_payload",
]
