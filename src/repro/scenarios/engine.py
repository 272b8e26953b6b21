"""Scenario engine: build and run one :class:`ScenarioSpec`.

:func:`run_scenario` is the single entry point the sweep executor's
serial and pool paths share.  It dispatches on ``spec.backend``: the
default ``"simulation"`` backend (:func:`simulate_scenario`) expands
the spec into a topology, a set of protocol instances (with Byzantine
behaviours placed by the spec's strategies) and a
:class:`SimulatedNetwork` with the spec's fault events armed, runs the
spec's broadcast workload (one broadcast by default, any
:class:`~repro.scenarios.spec.WorkloadSpec` schedule otherwise) and
freezes everything the evaluation needs into a :class:`ScenarioResult`
with one :class:`BroadcastOutcome` per broadcast.

Determinism contract (simulation backend): every random choice —
topology generation, link delays, adversary placement, randomized
behaviours — is derived from ``spec.seed``, so ``run_scenario(spec)``
returns an equal result whether it runs inline or in a worker process.
The asyncio backend shares the deterministic *expansion* (topology,
placement, protocol wiring) but its timings are wall-clock; only its
delivery/safety verdicts are comparable across runs (see
:mod:`repro.scenarios.conformance`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.network.adversary import build_behaviour
from repro.network.simulation.network import SimulatedNetwork
from repro.runner.configs import protocol_factory, protocol_family
from repro.scenarios.faults import AdaptiveController
from repro.scenarios.placement import place_adversaries
from repro.scenarios.spec import BroadcastSpec, ScenarioSpec
from repro.topology.generators import Topology

#: Seed offset separating adaptive-conversion behaviour RNGs from the
#: statically placed ones (which use ``spec.seed + pid``).
_ADAPTIVE_SEED_OFFSET = 104_729

#: Trace entry: (delivery time ms, process, source, bid, payload hex).
TraceEntry = Tuple[float, int, int, int, str]


@dataclass(frozen=True)
class BroadcastOutcome:
    """Deterministic outcome of one broadcast of a workload.

    Latency and the delivery trace are relative to the scenario clock
    (``latency_ms`` is measured from the broadcast's ``start_time_ms``);
    the safety predicates are frozen at result time against the run's
    correct/Byzantine sets, so outcomes travel the wire and compare
    across backends without re-deriving context.
    """

    source: int
    bid: int
    start_time_ms: float
    payload_hex: str
    delivered_processes: Tuple[int, ...]
    latency_ms: Optional[float]
    delivery_trace: Tuple[TraceEntry, ...]
    all_correct_delivered: bool
    agreement_holds: bool
    validity_holds: bool

    @property
    def key(self) -> Tuple[int, int]:
        """The ``(source, bid)`` broadcast key."""
        return (self.source, self.bid)


@dataclass(frozen=True)
class ScenarioResult:
    """Deterministic outcome of one scenario run.

    Two runs of the same spec compare equal — the parallel executor's
    correctness tests rely on this.  The full :class:`RunMetrics` snapshot
    rides along for detailed analysis but is excluded from equality; the
    comparable fields are the deterministic summary.
    """

    spec: ScenarioSpec
    scenario_hash: str
    topology_name: str
    byzantine: Tuple[Tuple[int, str], ...]
    crashed: Tuple[int, ...]
    correct_processes: Tuple[int, ...]
    delivered_processes: Tuple[int, ...]
    latency_ms: Optional[float]
    total_bytes: int
    message_count: int
    dropped_messages: int
    payload_hex: str
    delivery_trace: Tuple[TraceEntry, ...]
    metrics: RunMetrics = field(compare=False, repr=False)
    #: One outcome per workload broadcast, sorted by ``(source, bid)``.
    #: Always non-empty: a legacy single-broadcast run has exactly one
    #: outcome and the top-level delivery fields mirror it.
    outcomes: Tuple[BroadcastOutcome, ...] = ()

    # ------------------------------------------------------------------
    # Correctness predicates (aggregated over every broadcast)
    # ------------------------------------------------------------------
    @property
    def all_correct_delivered(self) -> bool:
        """BRB-Totality over the correct processes, for every broadcast."""
        return all(outcome.all_correct_delivered for outcome in self.outcomes)

    @property
    def agreement_holds(self) -> bool:
        """No two correct processes delivered different payloads for a key."""
        return all(outcome.agreement_holds for outcome in self.outcomes)

    @property
    def validity_holds(self) -> bool:
        """Correct processes only delivered what each source sent.

        Vacuously true for broadcasts whose source is Byzantine
        (BRB-Validity only constrains broadcasts by correct sources).
        """
        return all(outcome.validity_holds for outcome in self.outcomes)

    # ------------------------------------------------------------------
    # Workload aggregates
    # ------------------------------------------------------------------
    @property
    def broadcast_count(self) -> int:
        """Number of broadcasts the workload initiated."""
        return len(self.outcomes)

    @property
    def delivered_broadcast_count(self) -> int:
        """Broadcasts every correct process delivered (totality per key)."""
        return sum(1 for outcome in self.outcomes if outcome.all_correct_delivered)

    @property
    def throughput_dps(self) -> Optional[float]:
        """Fully delivered broadcasts per second of run time.

        Simulated seconds on the simulation backend, wall-clock seconds
        on the asyncio backend; ``None`` when the run recorded no time.
        """
        if self.metrics.end_time <= 0:
            return None
        return self.delivered_broadcast_count / (self.metrics.end_time / 1000.0)

    @property
    def broadcast_latencies(self) -> Tuple[Optional[float], ...]:
        """Per-broadcast latency, in outcome order (``None`` = undelivered)."""
        return tuple(outcome.latency_ms for outcome in self.outcomes)

    def latency_distribution(self) -> Dict[str, Optional[float]]:
        """Min/mean/max over the delivered broadcasts' latencies."""
        observed = [latency for latency in self.broadcast_latencies if latency is not None]
        if not observed:
            return {"count": 0, "min_ms": None, "mean_ms": None, "max_ms": None}
        return {
            "count": len(observed),
            "min_ms": min(observed),
            "mean_ms": sum(observed) / len(observed),
            "max_ms": max(observed),
        }

    def summary(self) -> Dict[str, object]:
        """JSON-serializable deterministic summary (golden-file format).

        The layout of a single-broadcast run is pinned byte-for-byte by
        the golden files; workload runs add one extra ``"workload"``
        section without touching the legacy keys.
        """
        summary: Dict[str, object] = {
            "scenario": self.spec.name,
            "hash": self.scenario_hash,
            "topology": self.topology_name,
            "byzantine": [list(item) for item in self.byzantine],
            "crashed": list(self.crashed),
            "correct": list(self.correct_processes),
            "delivered": list(self.delivered_processes),
            "latency_ms": self.latency_ms,
            "total_bytes": self.total_bytes,
            "message_count": self.message_count,
            "dropped_messages": self.dropped_messages,
            "messages_by_type": dict(sorted(self.metrics.messages_by_type.items())),
            "bytes_by_type": dict(sorted(self.metrics.bytes_by_type.items())),
            "trace": [list(entry) for entry in self.delivery_trace],
        }
        if self.spec.workload is not None:
            summary["workload"] = {
                "broadcasts": [
                    {
                        "source": outcome.source,
                        "bid": outcome.bid,
                        "start_time_ms": outcome.start_time_ms,
                        "delivered": list(outcome.delivered_processes),
                        "latency_ms": outcome.latency_ms,
                        "all_correct_delivered": outcome.all_correct_delivered,
                        "agreement_holds": outcome.agreement_holds,
                        "validity_holds": outcome.validity_holds,
                    }
                    for outcome in self.outcomes
                ],
                "delivered_broadcasts": self.delivered_broadcast_count,
                "throughput_dps": self.throughput_dps,
                "latency_distribution": self.latency_distribution(),
            }
        return summary


def place_byzantine(spec: ScenarioSpec, topology: Topology) -> Dict[int, object]:
    """Assign processes to the spec's adversary slots.

    Returns pid → :class:`AdversarySpec`.  Placement is deterministic: the
    strategies are seeded from ``spec.seed`` plus the adversary-spec
    index, the source is only eligible for the ``"equivocate"`` behaviour,
    and earlier specs claim processes before later ones.
    """
    assignments: Dict[int, object] = {}
    for index, adversary in enumerate(spec.adversaries):
        count = adversary.count
        if adversary.behaviour == "equivocate" and count > 0:
            if count > 1:
                # Equivocation only acts at the broadcasting process; a
                # non-source EquivocatingSource would silently behave as
                # mute and misreport what was measured.
                raise ConfigurationError(
                    "the 'equivocate' behaviour only applies to the source "
                    f"(count=1); got count={count}"
                )
            if spec.source in assignments:
                raise ConfigurationError(
                    "the source is already assigned another behaviour"
                )
            assignments[spec.source] = adversary
            count -= 1
        if count <= 0:
            continue
        placed = place_adversaries(
            topology,
            count,
            adversary.placement,
            seed=spec.seed + 7919 * (index + 1),
            exclude=set(assignments) | {spec.source},
        )
        for pid in placed:
            assignments[pid] = adversary
    return assignments


def build_protocols(
    spec: ScenarioSpec, topology: Topology, byzantine: Dict[int, object]
) -> Dict[int, object]:
    """One protocol or behaviour instance per process of the topology."""
    system = spec.system()
    builder = protocol_factory(spec.protocol, spec.modifications)
    family = protocol_family(spec.protocol)
    protocols: Dict[int, object] = {}
    for pid in topology.nodes:
        neighbors = sorted(topology.neighbors(pid))
        adversary = byzantine.get(pid)
        if adversary is None:
            protocols[pid] = builder(pid, system, neighbors)
        else:
            protocols[pid] = build_behaviour(
                adversary.behaviour,
                pid,
                neighbors,
                system=system,
                inner_factory=lambda pid=pid, neighbors=neighbors: builder(
                    pid, system, neighbors
                ),
                family=family,
                seed=spec.seed + pid,
                drop_probability=adversary.drop_probability,
                conflicting_payload=adversary.conflicting_payload,
            )
    return protocols


def validate_topology(spec: ScenarioSpec, topology: Topology) -> None:
    """Checks every backend applies to the expanded topology."""
    for broadcast in spec.broadcasts():
        if broadcast.source not in topology.adjacency:
            raise ConfigurationError(
                f"source {broadcast.source} is not a process of the topology"
            )
    for fault in (*spec.faults, *spec.adaptive):
        # Validated before the run starts so both backends reject an
        # invalid target identically — a timer or a trigger firing
        # mid-run must never be the first place a bad pid or missing
        # link surfaces.
        for pid in fault.processes:
            if pid not in topology.adjacency:
                raise ConfigurationError(
                    f"fault {type(fault).__name__} targets unknown process {pid}"
                )
        if fault.link is not None and not topology.has_edge(*fault.link):
            raise ConfigurationError(
                f"fault {type(fault).__name__} targets missing link {fault.link}"
            )
    if spec.protocol in ("bracha", "rco_bracha") and not topology.is_fully_connected():
        # Bracha's protocol assumes every pair of processes shares a
        # channel; on a partial graph it silently never delivers.  The
        # RCO wrapper inherits the inner protocol's assumption.
        raise ConfigurationError(
            f"the {spec.protocol!r} protocol requires a complete topology; "
            f"got {topology.name}"
        )


def build_network(spec: ScenarioSpec) -> Tuple[SimulatedNetwork, Dict[int, str]]:
    """Expand a spec into a ready-to-run network.

    Returns the network (faults armed, broadcast not yet initiated) and
    the pid → behaviour-name map of the placed adversaries.
    """
    topology = spec.topology.build(spec.seed)
    validate_topology(spec, topology)
    byzantine = place_byzantine(spec, topology)
    protocols = build_protocols(spec, topology, byzantine)
    network = SimulatedNetwork(
        topology,
        protocols,
        delay_model=spec.delay.build(),
        seed=spec.seed,
        collector=MetricsCollector(),
        shared_bandwidth_bps=spec.shared_bandwidth_bps,
    )
    for fault in spec.faults:
        fault.apply(network)
    return network, {pid: adv.behaviour for pid, adv in byzantine.items()}


def freeze_broadcast_outcome(
    broadcast: BroadcastSpec,
    *,
    payload: bytes,
    metrics: RunMetrics,
    byzantine: Dict[int, str],
    correct: Tuple[int, ...],
    trace: Optional[Tuple[TraceEntry, ...]] = None,
    start_time_factor: float = 1.0,
) -> BroadcastOutcome:
    """Freeze one broadcast's observations into a :class:`BroadcastOutcome`.

    ``trace`` optionally carries the broadcast's delivery trace when the
    caller already grouped the run's deliveries by key (the engine does,
    to avoid rescanning the full delivery map per broadcast); omitted,
    it is filtered from ``metrics`` here.  ``start_time_factor`` maps
    the broadcast's nominal ``start_time_ms`` into the domain of the
    recorded delivery timestamps before latency is measured — 1.0 for
    the simulation (both are simulated ms), ``time_scale * 1000`` for
    the asyncio backend (timestamps are wall-clock ms).
    """
    key = broadcast.key
    if trace is None:
        trace = tuple(
            (time, pid, bkey[0], bkey[1], metrics.delivered_payloads[(pid, bkey)].hex())
            for (pid, bkey), time in metrics.delivery_times.items()
            if bkey == key
        )
    delivered = tuple(sorted(entry[1] for entry in trace))
    payload_hex = payload.hex()
    correct_set = set(correct)
    correct_payloads = {
        entry[4] for entry in trace if entry[1] in correct_set
    }
    source_is_byzantine = broadcast.source in byzantine
    return BroadcastOutcome(
        source=broadcast.source,
        bid=broadcast.bid,
        start_time_ms=broadcast.start_time_ms,
        payload_hex=payload_hex,
        delivered_processes=delivered,
        latency_ms=metrics.delivery_latency(
            key, correct, start_time=broadcast.start_time_ms * start_time_factor
        ),
        delivery_trace=trace,
        all_correct_delivered=correct_set <= set(delivered),
        agreement_holds=len(correct_payloads) <= 1,
        validity_holds=source_is_byzantine
        or all(delivered_hex == payload_hex for delivered_hex in correct_payloads),
    )


def freeze_result(
    spec: ScenarioSpec,
    *,
    topology: Topology,
    byzantine: Dict[int, str],
    metrics: RunMetrics,
    dropped_messages: int,
    start_time_factor: float = 1.0,
    extra_crashed: Tuple[int, ...] = (),
) -> ScenarioResult:
    """Freeze one run's observations into a :class:`ScenarioResult`.

    Shared by every execution backend: the simulation passes simulated
    timestamps, the asyncio backend wall-clock milliseconds relative to
    the broadcast epoch — the delivery/safety predicates read the same
    either way.  ``byzantine`` already includes any adaptive mid-run
    conversions (the caller merges them); ``extra_crashed`` carries the
    pids adaptive triggers crashed, on top of the pids of the spec's
    timed faults that declare ``silences`` (a process that crashed or
    left the run is non-correct for safety accounting).

    Fault precedence: a process that is both Byzantine and silenced by a
    fault (timed or adaptive) is reported as Byzantine only — the
    Byzantine behaviour subsumes fail-silence, and one process must
    never appear in both the ``byzantine`` and ``crashed`` sets.
    """
    crashed = tuple(
        sorted(
            ({fault.pid for fault in spec.faults if fault.silences} | set(extra_crashed))
            - set(byzantine)
        )
    )
    correct = tuple(
        pid
        for pid in topology.nodes
        if pid not in byzantine and pid not in crashed
    )
    # Group the run's deliveries by broadcast key in one pass (insertion
    # order — delivery order — is preserved per key), so freezing stays
    # linear in the number of deliveries however many broadcasts the
    # workload holds.
    traces_by_key: Dict[Tuple[int, int], List[TraceEntry]] = {}
    for (pid, bkey), time in metrics.delivery_times.items():
        traces_by_key.setdefault(bkey, []).append(
            (time, pid, bkey[0], bkey[1], metrics.delivered_payloads[(pid, bkey)].hex())
        )
    outcomes = tuple(
        freeze_broadcast_outcome(
            broadcast,
            payload=spec.payload_for(broadcast),
            metrics=metrics,
            byzantine=byzantine,
            correct=correct,
            trace=tuple(traces_by_key.get(broadcast.key, ())),
            start_time_factor=start_time_factor,
        )
        for broadcast in sorted(spec.broadcasts(), key=lambda b: b.key)
    )
    # The top-level delivery fields mirror the primary broadcast — the
    # spec's (source, bid) when the workload contains it, otherwise the
    # first outcome — which for a legacy single-broadcast spec is
    # exactly the pre-workload layout.
    primary = next(
        (o for o in outcomes if o.key == (spec.source, spec.bid)), outcomes[0]
    )
    return ScenarioResult(
        spec=spec,
        scenario_hash=spec.scenario_hash(),
        topology_name=topology.name,
        byzantine=tuple(sorted(byzantine.items())),
        crashed=crashed,
        correct_processes=correct,
        delivered_processes=primary.delivered_processes,
        latency_ms=primary.latency_ms,
        total_bytes=metrics.total_bytes,
        message_count=metrics.message_count,
        dropped_messages=dropped_messages,
        payload_hex=primary.payload_hex,
        delivery_trace=primary.delivery_trace,
        metrics=metrics,
        outcomes=outcomes,
    )


@dataclass
class AdaptiveRunState:
    """What a run's adaptive triggers actually did (mutable, per run).

    ``converted`` maps pid → behaviour name for every process an adaptive
    trigger turned Byzantine; ``crashed`` holds the pids adaptive
    triggers crashed.  Both feed result accounting: converted processes
    join the ``byzantine`` set, adaptively crashed ones the ``crashed``
    set.  ``spec`` and ``placed`` (the statically placed Byzantine pids)
    are what :meth:`convert` needs to build a behaviour.
    """

    converted: Dict[int, str] = field(default_factory=dict)
    crashed: set = field(default_factory=set)
    spec: Optional[ScenarioSpec] = None
    placed: frozenset = frozenset()

    def convert(self, host, pid: int, behaviour: str, drop_probability: float) -> None:
        """Swap ``pid``'s live protocol on ``host`` for ``behaviour``.

        The behaviour wraps the *live* instance, so ``"drop"``/``"forge"``
        conversions keep their accumulated protocol state.
        """
        if pid in self.placed or pid in self.converted:
            return  # already Byzantine: the first behaviour wins
        spec = self.spec
        inner = host.protocols[pid]
        host.replace_protocol(
            pid,
            build_behaviour(
                behaviour,
                pid,
                sorted(host.topology.neighbors(pid)),
                system=spec.system(),
                inner_factory=lambda: inner,
                family=protocol_family(spec.protocol),
                seed=spec.seed + _ADAPTIVE_SEED_OFFSET + pid,
                drop_probability=drop_probability,
            ),
        )
        self.converted[pid] = behaviour


def arm_adaptive(
    host, spec: ScenarioSpec, byzantine: Dict[int, object]
) -> AdaptiveRunState:
    """Install the spec's adaptive faults on ``host`` — either runtime.

    Every observation of the run goes through an
    :class:`~repro.scenarios.faults.AdaptiveController`; a fault whose
    trigger completes is applied in place (``fault.apply(host, run)``,
    see :mod:`repro.scenarios.faults` for what each does).  Targets are
    validated up front by :func:`validate_topology`.  Returns the
    mutable state the caller folds into result accounting.
    """
    run = AdaptiveRunState(spec=spec, placed=frozenset(byzantine))
    if spec.adaptive:
        controller = AdaptiveController(spec.adaptive)

        def observe(observation) -> None:
            for fault in controller.observe(observation):
                fault.apply(host, run)

        host.observer = observe
    return run


def simulate_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one scenario on the discrete-event simulator and freeze it.

    Workload broadcasts are initiated in canonical schedule order via
    :meth:`SimulatedNetwork.broadcast_at`: time-0 broadcasts fire before
    the event loop starts (the legacy single-broadcast path,
    byte-identical to the pre-workload engine), later ones are scheduled
    at their ``start_time_ms``.  Adaptive faults observe the run and may
    crash processes, cut links or convert processes to Byzantine
    behaviours mid-run; what they did is folded into the result's
    ``byzantine``/``crashed`` accounting.
    """
    network, byzantine = build_network(spec)
    adaptive = arm_adaptive(network, spec, byzantine)
    for broadcast in spec.broadcasts():
        network.broadcast_at(
            broadcast.source,
            spec.payload_for(broadcast),
            broadcast.bid,
            broadcast.start_time_ms,
        )
    metrics = network.run(max_events=spec.max_events)
    return freeze_result(
        spec,
        topology=network.topology,
        byzantine={**byzantine, **adaptive.converted},
        metrics=metrics,
        dropped_messages=network.dropped_messages,
        extra_crashed=tuple(sorted(adaptive.crashed)),
    )


def run_scenario(spec: ScenarioSpec, backend=None) -> ScenarioResult:
    """Run one scenario end to end on its declared execution backend.

    ``backend`` optionally overrides the dispatch with a configured
    backend instance (e.g. an
    :class:`~repro.scenarios.backends.AsyncioBackend` with a custom
    delivery timeout); otherwise ``"asyncio"`` specs run on a default
    one.
    """
    if backend is None:
        if spec.backend == "simulation":
            return simulate_scenario(spec)
        # Imported lazily: backends depends on this module.
        from repro.scenarios.backends import AsyncioBackend

        backend = AsyncioBackend()
    return backend.run(spec)


__all__ = [
    "BroadcastOutcome",
    "ScenarioResult",
    "TraceEntry",
    "AdaptiveRunState",
    "place_byzantine",
    "build_protocols",
    "build_network",
    "validate_topology",
    "arm_adaptive",
    "freeze_broadcast_outcome",
    "freeze_result",
    "simulate_scenario",
    "run_scenario",
]
