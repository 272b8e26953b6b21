"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain, hashable, picklable description of one
simulated broadcast workload: which topology to generate, which delay
regime the links follow, which protocol configuration runs on the correct
processes, where the Byzantine processes sit (see
:mod:`repro.scenarios.placement`), which fault events fire during the
run (see :mod:`repro.scenarios.faults`), and which broadcasts the
sources initiate (:class:`WorkloadSpec`; the default is the single
broadcast described by ``source``/``bid``).

Being pure data, specs can be expanded into grids
(:mod:`repro.scenarios.grid`), shipped to worker processes by the
parallel sweep executor (:mod:`repro.runner.parallel`) and hashed into a
stable cache key with :meth:`ScenarioSpec.scenario_hash`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.modifications import ModificationSet
from repro.network.adversary import BEHAVIOUR_NAMES
from repro.network.simulation.delays import (
    AsynchronousDelay,
    BurstyLossWindow,
    DelayModel,
    FixedDelay,
    LossyDelay,
    UniformDelay,
)
from repro.scenarios.faults import (
    ADAPTIVE_FAULT_TYPES,
    AdaptiveFault,
    FaultEvent,
)
from repro.scenarios.placement import PLACEMENT_STRATEGIES
from repro.topology.generators import (
    Topology,
    complete_topology,
    harary_topology,
    line_topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of a communication graph.

    ``kind`` selects the generator:

    * ``"random_regular"`` — the paper's workload: a random ``k``-regular
      graph regenerated until it is ``min_connectivity``-connected (the
      scenario seed drives the generation);
    * ``"harary"`` — the minimal ``k``-connected graph H(k, n);
    * ``"complete"`` / ``"ring"`` / ``"line"`` — deterministic classics;
    * ``"torus"`` — a ``rows × cols`` periodic grid (``n`` is ignored and
      derived as ``rows * cols``).
    """

    kind: str = "random_regular"
    n: int = 10
    k: int = 0
    rows: int = 0
    cols: int = 0
    min_connectivity: Optional[int] = None

    _KINDS = ("random_regular", "harary", "complete", "ring", "line", "torus")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; expected one of {self._KINDS}"
            )

    @property
    def node_count(self) -> int:
        """Number of processes the built topology will have."""
        if self.kind == "torus":
            return self.rows * self.cols
        return self.n

    def build(self, seed: int = 0) -> Topology:
        """Generate the topology (``seed`` only matters for random kinds).

        Generation is memoized on ``(spec, seed)``: sweeps run many cells
        over the same graph (reference and candidate configurations share
        topologies by design), and regenerating a random regular graph —
        connectivity check included — costs more than simulating a small
        cell.  Safe because :class:`~repro.topology.Topology` is
        immutable and generation is deterministic for a given seed.
        """
        return _build_topology(self, seed)


@lru_cache(maxsize=128)
def _build_topology(spec: "TopologySpec", seed: int) -> Topology:
    if spec.kind == "random_regular":
        return random_regular_topology(
            spec.n, spec.k, seed=seed, min_connectivity=spec.min_connectivity
        )
    if spec.kind == "harary":
        return harary_topology(spec.n, spec.k)
    if spec.kind == "complete":
        return complete_topology(spec.n)
    if spec.kind == "ring":
        return ring_topology(spec.n)
    if spec.kind == "line":
        return line_topology(spec.n)
    return torus_topology(spec.rows, spec.cols)


@dataclass(frozen=True)
class DelaySpec:
    """Declarative description of a link-delay model.

    ``kind`` is ``"fixed"`` (the paper's synchronous 50 ms setting),
    ``"normal"`` (the asynchronous Normal(mean, std) setting) or
    ``"uniform"`` (delays drawn from ``[low_ms, high_ms]``).

    The loss fields make the links unreliable on top of any kind:
    ``loss`` drops each message independently with that probability
    (:class:`~repro.network.simulation.delays.LossyDelay`), and a
    positive ``burst_period_ms`` adds periodic outage bursts of
    ``burst_len_ms``
    (:class:`~repro.network.simulation.delays.BurstyLossWindow`).  The
    lossless defaults are suppressed from the scenario hash, so every
    pre-loss spec keeps its hash, golden summary and cache slot.
    """

    kind: str = "fixed"
    mean_ms: float = 50.0
    std_ms: float = 50.0
    low_ms: float = 10.0
    high_ms: float = 100.0
    loss: float = 0.0
    burst_period_ms: float = 0.0
    burst_len_ms: float = 0.0

    _KINDS = ("fixed", "normal", "uniform")
    # Lossless defaults are omitted from the canonical hash form (see
    # ``_canonical``) so pre-loss scenario hashes stay valid.
    _HASH_SUPPRESS_DEFAULTS = {
        "loss": 0.0,
        "burst_period_ms": 0.0,
        "burst_len_ms": 0.0,
    }

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"unknown delay kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigurationError(
                f"loss probability must be within [0, 1], got {self.loss}"
            )
        if self.burst_period_ms < 0 or self.burst_len_ms < 0:
            raise ConfigurationError(
                "burst window times must be non-negative, got "
                f"period={self.burst_period_ms}, len={self.burst_len_ms}"
            )
        if self.burst_len_ms > 0 and self.burst_period_ms <= 0:
            raise ConfigurationError(
                "a burst length needs a positive burst_period_ms"
            )
        if self.burst_period_ms > 0 and self.burst_len_ms > self.burst_period_ms:
            raise ConfigurationError(
                f"burst_len_ms ({self.burst_len_ms}) must not exceed "
                f"burst_period_ms ({self.burst_period_ms})"
            )

    @property
    def is_lossy(self) -> bool:
        """Whether this delay regime may lose messages."""
        return self.loss > 0.0 or (
            self.burst_period_ms > 0.0 and self.burst_len_ms > 0.0
        )

    def build(self) -> DelayModel:
        """Instantiate the matching :class:`DelayModel` (loss wrapped last)."""
        if self.kind == "fixed":
            model: DelayModel = FixedDelay(self.mean_ms)
        elif self.kind == "normal":
            model = AsynchronousDelay(self.mean_ms, self.std_ms)
        else:
            model = UniformDelay(self.low_ms, self.high_ms)
        if self.burst_period_ms > 0.0 and self.burst_len_ms > 0.0:
            model = BurstyLossWindow(
                base=model,
                period_ms=self.burst_period_ms,
                burst_ms=self.burst_len_ms,
            )
        if self.loss > 0.0:
            model = LossyDelay(base=model, loss_probability=self.loss)
        return model


@dataclass(frozen=True)
class AdversarySpec:
    """``count`` processes exhibiting one Byzantine behaviour.

    ``behaviour`` is one of :data:`repro.network.adversary.BEHAVIOUR_NAMES`
    (``"mute"``, ``"drop"``, ``"forge"``, ``"equivocate"``,
    ``"alter_sender"``, ``"send_empty"``, ``"limited_broadcast"``,
    ``"truncate_path"``); ``placement`` is one of the strategies of
    :mod:`repro.scenarios.placement` (``"random"``, ``"max_degree"``,
    ``"articulation_adjacent"``).  For ``"equivocate"`` the first slot is
    always the broadcast source — the attack only makes sense there —
    and ``conflicting_payload`` optionally pins the second payload the
    equivocator sends (default: derived deterministically from the
    genuine payload and the scenario seed).
    """

    behaviour: str = "mute"
    count: int = 1
    placement: str = "random"
    drop_probability: float = 0.5
    conflicting_payload: Optional[bytes] = None

    # Fields appended after the PR 1 hash freeze, suppressed at their
    # defaults so every pre-existing scenario hash (goldens, cache
    # slots, corpus keys) stays byte-identical.
    _HASH_SUPPRESS_DEFAULTS = {"conflicting_payload": None}

    def __post_init__(self) -> None:
        if self.behaviour not in BEHAVIOUR_NAMES:
            raise ConfigurationError(
                f"unknown behaviour {self.behaviour!r}; expected one of {BEHAVIOUR_NAMES}"
            )
        if self.placement not in PLACEMENT_STRATEGIES:
            raise ConfigurationError(
                f"unknown placement {self.placement!r}; "
                f"expected one of {tuple(PLACEMENT_STRATEGIES)}"
            )
        if self.count < 0:
            raise ConfigurationError(f"count must be non-negative, got {self.count}")
        if self.conflicting_payload is not None:
            if self.behaviour != "equivocate":
                raise ConfigurationError(
                    "conflicting_payload only applies to the 'equivocate' "
                    f"behaviour, not {self.behaviour!r}"
                )
            if not isinstance(self.conflicting_payload, bytes):
                raise ConfigurationError(
                    "conflicting_payload must be bytes, got "
                    f"{type(self.conflicting_payload).__name__}"
                )


@dataclass(frozen=True)
class BroadcastSpec:
    """One broadcast of a workload.

    ``source`` initiates broadcast identifier ``bid`` at absolute
    scenario time ``start_time_ms`` (simulated milliseconds on the
    simulation backend, scaled wall-clock on the asyncio backend).
    ``payload_seed`` selects the deterministic payload the source sends:
    seed 0 is the classic ``repro-scenario-`` pattern every
    single-broadcast run uses, any other seed derives a distinct
    ``payload_size``-byte payload (see :meth:`ScenarioSpec.payload_for`),
    so repeated sensor readings can carry distinguishable content.

    ``successor`` optionally names the process broadcasting *next* in a
    causally-chained workload (see :meth:`WorkloadSpec.causal_chain`):
    the chain is what the RCO protocols order, and the causal oracle
    reads the realized dependencies off the delivery trace.  The
    ``None`` default is suppressed from the scenario hash, so every
    pre-RCO spec keeps its hash, golden summary and cache slot.
    """

    source: int = 0
    bid: int = 0
    payload_seed: int = 0
    start_time_ms: float = 0.0
    successor: Optional[int] = None

    _HASH_SUPPRESS_DEFAULTS = {"successor": None}

    def __post_init__(self) -> None:
        if self.start_time_ms < 0:
            raise ConfigurationError(
                f"broadcast start time must be non-negative, got {self.start_time_ms}"
            )
        if self.successor is not None and self.successor < 0:
            raise ConfigurationError(
                f"successor must be a process id, got {self.successor}"
            )

    @property
    def key(self) -> Tuple[int, int]:
        """The ``(source, bid)`` broadcast key used by the metrics layer."""
        return (self.source, self.bid)


@dataclass(frozen=True)
class WorkloadSpec:
    """A declarative list of broadcasts executed in one scenario run.

    Broadcast keys ``(source, bid)`` must be unique — the metrics layer
    accounts deliveries per key.  Schedule order is canonical: the
    engine always initiates broadcasts sorted by
    ``(start_time_ms, source, bid)``, so two workloads holding the same
    broadcasts in different tuple order execute identically (their
    scenario hashes still differ; prefer the generators below, which
    emit sorted tuples).
    """

    broadcasts: Tuple[BroadcastSpec, ...] = (BroadcastSpec(),)

    def __post_init__(self) -> None:
        if not self.broadcasts:
            raise ConfigurationError("a workload needs at least one broadcast")
        keys = [b.key for b in self.broadcasts]
        if len(set(keys)) != len(keys):
            duplicates = sorted({key for key in keys if keys.count(key) > 1})
            raise ConfigurationError(
                f"duplicate broadcast keys (source, bid) in workload: {duplicates}"
            )

    # ------------------------------------------------------------------
    # Generators
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, source: int = 0, bid: int = 0) -> "WorkloadSpec":
        """The classic one-shot broadcast (equivalent to ``source``/``bid``)."""
        return cls(broadcasts=(BroadcastSpec(source=source, bid=bid),))

    @classmethod
    def repeated(
        cls,
        source: int,
        n: int,
        interval_ms: float,
        *,
        start_ms: float = 0.0,
        first_bid: int = 0,
    ) -> "WorkloadSpec":
        """Sensor-style workload: ``source`` broadcasts ``n`` times.

        Broadcast ``i`` carries identifier ``first_bid + i`` and payload
        seed ``i``, starting at ``start_ms + i * interval_ms``.
        """
        if n < 1:
            raise ConfigurationError(f"repeated workload needs n >= 1, got {n}")
        if interval_ms < 0:
            raise ConfigurationError(
                f"broadcast interval must be non-negative, got {interval_ms}"
            )
        return cls(
            broadcasts=tuple(
                BroadcastSpec(
                    source=source,
                    bid=first_bid + index,
                    payload_seed=index,
                    start_time_ms=start_ms + index * interval_ms,
                )
                for index in range(n)
            )
        )

    @classmethod
    def round_robin(
        cls,
        sources: Sequence[int],
        n: int,
        interval_ms: float = 0.0,
        *,
        start_ms: float = 0.0,
    ) -> "WorkloadSpec":
        """``n`` broadcasts cycling over ``sources`` (one every interval).

        Broadcast ``i`` comes from ``sources[i % len(sources)]`` with a
        per-source monotonically increasing identifier, mirroring a
        sensor field where every node reports in turn.
        """
        sources = tuple(sources)
        if not sources:
            raise ConfigurationError("round_robin workload needs at least one source")
        if len(set(sources)) != len(sources):
            raise ConfigurationError(f"round_robin sources must be unique: {sources}")
        if n < 1:
            raise ConfigurationError(f"round_robin workload needs n >= 1, got {n}")
        if interval_ms < 0:
            raise ConfigurationError(
                f"broadcast interval must be non-negative, got {interval_ms}"
            )
        return cls(
            broadcasts=tuple(
                BroadcastSpec(
                    source=sources[index % len(sources)],
                    bid=index // len(sources),
                    payload_seed=index,
                    start_time_ms=start_ms + index * interval_ms,
                )
                for index in range(n)
            )
        )

    @classmethod
    def causal_chain(
        cls,
        sources: Sequence[int],
        interval_ms: float = 40.0,
        *,
        start_ms: float = 0.0,
    ) -> "WorkloadSpec":
        """A causally-chained workload: each broadcast names its successor.

        Broadcast ``i`` comes from ``sources[i]`` (repeats allowed — a
        process may appear several times in the chain, taking the next
        free per-source identifier each time), starts at
        ``start_ms + i * interval_ms`` and carries
        ``successor=sources[i + 1]`` — the process that reacts to it by
        broadcasting next, the shape a causally-consistent application
        (payment → receipt → audit) produces.  Stagger the interval
        above the expected delivery latency and each broadcast lands in
        its successor's causal past, which the RCO protocols then
        enforce at every correct process.
        """
        sources = tuple(sources)
        if len(sources) < 2:
            raise ConfigurationError(
                f"causal_chain needs at least two links, got {sources}"
            )
        if interval_ms < 0:
            raise ConfigurationError(
                f"broadcast interval must be non-negative, got {interval_ms}"
            )
        next_bid: dict = {}
        broadcasts = []
        for index, source in enumerate(sources):
            bid = next_bid.get(source, 0)
            next_bid[source] = bid + 1
            broadcasts.append(
                BroadcastSpec(
                    source=source,
                    bid=bid,
                    payload_seed=index,
                    start_time_ms=start_ms + index * interval_ms,
                    successor=sources[index + 1]
                    if index + 1 < len(sources)
                    else None,
                )
            )
        return cls(broadcasts=tuple(broadcasts))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def schedule(self) -> Tuple[BroadcastSpec, ...]:
        """The broadcasts in canonical initiation order."""
        return tuple(
            sorted(
                self.broadcasts,
                key=lambda b: (b.start_time_ms, b.source, b.bid),
            )
        )

    @property
    def is_trivial(self) -> bool:
        """Whether this is exactly one classic time-0, seed-0 broadcast.

        A trivial workload is indistinguishable from the legacy
        ``source``/``bid`` single-broadcast form;
        :class:`ScenarioSpec.__post_init__` normalizes it away so the
        spec (and its scenario hash, and therefore its cache slot and
        golden summaries) stays byte-identical to the pre-workload era.
        """
        return (
            len(self.broadcasts) == 1
            and self.broadcasts[0].payload_seed == 0
            and self.broadcasts[0].start_time_ms == 0.0
            and self.broadcasts[0].successor is None
        )


#: Names of the registered execution backends (see
#: :mod:`repro.scenarios.backends`, which asserts it stays in sync).
BACKEND_NAMES = ("simulation", "asyncio")


@dataclass(frozen=True)
class ScenarioSpec:
    """One reproducible broadcast scenario.

    Everything the run depends on is in the spec, so two runs of the same
    spec — in the same process or in different worker processes — produce
    identical results.  ``seed`` drives the topology generation, the link
    delays, the adversary placement and any randomized behaviour.

    ``backend`` selects the execution backend the sweep executors hand
    the cell to: ``"simulation"`` (discrete-event, fully deterministic)
    or ``"asyncio"`` (real TCP sockets on localhost; timings are
    wall-clock, delivery/safety verdicts must match the simulation — see
    :mod:`repro.scenarios.conformance`).
    """

    name: str = "scenario"
    topology: TopologySpec = field(default_factory=TopologySpec)
    delay: DelaySpec = field(default_factory=DelaySpec)
    protocol: str = "cross_layer"
    modifications: ModificationSet = field(default_factory=ModificationSet.dolev_optimized)
    f: int = 0
    payload_size: int = 16
    source: int = 0
    bid: int = 0
    seed: int = 0
    adversaries: Tuple[AdversarySpec, ...] = ()
    faults: Tuple[FaultEvent, ...] = ()
    max_events: Optional[int] = 5_000_000
    shared_bandwidth_bps: Optional[float] = None
    backend: str = "simulation"
    #: ``None`` means the legacy single broadcast ``(source, bid)``.  A
    #: trivial workload (one time-0, seed-0 broadcast) is normalized to
    #: ``None`` at construction, so it compares, hashes and caches
    #: exactly like the equivalent pre-workload spec.
    workload: Optional[WorkloadSpec] = None
    #: Adaptive (trigger-driven) adversary faults; see
    #: :mod:`repro.scenarios.faults`.  The empty default is suppressed
    #: from the scenario hash so pre-adaptive hashes stay valid.
    adaptive: Tuple[AdaptiveFault, ...] = ()

    # Defaults omitted from the canonical hash form (see ``_canonical``
    # and :meth:`scenario_hash`): hashes of specs predating each field
    # stay valid, which the golden files pin.  Values are compared
    # post-canonicalization (tuples become lists).
    _HASH_SUPPRESS_DEFAULTS = {
        "backend": "simulation",
        "workload": None,
        "adaptive": [],
    }

    def __post_init__(self) -> None:
        for fault in self.adaptive:
            if not isinstance(fault, ADAPTIVE_FAULT_TYPES):
                raise ConfigurationError(
                    f"unknown adaptive fault {fault!r}; expected one of "
                    f"{tuple(t.__name__ for t in ADAPTIVE_FAULT_TYPES)}"
                )
        if self.byzantine_requested > self.f:
            raise ConfigurationError(
                f"{self.byzantine_requested} Byzantine processes requested (static "
                f"placements plus adaptive conversions) but f={self.f}"
            )
        # A process has one start time, whichever way each fault treats
        # the traffic that arrives before it.
        deferred = set()
        for fault in self.faults:
            if fault.postpones_only or fault.joins_late:
                if fault.pid in deferred:
                    raise ConfigurationError(
                        f"process {fault.pid} has more than one start-deferring "
                        "fault (DelayedStart / JoinAt): a process starts once"
                    )
                deferred.add(fault.pid)
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.workload is not None and self.workload.is_trivial:
            (broadcast,) = self.workload.broadcasts
            object.__setattr__(self, "source", broadcast.source)
            object.__setattr__(self, "bid", broadcast.bid)
            object.__setattr__(self, "workload", None)

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    def system(self) -> SystemConfig:
        """The :class:`SystemConfig` shared by every protocol instance."""
        return SystemConfig.for_system(self.topology.node_count, self.f)

    def payload(self) -> bytes:
        """A deterministic payload of ``payload_size`` bytes."""
        pattern = b"repro-scenario-"
        data = (pattern * (self.payload_size // len(pattern) + 1))[: self.payload_size]
        return data if data else b""

    def broadcasts(self) -> Tuple[BroadcastSpec, ...]:
        """The workload's broadcasts in canonical initiation order.

        A legacy spec (``workload=None``) yields exactly one time-0
        broadcast from ``source`` with identifier ``bid``.
        """
        if self.workload is None:
            return (BroadcastSpec(source=self.source, bid=self.bid),)
        return self.workload.schedule()

    def payload_for(self, broadcast: BroadcastSpec) -> bytes:
        """The deterministic payload ``broadcast`` carries.

        Seed 0 is the classic :meth:`payload` pattern (so a trivial
        workload's bytes match the legacy single-broadcast run); other
        seeds stretch a seed-keyed SHA-256 stream to ``payload_size``.
        """
        if broadcast.payload_seed == 0:
            return self.payload()
        chunks = []
        length = 0
        counter = 0
        while length < self.payload_size:
            chunk = hashlib.sha256(
                f"repro-workload-{broadcast.payload_seed}-{counter}".encode("utf-8")
            ).digest()
            chunks.append(chunk)
            length += len(chunk)
            counter += 1
        return b"".join(chunks)[: self.payload_size]

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this scenario with a different seed."""
        return replace(self, seed=seed)

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """A copy of this scenario targeting a different execution backend."""
        return replace(self, backend=backend)

    def with_workload(self, workload: Optional[WorkloadSpec]) -> "ScenarioSpec":
        """A copy of this scenario running a different broadcast workload."""
        return replace(self, workload=workload)

    def with_delay(self, delay: DelaySpec) -> "ScenarioSpec":
        """A copy of this scenario under a different delay regime."""
        return replace(self, delay=delay)

    def with_adaptive(self, adaptive: Tuple[AdaptiveFault, ...]) -> "ScenarioSpec":
        """A copy of this scenario with different adaptive faults."""
        return replace(self, adaptive=tuple(adaptive))

    @property
    def is_lossy(self) -> bool:
        """Whether the links may lose messages (lossy delay regime)."""
        return self.delay.is_lossy

    @property
    def is_adaptive(self) -> bool:
        """Whether the scenario carries adaptive (trigger-driven) faults."""
        return bool(self.adaptive)

    @property
    def has_churn(self) -> bool:
        """Whether the scenario carries membership-churn faults."""
        return any(fault.edits_graph for fault in self.faults)

    @property
    def byzantine_requested(self) -> int:
        """Processes counted against ``f``: static placements plus the
        distinct pids adaptive faults may corrupt."""
        corrupted = {fault.pid for fault in self.adaptive if fault.corrupts}
        return sum(adversary.count for adversary in self.adversaries) + len(corrupted)

    def scenario_hash(self) -> str:
        """Stable hex digest identifying this scenario.

        Used as the parallel executor's cache key: two specs with equal
        fields hash identically across processes and interpreter runs
        (unlike ``hash()``, which is salted per interpreter).  Every
        discriminating field is part of the key — the backend (an
        asyncio cell never shadows the simulation cell of the same
        scenario), the workload, the delay-loss fields and the adaptive
        faults — but fields still at the value they had before they
        existed are omitted from the canonical form (see the
        ``_HASH_SUPPRESS_DEFAULTS`` maps on the spec classes), so hashes
        of specs predating each feature stay valid.  The golden files
        pin them; the executors' pickle caches are still invalidated by
        their own version bumps whenever the record layout changes.

        Computed once per instance (the spec is frozen).  The memo is an
        instance attribute, not a field: ``==``, ``repr``, ``replace``
        copies and the canonical form never see it, and
        :meth:`__getstate__` keeps it out of pickles.
        """
        digest = self.__dict__.get("_scenario_hash")
        if digest is None:
            canonical = json.dumps(
                _canonical(self), sort_keys=True, separators=(",", ":")
            )
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_scenario_hash", digest)
        return digest

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_scenario_hash", None)
        return state


def _canonical(value):
    """Recursively convert a spec to JSON-serializable canonical form.

    Dataclasses may declare a ``_HASH_SUPPRESS_DEFAULTS`` class attribute
    mapping field names to their canonicalized historical default: a
    field still holding that default is dropped from the canonical form,
    which is how new spec fields are introduced without invalidating the
    hashes (and therefore golden files and cache slots) of every spec
    that does not use them.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields_dict = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
        suppress = getattr(type(value), "_HASH_SUPPRESS_DEFAULTS", None)
        if suppress:
            for name, default in sorted(suppress.items()):
                if name in fields_dict and fields_dict[name] == default:
                    del fields_dict[name]
        return {"__type__": type(value).__name__, **fields_dict}
    if isinstance(value, (tuple, list)):
        return [_canonical(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        # repro-lint: allow[DET002] -- keys may be mixed-type (unsortable); json.dumps(sort_keys=True) canonicalizes the order downstream
        return {str(key): _canonical(val) for key, val in value.items()}
    return value


__all__ = [
    "TopologySpec",
    "DelaySpec",
    "AdversarySpec",
    "BroadcastSpec",
    "WorkloadSpec",
    "ScenarioSpec",
    "BACKEND_NAMES",
]
