"""Declarative, reproducible simulation scenarios.

This package turns the ad-hoc experiment loops of the benchmarks into a
composable scenario engine:

* :mod:`repro.scenarios.spec` — pure-data specs describing a topology, a
  delay regime, a protocol configuration, an adversary and a broadcast
  workload (:class:`~repro.scenarios.spec.WorkloadSpec`: one broadcast
  by default, sensor-style repeated/round-robin schedules otherwise);
* :mod:`repro.scenarios.placement` — strategies choosing *where* the
  Byzantine processes sit (random / max-degree / articulation-adjacent);
* :mod:`repro.scenarios.faults` — timed fault events (crash-at-time,
  link-drop windows, delayed-start nodes) and adaptive, trigger-driven
  adversaries (crash/convert/cut once observed protocol events match);
* :mod:`repro.scenarios.grid` — cartesian expansion of a base spec into
  sweep cells;
* :mod:`repro.scenarios.engine` — the runner producing a
  :class:`~repro.scenarios.engine.ScenarioResult` per cell, with one
  :class:`~repro.scenarios.engine.BroadcastOutcome` per workload
  broadcast and run-level throughput aggregates;
* :mod:`repro.scenarios.backends` — pluggable execution backends: the
  deterministic discrete-event simulator and the asyncio TCP runtime
  (real sockets on localhost), selected per cell via ``spec.backend``;
* :mod:`repro.scenarios.conformance` — cross-backend agreement on the
  delivery/safety verdicts of one spec (safety-only verdicts for lossy
  or adaptive scenarios, whose delivery sets legitimately differ);
* :mod:`repro.scenarios.oracle` — the safety oracle: paper-level BRB
  invariants checked on any result, plus randomized lossy/adaptive
  scenario grids for the cross-backend oracle test suite.

Scenario cells are plain picklable data, which is what lets
:class:`repro.runner.parallel.SweepExecutor` fan them out over a process
pool while guaranteeing results identical to a serial run.
"""

from repro.scenarios.backends import (
    BACKENDS,
    AsyncioBackend,
    ScenarioBackend,
    SimulationBackend,
    get_backend,
)
from repro.scenarios.conformance import (
    BackendVerdict,
    BroadcastVerdict,
    ConformanceReport,
    SafetyVerdict,
    broadcast_verdict_of,
    conformance_mode_for,
    no_forged_deliveries,
    run_conformance,
    safety_verdict_of,
    verdict_of,
)
from repro.scenarios.engine import (
    BroadcastOutcome,
    ScenarioResult,
    build_network,
    build_protocols,
    freeze_broadcast_outcome,
    freeze_result,
    place_byzantine,
    run_scenario,
    simulate_scenario,
)
from repro.scenarios.faults import (
    AdaptiveController,
    AdaptiveFault,
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelayedStart,
    FaultEvent,
    JoinAt,
    LeaveAt,
    LinkDropWindow,
    ObservationFilter,
    RewireLinkAt,
    TurnByzantineWhen,
)
from repro.scenarios.grid import expand_grid, seed_cells
from repro.scenarios.oracle import (
    OracleViolation,
    assert_safe,
    check_causal_order,
    check_result,
    sample_lossy_adaptive_specs,
    totality_expected,
)
from repro.scenarios.jsonio import (
    SpecJSONError,
    dumps_spec_json,
    loads_spec_json,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.scenarios.placement import PLACEMENT_STRATEGIES, place_adversaries
from repro.scenarios.reduce import (
    REDUCTION_OPERATORS,
    fault_event_count,
    reduction_candidates,
    spec_size,
)
from repro.scenarios.serialize import (
    SerializationError,
    dumps_result,
    dumps_spec,
    loads_result,
    loads_spec,
)
from repro.scenarios.spec import (
    BACKEND_NAMES,
    AdversarySpec,
    BroadcastSpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    # specs
    "ScenarioSpec",
    "TopologySpec",
    "DelaySpec",
    "AdversarySpec",
    "BroadcastSpec",
    "WorkloadSpec",
    "BACKEND_NAMES",
    # faults
    "CrashAt",
    "LinkDropWindow",
    "DelayedStart",
    "JoinAt",
    "LeaveAt",
    "RewireLinkAt",
    "FaultEvent",
    # adaptive faults
    "ObservationFilter",
    "CrashWhen",
    "TurnByzantineWhen",
    "CutLinkWhen",
    "AdaptiveFault",
    "AdaptiveController",
    # placement
    "PLACEMENT_STRATEGIES",
    "place_adversaries",
    # grid
    "expand_grid",
    "seed_cells",
    # engine
    "ScenarioResult",
    "BroadcastOutcome",
    "run_scenario",
    "simulate_scenario",
    "build_network",
    "build_protocols",
    "place_byzantine",
    "freeze_result",
    "freeze_broadcast_outcome",
    # backends
    "ScenarioBackend",
    "SimulationBackend",
    "AsyncioBackend",
    "BACKENDS",
    "get_backend",
    # conformance
    "BackendVerdict",
    "BroadcastVerdict",
    "SafetyVerdict",
    "ConformanceReport",
    "verdict_of",
    "broadcast_verdict_of",
    "safety_verdict_of",
    "no_forged_deliveries",
    "conformance_mode_for",
    "run_conformance",
    # safety oracle
    "OracleViolation",
    "check_result",
    "check_causal_order",
    "assert_safe",
    "totality_expected",
    "sample_lossy_adaptive_specs",
    # wire serialization
    "SerializationError",
    "dumps_spec",
    "loads_spec",
    "dumps_result",
    "loads_result",
    # JSON spec serialization (corpus format)
    "SpecJSONError",
    "spec_to_jsonable",
    "spec_from_jsonable",
    "dumps_spec_json",
    "loads_spec_json",
    # spec reduction (delta debugging)
    "REDUCTION_OPERATORS",
    "reduction_candidates",
    "fault_event_count",
    "spec_size",
]
