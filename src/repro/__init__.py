"""Practical Byzantine Reliable Broadcast on Partially Connected Networks.

A faithful Python reproduction of the protocols and evaluation of
Bonomi, Decouchant, Farina, Rahli and Tixeuil (ICDCS 2021): Byzantine
reliable broadcast (BRB) on authenticated, partially connected networks,
obtained by combining Bracha's double-echo broadcast with Dolev's
reliable communication and optimizing the combination with the MD.1–5
and MBD.1–12 modifications.

Quickstart
----------
>>> from repro import (SystemConfig, ModificationSet, CrossLayerBrachaDolev,
...                    SimulatedNetwork, random_regular_topology)
>>> config = SystemConfig.for_system(10, 1)
>>> topology = random_regular_topology(10, 4, seed=1, min_connectivity=3)
>>> protocols = {
...     pid: CrossLayerBrachaDolev(pid, config, sorted(topology.neighbors(pid)))
...     for pid in topology.nodes
... }
>>> network = SimulatedNetwork(topology, protocols, seed=1)
>>> network.broadcast(0, b"hello", bid=0)
>>> metrics = network.run()
>>> len(metrics.deliveries_for((0, 0)))
10
"""

from repro.core.config import SystemConfig
from repro.core.events import BRBDeliver, RCDeliver, SendTo
from repro.core.messages import (
    BrachaMessage,
    CrossLayerMessage,
    DolevMessage,
    MessageType,
)
from repro.core.modifications import ModificationSet
from repro.core.sizes import FieldSizes, PAPER_FIELD_SIZES
from repro.brb.bracha import BrachaBroadcast
from repro.brb.bracha_dolev import BrachaDolevBroadcast
from repro.brb.cpa import BrachaCPABroadcast, CPABroadcast
from repro.brb.dolev import DolevBroadcast, OptimizedDolevBroadcast
from repro.brb.dolev_routed import RoutedDolevBroadcast
from repro.brb.optimized import CrossLayerBrachaDolev
from repro.metrics.collector import MetricsCollector, RunMetrics
from repro.network.simulation.delays import (
    AsynchronousDelay,
    BurstyLossWindow,
    FixedDelay,
    LossyDelay,
    UniformDelay,
)
from repro.network.simulation.network import SimulatedNetwork
from repro.runner.parallel import SweepExecutor, run_sweep
from repro.scenarios import (
    AdversarySpec,
    AsyncioBackend,
    BroadcastOutcome,
    BroadcastSpec,
    ConformanceReport,
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelayedStart,
    DelaySpec,
    LinkDropWindow,
    ObservationFilter,
    SafetyVerdict,
    ScenarioBackend,
    ScenarioResult,
    ScenarioSpec,
    SimulationBackend,
    TopologySpec,
    TurnByzantineWhen,
    WorkloadSpec,
    assert_safe,
    check_result,
    expand_grid,
    get_backend,
    run_conformance,
    run_scenario,
    sample_lossy_adaptive_specs,
    seed_cells,
)
from repro.topology.generators import (
    Topology,
    complete_topology,
    harary_topology,
    random_regular_topology,
    ring_topology,
    torus_topology,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "ModificationSet",
    "FieldSizes",
    "PAPER_FIELD_SIZES",
    # messages and events
    "MessageType",
    "BrachaMessage",
    "DolevMessage",
    "CrossLayerMessage",
    "SendTo",
    "BRBDeliver",
    "RCDeliver",
    # protocols
    "BrachaBroadcast",
    "DolevBroadcast",
    "OptimizedDolevBroadcast",
    "RoutedDolevBroadcast",
    "CPABroadcast",
    "BrachaCPABroadcast",
    "BrachaDolevBroadcast",
    "CrossLayerBrachaDolev",
    # topologies
    "Topology",
    "random_regular_topology",
    "complete_topology",
    "harary_topology",
    "ring_topology",
    "torus_topology",
    # runtime and metrics
    "SimulatedNetwork",
    "FixedDelay",
    "AsynchronousDelay",
    "UniformDelay",
    "LossyDelay",
    "BurstyLossWindow",
    "MetricsCollector",
    "RunMetrics",
    # scenarios and sweeps
    "ScenarioSpec",
    "TopologySpec",
    "DelaySpec",
    "AdversarySpec",
    "BroadcastSpec",
    "WorkloadSpec",
    "CrashAt",
    "LinkDropWindow",
    "DelayedStart",
    "ObservationFilter",
    "CrashWhen",
    "TurnByzantineWhen",
    "CutLinkWhen",
    "ScenarioResult",
    "BroadcastOutcome",
    "run_scenario",
    "expand_grid",
    "seed_cells",
    "SweepExecutor",
    "run_sweep",
    # execution backends and conformance
    "ScenarioBackend",
    "SimulationBackend",
    "AsyncioBackend",
    "get_backend",
    "ConformanceReport",
    "SafetyVerdict",
    "run_conformance",
    # safety oracle
    "assert_safe",
    "check_result",
    "sample_lossy_adaptive_specs",
]
