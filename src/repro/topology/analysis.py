"""Topology analysis helpers.

These functions validate that a communication graph meets the requirements
of the protocols: Dolev's reliable communication requires the graph to be
at least ``2f + 1``-vertex-connected (by Menger's theorem this guarantees
``2f + 1`` vertex-disjoint paths between any two processes), while
Bracha's protocol requires full connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.errors import TopologyError
from repro.topology import kernel
from repro.topology.generators import Topology


def vertex_connectivity(topology: Topology) -> int:
    """Vertex connectivity of the communication graph."""
    return topology.vertex_connectivity()


def meets_connectivity_requirement(topology: Topology, config: SystemConfig) -> bool:
    """Whether the graph is at least ``2f + 1``-vertex-connected."""
    if config.f == 0:
        _, masks = topology.bits()
        return topology.n <= 1 or kernel.is_connected(masks, (1 << topology.n) - 1)
    return topology.vertex_connectivity() >= config.min_connectivity


def require_connectivity(topology: Topology, config: SystemConfig) -> None:
    """Raise :class:`TopologyError` unless the graph is ``2f + 1``-connected."""
    if not meets_connectivity_requirement(topology, config):
        raise TopologyError(
            f"the topology has vertex connectivity {topology.vertex_connectivity()} "
            f"but f={config.f} requires at least {config.min_connectivity}"
        )


def disjoint_path_count(topology: Topology, source: int, target: int) -> int:
    """Number of vertex-disjoint paths between ``source`` and ``target``.

    A direct edge counts as one path.  Used by tests to validate the
    premise of Dolev's correctness argument (Menger's theorem).
    """
    return len(topology.disjoint_paths(source, target))


def articulation_points(topology: Topology) -> Tuple[int, ...]:
    """Processes whose removal disconnects the graph, sorted.

    Empty for every biconnected graph — in particular for any topology
    meeting the ``2f + 1``-connectivity requirement with ``f >= 1``.  The
    adversary placement strategies use these as the highest-leverage spots
    for Byzantine processes on weakly connected graphs.
    """
    position, masks = topology.bits()
    cut = kernel.articulation_points(masks, (1 << len(masks)) - 1)
    nodes = tuple(position)
    return tuple(nodes[i] for i in kernel.members(cut))


def all_pairs_min_disjoint_paths(topology: Topology) -> Tuple[int, List[Tuple[int, int]]]:
    """Minimum number of vertex-disjoint paths over all process pairs.

    Returns the minimum and the list of pairs achieving it.  Expensive
    (all-pairs max-flow); intended for tests and small graphs.
    """
    minimum = None
    witnesses: List[Tuple[int, int]] = []
    nodes = topology.nodes
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            count = disjoint_path_count(topology, u, v)
            if minimum is None or count < minimum:
                minimum = count
                witnesses = [(u, v)]
            elif count == minimum:
                witnesses.append((u, v))
    return (minimum if minimum is not None else 0), witnesses


@dataclass(frozen=True)
class ChurnSnapshot:
    """Connectivity of the live graph right after one churn event."""

    time_ms: float
    event: str
    connectivity: int
    meets_bound: bool


@dataclass(frozen=True)
class ChurnConnectivityReport:
    """Whether the ``2f + 1`` bound survived every churn edit of a run.

    ``snapshots[0]`` describes the initial graph (pending joiners
    excluded — they are not members yet); each later snapshot is taken
    immediately after one churn event applied in time order.  ``held``
    is the conjunction of every snapshot's ``meets_bound``.
    """

    required: int
    snapshots: Tuple[ChurnSnapshot, ...]

    @property
    def held(self) -> bool:
        return all(snapshot.meets_bound for snapshot in self.snapshots)


def _live_connectivity(masks: List[int], alive: int) -> int:
    # A lone member (or none) counts as its own connectivity, so one
    # surviving process still meets the f = 0 bound.
    if alive & (alive - 1) == 0:
        return alive.bit_count()
    return kernel.vertex_connectivity(masks, alive)


def connectivity_under_churn(
    topology: Topology, faults: Sequence[object], f: int
) -> ChurnConnectivityReport:
    """Replay a spec's churn events on a graph copy and check the bound.

    ``faults`` may be any spec fault list; only the churn events (the
    ones that declare ``edits_graph``) edit the graph — the rest are
    ignored.  Events apply in ``time_ms`` order (spec order breaks
    ties), mirroring the simulator's scheduler.  The paper's bound asks
    for ``2f + 1`` vertex connectivity among the *member* processes; a
    report with ``held=False`` means reliable communication was not
    guaranteed for some portion of the run, so delivery gaps there are
    a topology property, not a protocol bug.
    """
    from repro.scenarios.faults import JoinAt, LeaveAt

    if f < 0:
        raise TopologyError(f"f must be non-negative, got {f}")
    required = 2 * f + 1
    churn = sorted(
        (
            (fault.time_ms, index, fault)
            for index, fault in enumerate(faults)
            if fault.edits_graph
        ),
        key=lambda item: (item[0], item[1]),
    )
    position, initial = topology.bits()
    masks = list(initial)
    alive = (1 << len(masks)) - 1

    def leave(i: int) -> None:
        nonlocal alive
        alive &= ~(1 << i)
        for j in kernel.members(masks[i]):
            masks[j] &= ~(1 << i)
        masks[i] = 0

    # Pending joiners are not members of the initial graph.
    for _, _, fault in churn:
        if isinstance(fault, JoinAt):
            if fault.pid not in position:
                raise TopologyError(f"JoinAt targets unknown process {fault.pid}")
            leave(position[fault.pid])
    connectivity = _live_connectivity(masks, alive)
    snapshots = [
        ChurnSnapshot(
            time_ms=0.0,
            event="initial",
            connectivity=connectivity,
            meets_bound=connectivity >= required,
        )
    ]
    for time_ms, _, fault in churn:
        pid = position.get(fault.pid)
        if isinstance(fault, JoinAt):
            alive |= 1 << pid
            for j in kernel.members(initial[pid] & alive):
                masks[pid] |= 1 << j
                masks[j] |= 1 << pid
            event = f"join({fault.pid})"
        elif isinstance(fault, LeaveAt):
            if pid is not None and alive >> pid & 1:
                leave(pid)
            event = f"leave({fault.pid})"
        else:
            old, new = position.get(fault.old_peer), position.get(fault.new_peer)
            if pid is not None and old is not None:
                masks[pid] &= ~(1 << old)
                masks[old] &= ~(1 << pid)
            if pid is not None and new is not None and alive >> pid & 1 and alive >> new & 1:
                masks[pid] |= 1 << new
                masks[new] |= 1 << pid
            event = f"rewire({fault.pid}: {fault.old_peer}->{fault.new_peer})"
        connectivity = _live_connectivity(masks, alive)
        snapshots.append(
            ChurnSnapshot(
                time_ms=time_ms,
                event=event,
                connectivity=connectivity,
                meets_bound=connectivity >= required,
            )
        )
    return ChurnConnectivityReport(required=required, snapshots=tuple(snapshots))


__all__ = [
    "vertex_connectivity",
    "meets_connectivity_requirement",
    "require_connectivity",
    "disjoint_path_count",
    "articulation_points",
    "all_pairs_min_disjoint_paths",
    "ChurnSnapshot",
    "ChurnConnectivityReport",
    "connectivity_under_churn",
]
