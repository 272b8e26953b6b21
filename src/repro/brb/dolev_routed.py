"""Dolev's reliable communication with known topology (routed variant).

Dolev's original paper presents two protocol variants (Sec. 4.2 of the
reproduced paper): the flooding variant for unknown topologies — the one
the Bracha-Dolev combination builds on — and a *routed* variant for known
topologies, in which the source forwards its content along ``2f + 1``
vertex-disjoint routes to every destination and a destination delivers as
soon as ``f + 1`` copies arrived over disjoint routes.

This module implements the routed variant as an additional substrate.  It
is not used by the paper's evaluation (which assumes unknown topologies)
but provides a useful baseline: on a known topology it exchanges
``O(N · (2f+1) · path length)`` messages instead of flooding.

Routes are source routes: every message carries the full remaining route,
and intermediate processes simply pop themselves off the route and forward
to the next hop.  Intermediate Byzantine processes can drop or corrupt the
copies they relay, but since at most ``f`` of the ``2f + 1`` disjoint
routes contain a Byzantine process, ``f + 1`` genuine copies always arrive
over routes whose intermediaries are all correct, and any corrupted copy
can be outvoted exactly as in the flooding variant (delivery requires
``f + 1`` disjoint routes agreeing on the same content).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.core.config import SystemConfig
from repro.core.errors import TopologyError
from repro.core.events import Command, RCDeliver, SendTo
from repro.core.messages import BrachaMessage, MessageType
from repro.core.protocol import BroadcastProtocol
from repro.core.sizes import FieldSizes, PAPER_FIELD_SIZES
from repro.paths.disjoint import DisjointPathVerifier
from repro.paths.pathset import path_to_bits
from repro.topology.generators import Topology


@dataclass(frozen=True)
class RoutedMessage:
    """A content travelling along a fixed source route.

    ``route`` is the remaining route: the identifiers of the processes the
    message still has to visit, ending with the destination.  ``traversed``
    lists the intermediaries already visited (excluding the source), which
    the destination uses for the disjoint-route check.
    """

    content: BrachaMessage
    route: Tuple[int, ...]
    traversed: Tuple[int, ...] = ()

    def wire_size(self, sizes: FieldSizes = PAPER_FIELD_SIZES) -> int:
        """Bytes on the wire: the content plus both route fields."""
        route_cost = sizes.path_cost(len(self.route)) + sizes.path_cost(len(self.traversed))
        return self.content.wire_size(sizes) + route_cost


def disjoint_routes(
    topology: Topology, source: int, destination: int, count: int
) -> List[Tuple[int, ...]]:
    """Up to ``count`` vertex-disjoint routes from ``source`` to ``destination``.

    Each route is the sequence of hops after the source, ending with the
    destination.  A direct edge contributes the single-hop route
    ``(destination,)``.  Raises :class:`TopologyError` when the graph does
    not contain ``count`` disjoint routes (i.e. it is not ``count``-connected
    between the two endpoints).
    """
    routes = [path[1:] for path in topology.disjoint_paths(source, destination, count)]
    if len(routes) < count:
        raise TopologyError(
            f"only {len(routes)} vertex-disjoint routes between {source} and "
            f"{destination}, {count} required"
        )
    return routes


class RoutedDolevBroadcast(BroadcastProtocol):
    """Reliable communication over precomputed vertex-disjoint routes.

    Parameters
    ----------
    topology:
        The full communication graph, known to every process in this
        variant.  Routes are computed lazily per destination and cached.
    """

    def __init__(
        self,
        process_id: int,
        config: SystemConfig,
        neighbors: Iterable[int],
        topology: Topology,
    ) -> None:
        super().__init__(process_id, config, neighbors)
        if frozenset(self.neighbors) != topology.neighbors(process_id):
            raise TopologyError(
                "the declared neighbors do not match the known topology"
            )
        self.topology = topology
        self._routes_cache: Dict[int, List[Tuple[int, ...]]] = {}
        self._verifiers: Dict[BrachaMessage, DisjointPathVerifier] = {}

    # ------------------------------------------------------------------
    # Interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: bytes, bid: int = 0) -> List[Command]:
        content = BrachaMessage(
            mtype=MessageType.SEND, source=self.process_id, bid=bid, payload=payload
        )
        commands: List[Command] = []
        self.delivered[(self.process_id, bid)] = payload
        commands.append(RCDeliver(payload=payload, source=self.process_id))
        for destination in self.config.processes:
            if destination == self.process_id:
                continue
            for route in self._routes_to(destination):
                commands.append(
                    SendTo(dest=route[0], message=RoutedMessage(content=content, route=route))
                )
        return commands

    def on_message(self, sender: int, message: RoutedMessage) -> List[Command]:
        if not isinstance(message, RoutedMessage) or not isinstance(
            message.content, BrachaMessage
        ):
            return []
        if not message.route or message.route[0] != self.process_id:
            # Mis-routed (or forged) message: not addressed to this process.
            return []
        remaining = message.route[1:]
        traversed = message.traversed
        if remaining:
            # Intermediate hop: forward along the route, recording ourselves.
            next_hop = remaining[0]
            if next_hop not in self.neighbors:
                return []  # the route does not follow the real topology
            forwarded = RoutedMessage(
                content=message.content,
                route=remaining,
                traversed=traversed + (self.process_id,),
            )
            return [SendTo(dest=next_hop, message=forwarded)]
        return self._deliver_attempt(sender, message)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _routes_to(self, destination: int) -> List[Tuple[int, ...]]:
        routes = self._routes_cache.get(destination)
        if routes is None:
            routes = disjoint_routes(
                self.topology, self.process_id, destination, self.config.min_connectivity
            )
            self._routes_cache[destination] = routes
        return routes

    def _deliver_attempt(self, sender: int, message: RoutedMessage) -> List[Command]:
        content = message.content
        key = (content.source, content.bid)
        if key in self.delivered:
            return []
        is_process = self.config.is_process
        if not (is_process(content.source) and all(map(is_process, message.traversed))):
            return []  # forged identifiers: drop before any ``1 << id``
        verifier = self._verifiers.get(content)
        if verifier is None:
            verifier = DisjointPathVerifier(self.config.disjoint_paths_required)
            self._verifiers[content] = verifier
        # Node mask of the intermediaries, without the source and this process.
        intermediaries = path_to_bits(message.traversed) | 1 << sender
        result = verifier.add_path(
            intermediaries & ~(1 << content.source | 1 << self.process_id)
        )
        if not result.newly_satisfied:
            return []
        self.delivered[key] = content.payload
        return [RCDeliver(payload=content.payload, source=content.source)]

    def state_size_estimate(self) -> int:
        """Stored routes and verification state (memory proxy)."""
        routes = sum(len(r) for r in self._routes_cache.values())
        verifiers = sum(v.state_size_estimate() for v in self._verifiers.values())
        return routes + verifiers


__all__ = ["RoutedDolevBroadcast", "RoutedMessage", "disjoint_routes"]
