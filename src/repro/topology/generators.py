"""Topology generators used by the tests, examples and benchmarks.

The central type is :class:`Topology`, an immutable view of an undirected
communication graph: each node is a process and each edge an authenticated
point-to-point channel (Sec. 3 of the paper).  The evaluation workload of
the paper — random regular graphs whose vertex connectivity is at least
``2f + 1`` — is produced by :func:`random_regular_topology`.

Every graph question (disjoint paths, vertex connectivity) is answered by
the bit-mask kernel in :mod:`repro.topology.kernel` over a mask view that
each topology builds once.  The generators need nothing outside the
standard library: the deterministic kinds are plain edge lists, and the
random regular graph is NetworkX 3.6.1's pairing algorithm ported call for
call, so a given seed keeps its graph whatever NetworkX release is, or is
not, installed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import TopologyError
from repro.topology import kernel


@dataclass(frozen=True)
class Topology:
    """An undirected communication graph over integer process identifiers."""

    adjacency: Mapping[int, FrozenSet[int]]
    name: str = "topology"
    # The mask view and the vertex connectivity, computed on first use.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, nodes: Iterable[int], edges: Iterable[Tuple[int, int]], name: str = "topology"
    ) -> "Topology":
        """Build a topology from an explicit node and edge list."""
        adjacency: Dict[int, set] = {node: set() for node in nodes}
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop on process {u} is not allowed")
            if u not in adjacency or v not in adjacency:
                raise TopologyError(f"edge ({u}, {v}) references an unknown process")
            adjacency[u].add(v)
            adjacency[v].add(u)
        frozen = {node: frozenset(neigh) for node, neigh in adjacency.items()}
        return cls(adjacency=frozen, name=name)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[int, ...]:
        """Sorted tuple of process identifiers."""
        return tuple(sorted(self.adjacency))

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(neigh) for neigh in self.adjacency.values()) // 2

    def neighbors(self, node: int) -> FrozenSet[int]:
        """Neighbors of ``node``."""
        try:
            return self.adjacency[node]
        except KeyError as exc:
            raise TopologyError(f"unknown process {node}") from exc

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self.neighbors(node))

    def min_degree(self) -> int:
        """Smallest degree over the graph."""
        return min(len(neigh) for neigh in self.adjacency.values())

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` share an authenticated channel."""
        return v in self.adjacency.get(u, frozenset())

    def bits(self) -> Tuple[Dict[int, int], List[int]]:
        """The kernel's view: each process's position (in sorted order) and
        one adjacency mask per position.  Built once; do not mutate."""
        view = self._memo.get("bits")
        if view is None:
            position = {node: i for i, node in enumerate(self.nodes)}
            masks = []
            for node in position:
                mask = 0
                for other in self.adjacency[node]:
                    mask |= 1 << position[other]
                masks.append(mask)
            view = self._memo["bits"] = (position, masks)
        return view

    def vertex_connectivity(self) -> int:
        """Vertex connectivity of the graph (exact, cached after the first call)."""
        value = self._memo.get("connectivity")
        if value is None:
            _, masks = self.bits()
            value = self._memo["connectivity"] = kernel.vertex_connectivity(
                masks, (1 << len(masks)) - 1
            )
        return value

    def disjoint_paths(
        self, source: int, target: int, limit: Optional[int] = None
    ) -> List[Tuple[int, ...]]:
        """A maximum set of internally vertex-disjoint ``source``–``target`` paths.

        Each path runs from ``source`` to ``target``; a direct edge is the
        two-node path and comes first, the rest follow by first hop.  With
        ``limit`` the search stops after that many paths.  By Menger's
        theorem the count is the local vertex connectivity of the pair.
        """
        position, masks = self.bits()
        ends = []
        for role, node in (("source", source), ("target", target)):
            if node not in position:
                raise TopologyError(f"unknown {role} process {node}")
            ends.append(position[node])
        if source == target:
            raise TopologyError(f"source and target must differ (both are {source})")
        if limit is not None and limit < 0:
            raise TopologyError(f"limit must be non-negative, got {limit}")
        nodes = tuple(position)
        return [
            tuple(nodes[i] for i in path)
            for path in kernel.disjoint_paths(masks, ends[0], ends[1], limit)
        ]

    def is_fully_connected(self) -> bool:
        """Whether every pair of processes shares a channel."""
        return all(len(neigh) == self.n - 1 for neigh in self.adjacency.values())

    def __iter__(self):
        return iter(self.nodes)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------
def complete_topology(n: int) -> Topology:
    """Fully connected topology over ``n`` processes (Bracha's assumption)."""
    if n < 0:
        raise TopologyError(f"a complete topology needs n >= 0 processes, got n={n}")
    return Topology.from_edges(
        range(n), itertools.combinations(range(n), 2), name=f"complete-{n}"
    )


def ring_topology(n: int) -> Topology:
    """Cycle over ``n`` processes (2-connected; tolerates no Byzantine relay)."""
    if n < 3:
        raise TopologyError("a ring needs at least 3 processes")
    return Topology.from_edges(
        range(n), ((i, (i + 1) % n) for i in range(n)), name=f"ring-{n}"
    )


def line_topology(n: int) -> Topology:
    """Path graph over ``n`` processes (1-connected; used by negative tests)."""
    if n < 2:
        raise TopologyError("a line needs at least 2 processes")
    return Topology.from_edges(
        range(n), ((i, i + 1) for i in range(n - 1)), name=f"line-{n}"
    )


def torus_topology(rows: int, cols: int) -> Topology:
    """2-D torus grid (4-connected for ``rows, cols >= 3``).

    Process ``r * cols + c`` sits at row ``r``, column ``c`` and is linked
    to its four wrap-around neighbours.
    """
    if rows < 3 or cols < 3:
        raise TopologyError("a torus needs at least 3 rows and 3 columns")
    edges = []
    for r, c in itertools.product(range(rows), range(cols)):
        edges.append((r * cols + c, (r + 1) % rows * cols + c))
        edges.append((r * cols + c, r * cols + (c + 1) % cols))
    return Topology.from_edges(range(rows * cols), edges, name=f"torus-{rows}x{cols}")


def harary_topology(n: int, k: int) -> Topology:
    """Harary graph ``H(k, n)``: the minimal-edge ``k``-connected graph.

    Useful in tests because its vertex connectivity is exactly ``k`` by
    construction, which exercises the tight case of the ``2f + 1``
    connectivity requirement.  Harary's construction: each process is
    linked to the ``k // 2`` next ones around a circle; for odd ``k`` the
    diameters are added too (``n // 2`` of them, one more for odd ``n``).
    """
    if k >= n:
        raise TopologyError(f"connectivity k={k} requires more than {k} processes")
    if k < 2:
        raise TopologyError("a Harary graph needs k >= 2")
    edges = [(i, (i + j) % n) for i in range(n) for j in range(1, k // 2 + 1)]
    if k % 2:
        half = n // 2
        edges += [(i, (i + half) % n) for i in range(half + n % 2)]
    return Topology.from_edges(range(n), edges, name=f"harary-{k}-{n}")


def _suitable(adj: List[int], potential: Dict[int, int]) -> bool:
    # NetworkX's ``_suitable``, quirk included: the swap leaks into the
    # next inner comparison, and the answer decides which draws retry.
    if not potential:
        return True
    for s1 in potential:
        for s2 in potential:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if not adj[s1] >> s2 & 1:
                return True
    return False


def _pairing(n: int, k: int, rng: random.Random) -> List[int]:
    """One ``k``-regular graph as adjacency masks, drawn like NetworkX 3.6.1's
    ``random_regular_graph(k, n, seed)`` with ``rng = random.Random(seed)``.

    Steger–Wormald pairing: shuffle ``k`` stubs per process, pair them up,
    keep every pair that is not a loop or a repeated edge, and re-pair the
    stubs of the rejected ones until none remain — or start over when no
    rejected stub can still form a new edge.  Same ``rng.shuffle`` calls in
    the same order, so the same graphs.
    """
    while True:
        adj = [0] * n
        stubs = list(range(n)) * k
        while stubs:
            potential: Dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for s1, s2 in zip(pairs, pairs):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and not adj[s1] >> s2 & 1:
                    adj[s1] |= 1 << s2
                    adj[s2] |= 1 << s1
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not _suitable(adj, potential):
                break
            stubs = [node for node, count in potential.items() for _ in range(count)]
        else:
            return adj


def random_regular_topology(
    n: int,
    k: int,
    *,
    seed: Optional[int] = None,
    min_connectivity: Optional[int] = None,
    max_attempts: int = 50,
) -> Topology:
    """Random ``k``-regular graph with vertex connectivity at least ``min_connectivity``.

    This reproduces the paper's workload generator (Sec. 7.1): a random
    regular graph drawn with NetworkX's algorithm [36, 37], regenerated
    until it meets the required connectivity.  By default the required
    connectivity is ``k`` itself, which random regular graphs achieve with
    overwhelming probability for the sizes used in the evaluation.  A
    candidate is accepted by asking the kernel for ``min(κ, required)``,
    which on dense graphs is settled by common-neighbour counts alone.

    Parameters
    ----------
    n:
        Number of processes.
    k:
        Degree of every process (the paper calls this the network
        connectivity).
    seed:
        Seed of the generator; each retry derives a new seed from it so
        the function stays deterministic for a given ``seed``.
    min_connectivity:
        Minimum acceptable vertex connectivity (defaults to ``k``).
    max_attempts:
        Number of regeneration attempts before giving up.
    """
    if k < 0:
        raise TopologyError(f"degree k={k} must be non-negative")
    if k >= n:
        raise TopologyError(f"degree k={k} must be smaller than n={n}")
    if (n * k) % 2 != 0:
        raise TopologyError(f"n*k must be even to build a k-regular graph (n={n}, k={k})")
    target = k if min_connectivity is None else min_connectivity
    if target > k:
        raise TopologyError(
            f"required connectivity {target} cannot exceed the degree k={k}"
        )
    if target < 0:
        raise TopologyError(f"min_connectivity={target} must be non-negative")
    base_seed = 0 if seed is None else seed
    everyone = (1 << n) - 1
    last_connectivity = -1
    for attempt in range(max_attempts):
        masks = _pairing(n, k, random.Random(base_seed + attempt * 7919))
        last_connectivity = kernel.vertex_connectivity(masks, everyone, limit=target)
        if last_connectivity >= target:
            edges = [
                (u, v) for u, mask in enumerate(masks) for v in kernel.members(mask) if u < v
            ]
            return Topology.from_edges(range(n), edges, name=f"regular-{n}-{k}-s{base_seed}")
    raise TopologyError(
        f"could not generate a {target}-connected {k}-regular graph with n={n} "
        f"after {max_attempts} attempts (last connectivity: {last_connectivity})"
    )


__all__ = [
    "Topology",
    "complete_topology",
    "ring_topology",
    "line_topology",
    "torus_topology",
    "harary_topology",
    "random_regular_topology",
]
