"""Reference implementations used to validate the incremental verifier.

These functions are exponential-time and intended for tests only:

* :func:`max_disjoint_selection` — exhaustive search for the maximum
  number of pairwise node-disjoint paths in a set of received paths
  (the quantity the incremental :class:`~repro.paths.disjoint.DisjointPathVerifier`
  tracks).
* :func:`graph_disjoint_paths` — vertex-disjoint paths between two nodes
  of a graph, computed by the topology kernel's max flow (Menger's
  theorem), used to validate topology requirements.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.topology.generators import Topology


def max_disjoint_selection(paths: Sequence[Iterable[int]]) -> int:
    """Maximum number of pairwise node-disjoint paths among ``paths``.

    Each path is the set of its intermediary processes; the empty path is
    disjoint from every other path.  Exhaustive branch-and-bound search.
    """
    frozen: List[FrozenSet[int]] = [frozenset(p) for p in paths]
    # Empty paths are disjoint from everything but count only once each.
    has_direct = any(not p for p in frozen)
    nonempty = tuple(sorted({p for p in frozen if p}, key=sorted))
    best = _search(nonempty, frozenset())
    return best + (1 if has_direct else 0)


def _search(paths: Tuple[FrozenSet[int], ...], used: FrozenSet[int]) -> int:
    best = 0
    for index, path in enumerate(paths):
        if path & used:
            continue
        candidate = 1 + _search(paths[index + 1 :], used | path)
        if candidate > best:
            best = candidate
    return best


def graph_disjoint_paths(topology: Topology, source: int, target: int) -> List[List[int]]:
    """Vertex-disjoint paths between ``source`` and ``target`` in the graph.

    A direct edge is returned as the two-node path ``[source, target]``.
    """
    return [list(path) for path in topology.disjoint_paths(source, target)]


__all__ = ["max_disjoint_selection", "graph_disjoint_paths"]
