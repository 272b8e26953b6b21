"""Bit-mask graph kernel: disjoint paths, vertex connectivity, cut vertices.

A graph here is a list of int masks over vertex *positions* ``0 .. n-1``:
bit ``j`` of ``adj[i]`` is set when ``i`` and ``j`` share an edge.
:class:`~repro.topology.generators.Topology` maps process identifiers to
positions (in sorted order) and is the only caller; every function below
trusts its input.

Disjoint paths
    :func:`disjoint_paths` finds internally vertex-disjoint ``s``–``t``
    paths as a unit-capacity max flow on the vertex-split graph (every
    vertex ``v`` other than ``s`` and ``t`` becomes ``v_in → v_out`` with
    capacity one), growing the flow by one BFS augmenting path at a time
    and stopping once ``limit`` paths are found.  Common neighbours come
    first: every ``w`` adjacent to both ends is the path ``s, w, t``, and
    some maximum path set contains all of them — in any maximum set, a
    path through ``w`` can be replaced by ``s, w, t`` without touching
    the others, and a ``w`` on no path would extend the set — so they are
    counted without a search, and the flow starts from them.  On the
    paper's dense workload (31 processes, degree 24, required
    connectivity 9) every non-adjacent pair already shares at least 9
    neighbours, and the connectivity check runs no search at all.  A
    direct ``s``–``t`` edge is one path of its own and is not an arc of
    the flow.

Vertex connectivity
    :func:`vertex_connectivity` is the Esfahanian–Hakimi pair set — the
    one NetworkX's ``node_connectivity`` uses: with ``v`` a vertex of
    minimum degree ``δ``, κ is the minimum of ``δ``, the local
    connectivity of ``v`` to each non-neighbour, and that of each
    non-adjacent pair of ``v``'s neighbours.  Each local query runs with
    the running minimum as its limit, so an answer limited to ``L`` is
    ``min(L, κ)`` and costs no more than it must.

Analysis
    :func:`is_connected` and :func:`articulation_points` (iterative
    Hopcroft–Tarjan low-link) work on a *live* vertex mask, so a churn
    replay can delete and re-add vertices in place.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def members(mask: int) -> List[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(adj: Sequence[int], alive: int) -> bool:
    """Whether the vertices of ``alive`` induce a connected graph (``adj``
    must not point outside ``alive``).  The empty graph is not connected."""
    if not alive:
        return False
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen == alive


def _flow(adj: Sequence[int], s: int, t: int, limit: int):
    """A maximum (or ``limit``-sized) internally disjoint path set.

    Returns ``(count, first, nxt)``: the number of paths including a
    direct edge, the mask of first hops out of ``s`` and each internal
    vertex's successor on its path (``-1`` off every path).  ``count``
    may exceed ``limit`` when the common neighbours alone do.
    """
    sbit, tbit = 1 << s, 1 << t
    common = adj[s] & adj[t]
    count = (1 if adj[s] & tbit else 0) + common.bit_count()
    nxt: List[int] = []
    if count >= limit:
        return count, common, nxt
    n = len(adj)
    nxt = [-1] * n
    prv = [-1] * n
    first = common
    for w in members(common):
        nxt[w], prv[w] = t, s
    while count < limit:
        # BFS over the residual vertex-split graph.  ``pin[v]`` is how
        # ``v_in`` was reached (from ``u_out`` along a free arc, or -2:
        # backwards through ``v``'s own saturated ``v_in → v_out``);
        # ``pout[v]`` how ``v_out`` was (-1: from ``v_in``, or ``w``:
        # backwards along the path arc ``v → w``).  Arcs opposite to a
        # path arc are never taken: the detour through the two vertex
        # arcs reaches the same states without making a cycle of flow.
        pin = [-1] * n
        pout = [-1] * n
        seen_in = seen_out = sbit
        queue = [s]
        found = False
        for u in queue:
            if u == s:
                reach = adj[s] & ~first & ~tbit
            elif prv[u] >= 0:  # on a path
                reach = adj[u] & ~(1 << nxt[u] | 1 << prv[u])
                if not seen_in >> u & 1:
                    seen_in |= 1 << u
                    pin[u] = -2
                    p = prv[u]
                    if not seen_out >> p & 1:
                        seen_out |= 1 << p
                        pout[p] = u
                        queue.append(p)
            else:
                reach = adj[u]
            reach &= ~seen_in
            while reach:
                low = reach & -reach
                reach ^= low
                v = low.bit_length() - 1
                seen_in |= low
                pin[v] = u
                if v == t:
                    found = True
                    break
                if prv[v] >= 0:
                    p = prv[v]
                    if not seen_out >> p & 1:
                        seen_out |= 1 << p
                        pout[p] = v
                        queue.append(p)
                else:
                    seen_out |= low
                    queue.append(v)
            if found:
                break
        if not found:
            break
        # Walk the BFS tree back from t: arcs gained, path arcs cancelled.
        gained = []
        lost = []
        x, at_in = t, True
        while True:
            if at_in:
                p = pin[x]
                if p == -2:
                    at_in = False
                else:
                    gained.append((p, x))
                    if p == s:
                        break
                    x, at_in = p, False
            else:
                w = pout[x]
                if w == -1:
                    at_in = True
                else:
                    lost.append((x, w))
                    x, at_in = w, True
        for u, w in lost:
            nxt[u] = prv[w] = -1
        for u, w in gained:
            if u == s:
                first |= 1 << w
            else:
                nxt[u] = w
            if w != t:
                prv[w] = u
        count += 1
    return count, first, nxt


def disjoint_paths(
    adj: Sequence[int], s: int, t: int, limit: Optional[int] = None
) -> List[List[int]]:
    """At most ``limit`` internally disjoint ``s``–``t`` paths (all when
    ``limit`` is None), as position lists from ``s`` to ``t``: the direct
    edge first, then by first hop."""
    cap = len(adj) if limit is None else limit
    _, first, nxt = _flow(adj, s, t, cap)
    paths = [[s, t]] if adj[s] >> t & 1 else []
    for a in members(first):
        path = [s, a]
        while path[-1] != t:
            # An answer from common neighbours alone leaves ``nxt`` empty.
            path.append(nxt[path[-1]] if nxt else t)
        paths.append(path)
    return paths[:cap]


def vertex_connectivity(adj: Sequence[int], alive: int, limit: Optional[int] = None) -> int:
    """``min(limit, κ)`` of the graph induced by ``alive`` (0 when it is
    disconnected or has fewer than two vertices)."""
    if alive & (alive - 1) == 0 or not is_connected(adj, alive):
        return 0
    v = min(members(alive), key=lambda u: adj[u].bit_count())
    best = adj[v].bit_count()
    if limit is not None:
        best = min(best, limit)
    for w in members(alive & ~adj[v] & ~(1 << v)):
        if best <= 1:
            return best
        best = min(best, _flow(adj, v, w, best)[0])
    neighbours = members(adj[v])
    for i, x in enumerate(neighbours):
        others = adj[x]
        for y in neighbours[i + 1:]:
            if best <= 1:
                return best
            if not others >> y & 1:
                best = min(best, _flow(adj, x, y, best)[0])
    return best


def articulation_points(adj: Sequence[int], alive: int) -> int:
    """Mask of the cut vertices of the graph induced by ``alive``."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    cut = 0
    clock = 0
    for root in members(alive):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        children = 0
        stack = [[root, -1, adj[root]]]
        while stack:
            frame = stack[-1]
            v, parent, rest = frame
            if rest:
                bit = rest & -rest
                frame[2] = rest ^ bit
                w = bit.bit_length() - 1
                if w == parent:
                    continue
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    if v == root:
                        children += 1
                    stack.append([w, v, adj[w]])
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent >= 0:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if parent != root and low[v] >= disc[parent]:
                        cut |= 1 << parent
        if children > 1:
            cut |= 1 << root
    return cut


__all__ = [
    "members",
    "is_connected",
    "disjoint_paths",
    "vertex_connectivity",
    "articulation_points",
]
