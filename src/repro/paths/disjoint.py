"""Incremental verification that ``f + 1`` node-disjoint paths were received.

The Dolev layer must decide, every time a new transmission path arrives,
whether the set of received paths now contains ``f + 1`` pairwise
node-disjoint paths.  The decision problem over an arbitrary set of paths
is a set-packing problem; the paper (Sec. 6.6) keeps it tractable in
practice with two ideas that this module implements:

* paths are node bit-masks, and a newly received path is combined with
  the *previously explored combinations* of disjoint paths (dynamic
  programming) instead of recomputing all combinations;
* dominated information is pruned — a path whose node set is a superset
  of an already-received path is ignored, and a combination that uses a
  superset of the nodes of another combination of the same cardinality is
  dropped.

The mask is the one representation of a path between the wire tuple and
this module: the protocols build ``1 << sender | 1 << hop | ...`` over the
*intermediary* processes — those that relayed the content, excluding its
creator and the receiving process — and pass that integer to
:meth:`DisjointPathVerifier.add_path` (an iterable of node identifiers is
encoded on entry, for tests and ad-hoc callers).  The mask ``0`` is a
reception straight from the creator over the authenticated link; such a
path is disjoint from every other path.

The explored combinations are a *list of levels* indexed by cardinality:
``levels[c]`` holds the node unions achievable with ``c`` pairwise
disjoint paths and ``levels[0]`` is the constant ``[0]`` (no path), so a
new path grows level ``c`` into level ``c + 1`` by one uniform step.
Levels are walked top-down and updated in place: level ``c + 1`` is read
before the unions grown from level ``c`` are merged into it, so every
level is extended from its state before the call.

The satisfying path can only reach a new top level, so ``add_path`` just
scans the top level for a union disjoint from it and leaves the growth of
every level *pending*: the first read of the combinations applies it with
the same loop, so the levels read as if grown eagerly, and
``discard_paths`` (MD.2, right after delivery) drops it unapplied.

The verifier is *incremental* and *monotonic*: once ``satisfied`` becomes
true it stays true, and adding paths never lowers the best count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.paths.pathset import PathStore, path_to_bits


@dataclass(frozen=True, slots=True)
class PathAddResult:
    """Outcome of feeding one path to the verifier.

    Attributes
    ----------
    stored:
        ``False`` when the path was redundant (already satisfied, already
        seen, or dominated by a previously stored path — the situation
        MBD.10 exploits to stop relaying).
    newly_satisfied:
        ``True`` when this path made the disjoint-path requirement
        satisfied for the first time.
    """

    stored: bool
    newly_satisfied: bool


#: The four possible outcomes, prebuilt: ``add_path`` runs once per
#: received path and the result is immutable, so allocating is waste.
_REDUNDANT = PathAddResult(stored=False, newly_satisfied=False)
_STORED = PathAddResult(stored=True, newly_satisfied=False)
_STORED_SATISFIED = PathAddResult(stored=True, newly_satisfied=True)


class DisjointPathVerifier:
    """Decides whether ``required`` node-disjoint paths have been received.

    Parameters
    ----------
    required:
        The number of pairwise node-disjoint paths needed (``f + 1``).
    max_combinations:
        Safety cap on the number of memoized disjoint-path combinations
        per cardinality.  When the cap is hit the verifier becomes
        conservative: it may detect the disjoint paths later than an
        exhaustive search would, but it never reports a false positive.
    """

    __slots__ = ("required", "max_combinations", "_store", "_has_direct",
                 "_levels", "_pending", "_best_indirect", "_satisfied")

    def __init__(self, required: int, *, max_combinations: int = 4096) -> None:
        if required < 1:
            raise ValueError("at least one disjoint path must be required")
        if max_combinations < 1:
            raise ValueError(f"max_combinations must be at least 1, got {max_combinations}")
        self.required = required
        self.max_combinations = max_combinations
        self._store = PathStore()
        self._has_direct = False
        self._levels: List[List[int]] = [[0]]  # see the module docstring
        self._pending = 0  # the satisfying path, not yet grown into _levels
        self._best_indirect = 0
        self._satisfied = False

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def satisfied(self) -> bool:
        """True once ``required`` pairwise-disjoint paths have been received."""
        return self._satisfied

    @property
    def best_count(self) -> int:
        """Largest number of pairwise-disjoint received paths found so far."""
        return self._best_indirect + (1 if self._has_direct else 0)

    @property
    def has_direct_path(self) -> bool:
        """Whether the content was received directly from its creator."""
        return self._has_direct

    @property
    def stored_path_count(self) -> int:
        """Number of (non-dominated) paths currently stored."""
        return len(self._store) + (1 if self._has_direct else 0)

    @property
    def combination_levels(self) -> List[List[int]]:
        """The memoized unions of ``1, 2, ...`` disjoint paths, lowest first."""
        if self._pending:
            self._grow(self._pending)
            self._pending = 0
        return self._levels[1:]

    @property
    def stored_combination_count(self) -> int:
        """Number of disjoint-path combinations currently memoized."""
        return sum(map(len, self.combination_levels))

    def state_size_estimate(self) -> int:
        """Rough memory footprint proxy: stored paths plus combinations."""
        return self.stored_path_count + self.stored_combination_count

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_path(self, path: Union[int, Iterable[int]]) -> PathAddResult:
        """Record a received path given by its intermediary processes.

        ``path`` is the node bit-mask of the intermediaries (``0`` for a
        direct reception) or an iterable of their identifiers.  The result
        tells whether the path was stored (i.e. was not redundant) and
        whether it made the requirement satisfied for the first time.
        """
        if self._satisfied:
            return _REDUNDANT
        bits = path if isinstance(path, int) else path_to_bits(path)
        if bits == 0:
            if self._has_direct:
                return _REDUNDANT
            self._has_direct = True
            self._satisfied = self._best_indirect + 1 >= self.required
            return _STORED_SATISFIED if self._satisfied else _STORED
        if not self._store.add_bits(bits):
            return _REDUNDANT

        height = len(self._levels)
        if height > self._best_indirect and height + self._has_direct >= self.required:
            for union in self._levels[-1]:
                if not union & bits:  # the path reaches a new, satisfying top level
                    self._pending = bits
                    self._best_indirect = height
                    self._satisfied = True
                    return _STORED_SATISFIED
        self._grow(bits)  # the scan above was the only way to become satisfied
        if len(self._levels) - 1 > self._best_indirect:
            self._best_indirect = len(self._levels) - 1
        return _STORED

    def _grow(self, bits: int) -> None:
        """Combine the path ``bits`` with every level, top-down, in place."""
        levels = self._levels
        cap = self.max_combinations
        for count in range(len(levels), 0, -1):
            grown = [union | bits for union in levels[count - 1] if not union & bits]
            if grown:
                if count == len(levels):
                    levels.append([])
                target = levels[count]
                for union in grown:
                    for other in target:
                        if other & union == other:  # other ⊆ union: dominated
                            break
                    else:
                        target.append(union)
                if len(target) > cap:
                    target.sort(key=int.bit_count)
                    del target[cap:]

    def discard_paths(self) -> None:
        """Drop stored paths and combinations (MD.2, after delivery)."""
        self._store.clear()
        self._pending = 0
        del self._levels[1:]


__all__ = ["DisjointPathVerifier", "PathAddResult"]
