"""Frozen reference for the disjoint-path kernel (test-only).

``ReferencePathStore.add_bits`` and ``ReferenceVerifier.add_path`` are the
bodies of ``PathStore.add_bits`` and ``DisjointPathVerifier.add_path`` as
they stood before the bit-mask kernel rewrite (dict frontier, ``sorted``
per call, ``any(<genexpr>)`` dominance test, ``_seen_exact`` shadow set),
copied verbatim apart from the class names.  The differential property
in ``test_paths_properties.py`` replays path sequences through both and
requires equal decisions and equal stored state after every path.  Do not
"optimize" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.paths.disjoint import PathAddResult
from repro.paths.pathset import path_to_bits

_REDUNDANT = PathAddResult(stored=False, newly_satisfied=False)
_STORED = PathAddResult(stored=True, newly_satisfied=False)
_STORED_SATISFIED = PathAddResult(stored=True, newly_satisfied=True)


class ReferencePathStore:
    def __init__(self) -> None:
        self._paths: List[int] = []
        self._seen_exact: set = set()
        self.offered = 0
        self.rejected_superpaths = 0

    def __len__(self) -> int:
        return len(self._paths)

    def add_bits(self, bits: int) -> bool:
        self.offered += 1
        if bits in self._seen_exact:
            self.rejected_superpaths += 1
            return False
        for stored in self._paths:
            if stored & bits == stored:  # stored ⊆ new: new path is redundant
                self.rejected_superpaths += 1
                return False
        # Evict stored paths dominated by the new, smaller path.
        self._paths = [stored for stored in self._paths if stored & bits != bits]
        self._paths.append(bits)
        self._seen_exact = {p for p in self._seen_exact if p & bits != bits}
        self._seen_exact.add(bits)
        return True

    def clear(self) -> None:
        self._paths.clear()
        self._seen_exact.clear()


class ReferenceVerifier:
    def __init__(self, required: int, *, max_combinations: int = 4096) -> None:
        if required < 1:
            raise ValueError("at least one disjoint path must be required")
        self.required = required
        self.max_combinations = max_combinations
        self._store = ReferencePathStore()
        self._has_direct = False
        self._frontier: Dict[int, List[int]] = {}
        self._best_indirect = 0
        self._satisfied = False
        self.combination_operations = 0

    @property
    def satisfied(self) -> bool:
        return self._satisfied

    @property
    def best_count(self) -> int:
        return self._best_indirect + (1 if self._has_direct else 0)

    @property
    def stored_path_count(self) -> int:
        return len(self._store) + (1 if self._has_direct else 0)

    @property
    def stored_combination_count(self) -> int:
        return sum(len(unions) for unions in self._frontier.values())

    def add_path(self, intermediaries: Iterable[int]) -> PathAddResult:
        if self._satisfied:
            return _REDUNDANT
        bits = path_to_bits(intermediaries)
        if bits == 0:
            if self._has_direct:
                return _REDUNDANT
            self._has_direct = True
            return _STORED_SATISFIED if self._check_satisfied() else _STORED
        if not self._store.add_bits(bits):
            return _REDUNDANT

        new_entries: Dict[int, List[int]] = {1: [bits]}
        for count in sorted(self._frontier, reverse=True):
            for union in self._frontier[count]:
                self.combination_operations += 1
                if union & bits == 0:
                    new_entries.setdefault(count + 1, []).append(union | bits)

        for count, unions in sorted(new_entries.items()):
            existing = self._frontier.setdefault(count, [])
            for union in unions:
                if not _is_dominated(union, existing):
                    existing.append(union)
            if len(existing) > self.max_combinations:
                existing.sort(key=_popcount)
                del existing[self.max_combinations :]
            if count > self._best_indirect:
                self._best_indirect = count
        return _STORED_SATISFIED if self._check_satisfied() else _STORED

    def _check_satisfied(self) -> bool:
        if not self._satisfied and self.best_count >= self.required:
            self._satisfied = True
            return True
        return False

    def discard_paths(self) -> None:
        self._store.clear()
        self._frontier.clear()

    def frontier_levels(self) -> List[List[int]]:
        """The memoized unions per cardinality, lowest first (for comparison)."""
        return [self._frontier[count] for count in sorted(self._frontier)]


def _popcount(bits: int) -> int:
    return bits.bit_count()


def _is_dominated(union: int, existing: List[int]) -> bool:
    return any(other & union == other for other in existing)
