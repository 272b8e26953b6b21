"""Storage of received transmission paths with subpath filtering.

MBD.10 observes that a path whose node set is a superset of an
already-received path carries no additional information: it cannot help
build a larger set of disjoint paths and its relayed extension would also
be redundant.  :class:`PathStore` keeps the set of received paths as node
bit-sets, rejects dominated (super-)paths, and evicts dominated paths when
a smaller one arrives.

The paper notes that processes represent paths as bit arrays stored in a
list; we do the same, using arbitrary-precision integers as bit sets.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple


def path_to_bits(path: Iterable[int]) -> int:
    """Encode a collection of process identifiers as a bit set."""
    bits = 0
    for node in path:
        bits |= 1 << node
    return bits


def bits_to_nodes(bits: int) -> Tuple[int, ...]:
    """Decode a bit set back into a sorted tuple of process identifiers."""
    nodes = []
    index = 0
    while bits:
        if bits & 1:
            nodes.append(index)
        bits >>= 1
        index += 1
    return tuple(nodes)


class PathStore:
    """Set of received paths (as node bit-sets) with dominance filtering."""

    __slots__ = ("_paths", "offered", "rejected_superpaths")

    def __init__(self) -> None:
        self._paths: List[int] = []
        #: Number of paths offered to the store, including rejected ones.
        self.offered = 0
        #: Number of paths rejected because a sub-path was already stored.
        self.rejected_superpaths = 0

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, path: Iterable[int]) -> bool:
        return path_to_bits(path) in self._paths

    @property
    def paths(self) -> Tuple[int, ...]:
        """The stored paths as bit sets."""
        return tuple(self._paths)

    def node_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """The stored paths as tuples of process identifiers."""
        return tuple(bits_to_nodes(bits) for bits in self._paths)

    def add(self, path: Iterable[int]) -> bool:
        """Add a path; return ``False`` when it is dominated by a stored one.

        A path is dominated when a stored path uses a subset of its nodes
        (MBD.10).  When the new path dominates stored paths, those are
        evicted so the store stays minimal.
        """
        return self.add_bits(path_to_bits(path))

    def add_bits(self, bits: int) -> bool:
        """:meth:`add` for a path already encoded as a node bit-set.

        One scan of the stored antichain both rejects a dominated path
        (an exact duplicate included) and notices whether the new path
        dominates stored ones; the list is rebuilt only in that case.
        """
        self.offered += 1
        evicts = False
        for stored in self._paths:
            common = stored & bits
            if common == stored:  # stored ⊆ new: new path is redundant
                self.rejected_superpaths += 1
                return False
            if common == bits:  # new ⊂ stored: stored becomes redundant
                evicts = True
        if evicts:
            self._paths = [stored for stored in self._paths if stored & bits != bits]
        self._paths.append(bits)
        return True

    def is_dominated(self, path: Iterable[int]) -> bool:
        """Whether a stored path uses a subset of ``path``'s nodes."""
        bits = path_to_bits(path)
        return any(stored & bits == stored for stored in self._paths)

    def clear(self) -> None:
        """Discard every stored path (used by MD.2 after delivery)."""
        self._paths.clear()


__all__ = ["PathStore", "path_to_bits", "bits_to_nodes"]
