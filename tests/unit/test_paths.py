"""Unit tests for the path store and the incremental disjoint-path verifier."""

import pytest

from repro.paths.disjoint import DisjointPathVerifier, PathAddResult
from repro.paths.oracle import graph_disjoint_paths, max_disjoint_selection
from repro.paths.pathset import PathStore, bits_to_nodes, path_to_bits
from repro.topology.generators import harary_topology


class TestBitCodec:
    def test_round_trip(self):
        assert bits_to_nodes(path_to_bits([5, 1, 9])) == (1, 5, 9)

    def test_empty(self):
        assert path_to_bits([]) == 0
        assert bits_to_nodes(0) == ()


class TestPathStore:
    def test_add_and_contains(self):
        store = PathStore()
        assert store.add([1, 2])
        assert [1, 2] in store
        assert len(store) == 1

    def test_duplicate_rejected(self):
        store = PathStore()
        store.add([1, 2])
        assert not store.add([2, 1])
        assert store.rejected_superpaths == 1

    def test_superpath_rejected(self):
        store = PathStore()
        store.add([1, 2])
        assert not store.add([1, 2, 3])
        assert len(store) == 1

    def test_subpath_evicts_superpaths(self):
        store = PathStore()
        store.add([1, 2, 3])
        store.add([1, 4])
        assert store.add([1])
        # {1} dominates both previously stored paths, which are evicted.
        assert len(store) == 1
        assert store.node_sets() == ((1,),)

    def test_is_dominated(self):
        store = PathStore()
        store.add([3])
        assert store.is_dominated([3, 4])
        assert not store.is_dominated([4])

    def test_clear(self):
        store = PathStore()
        store.add([1])
        store.clear()
        assert len(store) == 0

    def test_offered_counter(self):
        store = PathStore()
        store.add([1])
        store.add([1, 2])
        assert store.offered == 2


class TestDisjointPathVerifier:
    def test_requires_positive_requirement(self):
        with pytest.raises(ValueError):
            DisjointPathVerifier(0)

    def test_single_path_satisfies_requirement_one(self):
        verifier = DisjointPathVerifier(1)
        result = verifier.add_path([4, 5])
        assert result.newly_satisfied
        assert verifier.satisfied

    def test_direct_path_counts(self):
        verifier = DisjointPathVerifier(2)
        verifier.add_path([1, 2])
        result = verifier.add_path([])
        assert result.newly_satisfied
        assert verifier.has_direct_path

    def test_two_disjoint_paths(self):
        verifier = DisjointPathVerifier(2)
        assert not verifier.add_path([1, 2]).newly_satisfied
        assert verifier.add_path([3, 4]).newly_satisfied

    def test_overlapping_paths_do_not_satisfy(self):
        verifier = DisjointPathVerifier(2)
        verifier.add_path([1, 2])
        result = verifier.add_path([2, 3])
        assert not result.newly_satisfied
        assert verifier.best_count == 1

    def test_three_way_combination(self):
        verifier = DisjointPathVerifier(3)
        verifier.add_path([1])
        verifier.add_path([2])
        assert verifier.add_path([3]).newly_satisfied

    def test_combination_found_out_of_order(self):
        # {1,2}, {2,3}, {1,3} pairwise intersect; adding {4} then {5} helps.
        verifier = DisjointPathVerifier(3)
        for path in ([1, 2], [2, 3], [1, 3], [4]):
            verifier.add_path(path)
        assert verifier.best_count == 2
        # One of the pairwise-intersecting paths plus {4} plus {5} = 3 paths.
        assert verifier.add_path([5]).newly_satisfied
        assert verifier.best_count >= 3
        assert verifier.satisfied

    def test_duplicate_and_superset_paths_ignored(self):
        verifier = DisjointPathVerifier(2)
        verifier.add_path([1, 2])
        assert not verifier.add_path([1, 2]).stored
        assert not verifier.add_path([1, 2, 3]).stored

    def test_adds_after_satisfaction_are_noops(self):
        verifier = DisjointPathVerifier(1)
        verifier.add_path([1])
        result = verifier.add_path([2])
        assert not result.stored
        assert not result.newly_satisfied

    def test_discard_paths_keeps_satisfaction(self):
        verifier = DisjointPathVerifier(2)
        verifier.add_path([1])
        verifier.add_path([2])
        verifier.discard_paths()
        assert verifier.satisfied
        assert verifier.stored_combination_count == 0

    def test_matches_oracle_on_tricky_set(self):
        paths = [[1, 2], [3, 4], [1, 3], [2, 4], [5]]
        verifier = DisjointPathVerifier(3)
        for path in paths:
            verifier.add_path(path)
        assert verifier.best_count == max_disjoint_selection(paths)

    def test_state_size_estimate_grows(self):
        verifier = DisjointPathVerifier(4)
        baseline = verifier.state_size_estimate()
        verifier.add_path([1, 2])
        verifier.add_path([3])
        assert verifier.state_size_estimate() > baseline

    def test_combination_cap_keeps_soundness(self):
        verifier = DisjointPathVerifier(3, max_combinations=2)
        verifier.add_path([1, 2])
        verifier.add_path([2, 3])
        verifier.add_path([4])
        # The cap may delay detection but never produces false positives.
        assert verifier.best_count <= max_disjoint_selection([[1, 2], [2, 3], [4]])

    def test_zero_mask_is_the_direct_path(self):
        by_mask, by_nodes = DisjointPathVerifier(2), DisjointPathVerifier(2)
        for verifier, direct in ((by_mask, 0), (by_nodes, ())):
            assert verifier.add_path(direct) == PathAddResult(True, False)
            assert verifier.has_direct_path and verifier.stored_path_count == 1
            assert verifier.add_path(direct) == PathAddResult(False, False)
            assert verifier.add_path([3]) == PathAddResult(True, True)

    def test_mask_and_node_iterable_are_the_same_path(self):
        paths = [[1, 2], [3, 4], [1, 3], [2, 4], [1, 2, 9], [5], [4]]
        by_mask, by_nodes = DisjointPathVerifier(4), DisjointPathVerifier(4)
        for path in paths:
            assert by_mask.add_path(path_to_bits(path)) == by_nodes.add_path(path)
            assert by_mask.best_count == by_nodes.best_count
            assert by_mask.state_size_estimate() == by_nodes.state_size_estimate()

    def test_late_shorter_path_evicts_stored_superpaths(self):
        # Asynchronous delays deliver the long routes first (async_layered).
        verifier = DisjointPathVerifier(3)
        for path in ([1, 2, 3], [1, 4], [5, 6]):
            assert verifier.add_path(path).stored
        assert verifier.stored_path_count == 3
        assert verifier.add_path([1]).stored
        # {1} evicts {1,2,3} and {1,4}; the explored combinations stay.
        assert verifier.stored_path_count == 2
        assert not verifier.add_path([1, 4]).stored
        assert verifier.best_count == 2
        assert verifier.add_path([7]).newly_satisfied

    def test_discard_then_continue_keeps_best_count(self):
        # MD.1 delivers from the source before the verifier is satisfied;
        # MD.2 then discards the paths while receptions continue.
        verifier = DisjointPathVerifier(4)
        verifier.add_path([1])
        verifier.add_path([2])
        verifier.discard_paths()
        assert verifier.best_count == 2 and verifier.state_size_estimate() == 0
        assert verifier.add_path([1]).stored
        assert verifier.best_count == 2 and verifier.stored_combination_count == 1


class TestOracles:
    def test_max_disjoint_selection_simple(self):
        assert max_disjoint_selection([[1], [2], [3]]) == 3
        assert max_disjoint_selection([[1, 2], [2, 3]]) == 1
        assert max_disjoint_selection([]) == 0

    def test_max_disjoint_selection_with_direct(self):
        assert max_disjoint_selection([[], [1], [1, 2]]) == 2

    def test_graph_disjoint_paths_matches_connectivity(self):
        topo = harary_topology(8, 4)
        paths = graph_disjoint_paths(topo, 0, 4)
        assert len(paths) >= 4
        # Paths are internally vertex-disjoint.
        interiors = [set(p[1:-1]) for p in paths]
        for i, a in enumerate(interiors):
            for b in interiors[i + 1 :]:
                assert not (a & b)
