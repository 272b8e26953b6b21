"""Property-based tests for the disjoint-path machinery (Hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.paths.disjoint import DisjointPathVerifier
from repro.paths.oracle import max_disjoint_selection
from repro.paths.pathset import PathStore, bits_to_nodes, path_to_bits
from tests.property.reference_verifier import ReferenceVerifier

# Small universes keep the exhaustive oracle tractable while still
# exercising plenty of overlap structure.
paths_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=9), min_size=0, max_size=4),
    min_size=0,
    max_size=9,
)


class TestVerifierMatchesOracle:
    @given(paths=paths_strategy)
    @settings(max_examples=200, deadline=None)
    def test_best_count_equals_exhaustive_maximum(self, paths):
        verifier = DisjointPathVerifier(required=10)  # never satisfied: track best
        for path in paths:
            verifier.add_path(path)
        assert verifier.best_count == max_disjoint_selection(paths)

    @given(paths=paths_strategy, required=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_satisfaction_is_sound_and_complete(self, paths, required):
        verifier = DisjointPathVerifier(required=required)
        for path in paths:
            verifier.add_path(path)
        assert verifier.satisfied == (max_disjoint_selection(paths) >= required)

    @given(paths=paths_strategy)
    @settings(max_examples=100, deadline=None)
    def test_best_count_is_monotonic(self, paths):
        verifier = DisjointPathVerifier(required=10)
        previous = 0
        for path in paths:
            verifier.add_path(path)
            assert verifier.best_count >= previous
            previous = verifier.best_count

    @given(paths=paths_strategy)
    @settings(max_examples=100, deadline=None)
    def test_insertion_order_does_not_matter(self, paths):
        forward = DisjointPathVerifier(required=10)
        backward = DisjointPathVerifier(required=10)
        for path in paths:
            forward.add_path(path)
        for path in reversed(paths):
            backward.add_path(path)
        assert forward.best_count == backward.best_count


class TestPathStoreProperties:
    @given(paths=paths_strategy)
    @settings(max_examples=200, deadline=None)
    def test_store_is_an_antichain(self, paths):
        store = PathStore()
        for path in paths:
            store.add(path)
        stored = store.paths
        for i, a in enumerate(stored):
            for j, b in enumerate(stored):
                if i != j:
                    assert not (a & b == a)  # no stored path is a subset of another

    @given(paths=paths_strategy)
    @settings(max_examples=200, deadline=None)
    def test_every_offered_path_is_dominated_by_some_stored_path(self, paths):
        store = PathStore()
        for path in paths:
            store.add(path)
        for path in paths:
            bits = path_to_bits(path)
            assert any(stored & bits == stored for stored in store.paths)

    @given(nodes=st.frozensets(st.integers(min_value=0, max_value=63), max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_bitset_round_trip(self, nodes):
        assert frozenset(bits_to_nodes(path_to_bits(nodes))) == nodes


# Up to 31 nodes (the paper's N) with short and long paths, so stored
# super-paths get evicted and levels grow past the small caps below.
kernel_paths_strategy = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=30), min_size=0, max_size=6),
    min_size=0,
    max_size=24,
)


def _observable(verifier):
    return (
        verifier.satisfied,
        verifier.best_count,
        verifier.stored_path_count,
        verifier.stored_combination_count,
    )


class TestKernelMatchesFrozenReference:
    @given(
        paths=kernel_paths_strategy,
        required=st.integers(min_value=1, max_value=5),
        max_combinations=st.sampled_from([2, 8, 4096]),
        discard_after=st.none() | st.integers(min_value=0, max_value=23),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_decisions_and_state_after_every_path(
        self, paths, required, max_combinations, discard_after
    ):
        kernel = DisjointPathVerifier(required, max_combinations=max_combinations)
        reference = ReferenceVerifier(required, max_combinations=max_combinations)
        for index, path in enumerate(paths):
            # Alternate the two entry forms: node mask and node iterable.
            got = kernel.add_path(path_to_bits(path) if index % 2 else path)
            expected = reference.add_path(path)
            assert (got.stored, got.newly_satisfied) == (
                expected.stored,
                expected.newly_satisfied,
            )
            assert _observable(kernel) == _observable(reference)
            # Same unions in the same order per cardinality: the order
            # decides what the cap truncates on later calls.
            assert kernel._levels[1:] == reference.frontier_levels()
            assert kernel._store.paths == tuple(reference._store._paths)
            if index == discard_after:  # MD.2 after an MD.1 delivery
                kernel.discard_paths()
                reference.discard_paths()
                assert _observable(kernel) == _observable(reference)
