"""Unit tests for scenario specs, grids and adversary placement."""

import math
import pickle

import pytest

from repro.core.errors import ConfigurationError, SpecError
from repro.scenarios import (
    AdversarySpec,
    BroadcastSpec,
    CrashAt,
    CrashWhen,
    DelaySpec,
    LinkDropWindow,
    ObservationFilter,
    ScenarioSpec,
    TopologySpec,
    expand_grid,
    place_adversaries,
    place_byzantine,
    seed_cells,
)
from repro.network.simulation.delays import (
    AsynchronousDelay,
    BurstyLossWindow,
    FixedDelay,
    LossyDelay,
    UniformDelay,
)
from repro.topology.generators import (
    Topology,
    complete_topology,
    line_topology,
    random_regular_topology,
)


class TestTopologySpec:
    def test_builds_every_kind(self):
        assert TopologySpec(kind="complete", n=5).build().is_fully_connected()
        assert TopologySpec(kind="ring", n=6).build().min_degree() == 2
        assert TopologySpec(kind="line", n=4).build().edge_count == 3
        assert TopologySpec(kind="torus", rows=3, cols=3).build().n == 9
        assert TopologySpec(kind="harary", n=8, k=4).build().vertex_connectivity() == 4
        regular = TopologySpec(kind="random_regular", n=10, k=5, min_connectivity=5)
        assert regular.build(seed=3).vertex_connectivity() >= 5

    def test_node_count(self):
        assert TopologySpec(kind="torus", rows=3, cols=4).node_count == 12
        assert TopologySpec(kind="ring", n=7).node_count == 7

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologySpec(kind="smallworld", n=10)

    def test_random_regular_is_seed_deterministic(self):
        spec = TopologySpec(kind="random_regular", n=12, k=5, min_connectivity=5)
        assert spec.build(seed=9).adjacency == spec.build(seed=9).adjacency


class TestDelaySpec:
    def test_builds_matching_models(self):
        assert isinstance(DelaySpec(kind="fixed").build(), FixedDelay)
        assert isinstance(DelaySpec(kind="normal").build(), AsynchronousDelay)
        assert isinstance(DelaySpec(kind="uniform").build(), UniformDelay)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="pareto")

    def test_loss_wraps_the_base_model(self):
        model = DelaySpec(kind="fixed", mean_ms=20.0, loss=0.25).build()
        assert isinstance(model, LossyDelay)
        assert model.loss_probability == 0.25
        assert isinstance(model.base, FixedDelay)

    def test_burst_wraps_the_base_model(self):
        model = DelaySpec(
            kind="normal", burst_period_ms=100.0, burst_len_ms=25.0
        ).build()
        assert isinstance(model, BurstyLossWindow)
        assert isinstance(model.base, AsynchronousDelay)
        assert model.in_burst(10.0) and not model.in_burst(60.0)

    def test_loss_and_burst_compose(self):
        model = DelaySpec(
            kind="fixed", loss=0.1, burst_period_ms=100.0, burst_len_ms=10.0
        ).build()
        assert isinstance(model, LossyDelay)
        assert isinstance(model.base, BurstyLossWindow)

    def test_is_lossy(self):
        assert not DelaySpec(kind="fixed").is_lossy
        assert DelaySpec(kind="fixed", loss=0.01).is_lossy
        assert DelaySpec(
            kind="fixed", burst_period_ms=50.0, burst_len_ms=5.0
        ).is_lossy
        # A burst period without a burst length loses nothing.
        assert not DelaySpec(kind="fixed", burst_period_ms=50.0).is_lossy

    def test_invalid_loss_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="fixed", loss=1.5)
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="fixed", loss=-0.1)
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="fixed", burst_len_ms=10.0)  # no period
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="fixed", burst_period_ms=10.0, burst_len_ms=20.0)
        with pytest.raises(ConfigurationError):
            DelaySpec(kind="fixed", burst_period_ms=-1.0)
        nan, inf = float("nan"), float("inf")
        for period, length in ((nan, 0.0), (nan, 5.0), (50.0, nan), (inf, 5.0), (inf, 0.0)):
            with pytest.raises(ConfigurationError, match="finite"):
                DelaySpec(kind="fixed", burst_period_ms=period, burst_len_ms=length)

    @pytest.mark.parametrize(
        "delay",
        [
            DelaySpec(kind="fixed", mean_ms=5.0),
            DelaySpec(kind="normal", mean_ms=40.0, std_ms=10.0),
            DelaySpec(kind="uniform", low_ms=1.0, high_ms=9.0),
            DelaySpec(kind="fixed", loss=0.25),
            DelaySpec(kind="uniform", burst_period_ms=50.0, burst_len_ms=5.0),
        ],
        ids=["fixed", "normal", "uniform", "lossy", "bursty"],
    )
    def test_accepted_specs_equal_their_pickle_round_trip(self, delay):
        # The result cache finds a cell by an equal spec after unpickling;
        # a NaN field (now rejected) made a spec unequal to its own copy.
        spec = ScenarioSpec(topology=TopologySpec(kind="ring", n=6), delay=delay)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert copy.scenario_hash() == spec.scenario_hash()

    def test_lossless_defaults_keep_the_scenario_hash(self):
        # The loss fields at their defaults are left out of the JSON
        # form the hash is taken of: pre-loss specs (pinned by the
        # golden files) keep their hashes and cache slots.
        base = ScenarioSpec(topology=TopologySpec(kind="ring", n=6))
        explicit = ScenarioSpec(
            topology=TopologySpec(kind="ring", n=6),
            delay=DelaySpec(kind="fixed", loss=0.0, burst_period_ms=0.0),
        )
        assert explicit.scenario_hash() == base.scenario_hash()
        lossy = ScenarioSpec(
            topology=TopologySpec(kind="ring", n=6),
            delay=DelaySpec(kind="fixed", loss=0.05),
        )
        assert lossy.scenario_hash() != base.scenario_hash()


class TestScenarioSpec:
    def test_hash_is_stable_and_field_sensitive(self):
        spec = ScenarioSpec(topology=TopologySpec(kind="ring", n=5))
        assert spec.scenario_hash() == spec.scenario_hash()
        assert spec.scenario_hash() == ScenarioSpec(
            topology=TopologySpec(kind="ring", n=5)
        ).scenario_hash()
        assert spec.scenario_hash() != spec.with_seed(1).scenario_hash()
        assert (
            spec.scenario_hash()
            != ScenarioSpec(topology=TopologySpec(kind="ring", n=6)).scenario_hash()
        )

    def test_hash_distinguishes_fault_types(self):
        base = ScenarioSpec(topology=TopologySpec(kind="ring", n=5))
        crashed = ScenarioSpec(
            topology=TopologySpec(kind="ring", n=5), faults=(CrashAt(pid=1, time_ms=0.0),)
        )
        dropped = ScenarioSpec(
            topology=TopologySpec(kind="ring", n=5),
            faults=(LinkDropWindow(u=1, v=2, start_ms=0.0),),
        )
        assert len({base.scenario_hash(), crashed.scenario_hash(), dropped.scenario_hash()}) == 3

    def test_adaptive_faults_are_part_of_the_hash_but_defaults_are_not(self):
        base = ScenarioSpec(topology=TopologySpec(kind="ring", n=5))
        assert base.with_adaptive(()).scenario_hash() == base.scenario_hash()
        adaptive = base.with_adaptive(
            (CrashWhen(pid=1, after=ObservationFilter(kind="send"), count=2),)
        )
        assert adaptive.scenario_hash() != base.scenario_hash()
        # Trigger parameters discriminate too.
        other = base.with_adaptive(
            (CrashWhen(pid=1, after=ObservationFilter(kind="send"), count=3),)
        )
        assert other.scenario_hash() != adaptive.scenario_hash()

    def test_too_many_adversaries_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                topology=TopologySpec(kind="complete", n=4),
                f=1,
                adversaries=(AdversarySpec(behaviour="mute", count=2),),
            )

    def test_payload_is_deterministic_and_sized(self):
        spec = ScenarioSpec(payload_size=100)
        assert len(spec.payload()) == 100
        assert spec.payload() == spec.payload()
        assert ScenarioSpec(payload_size=0).payload() == b""

    @pytest.mark.parametrize(
        "cls, kwargs, error, field",
        [
            (CrashAt, {"pid": 3, "time_ms": math.nan}, SpecError, "time_ms"),
            (CrashAt, {"pid": 3, "time_ms": math.inf}, SpecError, "time_ms"),
            (LinkDropWindow, {"u": 0, "v": 1, "start_ms": math.nan}, SpecError, "start_ms"),
            (LinkDropWindow, {"u": 0, "v": 1, "end_ms": math.inf}, SpecError, "end_ms"),
            (BroadcastSpec, {"start_time_ms": math.nan}, ConfigurationError, "start_time_ms"),
            (BroadcastSpec, {"start_time_ms": math.inf}, ConfigurationError, "start_time_ms"),
            (ScenarioSpec, {"shared_bandwidth_bps": math.nan}, ConfigurationError, "bandwidth"),
            (ScenarioSpec, {"shared_bandwidth_bps": math.inf}, ConfigurationError, "bandwidth"),
            (ScenarioSpec, {"shared_bandwidth_bps": -5.0}, ConfigurationError, "bandwidth"),
            (ScenarioSpec, {"shared_bandwidth_bps": 0.0}, ConfigurationError, "bandwidth"),
            (ScenarioSpec, {"max_events": 0}, ConfigurationError, "max_events"),
            (ScenarioSpec, {"payload_size": -3}, ConfigurationError, "payload_size"),
        ],
        ids=[
            "crash-nan", "crash-inf", "drop-start-nan", "drop-end-inf",
            "start-nan", "start-inf", "bandwidth-nan", "bandwidth-inf",
            "bandwidth-negative", "bandwidth-zero", "max-events-zero",
            "payload-negative",
        ],
    )
    def test_non_finite_and_out_of_range_fields_rejected(self, cls, kwargs, error, field):
        # Each of these used to build (and hash), then fail or misreport
        # only once the run started.
        with pytest.raises(error, match=field):
            cls(**kwargs)

    def test_edge_values_still_accepted(self):
        ScenarioSpec(payload_size=0, max_events=1, shared_bandwidth_bps=1.0)
        ScenarioSpec(max_events=None, faults=(CrashAt(pid=1, time_ms=0.0),))
        BroadcastSpec(start_time_ms=0.0)

    @pytest.mark.parametrize(
        "entry",
        [CrashWhen(pid=1), AdversarySpec(), "crash 3", None],
        ids=["adaptive-fault", "adversary", "str", "none"],
    )
    def test_static_faults_are_type_checked(self, entry):
        # An adaptive fault among the static ones used to fail mid-run
        # (apply() takes a run), anything else with an AttributeError.
        with pytest.raises(ConfigurationError, match="unknown fault"):
            ScenarioSpec(faults=(entry,))

    def test_unknown_behaviour_and_placement_rejected(self):
        with pytest.raises(ConfigurationError):
            AdversarySpec(behaviour="gossip")
        with pytest.raises(ConfigurationError):
            AdversarySpec(placement="nearest")


class TestGrid:
    def test_expand_grid_row_major(self):
        base = ScenarioSpec(topology=TopologySpec(kind="ring", n=6))
        cells = expand_grid(base, {"topology.n": [6, 8], "seed": [0, 1, 2]})
        assert len(cells) == 6
        assert [c.topology.n for c in cells] == [6, 6, 6, 8, 8, 8]
        assert [c.seed for c in cells] == [0, 1, 2, 0, 1, 2]

    def test_unknown_axis_rejected(self):
        base = ScenarioSpec()
        with pytest.raises(ConfigurationError):
            expand_grid(base, {"topology.diameter": [3]})
        with pytest.raises(ConfigurationError):
            expand_grid(base, {"colour": ["red"]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(ScenarioSpec(), {"seed": []})

    def test_seed_cells(self):
        cells = seed_cells(ScenarioSpec(seed=5), 3)
        assert [c.seed for c in cells] == [5, 6, 7]
        assert [c.seed for c in seed_cells(ScenarioSpec(), 2, base_seed=40)] == [40, 41]


class TestPlacement:
    def _star_plus_tail(self):
        # 0 is the hub of a star over 1-4; 5 hangs off 4: 4 is an
        # articulation point (and so is 0).
        return Topology.from_edges(
            range(6), [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)], name="star-tail"
        )

    def test_random_is_seed_deterministic_and_respects_exclude(self):
        topology = random_regular_topology(10, 4, seed=2, min_connectivity=3)
        first = place_adversaries(topology, 3, "random", seed=11, exclude=(0,))
        second = place_adversaries(topology, 3, "random", seed=11, exclude=(0,))
        assert first == second
        assert 0 not in first
        assert place_adversaries(topology, 3, "random", seed=12) != first or True

    def test_max_degree_picks_best_connected(self):
        topology = self._star_plus_tail()
        assert place_adversaries(topology, 1, "max_degree") == (0,)
        # Ties (the leaves) break by pid.
        assert place_adversaries(topology, 3, "max_degree") == (0, 1, 4)

    def test_articulation_adjacent_targets_cut_vertices(self):
        topology = self._star_plus_tail()
        placed = place_adversaries(topology, 2, "articulation_adjacent")
        assert set(placed) <= {0, 4} | set(topology.neighbors(0)) | set(topology.neighbors(4))
        assert 0 in placed and 4 in placed

    def test_articulation_adjacent_biconnected_fallback(self):
        # A complete graph has no articulation points; the strategy must
        # still place deterministically.
        topology = complete_topology(6)
        placed = place_adversaries(topology, 2, "articulation_adjacent", exclude=(0,))
        assert placed == place_adversaries(topology, 2, "articulation_adjacent", exclude=(0,))
        assert len(placed) == 2 and 0 not in placed

    def test_too_many_adversaries_rejected(self):
        with pytest.raises(ConfigurationError):
            place_adversaries(line_topology(3), 3, "random", exclude=(0,))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            place_adversaries(line_topology(3), 1, "nearest")


class TestPlaceByzantine:
    def test_equivocate_claims_the_source(self):
        spec = ScenarioSpec(
            topology=TopologySpec(kind="complete", n=7),
            protocol="bracha",
            f=2,
            adversaries=(AdversarySpec(behaviour="equivocate", count=1),),
        )
        topology = spec.topology.build(spec.seed)
        assignments = place_byzantine(spec, topology)
        assert list(assignments) == [spec.source]
        assert assignments[spec.source].behaviour == "equivocate"

    def test_equivocate_count_above_one_rejected(self):
        # A non-source EquivocatingSource never broadcasts, so it would
        # silently act as a mute process while being reported as an
        # equivocator; the engine rejects the spec instead.
        spec = ScenarioSpec(
            topology=TopologySpec(kind="complete", n=7),
            protocol="bracha",
            f=2,
            adversaries=(AdversarySpec(behaviour="equivocate", count=2),),
        )
        topology = spec.topology.build(spec.seed)
        with pytest.raises(ConfigurationError):
            place_byzantine(spec, topology)

    def test_bracha_requires_a_complete_topology(self):
        from repro.scenarios import run_scenario

        with pytest.raises(ConfigurationError):
            run_scenario(
                ScenarioSpec(
                    topology=TopologySpec(kind="random_regular", n=10, k=5, min_connectivity=5),
                    protocol="bracha",
                    f=2,
                )
            )

    def test_non_source_behaviours_exclude_the_source(self):
        spec = ScenarioSpec(
            topology=TopologySpec(kind="random_regular", n=12, k=5, min_connectivity=5),
            f=2,
            adversaries=(
                AdversarySpec(behaviour="mute", count=1, placement="max_degree"),
                AdversarySpec(behaviour="forge", count=1, placement="random"),
            ),
            seed=4,
        )
        topology = spec.topology.build(spec.seed)
        assignments = place_byzantine(spec, topology)
        assert len(assignments) == 2
        assert spec.source not in assignments
        behaviours = sorted(adv.behaviour for adv in assignments.values())
        assert behaviours == ["forge", "mute"]
