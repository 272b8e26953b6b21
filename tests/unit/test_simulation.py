"""Unit tests for the discrete-event scheduler, delay models and network."""

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError, RuntimeAbort
from repro.core.events import BRBDeliver, SendTo
from repro.core.messages import BrachaMessage, MessageType
from repro.brb.bracha import BrachaBroadcast
from repro.network.simulation.delays import (
    DROP,
    AsynchronousDelay,
    BurstyLossWindow,
    FixedDelay,
    LossyDelay,
    UniformDelay,
)
from repro.metrics.collector import MetricsCollector
from repro.network.simulation.network import SimulatedNetwork
from repro.network.simulation.scheduler import EventScheduler
from repro.scenarios.faults import CrashAt, DelayedStart, JoinAt, LeaveAt
from repro.topology.generators import complete_topology, line_topology


class TestScheduler:
    def test_events_run_in_time_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(30, lambda: order.append("c"))
        scheduler.schedule(10, lambda: order.append("a"))
        scheduler.schedule(20, lambda: order.append("b"))
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(5, lambda: order.append(1))
        scheduler.schedule(5, lambda: order.append(2))
        scheduler.run()
        assert order == [1, 2]

    def test_clock_advances_to_last_event(self):
        scheduler = EventScheduler()
        scheduler.schedule(42.5, lambda: None)
        assert scheduler.run() == pytest.approx(42.5)
        assert scheduler.now == pytest.approx(42.5)

    def test_nested_scheduling(self):
        scheduler = EventScheduler()
        seen = []

        def outer():
            seen.append(scheduler.now)
            scheduler.schedule(5, lambda: seen.append(scheduler.now))

        scheduler.schedule(10, outer)
        scheduler.run()
        assert seen == [10, 15]

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-1, lambda: None)

    def test_nan_delay_rejected(self):
        # ``NaN < 0`` is False, so a NaN used to slip past the negativity
        # check and corrupt the heap ordering.
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), lambda: None)
        assert scheduler.pending == 0

    def test_nan_schedule_at_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule_at(float("nan"), lambda: None)
        assert scheduler.pending == 0

    def test_heap_ordering_survives_rejected_nan(self):
        scheduler = EventScheduler()
        order = []
        scheduler.schedule(20, lambda: order.append("b"))
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), lambda: order.append("nan"))
        scheduler.schedule(10, lambda: order.append("a"))
        scheduler.run()
        assert order == ["a", "b"]

    def test_schedule_at_in_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(10, lambda: None)
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.schedule_at(5, lambda: None)

    def test_max_time_stops_early(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(10, lambda: seen.append("early"))
        scheduler.schedule(100, lambda: seen.append("late"))
        scheduler.run(max_time=50)
        assert seen == ["early"]
        assert scheduler.pending == 1

    def test_max_events_aborts(self):
        scheduler = EventScheduler()

        def rearm():
            scheduler.schedule(1, rearm)

        scheduler.schedule(1, rearm)
        with pytest.raises(RuntimeAbort):
            scheduler.run(max_events=100)

    def test_max_events_budget_is_per_call(self):
        # The budget covers the events of one ``run`` call; a resumed run
        # gets a fresh budget rather than inheriting the lifetime count.
        scheduler = EventScheduler()
        seen = []
        for index, letter in enumerate("abcdef"):
            scheduler.schedule(index + 1, seen.append, letter)

        with pytest.raises(RuntimeAbort):
            scheduler.run(max_events=2)
        # Events a and b ran; c was consumed by the abort (counted and
        # removed, callback skipped) like any event that raises mid-run.
        assert seen == ["a", "b"]
        assert scheduler.executed_events == 3
        assert scheduler.pending == 3

        # Three events remain: a lifetime-cumulative budget of 5 would
        # abort again (3 already counted + 3 more), a per-call budget
        # lets the resumed run drain them.
        assert scheduler.run(max_events=5) == pytest.approx(6)
        assert seen == ["a", "b", "d", "e", "f"]
        assert scheduler.executed_events == 6
        assert scheduler.pending == 0


class TestDelayModels:
    def test_fixed_delay(self):
        model = FixedDelay(50.0)
        rng = random.Random(0)
        assert model.sample_event(rng, 0, 1, 100, 0.0) == 50.0

    def test_fixed_delay_rejects_nan_and_negative_at_construction(self):
        # Used to surface as a ValueError from inside the first send.
        from repro.scenarios.spec import DelaySpec

        for bad in (float("nan"), -1.0, float("-inf")):
            with pytest.raises(ConfigurationError, match="fixed delay"):
                FixedDelay(bad)
            with pytest.raises(ConfigurationError, match="fixed delay"):
                DelaySpec("fixed", mean_ms=bad).build()
        assert FixedDelay(0.0).sample_event(random.Random(0), 0, 1, 8, 0.0) == 0.0

    def test_sampled_delay_parameters_are_checked_at_construction(self):
        # ``max(0.1, nan)`` is 0.1: a NaN mean used to delay every message
        # by exactly ``min_ms``; negative uniform bounds built and then
        # failed inside the first send.
        from repro.scenarios.spec import DelaySpec

        nan, inf = float("nan"), float("inf")
        for mean, std in ((nan, 50.0), (inf, 50.0), (50.0, nan), (50.0, -1.0), (50.0, inf)):
            with pytest.raises(ConfigurationError, match="normal delay"):
                AsynchronousDelay(mean, std)
            with pytest.raises(ConfigurationError, match="normal delay"):
                DelaySpec("normal", mean_ms=mean, std_ms=std).build()
        for bad_min in (nan, -0.1, inf):
            with pytest.raises(ConfigurationError, match="normal delay"):
                AsynchronousDelay(50.0, 50.0, min_ms=bad_min)
        for low, high in ((-100.0, -10.0), (-1.0, 5.0), (20.0, 10.0), (nan, 10.0), (1.0, nan), (1.0, inf)):
            with pytest.raises(ConfigurationError, match="uniform delay"):
                UniformDelay(low, high)
            with pytest.raises(ConfigurationError, match="uniform delay"):
                DelaySpec("uniform", low_ms=low, high_ms=high).build()
        # Degenerate but meaningful parameters stay accepted.
        rng = random.Random(0)
        assert AsynchronousDelay(5.0, 0.0).sample_event(rng, 0, 1, 8, 0.0) == 5.0
        assert AsynchronousDelay(-5.0, 0.0, min_ms=0.0).sample_event(rng, 0, 1, 8, 0.0) == 0.0
        assert UniformDelay(0.0, 0.0).sample_event(rng, 0, 1, 8, 0.0) == 0.0
        assert UniformDelay(3.0, 3.0).sample_event(rng, 0, 1, 8, 0.0) == 3.0
        # The parameters of a kind the spec does not use are not its business.
        DelaySpec("fixed", mean_ms=5.0, std_ms=-1.0, low_ms=9.0, high_ms=1.0).build()

    def test_sampled_delays_are_still_checked_per_send(self):
        class Broken(UniformDelay):
            def sample_event(self, rng, sender, dest, size_bytes, time_ms):
                return float("nan") if dest == 2 else -1.0

        for dest in (2, 3):
            topo = complete_topology(4)
            protocols = {pid: _Scripted(pid, []) for pid in topo.nodes}
            protocols[0].on_broadcast = lambda payload, dest=dest: [SendTo((dest,), "m")]
            network = SimulatedNetwork(topo, protocols, delay_model=Broken())
            with pytest.raises(ValueError):
                network.broadcast(0, b"", 0)
            assert network.scheduler.pending == 0

    def test_asynchronous_delay_positive_and_varied(self):
        model = AsynchronousDelay(50.0, 50.0)
        rng = random.Random(1)
        samples = [model.sample_event(rng, 0, 1, 100, 0.0) for _ in range(200)]
        assert all(s >= model.min_ms for s in samples)
        assert max(samples) > min(samples)

    def test_uniform_delay_bounds(self):
        model = UniformDelay(10.0, 20.0)
        rng = random.Random(2)
        samples = [model.sample_event(rng, 0, 1, 100, 0.0) for _ in range(100)]
        assert all(10.0 <= s <= 20.0 for s in samples)


class TestSimulatedNetwork:
    def _bracha_network(self, n=4, f=1, **kwargs):
        config = SystemConfig.for_system(n, f)
        topo = complete_topology(n)
        protocols = {
            pid: BrachaBroadcast(pid, config, sorted(topo.neighbors(pid)))
            for pid in topo.nodes
        }
        return SimulatedNetwork(topo, protocols, **kwargs), config

    def test_missing_protocol_rejected(self):
        config = SystemConfig.for_system(4, 1)
        topo = complete_topology(4)
        protocols = {0: BrachaBroadcast(0, config, [1, 2, 3])}
        with pytest.raises(ConfigurationError):
            SimulatedNetwork(topo, protocols)

    def test_unknown_process_rejected(self):
        config = SystemConfig.for_system(4, 1)
        topo = complete_topology(4)
        protocols = {
            pid: BrachaBroadcast(pid, config, sorted(topo.neighbors(pid)))
            for pid in topo.nodes
        }
        protocols[9] = protocols[0]
        with pytest.raises(ConfigurationError):
            SimulatedNetwork(topo, protocols)

    def test_broadcast_delivers_to_everyone(self):
        network, _ = self._bracha_network()
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        assert len(metrics.deliveries_for((0, 0))) == 4

    def test_collector_subclass_sees_every_send(self):
        # The hot path special-cases the stock MetricsCollector; a
        # subclass overriding ``record_send`` must still be called for
        # every message put on a link.
        class CountingCollector(MetricsCollector):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def record_send(self, time, sender, dest, message):
                self.calls += 1
                return super().record_send(time, sender, dest, message)

        collector = CountingCollector()
        network, _ = self._bracha_network(collector=collector)
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        assert metrics.message_count > 0
        assert collector.calls == metrics.message_count

    def test_latency_is_three_link_delays_for_bracha(self):
        network, _ = self._bracha_network(delay_model=FixedDelay(50.0))
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        latency = metrics.delivery_latency((0, 0), [0, 1, 2, 3])
        assert latency == pytest.approx(150.0)

    def test_send_to_non_neighbor_raises(self):
        config = SystemConfig.for_system(3, 0)
        topo = line_topology(3)

        class Rogue:
            process_id = 0
            neighbors = (1,)

            def on_start(self):
                return []

            def broadcast(self, payload, bid=0):
                message = BrachaMessage(MessageType.SEND, 0, bid, payload)
                return [SendTo((2,), message)]

            def on_message(self, sender, message):
                return []

        protocols = {
            0: Rogue(),
            1: BrachaBroadcast(1, SystemConfig.for_system(3, 0), [0, 2]),
            2: BrachaBroadcast(2, SystemConfig.for_system(3, 0), [0, 1]),
        }
        network = SimulatedNetwork(topo, protocols)
        with pytest.raises(RuntimeAbort):
            network.broadcast(0, b"x", 0)

    def test_crashed_process_stops_participating(self):
        network, _ = self._bracha_network(n=4, f=1)
        network.crash(3)
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        delivered = metrics.deliveries_for((0, 0))
        assert 3 not in delivered
        assert set(delivered) == {0, 1, 2}

    def test_deterministic_for_seed(self):
        results = []
        for _ in range(2):
            network, _ = self._bracha_network(
                delay_model=AsynchronousDelay(20.0, 10.0), seed=7
            )
            network.broadcast(0, b"value", 0)
            metrics = network.run()
            results.append((metrics.total_bytes, metrics.end_time))
        assert results[0] == results[1]

    def test_on_deliver_callback(self):
        observed = []
        config = SystemConfig.for_system(4, 1)
        topo = complete_topology(4)
        protocols = {
            pid: BrachaBroadcast(pid, config, sorted(topo.neighbors(pid)))
            for pid in topo.nodes
        }
        network = SimulatedNetwork(
            topo, protocols, on_deliver=lambda pid, event, t: observed.append((pid, event.payload))
        )
        network.broadcast(1, b"cb", 0)
        network.run()
        assert len(observed) == 4
        assert all(payload == b"cb" for _, payload in observed)

    def test_shared_bandwidth_increases_latency(self):
        fast, _ = self._bracha_network(delay_model=FixedDelay(10.0))
        fast.broadcast(0, b"x" * 512, 0)
        fast_latency = fast.run().delivery_latency((0, 0), [0, 1, 2, 3])

        slow, _ = self._bracha_network(
            delay_model=FixedDelay(10.0), shared_bandwidth_bps=100_000
        )
        slow.broadcast(0, b"x" * 512, 0)
        slow_latency = slow.run().delivery_latency((0, 0), [0, 1, 2, 3])
        assert slow_latency > fast_latency

    def test_invalid_shared_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            self._bracha_network(shared_bandwidth_bps=0)


class TestLossyDelayModels:
    def test_drop_sentinel_is_a_pickle_stable_singleton(self):
        import pickle

        assert pickle.loads(pickle.dumps(DROP)) is DROP
        assert repr(DROP) == "DROP"

    def test_lossy_delay_drops_deterministically_per_seed(self):
        model = LossyDelay(base=FixedDelay(10.0), loss_probability=0.5)
        outcomes = [
            [
                model.sample_event(random.Random(7), 0, 1, 100, 0.0)
                for _ in range(1)
            ][0]
            for _ in range(4)
        ]
        # A fresh RNG with the same seed always makes the same decision.
        assert len({o is DROP for o in outcomes}) == 1
        stream = random.Random(7)
        draws = [model.sample_event(stream, 0, 1, 100, 0.0) for _ in range(64)]
        assert any(d is DROP for d in draws)
        assert any(d == 10.0 for d in draws)

    def test_lossless_models_never_drop(self):
        rng = random.Random(1)
        for model in (FixedDelay(5.0), UniformDelay(1.0, 2.0)):
            for _ in range(16):
                assert model.sample_event(rng, 0, 1, 10, 0.0) is not DROP

    def test_bursty_window_drops_only_inside_bursts(self):
        model = BurstyLossWindow(
            base=FixedDelay(5.0), period_ms=100.0, burst_ms=20.0
        )
        rng = random.Random(0)
        assert model.sample_event(rng, 0, 1, 10, 10.0) is DROP
        assert model.sample_event(rng, 0, 1, 10, 50.0) == 5.0
        assert model.sample_event(rng, 0, 1, 10, 110.0) is DROP  # next period
        assert model.in_burst(210.0) and not model.in_burst(250.0)

    def test_invalid_loss_parameters_rejected(self):
        with pytest.raises(ValueError):
            LossyDelay(base=FixedDelay(), loss_probability=1.5)
        with pytest.raises(ValueError):
            BurstyLossWindow(base=FixedDelay(), period_ms=0.0)
        with pytest.raises(ValueError):
            BurstyLossWindow(base=FixedDelay(), period_ms=10.0, burst_ms=20.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="period_ms"):
                BurstyLossWindow(base=FixedDelay(), period_ms=bad)
            with pytest.raises(ValueError, match="offset_ms"):
                BurstyLossWindow(base=FixedDelay(), offset_ms=bad)

    def test_network_counts_lossy_drops(self):
        config = SystemConfig.for_system(4, 1)
        topo = complete_topology(4)
        protocols = {
            pid: BrachaBroadcast(pid, config, sorted(topo.neighbors(pid)))
            for pid in topo.nodes
        }
        network = SimulatedNetwork(
            topo,
            protocols,
            delay_model=LossyDelay(base=FixedDelay(10.0), loss_probability=0.3),
            seed=5,
        )
        network.broadcast(0, b"value", 0)
        network.run()
        assert network.dropped_messages > 0


class TestNetworkObserver:
    def _network(self, **kwargs):
        config = SystemConfig.for_system(4, 1)
        topo = complete_topology(4)
        protocols = {
            pid: BrachaBroadcast(pid, config, sorted(topo.neighbors(pid)))
            for pid in topo.nodes
        }
        return SimulatedNetwork(topo, protocols, **kwargs)

    def test_observer_sees_sends_and_deliveries(self):
        network = self._network()
        seen = []
        network.observer = seen.append
        network.broadcast(0, b"value", 0)
        network.run()
        kinds = {obs.kind for obs in seen}
        assert kinds == {"send", "deliver"}
        sends = [obs for obs in seen if obs.kind == "send"]
        assert all(obs.mtype in ("SEND", "ECHO", "READY") for obs in sends)
        delivers = [obs for obs in seen if obs.kind == "deliver"]
        assert {obs.pid for obs in delivers} == {0, 1, 2, 3}
        assert all(obs.source == 0 and obs.bid == 0 for obs in delivers)

    def test_no_observations_constructed_without_observer(self, monkeypatch):
        # The hot path only builds Observation objects when an observer
        # is attached; an unobserved run must construct none at all.
        import repro.network.simulation.network as netmod

        constructed = []

        class CountingObservation(netmod.Observation):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(netmod, "Observation", CountingObservation)

        unobserved = self._network()
        unobserved.broadcast(0, b"value", 0)
        unobserved.run()
        assert constructed == []

        # Sanity-check the instrument: the same workload with an
        # observer attached does construct observations.
        observed = self._network()
        seen = []
        observed.observer = seen.append
        observed.broadcast(0, b"value", 0)
        observed.run()
        assert len(constructed) == len(seen) > 0

    def test_observer_crash_suppresses_the_rest_of_the_batch(self):
        # Crash process 0 the moment its first send is observed: the
        # remaining sends of the same command batch must not happen.
        network = self._network()

        def crash_source(observation):
            if observation.kind == "send" and observation.pid == 0:
                network.crash(0)

        network.observer = crash_source
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        assert metrics.messages_by_process.get(0, 0) == 1

    def test_replace_protocol_swaps_future_handling(self):
        network = self._network()
        from repro.network.adversary import MuteProcess

        network.replace_protocol(2, MuteProcess(2, (0, 1, 3)))
        network.broadcast(0, b"value", 0)
        metrics = network.run()
        assert metrics.messages_by_process.get(2, 0) == 0
        assert 2 not in metrics.deliveries_for((0, 0))

    def test_replace_unknown_process_rejected(self):
        network = self._network()
        with pytest.raises(ConfigurationError):
            network.replace_protocol(9, object())


class TestSchedulerFlights:
    """``schedule_flight`` equals scheduling the destinations one by one."""

    @staticmethod
    def _one_by_one(scheduler, delay, deliver, dests, sender, message):
        for dest in dests:
            scheduler.schedule(delay, deliver, dest, sender, message)

    @staticmethod
    def _as_flight(scheduler, delay, deliver, dests, sender, message):
        scheduler.schedule_flight(delay, deliver, tuple(dests), sender, message)

    def _both(self, scenario):
        """Run ``scenario(scheduler, launch, seen)`` both ways; same story."""
        stories = []
        for launch in (self._one_by_one, self._as_flight):
            scheduler = EventScheduler()
            seen = []
            story = scenario(scheduler, lambda *flight: launch(scheduler, *flight), seen)
            stories.append((story, seen, scheduler.executed_events, scheduler.pending))
        assert stories[0] == stories[1]
        return stories[1]

    def test_flight_runs_in_order_between_its_neighbours(self):
        def scenario(scheduler, launch, seen):
            deliver = lambda dest, sender, message: seen.append((scheduler.now, dest, sender, message))
            scheduler.schedule(5, seen.append, "before")
            launch(5, deliver, [3, 1, 2], 0, "m")
            scheduler.schedule(5, seen.append, "after")
            launch(5, deliver, [], 0, "nobody")
            pending = scheduler.pending
            scheduler.run()
            return pending

        pending, seen, executed, left = self._both(scenario)
        assert pending == 5
        assert seen == ["before", (5, 3, 0, "m"), (5, 1, 0, "m"), (5, 2, 0, "m"), "after"]
        assert (executed, left) == (5, 0)

    def test_flight_delay_is_validated_like_any_other(self):
        scheduler = EventScheduler()
        for bad in (float("nan"), -1.0):
            with pytest.raises(ValueError):
                scheduler.schedule_flight(bad, lambda *args: None, (1, 2), 0, "m")
        assert scheduler.pending == 0

    def test_max_events_mid_flight_aborts_at_the_per_send_count(self):
        def scenario(scheduler, launch, seen):
            deliver = lambda dest, sender, message: seen.append(dest)
            scheduler.schedule(1, seen.append, "first")
            launch(1, deliver, [10, 11, 12, 13, 14], 0, "m")
            scheduler.schedule(1, seen.append, "last")
            with pytest.raises(RuntimeAbort):
                scheduler.run(max_events=3)
            story = [list(seen), scheduler.executed_events, scheduler.pending]
            # A resumed run drains the rest; one delivery was consumed.
            scheduler.run(max_events=3)
            return story

        story, seen, executed, left = self._both(scenario)
        # "first", 10 and 11 ran; 12 tripped the budget and was consumed.
        assert story == [["first", 10, 11], 4, 3]
        assert seen == ["first", 10, 11, 13, 14, "last"]
        assert (executed, left) == (7, 0)

    def test_raising_receiver_leaves_the_rest_pending_ahead_of_reentered(self):
        def scenario(scheduler, launch, seen):
            def deliver(dest, sender, message):
                seen.append(dest)
                if dest == 20:
                    # Same timestamp, scheduled during the drain: runs
                    # after everything that was already queued.
                    scheduler.schedule(0, seen.append, "reentered")
                if dest == 21 and "boom" not in seen:
                    seen.append("boom")
                    raise KeyError("receiver bug")

            launch(1, deliver, [20, 21, 22, 23], 0, "m")
            scheduler.schedule(1, seen.append, "queued")
            with pytest.raises(KeyError):
                scheduler.run()
            story = [list(seen), scheduler.executed_events, scheduler.pending]
            scheduler.run()
            return story

        story, seen, executed, left = self._both(scenario)
        assert story == [[20, 21, "boom"], 2, 4]
        assert seen == [20, 21, "boom", 22, 23, "queued", "reentered"]
        assert (executed, left) == (6, 0)

    def test_abort_on_the_last_destination_leaves_no_empty_flight(self):
        def scenario(scheduler, launch, seen):
            def deliver(dest, sender, message):
                seen.append(dest)
                if dest == 31:
                    raise KeyError("receiver bug")

            launch(1, deliver, [30, 31], 0, "m")
            with pytest.raises(KeyError):
                scheduler.run()
            story = scheduler.pending
            scheduler.run()
            return story

        story, seen, executed, left = self._both(scenario)
        assert story == 0
        assert seen == [30, 31]
        assert (executed, left) == (2, 0)

    def test_resumed_run_finishes_with_the_totals_of_an_uninterrupted_one(self):
        def totals(interrupt):
            def scenario(scheduler, launch, seen):
                deliver = lambda dest, sender, message: seen.append((scheduler.now, dest))
                launch(1, deliver, [0, 1, 2], 9, "m")
                launch(2, deliver, [3, 4], 9, "m")
                launch(2, deliver, [5], 9, "n")
                interrupt(scheduler)
                scheduler.run()

            return self._both(scenario)[1:]

        def abort_mid_flight(scheduler):
            with pytest.raises(RuntimeAbort):
                scheduler.run(max_events=4)

        seen, executed, left = totals(lambda scheduler: None)
        assert seen == [(1, 0), (1, 1), (1, 2), (2, 3), (2, 4), (2, 5)]
        assert (executed, left) == (6, 0)
        # ``max_time`` stops between timestamps, never inside a flight.
        assert totals(lambda scheduler: scheduler.run(max_time=1)) == (seen, 6, 0)
        # The abort consumes the fifth event, (2, 4); the counts stand.
        assert totals(abort_mid_flight) == (seen[:4] + seen[5:], 6, 0)


class _Scripted:
    """Protocol stub: logs every reception and answers from a script."""

    def __init__(self, pid, log, *, on_broadcast=None, replies=None):
        self.pid = pid
        self.log = log
        self.on_broadcast = on_broadcast or (lambda payload: [])
        self.replies = replies or {}
        self.network = None

    def on_start(self):
        return []

    def broadcast(self, payload, bid=0):
        return self.on_broadcast(payload)

    def on_message(self, sender, message):
        self.log.append((self.network.now, self.pid, sender, message))
        reply = self.replies.get(message)
        return reply(self.network) if reply else []


class TestNetworkFlights:
    """Fan-outs travel as flights; every outcome equals the per-send schedule.

    A no-op observer forces flights of one — the per-send schedule — so
    each case is run both ways and must tell the same story.
    """

    @staticmethod
    def _fan_out(message, dests):
        return lambda payload: [SendTo(tuple(dests), message)]

    @staticmethod
    def _entries(network):
        """Scheduler entries (not events) queued: a flight is one."""
        return sum(
            len(bucket) if type(bucket) is list else 1
            for bucket in network.scheduler._buckets.values()
        )

    def _both(self, build, drive):
        """``build(log)`` → network of :class:`_Scripted`; ``drive(network)``."""
        stories = []
        for observed in (True, False):
            log = []
            network = build(log)
            for protocol in network.protocols.values():
                protocol.network = network
            if observed:
                network.observer = lambda observation: None
            error = None
            try:
                drive(network)
                network.run()
            except RuntimeAbort as abort:
                error = str(abort)
            stories.append(
                (
                    log,
                    error,
                    network.collector.snapshot(),
                    network.dropped_messages,
                    network.scheduler.executed_events,
                    network.scheduler.pending,
                )
            )
        assert stories[0] == stories[1]
        return network, stories[1]

    def _star(self, log, **scripts):
        """Complete graph on 0..3; ``p<pid>=dict(...)`` scripts a process."""
        topo = complete_topology(4)
        protocols = {
            pid: _Scripted(pid, log, **scripts.get(f"p{pid}", {})) for pid in topo.nodes
        }
        return SimulatedNetwork(topo, protocols, **scripts.get("network", {}))

    def test_a_fan_out_is_one_scheduler_entry(self):
        network = self._star([], p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])))
        network.broadcast(0, b"", 0)
        assert network.scheduler.pending == 3
        assert self._entries(network) == 1
        assert network.collector.message_count == 3

    def test_destination_dependent_arrivals_keep_one_entry_per_send(self):
        for kwargs in (
            dict(delay_model=UniformDelay(10.0, 20.0)),
            dict(shared_bandwidth_bps=1e6),
        ):
            network = self._star(
                [], p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])), network=kwargs
            )
            network.broadcast(0, b"", 0)
            assert self._entries(network) == network.scheduler.pending == 3
        # A drop window anywhere also rules a shared entry out.
        network = self._star([], p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])))
        network.drop_link(0, 2, 0.0, 10.0)
        network.broadcast(0, b"", 0)
        assert self._entries(network) == network.scheduler.pending == 2
        assert network.dropped_messages == 1

    def test_destination_crashed_in_flight_is_skipped_at_delivery(self):
        def build(log):
            network = self._star(log, p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])))
            CrashAt(pid=2, time_ms=25.0).apply(network)
            return network

        _, (log, _, metrics, dropped, executed, _) = self._both(
            build, lambda network: network.broadcast(0, b"", 0)
        )
        assert log == [(50.0, 1, 0, "m"), (50.0, 3, 0, "m")]
        assert metrics.message_count == 3 and dropped == 0
        # The crash plus all three deliveries are events, the skipped one too.
        assert executed == 4

    def test_replace_protocol_between_two_deliveries_reaches_the_new_instance(self):
        def build(log):
            def convert(network):
                replacement = _Scripted("replacement", log)
                replacement.network = network
                network.replace_protocol(2, replacement)
                return []

            return self._star(
                log,
                p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])),
                p1=dict(replies={"m": convert}),
            )

        _, (log, *_) = self._both(build, lambda network: network.broadcast(0, b"", 0))
        assert log == [(50.0, 1, 0, "m"), (50.0, "replacement", 0, "m"), (50.0, 3, 0, "m")]

    def test_dormancy_and_membership_are_decided_per_destination(self):
        def build(log):
            network = self._star(log, p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])))
            DelayedStart(pid=1, time_ms=80.0).apply(network)
            JoinAt(pid=3, time_ms=80.0).apply(network)
            return network

        _, (log, _, metrics, dropped, _, _) = self._both(
            build, lambda network: network.broadcast(0, b"", 0)
        )
        # 1 is dormant (buffered, replayed on wake-up), 3 has not joined
        # (dropped), 2 receives on arrival.
        assert log == [(50.0, 2, 0, "m"), (80.0, 1, 0, "m")]
        assert metrics.message_count == 3 and dropped == 1

    def _interrupted(self, log, **network_kwargs):
        def commands(payload):
            return [SendTo((1,), "m"), BRBDeliver(0, 0, b"x"), SendTo((2, 3), "m")]

        return self._star(
            log,
            p0=dict(on_broadcast=commands),
            p3=dict(on_broadcast=self._fan_out("n", [1, 2])),
            network=network_kwargs,
        )

    def test_a_delivery_between_two_sends_closes_the_flight(self):
        network = self._interrupted([])
        network.broadcast(0, b"", 0)
        # Two commands of one message object around the BRBDeliver: two flights.
        assert self._entries(network) == 2
        assert network.scheduler.pending == 3

        _, (log, _, metrics, *_) = self._both(
            self._interrupted, lambda network: network.broadcast(0, b"", 0)
        )
        assert [entry[1] for entry in log] == [1, 2, 3]
        assert metrics.delivery_times == {(0, (0, 0)): 0.0}

    def test_a_reentrant_broadcast_from_the_delivery_hook_keeps_its_place(self):
        def build(log):
            network = self._interrupted(log)
            network.on_deliver = lambda pid, event, time: network.broadcast(3, b"", 0)
            return network

        _, (log, *_) = self._both(build, lambda network: network.broadcast(0, b"", 0))
        # 3's fan-out went on the wire between 0's first and second send.
        assert log == [
            (50.0, 1, 0, "m"),
            (50.0, 1, 3, "n"),
            (50.0, 2, 3, "n"),
            (50.0, 2, 0, "m"),
            (50.0, 3, 0, "m"),
        ]

    def test_a_send_without_a_channel_aborts_after_the_flight_before_it(self):
        def build(log):
            topo = line_topology(4)
            protocols = {pid: _Scripted(pid, log) for pid in topo.nodes}
            protocols[1].on_broadcast = self._fan_out("m", [0, 2, 3, 0])
            return SimulatedNetwork(topo, protocols)

        def drive(network):
            network.broadcast(1, b"", 0)

        network, (log, error, metrics, dropped, _, pending) = self._both(build, drive)
        assert "tried to send to 3 without a channel" in error
        # One command: the destinations before the missing channel are
        # charged and in flight; the one after it never happened.
        assert log == [] and dropped == 0
        assert metrics.message_count == 2 and pending == 2
        network.run()
        assert [entry[1] for entry in network.protocols[0].log] == [0, 2]

    def test_a_severed_channel_under_churn_drops_inside_the_fan_out(self):
        def build(log):
            topo = line_topology(4)
            protocols = {pid: _Scripted(pid, log) for pid in topo.nodes}
            protocols[1].on_broadcast = self._fan_out("m", [0, 2, 3, 0])
            network = SimulatedNetwork(topo, protocols)
            LeaveAt(pid=3, time_ms=0.0).apply(network)
            return network

        _, (log, error, metrics, dropped, executed, pending) = self._both(
            build, lambda network: network.broadcast(1, b"", 0)
        )
        assert error is None
        assert [entry[1] for entry in log] == [0, 2, 0]
        assert metrics.message_count == 3 and dropped == 1
        assert (executed, pending) == (3, 0)

    def test_one_command_across_a_cut_edge(self):
        # One SendTo names 1, 2 and 3; the edge to 2 was cut mid-run.
        def build(log):
            network = self._star(log, p0=dict(on_broadcast=self._fan_out("m", [1, 2, 3])))
            network.cut_edge(0, 2)
            return network

        _, (log, error, metrics, dropped, executed, pending) = self._both(
            build, lambda network: network.broadcast(0, b"", 0)
        )
        assert error is None
        assert log == [(50.0, 1, 0, "m"), (50.0, 3, 0, "m")]
        assert metrics.message_count == 2 and dropped == 1
        assert (executed, pending) == (2, 0)
