"""The per-destination send path against a frozen per-send reference loop.

``SimulatedNetwork._launch`` schedules every configuration that is not a
fixed-delay flight destination by destination, and
``AsynchronousDelay.sample_event`` answers the draw in one frame.  The
reference below is that loop and the delay models' ``sample_event`` chain
as they stood before the one-frame draw (``sample_event → sample →
gauss``), frozen here.  Every cell runs under both and must agree on the
delivery trace, the losses, the event count and the RNG state the run
leaves behind — one draw more, fewer or in another order shows there.
(The loop itself is today's: hoisting its lookups measured ±0 and was not
kept.  The copy is what the next attempt has to equal.)
"""

import hashlib
import random
import types
from heapq import heappush

import pytest

from repro.network.simulation.delays import (
    DROP,
    AsynchronousDelay,
    BurstyLossWindow,
    FixedDelay,
    LossyDelay,
    UniformDelay,
)
from repro.runner.configs import modification_set_for
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec
from repro.scenarios.engine import build_network


def _reference_sample_event(model, rng, sender, dest, size, now):
    """The delay models' ``sample_event`` before the one-frame draw."""
    if type(model) is LossyDelay:
        if rng.random() < model.loss_probability:
            return DROP
        return _reference_sample_event(model.base, rng, sender, dest, size, now)
    if type(model) is BurstyLossWindow:
        if model.burst_ms > 0 and model.in_burst(now):
            if model.loss_probability >= 1.0 or rng.random() < model.loss_probability:
                return DROP
        return _reference_sample_event(model.base, rng, sender, dest, size, now)
    if type(model) is AsynchronousDelay:
        return max(model.min_ms, rng.gauss(model.mean_ms, model.std_ms))
    if type(model) is UniformDelay:
        return rng.uniform(model.low_ms, model.high_ms)
    assert type(model) is FixedDelay
    return model.delay_ms


def _reference_launch(self, pid, message, dests):
    """``SimulatedNetwork._launch`` as of ISSUE 24, frozen (do not edit)."""
    if not dests:
        return
    now = self.scheduler.now
    size = self.collector.record_flight(now, pid, dests, message)
    fixed = self._fixed_delay_ms
    bandwidth = self.shared_bandwidth_bps
    link_drops = self._link_drops
    deliver = self._deliver
    if fixed is not None and bandwidth is None and not link_drops:
        self.scheduler.schedule_flight(fixed, deliver, tuple(dests), pid, message)
        dests.clear()
        return
    buckets = self._sched_buckets
    times = self._sched_times
    for dest in dests:
        if fixed is not None:
            outcome = fixed
        else:
            outcome = _reference_sample_event(self.delay_model, self.rng, pid, dest, size, now)
        dropped = outcome is DROP or (
            link_drops and self._link_dropped(pid, dest, now)
        )
        time = now
        if bandwidth is not None:
            if self._medium_free_at > now:
                time = self._medium_free_at
            time += (size * 8.0 / bandwidth) * 1000.0
            self._medium_free_at = time
        if dropped:
            self.dropped_messages += 1
            continue
        time += outcome
        if time != time:
            raise ValueError("cannot schedule an event at a NaN time")
        if time < now:
            raise ValueError(f"cannot schedule at {time}, current time is {now}")
        entry = (deliver, (dest, pid, message))
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = entry
            heappush(times, time)
        elif type(bucket) is list:
            bucket.append(entry)
        else:
            buckets[time] = [bucket, entry]
    dests.clear()


DELAYS = {
    "normal": DelaySpec("normal", mean_ms=50.0, std_ms=50.0),
    "uniform": DelaySpec("uniform", low_ms=10.0, high_ms=100.0),
    "lossy+normal": DelaySpec("normal", mean_ms=50.0, std_ms=50.0, loss=0.05),
    "bursty+normal": DelaySpec(
        "normal", mean_ms=50.0, std_ms=50.0, burst_period_ms=40.0, burst_len_ms=4.0
    ),
    # Fixed delays leave the flight path once a medium or a window exists.
    "fixed": DelaySpec("fixed", mean_ms=50.0),
}
PROTOCOLS = {"bracha_dolev": "bdopt", "cross_layer": "lat_bdw"}


def _spec(delay, protocol, shared_medium):
    return ScenarioSpec(
        name=f"send-path-{delay}-{protocol}",
        topology=TopologySpec("random_regular", n=10, k=5, min_connectivity=5),
        delay=DELAYS[delay],
        protocol=protocol,
        modifications=modification_set_for(PROTOCOLS[protocol]),
        f=2,
        payload_size=64,
        seed=4242,
        shared_bandwidth_bps=2e6 if shared_medium else None,
    )


class _Tap:
    """Stands in for a protocol instance and digests what it receives."""

    def __init__(self, inner, pid, network, digest):
        self._inner = inner
        self._pid = pid
        self._network = network
        self._digest = digest

    def on_message(self, sender, message):
        self._digest.update(repr((self._network.now, self._pid, sender, message)).encode())
        return self._inner.on_message(sender, message)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _story(spec, *, link_window, reference):
    network, _ = build_network(spec)
    if reference:
        # ``_launch`` takes the command's tuple as it is; the frozen
        # reference clears what it is given, so it gets a list copy.
        network._launch = types.MethodType(
            lambda self, pid, message, dests: _reference_launch(self, pid, message, list(dests)),
            network,
        )
    if link_window:
        source = spec.broadcasts()[0].source
        network.drop_link(source, min(network.topology.adjacency[source]), 0.0, 120.0)
    receptions = hashlib.sha256()
    for pid, protocol in list(network.protocols.items()):
        network.replace_protocol(pid, _Tap(protocol, pid, network, receptions))
    deliveries = []
    network.on_deliver = lambda pid, event, time: deliveries.append(
        (time, pid, event.source, event.bid)
    )
    for broadcast in spec.broadcasts():
        # Five milliseconds in: time 0 lies inside the first outage burst.
        network.broadcast_at(
            broadcast.source, spec.payload_for(broadcast), broadcast.bid,
            broadcast.start_time_ms + 5.0,
        )
    metrics = network.run(max_events=spec.max_events)
    return {
        "metrics": metrics,
        "deliveries": deliveries,
        "receptions": receptions.hexdigest(),
        "dropped_messages": network.dropped_messages,
        "executed_events": network.scheduler.executed_events,
        "rng_state": network.rng.getstate(),
        "medium_free_at": network._medium_free_at,
    }


CELLS = [
    pytest.param(delay, protocol, shared_medium, link_window,
                 id=f"{delay}-{protocol}-medium{shared_medium:d}-window{link_window:d}")
    for delay in sorted(DELAYS)
    for protocol in sorted(PROTOCOLS)
    for shared_medium in (False, True)
    for link_window in (False, True)
    # Fixed delays with neither take the one-entry flight path
    # (test_flights_differential.py), not this loop.
    if delay != "fixed" or shared_medium or link_window
]


@pytest.mark.parametrize("delay, protocol, shared_medium, link_window", CELLS)
def test_send_path_equals_the_frozen_per_send_loop(delay, protocol, shared_medium, link_window):
    spec = _spec(delay, protocol, shared_medium)
    change = _story(spec, link_window=link_window, reference=False)
    parent = _story(spec, link_window=link_window, reference=True)
    assert change["executed_events"] > 0 and change["metrics"].message_count > 0
    if delay.startswith(("lossy", "bursty")) or link_window:
        assert change["dropped_messages"] > 0, "the cell lost nothing: it proves nothing"
    else:
        assert change["deliveries"], "the cell delivered nothing: it proves nothing"
    if delay != "fixed":
        assert change["rng_state"] != random.Random(spec.seed).getstate()
    for key in change:
        assert change[key] == parent[key], key


class TestOneFrameDraw:
    @pytest.mark.parametrize(
        "model",
        (
            AsynchronousDelay(50.0, 50.0),
            AsynchronousDelay(-20.0, 5.0),  # every draw clipped
            AsynchronousDelay(0.0, 1.0, min_ms=0.0),
            AsynchronousDelay(7.0, 0.0),
        ),
    )
    def test_sample_event_equals_sample_equals_the_clipped_gauss(self, model):
        draws, sampled, reference = random.Random(9), random.Random(9), random.Random(9)
        clipped = 0
        for _ in range(500):
            value = model.sample_event(draws, 0, 1, 64, 12.5)
            assert type(value) is float
            assert value == model.sample(sampled, 0, 1, 64)
            assert value == max(model.min_ms, reference.gauss(model.mean_ms, model.std_ms))
            clipped += value == model.min_ms
        assert draws.getstate() == sampled.getstate() == reference.getstate()
        if model.mean_ms < 0:
            assert clipped == 500
        elif model.std_ms == 50.0:
            assert 0 < clipped < 500

    def test_lossy_wrappers_reach_the_one_frame_draw(self):
        model = LossyDelay(
            base=BurstyLossWindow(base=AsynchronousDelay(50.0, 50.0), period_ms=10.0, burst_ms=1.0),
            loss_probability=0.2,
        )
        draws, reference = random.Random(3), random.Random(3)
        outcomes = [model.sample_event(draws, 0, 1, 64, 0.25 * step) for step in range(400)]
        assert outcomes == [
            _reference_sample_event(model, reference, 0, 1, 64, 0.25 * step)
            for step in range(400)
        ]
        assert DROP in outcomes and draws.getstate() == reference.getstate()
