"""The asyncio execution backend of the scenario engine.

A spec runs on one of two backends, named by ``spec.backend``:

* ``"simulation"`` — the discrete-event simulator,
  :func:`~repro.scenarios.engine.simulate_scenario`, fully
  deterministic (bit-identical results per seed);
* ``"asyncio"`` — :class:`AsyncioBackend`, the same protocol objects
  over real TCP sockets on localhost
  (:mod:`repro.network.asyncio_runtime`).  The deterministic parts of
  the expansion — topology generation, adversary placement, protocol
  wiring — are byte-for-byte the ones the simulator uses, and so are
  the faults: the cluster implements the same runtime
  primitives as the simulator, so ``fault.apply(cluster)`` and
  :func:`~repro.scenarios.engine.arm_adaptive` mean here what
  :mod:`repro.scenarios.faults` says they mean.  Loss is not translated
  either: a lossy spec hands the cluster ``spec.delay.build()``, the
  model the simulator draws ``DROP`` from, seeded from the scenario
  hash.

  Simulated milliseconds — fault timestamps and workload
  ``start_time_ms`` values alike — map to wall-clock seconds through
  ``time_scale`` (default: 1 simulated ms = 1 real ms).  Timings in the
  result are wall-clock and therefore not reproducible; the
  delivery/safety verdicts are, and
  :mod:`repro.scenarios.conformance` asserts they match the simulation.

:func:`~repro.scenarios.engine.run_scenario` dispatches between them.

Grid cells declare their backend via ``spec.backend`` (also a grid axis:
``expand_grid(base, {"backend": ["simulation", "asyncio"]})``), and the
scenario hash — the sweep executor's cache key — includes it, so results
from different backends never shadow each other in the cache.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import List

from repro.core.errors import ConfigurationError
from repro.metrics.collector import MetricsCollector
from repro.network.asyncio_runtime.cluster import AsyncioCluster
from repro.scenarios.engine import (
    ScenarioResult,
    arm_adaptive,
    build_protocols,
    freeze_result,
    place_byzantine,
    validate_topology,
)
from repro.scenarios.spec import BroadcastSpec, ScenarioSpec


@dataclass(frozen=True)
class ScheduledBroadcast:
    """One workload broadcast on the wall clock: fire at ``at_s`` after the epoch."""

    broadcast: BroadcastSpec
    at_s: float
    payload: bytes


class AsyncioBackend:
    """Runs a scenario on the asyncio TCP runtime (localhost sockets).

    Parameters
    ----------
    time_scale:
        Wall-clock seconds per simulated millisecond of the spec's fault
        timestamps and workload start times; the default ``1e-3`` keeps
        1 simulated ms = 1 real ms.
    delivery_timeout_s:
        How long to wait for every correct process to deliver before
        freezing a partial outcome (the verdicts then report the missing
        deliveries instead of hanging).
    connect_timeout_s:
        Readiness-barrier budget for cluster startup.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        time_scale: float = 1e-3,
        delivery_timeout_s: float = 20.0,
        connect_timeout_s: float = 10.0,
    ) -> None:
        for name, value in (
            ("time_scale", time_scale),
            ("delivery_timeout_s", delivery_timeout_s),
            ("connect_timeout_s", connect_timeout_s),
        ):
            # ``not <`` also catches NaN.
            if not 0 < value < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, got {value}"
                )
        self.host = host
        self.time_scale = time_scale
        self.delivery_timeout_s = delivery_timeout_s
        self.connect_timeout_s = connect_timeout_s

    # -- translation ---------------------------------------------------
    def validate(self, spec: ScenarioSpec) -> None:
        """Reject spec features real sockets cannot express."""
        if spec.shared_bandwidth_bps is not None:
            raise ConfigurationError(
                "the asyncio backend runs over real sockets and cannot "
                "emulate a shared bandwidth cap; use the simulation backend"
            )

    def _scale(self, time_ms: float) -> float:
        return time_ms * self.time_scale

    def plan_workload(self, spec: ScenarioSpec) -> List[ScheduledBroadcast]:
        """Translate the spec's workload into a wall-clock broadcast schedule.

        Pure and deterministic — the same canonical order the simulation
        backend initiates broadcasts in, with ``start_time_ms`` scaled
        through ``time_scale`` exactly like the fault timestamps.
        """
        return [
            ScheduledBroadcast(
                broadcast=broadcast,
                at_s=self._scale(broadcast.start_time_ms),
                payload=spec.payload_for(broadcast),
            )
            for broadcast in spec.broadcasts()
        ]

    # -- execution -----------------------------------------------------
    def run(self, spec: ScenarioSpec) -> ScenarioResult:
        return asyncio.run(self.run_async(spec))

    async def run_async(self, spec: ScenarioSpec) -> ScenarioResult:
        """Materialize the spec into an :class:`AsyncioCluster` and run it."""
        self.validate(spec)
        topology = spec.topology.build(spec.seed)
        validate_topology(spec, topology)
        byzantine = place_byzantine(spec, topology)
        protocols = build_protocols(spec, topology, byzantine)
        collector = MetricsCollector()
        cluster = AsyncioCluster(
            topology,
            spec.system(),
            protocols,
            host=self.host,
            collector=collector,
            time_scale=self.time_scale,
            # A lossless run never asks a model: the sockets time it.
            delay_model=spec.delay.build() if spec.is_lossy else None,
            seed=int(spec.scenario_hash()[:16], 16),
        )
        for fault in spec.faults:
            fault.apply(cluster)
        adaptive = arm_adaptive(cluster, spec, byzantine)

        schedule = self.plan_workload(spec)
        # Late joiners are excluded from the delivery *wait* only (they
        # missed the early traffic, so blocking on them would run every
        # churn cell to the timeout); freeze_result still accounts them
        # as correct, and totality is suppressed under churn anyway.
        not_awaited = {
            fault.pid for fault in spec.faults if fault.silences or fault.joins_late
        }
        correct = [
            pid
            for pid in topology.nodes
            if pid not in byzantine and pid not in not_awaited
        ]
        try:
            await cluster.start(connect_timeout=self.connect_timeout_s)
            cluster.open_epoch()
            loop = asyncio.get_running_loop()
            # Replay the workload schedule on wall-clock timers: each
            # broadcast fires at its (scaled) start time relative to the
            # epoch, mirroring the simulator's schedule_at initiation.
            for scheduled in schedule:
                delay = cluster.epoch + scheduled.at_s - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await cluster.broadcast(
                    scheduled.broadcast.source,
                    scheduled.payload,
                    scheduled.broadcast.bid,
                )
            # Wait for the verdict-relevant deliveries — per broadcast
            # key, so an unscheduled delivery never masks a scheduled
            # one; a scenario whose faults prevent totality times out
            # here and freezes the partial outcome instead of hanging.
            await cluster.wait_for_deliveries_of(
                [scheduled.broadcast.key for scheduled in schedule],
                timeout=self.delivery_timeout_s,
                processes=correct,
            )
            if cluster.epoch is not None:
                collector.record_time((loop.time() - cluster.epoch) * 1000.0)
            dropped = cluster.dropped_messages
        finally:
            await cluster.stop()

        return freeze_result(
            spec,
            topology=topology,
            byzantine={
                **{pid: adv.behaviour for pid, adv in byzantine.items()},
                **adaptive.converted,
            },
            metrics=collector.snapshot(),
            dropped_messages=dropped,
            # Delivery timestamps are wall-clock ms relative to the
            # epoch; nominal start times are simulated ms.  The factor
            # maps the latter into the former so per-broadcast latency
            # is measured in one domain whatever the time_scale.
            start_time_factor=self.time_scale * 1000.0,
            extra_crashed=tuple(sorted(adaptive.crashed)),
        )



__all__ = [
    "AsyncioBackend",
    "ScheduledBroadcast",
]
