"""Span recorder and the timing wrappers of the traced run.

The traced run records a span at every layer boundary of the table in
the README, from this file: nothing under ``src/`` knows it is being
timed.  :func:`install` swaps the listed public functions and methods
for wrappers (module attributes and class attributes, so every instance
and every ``from engine import ...`` alias the run reaches is covered)
and returns the function that puts the originals back.

A span is ``(id, parent, name, layer, cell, start, end, calls, busy,
self)``: ``cell`` is the scenario hash shared by every span of one cell,
``self`` is the span's duration minus the part its children cover.  The
three per-message boundaries (protocol ``on_message``, ``add_path``,
``record_send``) are entered 10^5 times per cell; one row each would cost
more than the work it measures, so they are accumulated and written as
one row per cell with ``calls`` > 1 and no start/end.  Spans stay in
memory until :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional

# Row layout (lists, because ``cell`` is filled in when the cell ends).
ID, PARENT, NAME, LAYER, CELL, START, END, CALLS, BUSY, SELF = range(10)
FIELDS = ("id", "parent", "name", "layer", "cell", "start_ns", "end_ns",
          "calls", "busy_ns", "self_ns")

#: Per-message boundaries: (span name, layer, name of the enclosing one).
HOT = (
    ("brb.on_message", "brb", None),
    ("paths.add_path", "paths", "brb.on_message"),
    ("metrics.record_send", "metrics", None),
)


class Tracer:
    """In-memory span and count recorder of one traced run."""

    def __init__(self) -> None:
        self.rows: List[list] = []
        self.counts: Counter = Counter()
        #: Topologies already built in this pass: a second ``build`` of
        #: one is an ``lru_cache`` hit and is named apart.
        self.built_topologies: set = set()
        self._stack: List[int] = []
        self._next_id = 0
        # Time spent in the already closed children of the innermost
        # open span; one shared cell so the per-message wrappers and the
        # span bookkeeping nest into each other.
        self._child = [0]
        self._hot: Dict[str, list] = {name: [0, 0, 0] for name, _, _ in HOT}

    # -- spans ---------------------------------------------------------
    def _open(self) -> tuple:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        outer_child = self._child[0]
        self._child[0] = 0
        return span_id, parent, outer_child, perf_counter_ns()

    def _close(self, token: tuple, name: str, layer: str, *, flush: bool = False) -> list:
        end = perf_counter_ns()
        span_id, parent, outer_child, start = token
        if flush:
            self._flush_hot(span_id)
        busy = end - start
        row = [span_id, parent, name, layer, None, start, end, 1, busy,
               busy - self._child[0]]
        self.rows.append(row)
        self._child[0] = outer_child + busy
        self._stack.pop()
        return row

    def _flush_hot(self, parent: int) -> None:
        """Write the per-message accumulators as children of ``parent``."""
        written: Dict[str, int] = {}
        for name, layer, inside in HOT:
            calls, busy, own = self._hot[name]
            if not calls:
                continue
            written[name] = self._next_id
            self.rows.append([self._next_id, written.get(inside, parent), name,
                              layer, None, None, None, calls, busy, own])
            self._next_id += 1
            self._hot[name][:] = (0, 0, 0)

    @contextmanager
    def span(self, name: str, layer: str, *, cell: bool = False,
             scenario_hash: Optional[str] = None) -> Iterator[list]:
        """Time a block; ``cell=True`` marks the root span of one cell.

        Yields a one-slot list holding ``scenario_hash``: a caller that
        only learns the hash inside the block stores it there, and every
        span recorded inside the cell carries it.
        """
        first_row = len(self.rows)
        token = self._open()
        holder: list = [scenario_hash]
        try:
            yield holder
        finally:
            self._close(token, name, layer, flush=cell)
            if cell:
                for row in self.rows[first_row:]:
                    if row[CELL] is None:
                        row[CELL] = holder[0]

    def wrap(self, original: Callable, name: str, layer: str, *,
             after: Optional[Callable] = None) -> Callable:
        """A timing wrapper for a coarse boundary (one row per call)."""
        def wrapper(*args, **kwargs):
            token = self._open()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(token, name, layer)
                raise
            row = self._close(token, name, layer)
            if after is not None:
                after(row, result, *args)
            return result
        return wrapper

    def wrap_hot(self, original: Callable, name: str, *,
                 after: Optional[Callable] = None,
                 outermost: Optional[list] = None) -> Callable:
        """A timing wrapper for a per-message boundary (accumulated).

        ``outermost`` is a one-slot flag shared by wrappers that call
        each other (adversary → protocol → inner layer): only the call
        that finds it clear is timed, the nested ones pass through.
        """
        accumulator, child, clock = self._hot[name], self._child, perf_counter_ns

        def wrapper(*args):
            if outermost is not None:
                if outermost[0]:
                    return original(*args)
                outermost[0] = True
            outer = child[0]
            child[0] = 0
            start = clock()
            try:
                result = original(*args)
            finally:
                busy = clock() - start
                accumulator[0] += 1
                accumulator[1] += busy
                accumulator[2] += busy - child[0]
                child[0] = outer + busy
                if outermost is not None:
                    outermost[0] = False
            if after is not None:
                after(result)
            return result
        return wrapper

    # -- reading -------------------------------------------------------
    def self_seconds_by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for row in self.rows:
            totals[row[LAYER]] = totals.get(row[LAYER], 0.0) + row[SELF] / 1e9
        return totals

    def busy_seconds(self, name: str) -> List[float]:
        """Duration of every row called ``name`` (seconds)."""
        return [row[BUSY] / 1e9 for row in self.rows if row[NAME] == name]

    def calls(self, name: str) -> int:
        return sum(row[CALLS] for row in self.rows if row[NAME] == name)

    def self_seconds(self, name: str) -> float:
        return sum(row[SELF] for row in self.rows if row[NAME] == name) / 1e9

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(dict(zip(FIELDS, row))) + "\n")


def _protocol_classes() -> List[type]:
    """Every class under ``repro`` that defines its own ``on_message``."""
    classes = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not module_name.startswith("repro."):
            continue
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module_name
                    and "on_message" in vars(value)):
                classes.append(value)
    return classes


def install(tracer: Tracer) -> Callable[[], None]:
    """Swap the layer boundaries for timing wrappers; returns the undo."""
    from repro.metrics.collector import MetricsCollector
    from repro.network.asyncio_runtime.cluster import AsyncioCluster
    from repro.network.simulation.network import SimulatedNetwork
    from repro.paths.disjoint import DisjointPathVerifier
    from repro.runner.cache import ResultCache
    from repro.runner.parallel import SweepExecutor
    from repro.scenarios import backends, engine
    from repro.scenarios.spec import TopologySpec

    undo: List[tuple] = []

    def patch(owner, attribute: str, replacement: Callable) -> None:
        undo.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    # topology ---------------------------------------------------------
    build = vars(TopologySpec)["build"]

    def traced_build(spec, seed: int = 0):
        fresh = (spec, seed) not in tracer.built_topologies
        tracer.built_topologies.add((spec, seed))
        token = tracer._open()
        try:
            return build(spec, seed)
        finally:
            tracer._close(token, "topology.build" if fresh else "topology.build_cached",
                          "topology")

    patch(TopologySpec, "build", traced_build)
    validate = tracer.wrap(engine.validate_topology, "topology.validate", "topology")
    patch(engine, "validate_topology", validate)
    patch(backends, "validate_topology", validate)

    # scenarios.engine -------------------------------------------------
    patch(engine, "build_network",
          tracer.wrap(engine.build_network, "engine.build_network", "scenarios.engine"))
    freeze = tracer.wrap(engine.freeze_result, "engine.freeze_result", "scenarios.engine")
    patch(engine, "freeze_result", freeze)
    patch(backends, "freeze_result", freeze)
    simulate = engine.simulate_scenario

    def traced_simulate(spec):
        with tracer.span("engine.simulate_scenario", "scenarios.engine", cell=True) as cell:
            result = simulate(spec)
            cell[0] = result.scenario_hash
        return result

    patch(engine, "simulate_scenario", traced_simulate)

    # network.simulation -----------------------------------------------
    run = vars(SimulatedNetwork)["run"]

    def traced_run(network, **limits):
        events_before = network.scheduler.executed_events
        token = tracer._open()
        try:
            return run(network, **limits)
        finally:
            tracer._close(token, "sim.run", "network.simulation", flush=True)
            tracer.counts["sim.events"] += network.scheduler.executed_events - events_before
            tracer.counts["sim.dropped_messages"] += network.dropped_messages

    patch(SimulatedNetwork, "run", traced_run)

    # brb / paths / metrics (per message) -------------------------------
    # Wrappers, adversaries and the layered stack call inner
    # ``on_message``s: only the call the runtime makes is a span.
    in_protocol = [False]
    for cls in _protocol_classes():
        patch(cls, "on_message",
              tracer.wrap_hot(vars(cls)["on_message"], "brb.on_message",
                              outermost=in_protocol))

    def count_stored(result) -> None:
        if result.stored:
            tracer.counts["paths.stored"] += 1

    patch(DisjointPathVerifier, "add_path",
          tracer.wrap_hot(vars(DisjointPathVerifier)["add_path"], "paths.add_path",
                          after=count_stored))
    patch(MetricsCollector, "record_send",
          tracer.wrap_hot(vars(MetricsCollector)["record_send"], "metrics.record_send"))

    # runner.cache / runner.parallel -------------------------------------
    def count_hit(row, result, *args) -> None:
        tracer.counts["cache.loads"] += 1
        if result is not None:
            tracer.counts["cache.hits"] += 1
            row[NAME] = "cache.load_hit"

    patch(ResultCache, "load",
          tracer.wrap(vars(ResultCache)["load"], "cache.load", "runner.cache",
                      after=count_hit))
    patch(ResultCache, "store",
          tracer.wrap(vars(ResultCache)["store"], "cache.store", "runner.cache"))
    run_stream = vars(SweepExecutor)["run_stream"]

    def traced_run_stream(executor, cells, **budget):
        # One span per result pulled: dispatch, the wait for the worker
        # and the cache calls (child spans) all happen inside ``next``.
        iterator = run_stream(executor, cells, **budget)
        while True:
            token = tracer._open()
            try:
                item = next(iterator)
            except StopIteration:
                tracer._close(token, "runner.run_stream", "runner.parallel")
                return
            tracer._close(token, "runner.run_stream", "runner.parallel")
            yield item

    patch(SweepExecutor, "run_stream", traced_run_stream)

    # network.asyncio_runtime --------------------------------------------
    start = vars(AsyncioCluster)["start"]

    async def traced_start(cluster, **timeouts):
        token = tracer._open()
        try:
            return await start(cluster, **timeouts)
        finally:
            tracer._close(token, "asyncio.cluster_start", "network.asyncio_runtime")

    patch(AsyncioCluster, "start", traced_start)

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
