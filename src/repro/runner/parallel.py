"""Parallel sweep executor over scenario grid cells.

Runs a sequence of :class:`~repro.scenarios.spec.ScenarioSpec` cells
through :func:`~repro.scenarios.engine.run_scenario`, either inline
(``workers <= 1``) or fanned out over a pool of worker processes.
Each cell declares its execution backend (``spec.backend``): simulation
cells run on the discrete-event simulator, asyncio cells materialize an
:class:`~repro.network.asyncio_runtime.AsyncioCluster` on real localhost
sockets — worker processes host their own event loop, and the ephemeral
port allocation keeps concurrently running cells from colliding.

:meth:`SweepExecutor.run_stream` is the one way cells run: ``run``, the
paper benchmarks and the fuzz farm all drain it.

Guarantees:

* **Seed stability** — a *simulation* cell's result only depends on the
  cell itself (every random choice derives from ``spec.seed``), so the
  parallel path returns results equal to the serial path for the same
  cells, whatever the worker count or scheduling order.  Asyncio cells
  share the deterministic expansion (topology, placement, wiring) but
  carry wall-clock timings; only their delivery/safety verdicts are
  stable (see :mod:`repro.scenarios.conformance`).
* **Order preservation** — results come back in cell order: a result
  that finishes early waits behind the head of the line.
* **Caching** — with a ``cache_dir``, each result is persisted under its
  scenario hash, which includes the backend, so the same scenario run on
  two backends occupies two cache slots; re-running a sweep only
  executes the cells not yet cached (the cached record's executing
  backend and spec are verified against the requesting cell before being
  trusted, so collisions of either kind degrade to a re-run).

The dispatch window.  One loop (:meth:`SweepExecutor.run_stream`;
``run`` drains it) reads a cell, looks it up in the cache and dispatches
a miss while fewer than ``workers × DISPATCH_DEPTH`` dispatched cells
are unfinished, refilling as any of them completes — also while it
waits for the head.  A slow head therefore holds back the yield, not
the workers, until ``DISPATCH_DEPTH`` windows of results (hits
included) wait behind it: that bounds what the parent holds.  Worker
*processes* stay at ``workers`` (fewer when a sized ``cells`` or
``max_cells`` leaves fewer cells to read; a lone last miss runs
inline).  A time budget stops the reading, so at most ``workers ×
DISPATCH_DEPTH`` cells, all dispatched before the deadline, start
after it; ``max_cells`` is exact.  A worker that dies mid-cell raises
:class:`~concurrent.futures.process.BrokenProcessPool` naming the first
cell whose result was lost, after the results ahead of it were yielded
and stored.  ``cached`` flags and ``cache_hits`` equal the serial
path's as long as no scenario hash repeats within a stream: the serial
path serves a repeat from the cache, the pool may have dispatched both.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Sized, Union

from repro.runner.cache import ResultCache
from repro.scenarios.engine import ScenarioResult, run_scenario
from repro.scenarios.spec import ScenarioSpec

#: Unfinished dispatched cells per worker process (see "The dispatch
#: window" above).  2–8 read the same wall on the fuzz stream.
DISPATCH_DEPTH = 4


def _execute_cell(spec: ScenarioSpec) -> ScenarioResult:
    """Top-level worker entry point (must be picklable for the pool)."""
    return run_scenario(spec)


@dataclass(frozen=True)
class StreamedResult:
    """One cell's outcome as yielded by :meth:`SweepExecutor.run_stream`."""

    #: Position of the cell in the consumed stream (0-based).
    index: int
    spec: ScenarioSpec
    result: ScenarioResult
    #: Whether the result was served from the scenario-hash cache.
    cached: bool


class SweepExecutor:
    """Runs scenario cells serially or over a process pool.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` uses the CPU count and
        ``workers <= 1`` selects the serial path (no pool, no pickling).
    cache_dir:
        Directory for per-cell result caching keyed by scenario hash;
        ``None`` disables caching.
    mp_context:
        Optional :mod:`multiprocessing` start method (``"fork"``,
        ``"spawn"``, …); ``None`` uses the platform default.
    """

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.cache = ResultCache(cache_dir)
        self.mp_context = mp_context
        #: Number of cells served from the cache by the last ``run`` call.
        self.cache_hits = 0

    @property
    def cache_dir(self) -> Optional[Path]:
        return self.cache.cache_dir

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, cells: Sequence[ScenarioSpec]) -> List[ScenarioResult]:
        """Run every cell and return results in cell order."""
        return [item.result for item in self.run_stream(cells)]

    def run_stream(
        self,
        cells: Iterable[ScenarioSpec],
        *,
        time_budget_s: Optional[float] = None,
        max_cells: Optional[int] = None,
    ) -> Iterator[StreamedResult]:
        """Stream results from a (possibly unbounded) iterable of cells.

        This is the fuzzing farm's ingestion path: ``cells`` may be an
        infinite generator, and execution stops *consuming* it once the
        time budget elapses or ``max_cells`` cells have been taken —
        whichever comes first (no budget means: drain the iterable).
        Results are yielded strictly in consumption order, as soon as
        the head of the line is available.

        Each consumed cell is first looked up by scenario hash (hits
        count toward ``max_cells`` and ``cache_hits``).  A miss runs
        inline on the serial path, so the budget is checked between
        cells; with ``workers > 1`` it is dispatched to the pool, which
        is created on the first miss and kept fed as the module
        docstring describes.  Cells already dispatched when the budget
        runs out still complete and are yielded, and every fresh result
        is persisted as it is yielded (a budgeted or failing stream
        never discards a result it handed out).
        """
        if time_budget_s is not None and time_budget_s < 0:
            raise ValueError(f"time_budget_s must be >= 0, got {time_budget_s}")
        if max_cells is not None and max_cells < 0:
            raise ValueError(f"max_cells must be >= 0, got {max_cells}")
        deadline = (
            None if time_budget_s is None else time.monotonic() + time_budget_s
        )
        iterator = iter(cells)
        # How many cells the stream can hold, where known: a pool is no
        # larger than what is left to read, and a lone last cell runs inline.
        limit = min(
            len(cells) if isinstance(cells, Sized) else float("inf"),
            float("inf") if max_cells is None else max_cells,
        )
        self.cache_hits = 0
        window = self.workers * DISPATCH_DEPTH
        # (future or None, index, spec, result unless the future holds
        # it, cached) per consumed cell, in consumption order.
        queue: deque = deque()
        unfinished: list = []
        consumed = 0
        exhausted = False
        pool: Optional[ProcessPoolExecutor] = None
        try:
            while True:
                unfinished = [future for future in unfinished if not future.done()]
                if (
                    not exhausted
                    and len(unfinished) < window
                    and len(queue) < window * DISPATCH_DEPTH
                    and consumed < limit
                    and (deadline is None or time.monotonic() < deadline)
                ):
                    # One cell a turn: a head that is ready is yielded
                    # before the next cell is read.
                    try:
                        spec = next(iterator)
                    except StopIteration:
                        exhausted = True
                        continue
                    result = self.cache.load(spec)
                    future = None
                    cached = result is not None
                    if cached:
                        self.cache_hits += 1
                    elif pool is None and min(self.workers, limit - consumed) <= 1:
                        result = _execute_cell(spec)
                    else:
                        if pool is None:
                            pool = ProcessPoolExecutor(
                                min(self.workers, limit - consumed),
                                multiprocessing.get_context(self.mp_context),
                            )
                        try:
                            future = pool.submit(_execute_cell, spec)
                        except BrokenProcessPool as error:
                            # Read no further; the results queued ahead
                            # of the lost cell are still yielded.
                            future, exhausted = Future(), True
                            future.set_exception(error)
                        else:
                            unfinished.append(future)
                    queue.append((future, consumed, spec, result, cached))
                    consumed += 1
                elif not queue:
                    return
                elif queue[0][0] in unfinished:
                    wait(unfinished, return_when=FIRST_COMPLETED)
                if queue and (queue[0][0] is None or queue[0][0].done()):
                    future, index, spec, result, cached = queue.popleft()
                    if future is not None:
                        try:
                            result = future.result()
                        except BrokenProcessPool as error:
                            raise BrokenProcessPool(
                                f"a worker process died; the result of cell {index} "
                                f"({spec.name!r}, {spec.scenario_hash()[:12]}) is lost"
                            ) from error
                    if not cached:
                        self.cache.store(result)
                    yield StreamedResult(index, spec, result, cached)
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)


def run_sweep(
    cells: Sequence[ScenarioSpec],
    *,
    workers: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    mp_context: Optional[str] = None,
) -> List[ScenarioResult]:
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    executor = SweepExecutor(workers=workers, cache_dir=cache_dir, mp_context=mp_context)
    return executor.run(cells)


__all__ = ["SweepExecutor", "StreamedResult", "run_sweep"]
