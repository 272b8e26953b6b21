"""Budgeted streaming execution (:meth:`SweepExecutor.run_stream`):
cell budgets, time budgets over infinite generators, cache semantics,
and serial/pool equivalence."""

import dataclasses
import itertools
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.fuzz.corpus import Corpus
from repro.fuzz.farm import FuzzFarm
from repro.runner import StreamedResult, SweepExecutor, parallel
from repro.scenarios import DelaySpec, ScenarioSpec, TopologySpec, run_scenario


def _cells(count):
    return [
        ScenarioSpec(
            name=f"stream-{index}",
            topology=TopologySpec(kind="complete", n=4),
            delay=DelaySpec(kind="fixed", mean_ms=5.0),
            seed=index,
        )
        for index in range(count)
    ]


def _infinite_cells():
    for index in itertools.count():
        yield ScenarioSpec(
            name=f"endless-{index}",
            topology=TopologySpec(kind="complete", n=4),
            delay=DelaySpec(kind="fixed", mean_ms=5.0),
            seed=index,
        )


class TestBudgets:
    def test_max_cells_bounds_an_infinite_stream(self):
        executor = SweepExecutor(workers=1)
        streamed = list(executor.run_stream(_infinite_cells(), max_cells=5))
        assert [item.index for item in streamed] == [0, 1, 2, 3, 4]
        assert all(isinstance(item, StreamedResult) for item in streamed)
        assert all(item.result.spec == item.spec for item in streamed)

    def test_no_budget_drains_a_finite_iterable(self):
        executor = SweepExecutor(workers=1)
        streamed = list(executor.run_stream(_cells(3)))
        assert len(streamed) == 3

    def test_zero_cell_budget_consumes_nothing(self):
        executor = SweepExecutor(workers=1)
        consumed = []

        def tracking():
            for spec in _infinite_cells():
                consumed.append(spec)
                yield spec

        assert list(executor.run_stream(tracking(), max_cells=0)) == []
        assert consumed == []

    def test_time_budget_stops_consumption(self):
        executor = SweepExecutor(workers=1)
        streamed = list(
            executor.run_stream(_infinite_cells(), time_budget_s=0.2)
        )
        # The budget is checked between cells: the stream terminated and
        # made progress, without draining the infinite generator.
        assert streamed
        assert [item.index for item in streamed] == list(range(len(streamed)))

    def test_expired_time_budget_runs_nothing(self):
        executor = SweepExecutor(workers=1)
        assert list(executor.run_stream(_infinite_cells(), time_budget_s=0.0)) == []

    def test_invalid_budgets_are_rejected(self):
        executor = SweepExecutor(workers=1)
        with pytest.raises(ValueError, match="time_budget_s"):
            list(executor.run_stream(_cells(1), time_budget_s=-1.0))
        with pytest.raises(ValueError, match="max_cells"):
            list(executor.run_stream(_cells(1), max_cells=-1))


class TestCache:
    def test_cache_hits_count_and_flag(self, tmp_path):
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        cells = _cells(3)
        first = list(executor.run_stream(cells, max_cells=3))
        assert executor.cache_hits == 0
        assert [item.cached for item in first] == [False, False, False]
        second = list(executor.run_stream(cells, max_cells=3))
        assert executor.cache_hits == 3
        assert [item.cached for item in second] == [True, True, True]
        assert [item.result for item in second] == [item.result for item in first]

    def test_stream_shares_the_cache_with_run(self, tmp_path):
        executor = SweepExecutor(workers=1, cache_dir=tmp_path)
        cells = _cells(2)
        executor.run(cells)
        streamed = list(executor.run_stream(cells, max_cells=2))
        assert executor.cache_hits == 2
        assert all(item.cached for item in streamed)


class TestPoolEquivalence:
    def test_pool_results_match_serial_in_order(self, tmp_path):
        cells = _cells(6)
        serial = list(SweepExecutor(workers=1).run_stream(cells))
        pooled = list(SweepExecutor(workers=2).run_stream(iter(cells)))
        assert [item.index for item in pooled] == [item.index for item in serial]
        assert [item.spec for item in pooled] == [item.spec for item in serial]
        assert [item.result for item in pooled] == [
            item.result for item in serial
        ]

    def test_pool_max_cells_budget(self):
        executor = SweepExecutor(workers=2)
        streamed = list(executor.run_stream(_infinite_cells(), max_cells=5))
        assert [item.index for item in streamed] == [0, 1, 2, 3, 4]

    def test_pool_drains_in_flight_cells_after_time_expiry(self):
        executor = SweepExecutor(workers=2)
        streamed = list(
            executor.run_stream(_infinite_cells(), time_budget_s=0.2)
        )
        # Dispatched cells are never discarded: the indices yielded are
        # a gapless prefix of the consumed stream.
        assert streamed
        assert [item.index for item in streamed] == list(range(len(streamed)))


# ----------------------------------------------------------------------
# The dispatch window (pool path): instrumented cell functions.  The
# pool pickles them by reference, so they live at module level, and
# they report through files because they run in worker processes.
# ----------------------------------------------------------------------
LOG_ENV = "REPRO_TEST_CELL_LOG"
SLOW_HEAD_S = 0.5
PACED_CELL_S = 0.01


def _log_run(spec, started):
    """Record which process ran ``spec`` and when (monotonic seconds)."""
    path = Path(os.environ[LOG_ENV], f"{spec.seed}-{os.getpid()}-{started}")
    path.write_text(f"{os.getpid()} {started} {time.monotonic()}")


def _runs(log_dir):
    """``{seed: (pid, started, ended)}`` of every logged execution."""
    runs = {}
    for path in log_dir.iterdir():
        pid, started, ended = path.read_text().split()
        runs[int(path.name.split("-")[0])] = (int(pid), float(started), float(ended))
    return runs


def _logged_cell(spec, sleep_s):
    started = time.monotonic()
    time.sleep(sleep_s)
    result = run_scenario(spec)
    _log_run(spec, started)
    return result


def _slow_head_cell(spec):
    return _logged_cell(spec, SLOW_HEAD_S if spec.seed == 0 else 0.0)


def _paced_cell(spec):
    return _logged_cell(spec, PACED_CELL_S)


def _failing_cell(spec):
    _log_run(spec, time.monotonic())
    if spec.name.endswith("-5"):
        raise RuntimeError(f"cell {spec.name} is broken")
    return run_scenario(spec)


def _dying_cell(spec):
    if spec.seed == 2:
        os._exit(1)
    return run_scenario(spec)


def _dying_late_cell(spec):
    if spec.seed == 20:
        os._exit(1)
    return run_scenario(spec)


@pytest.fixture()
def cell_log(tmp_path, monkeypatch):
    log_dir = tmp_path / "cell-log"
    log_dir.mkdir()
    monkeypatch.setenv(LOG_ENV, str(log_dir))
    return log_dir


def _tracked(cells, consumed):
    for spec in cells:
        consumed.append(spec)
        yield spec


class TestDispatchWindow:
    def test_slow_head_neither_blocks_dispatch_nor_idles_the_pool(
        self, monkeypatch, cell_log
    ):
        monkeypatch.setattr(parallel, "_execute_cell", _slow_head_cell)
        workers, cells = 2, 80
        consumed = []
        stream = SweepExecutor(workers=workers).run_stream(
            _tracked(_infinite_cells(), consumed), max_cells=cells
        )
        head = next(stream)
        assert head.index == 0
        # Dispatch ran ahead of the head it was waiting for ...
        assert len(consumed) > workers
        rest = list(stream)
        assert [item.index for item in rest] == list(range(1, cells))
        # ... and went on refilling while it waited: the other worker
        # got through more than a whole window during the head's sleep.
        runs = _runs(cell_log)
        head_pid, head_started, head_ended = runs[0]
        meanwhile = [
            seed
            for seed, (pid, started, _) in runs.items()
            if pid != head_pid and head_started <= started <= head_ended
        ]
        assert len(meanwhile) > workers * parallel.DISPATCH_DEPTH

    def test_results_waiting_behind_the_head_are_bounded(
        self, monkeypatch, cell_log, tmp_path
    ):
        monkeypatch.setattr(parallel, "_execute_cell", _slow_head_cell)
        workers, cells = 2, _cells(100)
        SweepExecutor(workers=1, cache_dir=tmp_path).run(cells[1:])
        consumed = []
        executor = SweepExecutor(workers=workers, cache_dir=tmp_path)
        stream = executor.run_stream(_tracked(cells, consumed))
        assert next(stream).index == 0
        # The hits behind the slow miss were read ahead, but not all 99.
        assert len(consumed) == workers * parallel.DISPATCH_DEPTH**2
        assert [item.index for item in stream] == list(range(1, 100))
        assert executor.cache_hits == 99

    def test_mixed_hits_and_misses_match_the_serial_path(self, tmp_path):
        cells = _cells(12)
        streams = {}
        for workers in (1, 2):
            cache_dir = tmp_path / f"cache-{workers}"
            SweepExecutor(workers=1, cache_dir=cache_dir).run(cells[::3])
            executor = SweepExecutor(workers=workers, cache_dir=cache_dir)
            streams[workers] = (list(executor.run_stream(iter(cells))), executor.cache_hits)
        assert streams[2] == streams[1]
        serial, hits = streams[1]
        assert hits == 4
        assert [item.index for item in serial] == list(range(12))
        assert [item.cached for item in serial] == [i % 3 == 0 for i in range(12)]

    def test_a_repeated_spec_gets_equal_results_on_both_paths(self, tmp_path):
        cells = _cells(2) * 2
        serial = SweepExecutor(workers=1, cache_dir=tmp_path / "serial")
        pooled = SweepExecutor(workers=2, cache_dir=tmp_path / "pooled")
        assert pooled.run(cells) == serial.run(cells)
        # The serial path serves a repeat from the cache; the pool may
        # have dispatched both copies (documented in ``parallel``).
        assert serial.cache_hits == 2
        assert pooled.cache_hits <= 2

    def test_max_cells_reads_exactly_that_many(self):
        consumed = []
        executor = SweepExecutor(workers=2)
        streamed = list(
            executor.run_stream(_tracked(_infinite_cells(), consumed), max_cells=7)
        )
        assert [item.index for item in streamed] == list(range(7))
        assert len(consumed) == 7

    def test_time_budget_overshoot_is_one_window(self, monkeypatch, cell_log):
        monkeypatch.setattr(parallel, "_execute_cell", _paced_cell)
        workers, budget = 2, 0.3
        consumed = []
        stream = SweepExecutor(workers=workers).run_stream(
            _tracked(_infinite_cells(), consumed), time_budget_s=budget
        )
        deadline = time.monotonic() + budget
        streamed = list(stream)
        # Every cell read was yielded, in order ...
        assert len(streamed) > workers
        assert [item.index for item in streamed] == list(range(len(consumed)))
        # ... and at most one window of them started after the deadline.
        late = [seed for seed, (_, started, _) in _runs(cell_log).items() if started > deadline]
        assert len(late) <= workers * parallel.DISPATCH_DEPTH

    def test_run_is_a_drain_of_the_stream(self):
        cells = _cells(6)
        executor = SweepExecutor(workers=2)
        assert executor.run(cells) == [
            item.result for item in executor.run_stream(cells)
        ]


class TestLazyPool:
    @pytest.fixture()
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool was created")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)

    def test_warm_stream_and_run_fork_nothing(self, tmp_path, no_pool):
        cells = _cells(4)
        SweepExecutor(workers=1, cache_dir=tmp_path).run(cells)
        executor = SweepExecutor(workers=2, cache_dir=tmp_path)
        assert all(item.cached for item in executor.run_stream(cells))
        assert executor.run(cells) == SweepExecutor(workers=1).run(cells)
        assert executor.cache_hits == 4

    def test_a_lone_last_miss_runs_inline(self, tmp_path, no_pool):
        cells = _cells(4)
        SweepExecutor(workers=1, cache_dir=tmp_path).run(cells[:3])
        executor = SweepExecutor(workers=2, cache_dir=tmp_path)
        assert executor.run(cells) == SweepExecutor(workers=1).run(cells)
        assert executor.cache_hits == 3
        streamed = list(executor.run_stream(_infinite_cells(), max_cells=1))
        assert [item.cached for item in streamed] == [False]

    def test_the_pool_is_no_larger_than_the_cells_left(self, monkeypatch):
        sizes = []

        def sized(max_workers, mp_context):
            sizes.append(max_workers)
            return ProcessPoolExecutor(max_workers, mp_context)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", sized)
        executor = SweepExecutor(workers=4)
        assert len(executor.run(_cells(3))) == 3
        assert len(list(executor.run_stream(_infinite_cells(), max_cells=2))) == 2
        assert len(list(executor.run_stream(iter(_cells(3))))) == 3
        assert sizes == [3, 2, 4]

    def test_empty_budgets_fork_nothing(self, no_pool):
        executor = SweepExecutor(workers=2)
        assert list(executor.run_stream(_infinite_cells(), max_cells=0)) == []
        assert list(executor.run_stream(_infinite_cells(), time_budget_s=0.0)) == []


class TestFailures:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_cell_keeps_the_results_before_it(
        self, workers, tmp_path, monkeypatch, cell_log
    ):
        """Regression: ``run`` stored nothing when any cell raised."""
        monkeypatch.setattr(parallel, "_execute_cell", _failing_cell)
        cells = _cells(6)
        executor = SweepExecutor(workers=workers, cache_dir=tmp_path / "cache")
        with pytest.raises(RuntimeError, match="stream-5 is broken"):
            executor.run(cells)
        assert all(executor.cache.load(spec) is not None for spec in cells[:5])
        first_pass = set(cell_log.iterdir())
        with pytest.raises(RuntimeError, match="stream-5 is broken"):
            executor.run(cells)
        assert executor.cache_hits == 5
        rerun = set(cell_log.iterdir()) - first_pass
        assert [path.name.split("-")[0] for path in rerun] == ["5"]

    @staticmethod
    def _drain(stream, pause_s=0.0):
        """``(items yielded, error raised)``; the join is the suite's own
        bound where pytest-timeout is not installed."""
        items, errors = [], []

        def drain():
            try:
                for item in stream:
                    items.append(item)
                    time.sleep(pause_s)
            except BaseException as error:
                errors.append(error)

        thread = threading.Thread(target=drain, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "run_stream hung on a dead worker"
        return items, errors

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("mp_context", [None, "spawn"])
    def test_a_dead_worker_raises_instead_of_hanging(self, mp_context, monkeypatch):
        """Regression: ``multiprocessing.Pool`` replaced the dead worker
        silently and the head-of-line ``get()`` blocked forever."""
        monkeypatch.setattr(parallel, "_execute_cell", _dying_cell)
        executor = SweepExecutor(workers=2, mp_context=mp_context)
        _, (error,) = self._drain(executor.run_stream(_cells(6)))
        assert isinstance(error, BrokenProcessPool)
        assert "stream-" in str(error) and "worker process died" in str(error)

    @pytest.mark.timeout(120)
    def test_a_worker_dying_past_the_window_still_names_the_cell(
        self, monkeypatch, tmp_path
    ):
        """A consumer slower than the workers finds the pool already
        broken when it reads on: ``submit`` raises, unnamed."""
        monkeypatch.setattr(parallel, "_execute_cell", _dying_late_cell)
        executor = SweepExecutor(workers=2, cache_dir=tmp_path)
        items, (error,) = self._drain(
            executor.run_stream(_infinite_cells(), max_cells=40), pause_s=0.02
        )
        assert isinstance(error, BrokenProcessPool)
        # The results ahead of the first lost cell were yielded and stored.
        assert f"cell {len(items)} ('endless-" in str(error)
        assert [item.index for item in items] == list(range(len(items)))
        assert 0 < len(items) <= 20
        assert all(executor.cache.load(item.spec) is not None for item in items)


def test_farm_is_identical_on_the_serial_and_the_pooled_path(tmp_path):
    """Same stream seed, 60 cells: the pool changes nothing the farm
    reports or writes."""
    outcomes = {}
    for workers in (1, 2):
        root = tmp_path / f"workers-{workers}"
        farm = FuzzFarm(
            root / "corpus", cache_dir=root / "cache", workers=workers, seed=2
        )
        report = dataclasses.replace(farm.run(max_cells=60), elapsed_s=0.0)
        outcomes[workers] = (
            report,
            Corpus(root / "corpus").manifest_hash(),
            sorted(path.name for path in (root / "cache").iterdir()),
        )
    assert outcomes[2] == outcomes[1]
    report, _, cache_files = outcomes[1]
    assert report.cells_run == 60 and len(cache_files) == 60
