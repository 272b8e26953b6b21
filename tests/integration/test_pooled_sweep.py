"""Integration tests of a pooled sweep against the serial path.

The contract under test: a sweep of simulation cells over
``SweepExecutor(workers>1)`` — a process pool, with every spec and
result pickled across the process boundary, and a shared result cache —
returns results identical to ``SweepExecutor(workers=1)`` on the same
cells, in cell order, and never re-executes a cell the cache already
holds.
"""

import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.runner import SweepExecutor, parallel
from repro.runner.cache import ResultCache
from repro.scenarios import (
    AdversarySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    expand_grid,
    run_scenario,
)


def build_cells(count, *, n=10, k=5, f=1, base_seed=50):
    base = ScenarioSpec(
        name="pooled-sweep",
        topology=TopologySpec(kind="random_regular", n=n, k=k, min_connectivity=2 * f + 1),
        f=f,
        seed=base_seed,
    )
    cells = expand_grid(base, {"seed": range(base_seed, base_seed + count)})
    assert len(cells) == count
    return cells


def summaries(results):
    """Canonical bytes of each result's deterministic summary."""
    return [json.dumps(r.summary(), sort_keys=True).encode() for r in results]


#: Worker processes report the cells they execute through files in this
#: directory; the pool pickles the cell function by reference, so it
#: lives at module level.
LOG_ENV = "REPRO_TEST_EXECUTED_LOG"


def _logged_cell(spec):
    Path(os.environ[LOG_ENV], spec.scenario_hash()).touch()
    return run_scenario(spec)


@pytest.mark.slow
def test_pool_sweep_matches_serial_executor(tmp_path):
    """20 cells over 2 worker processes == the serial path, and a second
    sweep over the shared cache directory is pure cache hits."""
    cells = build_cells(20, n=16, k=7, f=2)
    serial = SweepExecutor(workers=1).run(cells)

    executor = SweepExecutor(workers=2, cache_dir=tmp_path / "cache")
    pooled = executor.run(cells)

    assert pooled == serial
    assert summaries(pooled) == summaries(serial)
    assert [r.spec for r in pooled] == list(cells)
    assert executor.cache_hits == 0

    again = SweepExecutor(workers=2, cache_dir=tmp_path / "cache")
    assert again.run(cells) == serial
    assert again.cache_hits == len(cells)


def test_workload_cells_round_trip_the_pool(tmp_path):
    """Multi-broadcast specs and per-broadcast outcomes survive the
    process boundary: the workload rides inside the spec pickle and the
    outcomes inside the result pickle."""
    base = ScenarioSpec(
        name="pooled-workload",
        topology=TopologySpec(kind="harary", n=6, k=3),
        f=1,
        seed=9,
        workload=WorkloadSpec.round_robin([0, 1], 4, interval_ms=20.0),
    )
    cells = expand_grid(base, {"seed": [9, 10, 11]})
    serial = SweepExecutor(workers=1).run(cells)

    pooled = SweepExecutor(workers=2, cache_dir=tmp_path / "cache").run(cells)

    assert pooled == serial
    assert summaries(pooled) == summaries(serial)
    assert all(r.broadcast_count == 4 for r in pooled)
    assert [r.outcomes for r in pooled] == [r.outcomes for r in serial]


@pytest.mark.parametrize("workers", [1, 2])
def test_precached_cells_are_never_executed(tmp_path, monkeypatch, workers):
    cells = build_cells(6)
    precached = SweepExecutor(workers=1, cache_dir=tmp_path / "cache").run(cells[:4])
    log_dir = tmp_path / "executed"
    log_dir.mkdir()
    monkeypatch.setenv(LOG_ENV, str(log_dir))
    monkeypatch.setattr(parallel, "_execute_cell", _logged_cell)

    executor = SweepExecutor(workers=workers, cache_dir=tmp_path / "cache")
    streamed = list(executor.run_stream(cells))

    assert executor.cache_hits == 4
    assert [item.cached for item in streamed] == [True] * 4 + [False] * 2
    assert sorted(path.name for path in log_dir.iterdir()) == sorted(
        spec.scenario_hash() for spec in cells[4:]
    )
    results = [item.result for item in streamed]
    assert results[:4] == precached
    assert results == SweepExecutor(workers=1).run(cells)


@st.composite
def sweep_setups(draw):
    """(cells, worker_count, precached mask) for one pooled sweep."""
    count = draw(st.integers(min_value=1, max_value=6))
    worker_count = draw(st.integers(min_value=1, max_value=3))
    f = draw(st.integers(min_value=0, max_value=1))
    adversaries = (
        (AdversarySpec(behaviour=draw(st.sampled_from(("mute", "forge"))), count=1),)
        if f and draw(st.booleans())
        else ()
    )
    base = ScenarioSpec(
        name="pooled-property",
        topology=TopologySpec(
            kind="random_regular", n=8, k=4, min_connectivity=2 * f + 1
        ),
        f=f,
        adversaries=adversaries,
        seed=0,
    )
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=5000),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    cells = [base.with_seed(seed) for seed in seeds]
    precached = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return cells, worker_count, precached


@pytest.mark.slow
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(setup=sweep_setups())
def test_pooled_sweep_equals_serial_sweep(setup):
    """For random cells, pool widths and pre-populated cache subsets, the
    pooled stream is byte-equal to the serial sweep, in cell order, and
    serves exactly the pre-populated cells from the cache."""
    cells, worker_count, precached = setup
    serial = SweepExecutor(workers=1).run(cells)

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        for result, hit in zip(serial, precached):
            if hit:
                cache.store(result)
        executor = SweepExecutor(workers=worker_count, cache_dir=cache_dir)
        streamed = list(executor.run_stream(iter(cells)))
        stored = sorted(path.name for path in Path(cache_dir).iterdir())

    results = [item.result for item in streamed]
    assert results == serial
    assert summaries(results) == summaries(serial)
    assert [item.index for item in streamed] == list(range(len(cells)))
    assert [item.spec for item in streamed] == cells
    assert [item.cached for item in streamed] == precached
    assert executor.cache_hits == sum(precached)
    # Every fresh result was persisted next to the pre-populated ones.
    assert stored == sorted(f"{spec.scenario_hash()}.pkl" for spec in cells)
