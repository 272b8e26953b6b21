"""Unit tests of the shared scenario-hash result cache.

The load path must be impossible to poison: any entry that is not
*exactly* a current-version record, produced by the requesting cell's
backend, holding a result whose spec equals the requesting spec,
degrades to a re-run.  The cross-backend collision case is a regression
test: the pre-refactor executor verified the cached spec but trusted the
record about which backend executed it, so a crafted (or misplaced)
entry could satisfy a simulation cell with output labeled as another
backend's.
"""

import os
import pickle

import pytest

from repro.fuzz.corpus import Corpus, CorpusRecord
from repro.runner.cache import CACHE_VERSION, ResultCache
from repro.runner.parallel import SweepExecutor
from repro.scenarios import ScenarioSpec, TopologySpec, run_scenario


@pytest.fixture()
def spec():
    return ScenarioSpec(
        name="cache-test",
        topology=TopologySpec(kind="complete", n=4),
        f=0,
        seed=23,
    )


@pytest.fixture()
def result(spec):
    return run_scenario(spec)


def test_store_load_round_trip(tmp_path, spec, result):
    cache = ResultCache(tmp_path)
    assert cache.load(spec) is None
    cache.store(result)
    assert cache.load(spec) == result


@pytest.mark.parametrize(
    "site", ["ResultCache.store", "Corpus.add", "Corpus.write_manifest"]
)
def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch, result, site):
    cache = ResultCache(tmp_path / "cache")
    corpus = Corpus(tmp_path / "corpus")
    write = {
        "ResultCache.store": lambda: cache.store(result),
        "Corpus.add": lambda: corpus.add(
            CorpusRecord(category="near_f_bound", spec=result.spec)
        ),
        "Corpus.write_manifest": corpus.write_manifest,
    }[site]

    def failing_replace(src, dst):
        assert os.path.exists(src)  # the temp file was written ...
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write()
    # ... and removed again: nothing is left behind, not even a .tmp.
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []


def test_disabled_cache_is_a_no_op(spec, result):
    cache = ResultCache(None)
    assert not cache.enabled
    cache.store(result)
    assert cache.load(spec) is None
    assert cache.path_for(spec) is None


def test_corrupt_entry_degrades_to_miss(tmp_path, spec, result):
    cache = ResultCache(tmp_path)
    cache.store(result)
    cache.path_for(spec).write_bytes(b"not a pickle")
    assert cache.load(spec) is None


def test_stale_version_degrades_to_miss(tmp_path, spec, result):
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A pre-v3 record has a two-element layout without the backend tag.
    path.write_bytes(pickle.dumps((2, result)))
    assert cache.load(spec) is None


def test_v3_record_misses_cleanly(tmp_path, spec, result):
    """Regression: a v3 record (pre-workload schema) must be skipped.

    The stored result predates the ``outcomes`` field, so the loader
    must reject it on the version tag alone — touching attributes of the
    stale-layout instance could raise — and degrade to a clean re-run.
    """
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Emulate the v3 layout: same 3-tuple shape, older version tag, and
    # a result instance whose __dict__ lacks the workload-era fields.
    stale = object.__new__(type(result))
    state = dict(result.__dict__)
    state.pop("outcomes", None)
    stale.__dict__.update(state)
    path.write_bytes(pickle.dumps((3, spec.backend, stale)))
    assert cache.load(spec) is None

    # The slot is repaired by an honest re-run.
    cache.store(result)
    assert cache.load(spec) == result


def test_v4_record_misses_cleanly(tmp_path, spec, result):
    """Regression: a v4 record (pre-loss/adaptive schema) must be skipped.

    The stored record's spec predates ``DelaySpec``'s loss fields and
    ``ScenarioSpec.adaptive``, so comparing it against a current-build
    spec would be meaningless (and touching missing attributes could
    raise); the loader must reject it on the version tag alone and
    degrade to a clean re-run, mirroring the v3 test above.
    """
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Emulate the v4 layout: same 3-tuple shape, older version tag, and
    # spec instances whose __dict__ lacks the loss/adaptive-era fields.
    stale_delay = object.__new__(type(spec.delay))
    delay_state = dict(spec.delay.__dict__)
    for missing in ("loss", "burst_period_ms", "burst_len_ms"):
        delay_state.pop(missing, None)
    stale_delay.__dict__.update(delay_state)

    stale_spec = object.__new__(type(spec))
    spec_state = dict(spec.__dict__)
    spec_state.pop("adaptive", None)
    spec_state["delay"] = stale_delay
    stale_spec.__dict__.update(spec_state)

    stale = object.__new__(type(result))
    stale.__dict__.update({**result.__dict__, "spec": stale_spec})
    path.write_bytes(pickle.dumps((4, spec.backend, stale)))
    assert cache.load(spec) is None

    # The slot is repaired by an honest re-run.
    cache.store(result)
    assert cache.load(spec) == result


def test_hash_collision_spec_mismatch_degrades_to_miss(tmp_path, spec, result):
    cache = ResultCache(tmp_path)
    cache.store(result)
    other = spec.with_seed(spec.seed + 1)
    # Simulate a hash collision: the other spec's slot holds this
    # result.  Loading must notice the spec mismatch and re-run.
    cache.path_for(spec).rename(cache.path_for(other))
    assert cache.load(other) is None


def test_cross_backend_collision_is_rejected(tmp_path, spec, result):
    """Regression: a record executed by another backend must not hit.

    The record claims ``asyncio`` execution while the stored result's
    spec still matches the requesting simulation cell — exactly the
    crafted collision the old spec-only check accepted.
    """
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps((CACHE_VERSION, "asyncio", result)))
    assert spec.backend == "simulation"
    assert cache.load(spec) is None

    # The executor consequently re-runs the cell instead of trusting it.
    executor = SweepExecutor(workers=1, cache_dir=tmp_path)
    (rerun,) = executor.run([spec])
    assert executor.cache_hits == 0
    assert rerun == result
    # ... and the re-run repaired the slot with an honest record.
    assert cache.load(spec) == result
    assert executor.run([spec]) == [rerun]
    assert executor.cache_hits == 1

