"""Fuzz farm and CLI tests.

The real protocol keeps the oracle green, so the pivotal tests inject an
instrumented result checker that forges a delivery (the exact craft of
``tests/oracles/test_oracle_unit.py``) into the results of a predicate-
matched subset of cells — the farm must *find* such a cell inside its
budget, *shrink* it to strictly fewer fault events on a topology no
larger, and do both *identically* across two same-seed runs.
"""

import dataclasses
import itertools
import json

import pytest

from repro.scenarios.oracle import check_result
from repro.scenarios.reduce import fault_event_count
from repro.fuzz.cli import main
from repro.fuzz.corpus import Corpus, CorpusRecord
from repro.fuzz.farm import FuzzFarm, FuzzReport
from repro.fuzz.sample import stream_fuzz_specs

#: Cell budget inside which seed-0 streams contain lossy cells (the
#: first sampler round already does).
BUDGET = 8


@pytest.fixture(scope="module")
def cell_cache(tmp_path_factory):
    """One scenario-hash result cache for this module's seed-0 farms.

    Every farm here streams the same seed-0 cells, and the first of them
    (``complete(10)``, two ``alter_sender`` relays) floods 1.6 M messages,
    tens of seconds a run.  Farms whose test is about judging, recording or
    the CLI read results through this cache, so each cell runs once per
    module.  The tests of execution and caching themselves
    (``test_same_seed_runs_are_identical``, ``test_cache_is_shared_between_runs``
    and the adapted executor of ``test_any_run_stream_executor_matches_the_default``)
    keep executors of their own.
    """
    return tmp_path_factory.mktemp("cell-cache")


def forge_delivery_when_lossy(result):
    """The forged-delivery craft from the oracle unit tests, keyed on a
    spec predicate so fuzzed streams contain both red and green cells."""
    if result.spec.is_lossy:
        metrics = result.metrics
        forged_key = (1, (1, 99))  # process 1 "delivered" (source=1, bid=99)
        patched = dataclasses.replace(
            metrics,
            delivery_times={**metrics.delivery_times, forged_key: 1.0},
            delivered_payloads={**metrics.delivered_payloads, forged_key: b"x"},
        )
        result = dataclasses.replace(result, metrics=patched)
    return check_result(result)


def store_as_near_f_bound(corpus_dir, count):
    """Pre-store the first ``count`` seed-0 farm cells as transient
    ``near_f_bound`` records; returns their hashes."""
    corpus = Corpus(corpus_dir)
    hashes = set()
    for spec in itertools.islice(stream_fuzz_specs(seed=0), count):
        assert corpus.add(CorpusRecord(category="near_f_bound", spec=spec))
        hashes.add(spec.scenario_hash())
    return hashes


class TestStream:
    def test_stream_is_seed_deterministic(self):
        def take(count, **kwargs):
            stream = stream_fuzz_specs(**kwargs)
            return [next(stream) for _ in range(count)]

        assert take(40, seed=4) == take(40, seed=4)
        assert take(40, seed=4) != take(40, seed=5)

    def test_stream_crosses_batch_boundaries(self):
        stream = stream_fuzz_specs(seed=0, batch_size=5)
        specs = [next(stream) for _ in range(12)]
        assert len({spec.scenario_hash() for spec in specs}) == 12
        assert {spec.name.split("-r")[-1].split("-")[0] for spec in specs} >= {
            "0",
            "1",
            "2",
        }

    def test_stream_decorates_workloads_and_spreads_backends(self):
        stream = stream_fuzz_specs(
            seed=1, backends=("simulation", "asyncio"), workload_fraction=0.5
        )
        specs = [next(stream) for _ in range(40)]
        assert any(spec.workload is not None for spec in specs)
        assert {spec.backend for spec in specs} == {"simulation", "asyncio"}

    def test_stream_rejects_empty_backends(self):
        with pytest.raises(ValueError, match="at least one backend"):
            next(stream_fuzz_specs(backends=()))

    def test_stream_restacks_rco_cells(self):
        stream = stream_fuzz_specs(seed=1, rco_fraction=0.5)
        specs = [next(stream) for _ in range(40)]
        rco = [spec for spec in specs if spec.protocol == "rco_cross_layer"]
        assert rco, "an rco_fraction of 0.5 must restack some cells"
        assert any(spec.protocol == "cross_layer" for spec in specs)
        # Some RCO cells carry a causally-chained workload, so the
        # cross-source pending-set machinery gets fuzzed too.
        assert any(
            broadcast.successor is not None
            for spec in rco
            if spec.workload is not None
            for broadcast in spec.workload.broadcasts
        )

    def test_zero_rco_fraction_leaves_the_protocol_alone(self):
        stream = stream_fuzz_specs(seed=1, rco_fraction=0.0)
        specs = [next(stream) for _ in range(40)]
        assert all(spec.protocol == "cross_layer" for spec in specs)


class TestFarm:
    def test_run_requires_a_budget(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus")
        with pytest.raises(ValueError, match="needs a budget"):
            farm.run()

    def test_green_checker_yields_exit_zero(self, tmp_path, cell_cache):
        farm = FuzzFarm(
            tmp_path / "corpus", cache_dir=cell_cache, check=lambda result: (), seed=0
        )
        report = farm.run(max_cells=4)
        assert report.cells_run == 4
        assert report.violation_count == 0
        assert report.exit_code == 0
        assert report.manifest_hash == Corpus(tmp_path / "corpus").manifest_hash()

    def test_injected_violation_is_found_and_shrunk(self, tmp_path, cell_cache):
        """The acceptance criterion: find → shrink, within the budget."""
        farm = FuzzFarm(
            tmp_path / "corpus",
            cache_dir=cell_cache,
            check=forge_delivery_when_lossy,
            seed=0,
        )
        report = farm.run(max_cells=BUDGET)
        hashes = report.new_records.get("oracle_violation", [])
        assert hashes, "the budgeted run must find an injected violation"
        assert report.exit_code == 2
        assert report.shrink_steps > 0
        corpus = Corpus(tmp_path / "corpus")
        records = [corpus.load(scenario_hash) for scenario_hash in hashes]
        # At least one offender carried fault machinery the shrinker
        # proved incidental (strictly fewer fault events in the minimum).
        assert any(
            fault_event_count(r.shrunk_spec) < fault_event_count(r.spec)
            for r in records
        )
        for record in records:
            assert record.violations
            assert "no_forgery" in {inv for inv, _ in record.violations}
            assert record.shrunk_spec is not None
            # Strictly fewer fault events, never a larger topology.
            assert fault_event_count(record.shrunk_spec) < fault_event_count(
                record.spec
            ) or fault_event_count(record.spec) == 0
            assert (
                record.shrunk_spec.topology.node_count
                <= record.spec.topology.node_count
            )
            # The minimal reproducer still trips the injected bug.
            assert record.shrunk_spec.is_lossy
            assert record.shrunk_violations
            assert record.regression_stub is not None
            assert "def test_regression_" in record.regression_stub

    def test_same_seed_runs_are_identical(self, tmp_path):
        """Find + shrink are deterministic: two same-seed farms write
        byte-identical corpora (and therefore equal manifest hashes)."""
        reports = []
        for run in ("a", "b"):
            farm = FuzzFarm(
                tmp_path / run, check=forge_delivery_when_lossy, seed=0
            )
            reports.append(farm.run(max_cells=BUDGET))
        first, second = reports
        assert first.new_records == second.new_records
        assert first.manifest_hash == second.manifest_hash
        corpus_a, corpus_b = Corpus(tmp_path / "a"), Corpus(tmp_path / "b")
        assert corpus_a.hashes() == corpus_b.hashes()
        for scenario_hash in corpus_a.hashes():
            assert corpus_a.path_for(scenario_hash).read_text() == corpus_b.path_for(
                scenario_hash
            ).read_text()

    def test_rediscovery_is_deduplicated(self, tmp_path, cell_cache):
        corpus_dir = tmp_path / "corpus"
        kwargs = dict(cache_dir=cell_cache, check=forge_delivery_when_lossy, seed=0)
        first = FuzzFarm(corpus_dir, **kwargs).run(max_cells=BUDGET)
        assert first.new_records.get("oracle_violation")
        second = FuzzFarm(corpus_dir, **kwargs).run(max_cells=BUDGET)
        assert second.new_records.get("oracle_violation", []) == []
        assert second.duplicate_violations == len(
            first.new_records["oracle_violation"]
        )
        assert second.exit_code == 2  # re-discovered violations still fail CI

    def test_violation_replaces_a_transient_record(self, tmp_path, cell_cache):
        """A cell kept earlier as a near-f-bound survivor that now violates
        is a new bug, not a known one: its record becomes the violation,
        and pruning the transient tiers to nothing keeps it."""
        corpus_dir = tmp_path / "corpus"
        stored = store_as_near_f_bound(corpus_dir, BUDGET)
        report = FuzzFarm(
            corpus_dir,
            cache_dir=cell_cache,
            check=forge_delivery_when_lossy,
            seed=0,
            shrink=False,
            transient_cap=0,
        ).run(max_cells=BUDGET)
        hashes = report.new_records.get("oracle_violation", [])
        assert hashes and set(hashes) <= stored
        assert report.duplicate_violations == 0
        assert report.exit_code == 2
        corpus = Corpus(corpus_dir)
        assert corpus.hashes() == tuple(sorted(hashes))
        assert {corpus.category(h) for h in hashes} == {"oracle_violation"}

    def test_cache_is_shared_between_runs(self, tmp_path):
        cache_dir = tmp_path / "cache"
        kwargs = dict(cache_dir=cache_dir, check=lambda result: (), seed=0)
        first = FuzzFarm(tmp_path / "a", **kwargs).run(max_cells=4)
        second = FuzzFarm(tmp_path / "b", **kwargs).run(max_cells=4)
        assert first.cache_hits == 0
        assert second.cache_hits == 4

    def test_near_f_bound_survivors_are_recorded(self, tmp_path, cell_cache):
        farm = FuzzFarm(tmp_path / "corpus", cache_dir=cell_cache, seed=0)
        report = farm.run(max_cells=24)
        hashes = report.new_records.get("near_f_bound", [])
        assert hashes, "seed-0 stream contains f-saturated safe cells"
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.spec.f > 0
            assert record.stats["byzantine"] >= record.spec.f
        assert corpus.validate() == {}

    def test_any_run_stream_executor_matches_the_default(self, tmp_path, cell_cache):
        class StreamOnlyExecutor:
            """Just ``run_stream`` and ``cache_hits`` (the observatory's
            measuring adapter has this shape)."""

            def __init__(self):
                from repro.runner.parallel import SweepExecutor

                self._inner = SweepExecutor(workers=1)
                self.budgets = []

            @property
            def cache_hits(self):
                return self._inner.cache_hits + 100

            def run_stream(self, specs, *, time_budget_s=None, max_cells=None):
                self.budgets.append((time_budget_s, max_cells))
                return self._inner.run_stream(
                    specs, time_budget_s=time_budget_s, max_cells=max_cells
                )

        default = FuzzFarm(
            tmp_path / "a",
            cache_dir=cell_cache,
            check=forge_delivery_when_lossy,
            seed=0,
        ).run(max_cells=BUDGET)
        executor = StreamOnlyExecutor()
        adapted = FuzzFarm(
            tmp_path / "b",
            executor=executor,
            check=forge_delivery_when_lossy,
            seed=0,
        ).run(max_cells=BUDGET)
        assert executor.budgets == [(None, BUDGET)]
        assert adapted.cells_run == BUDGET
        assert adapted.cache_hits == 100
        assert adapted.new_records == default.new_records
        assert adapted.manifest_hash == default.manifest_hash

    def test_no_shrink_records_the_raw_offender(self, tmp_path, cell_cache):
        farm = FuzzFarm(
            tmp_path / "corpus",
            cache_dir=cell_cache,
            check=forge_delivery_when_lossy,
            seed=0,
            shrink=False,
        )
        report = farm.run(max_cells=BUDGET)
        assert report.exit_code == 2
        assert report.shrink_steps == 0
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in report.new_records["oracle_violation"]:
            record = corpus.load(scenario_hash)
            assert record.shrunk_spec is None
            assert record.regression_stub is None

    def test_report_summary_mentions_everything(self):
        report = FuzzReport(
            cells_run=3,
            cache_hits=1,
            elapsed_s=0.5,
            new_records={"oracle_violation": ["abc"]},
            duplicate_violations=2,
            shrink_steps=4,
            shrink_attempts=9,
            pruned_records=7,
            manifest_hash="deadbeef",
        )
        text = "\n".join(report.summary_lines())
        assert "cells run: 3" in text
        assert "new oracle_violation records: 1" in text
        assert "re-discovered known violations: 2" in text
        assert "4 accepted steps / 9 attempts" in text
        assert "pruned transient records: 7" in text
        assert "deadbeef" in text

    def test_transient_cap_bounds_the_corpus(self, tmp_path, cell_cache):
        capped = FuzzFarm(
            tmp_path / "capped", cache_dir=cell_cache, seed=0, transient_cap=1
        )
        report = capped.run(max_cells=24)
        assert report.pruned_records > 0
        categories = [
            record.category for record in Corpus(tmp_path / "capped").records()
        ]
        assert categories.count("near_f_bound") <= 1
        assert categories.count("latency_outlier") <= 1

        unbounded = FuzzFarm(
            tmp_path / "raw", cache_dir=cell_cache, seed=0, transient_cap=None
        )
        raw = unbounded.run(max_cells=24)
        assert raw.pruned_records == 0
        raw_count = len(Corpus(tmp_path / "raw").hashes())
        assert raw_count > len(Corpus(tmp_path / "capped").hashes())

    def test_rco_cells_keep_the_farm_green(self, tmp_path):
        farm = FuzzFarm(tmp_path / "corpus", seed=0, rco_fraction=1.0)
        report = farm.run(max_cells=8)
        assert report.cells_run == 8
        assert report.violation_count == 0
        assert report.exit_code == 0


class TestConformanceDivergence:
    @staticmethod
    def _forge(result):
        metrics = result.metrics
        forged_key = (1, (1, 99))
        patched = dataclasses.replace(
            metrics,
            delivery_times={**metrics.delivery_times, forged_key: 1.0},
            delivered_payloads={**metrics.delivered_payloads, forged_key: b"x"},
        )
        return dataclasses.replace(result, metrics=patched)

    def test_unreproducible_divergence_is_recorded_unshrunk(
        self, tmp_path, monkeypatch, cell_cache
    ):
        """The mirror run "diverges", but the conformance evaluator's
        honest baseline re-run is green: the farm must keep the raw
        offender instead of crashing on the failed shrink, and the
        divergence fails the run although no oracle violation did."""
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )
        farm = FuzzFarm(
            tmp_path / "corpus",
            cache_dir=cell_cache,
            check=lambda result: (),
            seed=0,
            conformance_backends=("simulation", "asyncio"),
        )
        report = farm.run(max_cells=2)
        hashes = report.new_records.get("conformance_divergence", [])
        assert hashes, "every mirrored cell diverges under the forge"
        assert "oracle_violation" not in report.new_records
        assert report.exit_code == 2
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.stats["diverging_backend"] == "asyncio"
            assert record.shrunk_spec is None
            assert record.shrunk_violations == ()

    def test_reproducible_divergence_is_shrunk(self, tmp_path, monkeypatch, cell_cache):
        """When the cross-backend evaluator reproduces the divergence,
        the recorded spec carries a minimized reproducer."""
        from repro.scenarios.oracle import OracleViolation
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )

        def fake_evaluator(backends, *, mode="auto", overrides=None, run=None):
            assert mode == "safety"

            def evaluate(spec):
                return (
                    OracleViolation(invariant="conformance", detail="fake"),
                )

            return evaluate

        monkeypatch.setattr(farm_module, "conformance_evaluator", fake_evaluator)
        farm = FuzzFarm(
            tmp_path / "corpus",
            cache_dir=cell_cache,
            check=lambda result: (),
            seed=0,
            conformance_backends=("simulation", "asyncio"),
        )
        report = farm.run(max_cells=2)
        hashes = report.new_records.get("conformance_divergence", [])
        assert hashes
        assert report.shrink_attempts > 0
        corpus = Corpus(tmp_path / "corpus")
        for scenario_hash in hashes:
            record = corpus.load(scenario_hash)
            assert record.shrunk_spec is not None
            assert ("conformance", "fake") in record.shrunk_violations

    def test_divergence_replaces_a_transient_record(
        self, tmp_path, monkeypatch, cell_cache
    ):
        """A mirrored cell stored earlier as a near-f-bound survivor that
        now diverges gets a divergence record, which pruning keeps."""
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )
        corpus_dir = tmp_path / "corpus"
        stored = store_as_near_f_bound(corpus_dir, 2)
        report = FuzzFarm(
            corpus_dir,
            cache_dir=cell_cache,
            check=lambda result: (),
            seed=0,
            conformance_backends=("simulation", "asyncio"),
            shrink=False,
            transient_cap=0,
        ).run(max_cells=2)
        hashes = report.new_records.get("conformance_divergence", [])
        assert hashes and set(hashes) <= stored
        assert report.duplicate_violations == 0
        assert report.exit_code == 2
        corpus = Corpus(corpus_dir)
        assert corpus.hashes() == tuple(sorted(hashes))
        assert {corpus.category(h) for h in hashes} == {"conformance_divergence"}

    def test_known_divergence_is_counted_not_reshrunk(
        self, tmp_path, monkeypatch, cell_cache
    ):
        """A divergence already in the corpus still fails the run, but is
        neither recorded nor shrunk a second time."""
        from repro.scenarios.oracle import OracleViolation
        from repro.fuzz import farm as farm_module

        real_run = farm_module.run_scenario
        monkeypatch.setattr(
            farm_module, "run_scenario", lambda spec: self._forge(real_run(spec))
        )
        shrunk_specs = []

        def fake_evaluator(backends, *, mode="auto", overrides=None, run=None):
            def evaluate(spec):
                shrunk_specs.append(spec)
                return (OracleViolation(invariant="conformance", detail="fake"),)

            return evaluate

        monkeypatch.setattr(farm_module, "conformance_evaluator", fake_evaluator)

        def farm():
            return FuzzFarm(
                tmp_path / "corpus",
                cache_dir=cell_cache,
                check=lambda result: (),
                seed=0,
                conformance_backends=("simulation", "asyncio"),
            )

        first = farm().run(max_cells=2)
        known = first.new_records["conformance_divergence"]
        assert shrunk_specs
        shrunk_specs.clear()

        second = farm().run(max_cells=2)
        assert "conformance_divergence" not in second.new_records
        assert second.duplicate_violations == len(known)
        assert shrunk_specs == []
        assert second.shrink_attempts == 0
        assert second.exit_code == 2


class TestCLI:
    def test_fuzz_run_then_corpus_tools(self, tmp_path, capsys, cell_cache):
        corpus_dir = str(tmp_path / "corpus")
        argv = ["--corpus-dir", corpus_dir, "--cache-dir", str(cell_cache)]
        assert main([*argv, "--max-cells", "6", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "cells run: 6" in out
        assert "corpus manifest hash: " in out

        assert main(["--corpus-dir", corpus_dir, "--validate-corpus"]) == 0
        out = capsys.readouterr().out
        assert "corpus OK" in out
        assert "manifest hash: " in out

        assert main(["--corpus-dir", corpus_dir, "--list"]) == 0

    def test_replay_roundtrip_and_missing_hash(self, tmp_path, capsys, cell_cache):
        corpus_dir = str(tmp_path / "corpus")
        main(
            [
                "--corpus-dir",
                corpus_dir,
                "--cache-dir",
                str(cell_cache),
                "--max-cells",
                "24",
                "--seed",
                "0",
            ]
        )
        capsys.readouterr()
        corpus = Corpus(corpus_dir)
        hashes = corpus.hashes()
        assert hashes, "a 24-cell seed-0 run records interesting specs"
        assert main(["--corpus-dir", corpus_dir, "--replay", hashes[0]]) == 0
        assert "oracle green" in capsys.readouterr().out
        assert main(["--corpus-dir", corpus_dir, "--replay", "0" * 64]) == 1

    def test_validate_flags_a_corrupt_record(self, tmp_path, capsys):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / ("c" * 64 + ".json")).write_text(json.dumps({"schema": 99}))
        assert main(["--corpus-dir", str(corpus_dir), "--validate-corpus"]) == 1
        assert "corpus INVALID" in capsys.readouterr().out

    def test_usage_error_without_budget(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--corpus-dir", str(tmp_path)])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--time-budget", "-1"),
            ("--max-cells", "-2"),
            ("--time-budget", "nan"),
            ("--rco-fraction", "1.5"),
            ("--churn-fraction", "-0.1"),
            ("--workload-fraction", "2"),
            ("--behaviour-fraction", "nan"),
        ],
    )
    def test_usage_error_on_bad_numbers(self, tmp_path, capsys, flag, value):
        """Regression: the first three ended in a ``ValueError`` traceback
        from the executor instead of a usage error; a NaN budget ran zero
        cells and exited 0, and out-of-range fractions were accepted."""
        argv = ["--corpus-dir", str(tmp_path), "--max-cells", "1", flag, value]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1"])
    @pytest.mark.parametrize(
        "flag",
        ["--workload-fraction", "--rco-fraction", "--behaviour-fraction", "--churn-fraction"],
    )
    def test_fraction_bounds_are_accepted(self, tmp_path, capsys, flag, value):
        """Both ends of ``[0, 1]`` pass the range check."""
        argv = ["--corpus-dir", str(tmp_path), "--max-cells", "0", flag, value]
        assert main(argv) == 0
        assert "cells run: 0" in capsys.readouterr().out

    def test_transient_cap_zero_empties_the_transient_tiers(
        self, tmp_path, capsys, cell_cache
    ):
        corpus_dir = str(tmp_path / "corpus")
        code = main(
            [
                "--corpus-dir",
                corpus_dir,
                "--cache-dir",
                str(cell_cache),
                "--max-cells",
                "24",
                "--seed",
                "0",
                "--transient-cap",
                "0",
                "--rco-fraction",
                "0.0",
            ]
        )
        assert code == 0
        assert "pruned transient records:" in capsys.readouterr().out
        assert Corpus(corpus_dir).hashes() == ()

    def test_negative_transient_cap_disables_pruning(self, tmp_path, capsys, cell_cache):
        corpus_dir = str(tmp_path / "corpus")
        code = main(
            [
                "--corpus-dir",
                corpus_dir,
                "--cache-dir",
                str(cell_cache),
                "--max-cells",
                "24",
                "--seed",
                "0",
                "--transient-cap",
                "-1",
            ]
        )
        assert code == 0
        assert "pruned transient records" not in capsys.readouterr().out
        assert Corpus(corpus_dir).hashes(), "unpruned transients stay recorded"
