"""Corpus and spec-JSON codec tests: round trips preserve scenario
hashes, records validate against the schema, the manifest hash is a
stable cache key, and replay re-runs a stored spec exactly."""

import dataclasses
import hashlib
import json
from itertools import islice
from typing import get_args

import pytest

from repro.core.modifications import ModificationSet
from repro.fuzz.sample import stream_fuzz_specs
from repro.scenarios import (
    AdversarySpec,
    BroadcastSpec,
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelayedStart,
    DelaySpec,
    JoinAt,
    LeaveAt,
    LinkDropWindow,
    ObservationFilter,
    RewireLinkAt,
    ScenarioSpec,
    TopologySpec,
    TurnByzantineWhen,
    WorkloadSpec,
)
from repro.scenarios.faults import ADAPTIVE_FAULT_TYPES, FaultEvent
from repro.scenarios.jsonio import (
    SPEC_TYPES,
    SpecJSONError,
    dumps_spec_json,
    loads_spec_json,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.scenarios.oracle import sample_lossy_adaptive_specs
from repro.fuzz.corpus import (
    CATEGORIES,
    DEFAULT_TRANSIENT_CAP,
    RECORD_SCHEMA_VERSION,
    TRANSIENT_CATEGORIES,
    Corpus,
    CorpusRecord,
    validate_record_data,
)


def _spec(seed=0, **kwargs):
    kwargs.setdefault("name", "corpus-test")
    kwargs.setdefault("topology", TopologySpec(kind="complete", n=4))
    return ScenarioSpec(seed=seed, **kwargs)


def _record(seed=0, category="near_f_bound", **kwargs):
    return CorpusRecord(category=category, spec=_spec(seed=seed), **kwargs)


class TestSpecJSON:
    def test_roundtrip_preserves_equality_and_hash(self):
        specs = sample_lossy_adaptive_specs(20, seed=7, name="rt")
        for spec in specs:
            decoded = loads_spec_json(dumps_spec_json(spec))
            assert decoded == spec
            assert decoded.scenario_hash() == spec.scenario_hash()

    def test_roundtrip_covers_workload_and_adaptive(self):
        spec = _spec(
            delay=DelaySpec(kind="uniform", mean_ms=5.0, loss=0.1),
            f=1,
            adaptive=(CrashWhen(pid=1, after=ObservationFilter(kind="send")),),
            workload=WorkloadSpec.repeated(0, 3, 10.0),
        )
        decoded = loads_spec_json(dumps_spec_json(spec))
        assert decoded == spec
        assert isinstance(decoded.adaptive[0], CrashWhen)
        assert decoded.workload is not None
        assert decoded.workload.broadcasts == spec.workload.broadcasts

    def test_unknown_type_tag_is_rejected(self):
        with pytest.raises(SpecJSONError, match="unknown spec type tag"):
            spec_from_jsonable({"__type__": "EvilSpec"})

    def test_missing_type_tag_is_rejected(self):
        with pytest.raises(SpecJSONError, match="lacks a __type__ tag"):
            spec_from_jsonable({"n": 4})

    def test_unknown_field_is_rejected(self):
        document = spec_to_jsonable(_spec())
        document["not_a_field"] = 1
        with pytest.raises(SpecJSONError, match="has no field"):
            spec_from_jsonable(document)

    def test_malformed_json_is_rejected(self):
        with pytest.raises(SpecJSONError, match="malformed spec JSON"):
            loads_spec_json("{not json")

    def test_unregistered_dataclass_cannot_encode(self):
        import dataclasses

        @dataclasses.dataclass
        class Rogue:
            x: int = 1

        with pytest.raises(SpecJSONError, match="not a registered spec type"):
            spec_to_jsonable(Rogue())


def _frozen_canonical(value):
    """The scenario-hash walk as it was before the JSON codec took it over.

    A frozen copy, so the differential below pins every hash to the form
    that keyed the goldens, cache slots and corpus records.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields_dict = {
            f.name: _frozen_canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.compare
        }
        suppress = getattr(type(value), "_HASH_SUPPRESS_DEFAULTS", None)
        if suppress:
            for name, default in sorted(suppress.items()):
                if name in fields_dict and fields_dict[name] == default:
                    del fields_dict[name]
        return {"__type__": type(value).__name__, **fields_dict}
    if isinstance(value, (tuple, list)):
        return [_frozen_canonical(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _frozen_canonical(val) for key, val in value.items()}
    return value


def _frozen_digest(spec):
    canonical = json.dumps(
        _frozen_canonical(spec), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _hand_specs():
    """Specs that set every field of every spec class off its default."""
    every_field = ScenarioSpec(
        name="every-field",
        topology=TopologySpec(kind="torus", rows=3, cols=4, min_connectivity=3),
        delay=DelaySpec(
            kind="uniform",
            mean_ms=7.0,
            std_ms=3.0,
            low_ms=2.0,
            high_ms=9.0,
            loss=0.05,
            burst_period_ms=80.0,
            burst_len_ms=8.0,
        ),
        protocol="bracha_dolev",
        modifications=ModificationSet.all_enabled(),
        f=3,
        payload_size=48,
        source=1,
        bid=2,
        seed=11,
        adversaries=(
            AdversarySpec(
                behaviour="equivocate",
                count=1,
                placement="max_degree",
                drop_probability=0.25,
                conflicting_payload=b"\x00evil\xff",
            ),
        ),
        faults=(
            CrashAt(pid=5, time_ms=12.5),
            LinkDropWindow(u=0, v=1, start_ms=1.0, end_ms=30.0),
            DelayedStart(pid=6, time_ms=4.0),
            JoinAt(pid=7, time_ms=9.0),
            LeaveAt(pid=8, time_ms=20.0),
            RewireLinkAt(pid=9, old_peer=10, new_peer=11, time_ms=15.0),
        ),
        max_events=None,
        shared_bandwidth_bps=1e6,
        backend="asyncio",
        workload=WorkloadSpec.causal_chain((0, 3, 0), interval_ms=25.0),
        adaptive=(
            CrashWhen(
                pid=2,
                after=ObservationFilter(
                    kind="send", pid=0, dest=2, mtype="ECHO", source=0, bid=0
                ),
                count=3,
            ),
            TurnByzantineWhen(
                pid=4, after=ObservationFilter(kind="deliver"), count=2,
                behaviour="forge", drop_probability=0.75,
            ),
            CutLinkWhen(u=1, v=2, count=4, duration_ms=6.0),
        ),
    )
    return (
        every_field,
        ScenarioSpec(),
        ScenarioSpec(
            workload=WorkloadSpec(
                broadcasts=(
                    BroadcastSpec(
                        source=2, bid=1, payload_seed=3, start_time_ms=5.0, successor=4
                    ),
                    BroadcastSpec(source=4, bid=0, start_time_ms=9.0),
                )
            ),
            adversaries=(
                AdversarySpec(behaviour="equivocate", conflicting_payload=b""),
            ),
            f=1,
        ),
    )


class TestOneWalk:
    """The corpus codec is the scenario-hash walk: same digests as before."""

    @pytest.fixture(scope="class")
    def specs(self):
        return (
            tuple(islice(stream_fuzz_specs(seed=1), 2000))
            + sample_lossy_adaptive_specs(300)
            + _hand_specs()
        )

    def test_no_digest_moved(self, specs):
        mismatches = [
            spec for spec in specs if spec.scenario_hash() != _frozen_digest(spec)
        ]
        assert len(specs) == 2303
        assert mismatches == []

    def test_every_spec_round_trips(self, specs):
        for spec in specs:
            assert loads_spec_json(dumps_spec_json(spec)) == spec

    def test_hash_is_the_compact_document(self):
        spec = _hand_specs()[0]
        document = json.dumps(
            spec_to_jsonable(spec), sort_keys=True, separators=(",", ":")
        )
        assert spec.scenario_hash() == hashlib.sha256(document.encode()).hexdigest()

    def test_spec_types_are_the_annotation_closure(self):
        expected = {
            ScenarioSpec,
            TopologySpec,
            DelaySpec,
            AdversarySpec,
            BroadcastSpec,
            WorkloadSpec,
            ModificationSet,
            ObservationFilter,
            *get_args(FaultEvent),
            *ADAPTIVE_FAULT_TYPES,
        }
        assert set(SPEC_TYPES.values()) == expected
        assert all(SPEC_TYPES[cls.__name__] is cls for cls in expected)

    @pytest.mark.parametrize(
        "cls",
        sorted(
            (c for c in SPEC_TYPES.values() if hasattr(c, "_HASH_SUPPRESS_DEFAULTS")),
            key=lambda c: c.__name__,
        ),
        ids=lambda c: c.__name__,
    )
    def test_suppressed_defaults_are_absent(self, cls):
        document = spec_to_jsonable(cls())
        assert document["__type__"] == cls.__name__
        for name in cls._HASH_SUPPRESS_DEFAULTS:
            assert name not in document
        assert spec_from_jsonable(document) == cls()

    def test_set_suppressed_fields_are_written(self):
        document = spec_to_jsonable(_hand_specs()[0])
        assert {"backend", "workload", "adaptive"} <= document.keys()
        assert {"loss", "burst_period_ms", "burst_len_ms"} <= document["delay"].keys()
        assert document["adversaries"][0]["conflicting_payload"] == "006576696cff"


class TestCorpusRecord:
    def test_roundtrip(self):
        record = CorpusRecord(
            category="oracle_violation",
            spec=_spec(seed=3),
            violations=(("no_forgery", "crafted"),),
            stats={"latency_ms": 12.5},
            shrunk_spec=_spec(seed=3, topology=TopologySpec(kind="complete", n=2)),
            shrunk_violations=(("no_forgery", "crafted"),),
            regression_stub="def test(): pass",
            discovery={"stream_seed": 0},
        )
        restored = CorpusRecord.from_jsonable(record.to_jsonable())
        assert restored == record

    def test_unknown_category_is_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus category"):
            CorpusRecord(category="interesting", spec=_spec())

    def test_validate_flags_schema_version_category_and_hash(self):
        data = _record().to_jsonable()
        assert validate_record_data(data) == []
        assert "schema must be" in "".join(
            validate_record_data({**data, "schema": RECORD_SCHEMA_VERSION + 1})
        )
        assert "unknown category" in "".join(
            validate_record_data({**data, "category": "nope"})
        )
        assert "does not match" in "".join(
            validate_record_data({**data, "hash": "0" * 64})
        )
        assert "lacks a spec" in "".join(
            validate_record_data({k: v for k, v in data.items() if k != "spec"})
        )
        assert "must be a list" in "".join(
            validate_record_data({**data, "violations": "oops"})
        )
        assert validate_record_data([]) == [
            "record must be a JSON object, got list"
        ]


class TestCorpus:
    def test_add_is_deduplicated_by_hash(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        record = _record()
        assert corpus.add(record) is True
        assert corpus.add(record) is False
        assert record.scenario_hash in corpus
        assert corpus.hashes() == (record.scenario_hash,)

    def test_load_and_records_roundtrip(self, tmp_path):
        corpus = Corpus(tmp_path)
        first, second = _record(seed=1), _record(seed=2)
        corpus.add(first)
        corpus.add(second)
        assert corpus.load(first.scenario_hash) == first
        assert sorted(r.scenario_hash for r in corpus.records()) == sorted(
            [first.scenario_hash, second.scenario_hash]
        )

    def test_load_missing_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            Corpus(tmp_path).load("f" * 64)

    def test_manifest_hash_tracks_content_not_insertion_order(self, tmp_path):
        forward, backward = Corpus(tmp_path / "a"), Corpus(tmp_path / "b")
        records = [_record(seed=seed) for seed in (1, 2, 3)]
        for record in records:
            forward.add(record)
        for record in reversed(records):
            backward.add(record)
        assert forward.manifest_hash() == backward.manifest_hash()
        empty_hash = Corpus(tmp_path / "empty").manifest_hash()
        assert empty_hash != forward.manifest_hash()
        backward.add(_record(seed=4))
        assert forward.manifest_hash() != backward.manifest_hash()

    def test_write_manifest_lists_every_record(self, tmp_path):
        corpus = Corpus(tmp_path)
        corpus.add(_record(seed=1))
        corpus.add(_record(seed=2, category="latency_outlier"))
        path = corpus.write_manifest()
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == RECORD_SCHEMA_VERSION
        assert sorted(e["hash"] for e in manifest["records"]) == list(corpus.hashes())
        assert {e["category"] for e in manifest["records"]} == {
            "near_f_bound",
            "latency_outlier",
        }
        # The manifest file itself is never mistaken for a record.
        assert "manifest" not in corpus.hashes()

    def test_validate_reports_corrupt_records(self, tmp_path):
        corpus = Corpus(tmp_path)
        record = _record()
        corpus.add(record)
        assert corpus.validate() == {}
        # A record stored under the wrong name and a truncated file.
        good = corpus.path_for(record.scenario_hash).read_text()
        (tmp_path / ("a" * 64 + ".json")).write_text(good)
        (tmp_path / ("b" * 64 + ".json")).write_text("{truncated")
        problems = corpus.validate()
        assert set(problems) == {"a" * 64 + ".json", "b" * 64 + ".json"}
        assert any("file name hash" in p for p in problems["a" * 64 + ".json"])
        assert any("unreadable" in p for p in problems["b" * 64 + ".json"])

    def test_replay_reruns_the_stored_spec(self, tmp_path):
        corpus = Corpus(tmp_path)
        record = _record(seed=9)
        corpus.add(record)
        result = corpus.replay(record.scenario_hash)
        assert result.spec == record.spec

    def test_categories_are_the_documented_four(self):
        assert CATEGORIES == (
            "oracle_violation",
            "conformance_divergence",
            "near_f_bound",
            "latency_outlier",
        )

    def test_transient_categories_exclude_violations(self):
        assert TRANSIENT_CATEGORIES == ("near_f_bound", "latency_outlier")
        assert "oracle_violation" not in TRANSIENT_CATEGORIES
        assert "conformance_divergence" not in TRANSIENT_CATEGORIES
        assert DEFAULT_TRANSIENT_CAP > 0


class TestPrune:
    def _filled(self, tmp_path):
        corpus = Corpus(tmp_path / "corpus")
        for seed in range(6):
            corpus.add(_record(seed=seed, category="near_f_bound"))
        for seed in range(6, 9):
            corpus.add(_record(seed=seed, category="latency_outlier"))
        corpus.add(
            _record(
                seed=20,
                category="oracle_violation",
                violations=(("agreement", "split"),),
            )
        )
        return corpus

    def test_caps_each_transient_category(self, tmp_path):
        corpus = self._filled(tmp_path)
        removed = corpus.prune(max_per_category=2)
        assert len(removed) == (6 - 2) + (3 - 2)
        remaining = [corpus.load(h).category for h in corpus.hashes()]
        assert remaining.count("near_f_bound") == 2
        assert remaining.count("latency_outlier") == 2
        for scenario_hash in removed:
            assert scenario_hash not in corpus

    def test_violations_are_kept_forever(self, tmp_path):
        corpus = self._filled(tmp_path)
        corpus.prune(max_per_category=0)
        remaining = [corpus.load(h).category for h in corpus.hashes()]
        assert remaining == ["oracle_violation"]

    def test_retention_is_a_sorted_hash_prefix_per_category(self, tmp_path):
        # Records carry no timestamps by design, so the survivors must
        # be the first ``cap`` hashes per category in sorted order — the
        # only retention rule every same-seed farm process agrees on.
        first, second = self._filled(tmp_path / "a"), self._filled(tmp_path / "b")
        expected = {}
        for scenario_hash in first.hashes():
            category = first.load(scenario_hash).category
            if category in TRANSIENT_CATEGORIES:
                expected.setdefault(category, []).append(scenario_hash)
        first.prune(max_per_category=3)
        second.prune(max_per_category=3)
        assert first.hashes() == second.hashes()
        for category, hashes in expected.items():
            survivors = [h for h in hashes if h in first]
            assert survivors == hashes[:3]

    def test_untouched_under_cap(self, tmp_path):
        corpus = self._filled(tmp_path)
        before = corpus.hashes()
        assert corpus.prune(max_per_category=10) == ()
        assert corpus.hashes() == before

    def test_negative_cap_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            Corpus(tmp_path).prune(max_per_category=-1)
