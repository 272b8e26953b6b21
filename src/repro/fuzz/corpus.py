"""The fuzzing farm's corpus: interesting specs persisted as JSON.

One record per scenario hash, written atomically to
``<corpus_dir>/<scenario_hash>.json`` — the hash *is* the dedupe key, so
a spec rediscovered by a later fuzz round (or another worker sharing the
directory) is recorded once; a violation or divergence on a cell stored
as a transient record replaces that record.  A ``manifest.json``
summarizing the records (and hashed into the CI corpus cache key) is
rewritten after every farm run.

Record categories (:data:`CATEGORIES`):

* ``oracle_violation`` — the safety oracle fired; the record carries the
  violations, the shrunk minimal spec and a ready-to-paste regression
  test stub;
* ``conformance_divergence`` — the same scenario produced different
  safety verdicts on two execution backends;
* ``near_f_bound`` — a safe run whose Byzantine roster saturated the
  spec's ``f`` budget (the interesting survivors: one more fault and the
  paper's bound is gone);
* ``latency_outlier`` — a delivered run far above the stream's running
  mean latency.

Records are plain JSON on purpose: they diff in review, survive code
refactors (the spec codec of :mod:`repro.scenarios.jsonio` is
closed-world and versioned by construction) and replay from the hash
alone — :meth:`Corpus.replay` re-runs the stored spec through
:func:`~repro.scenarios.engine.run_scenario`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.runner.cache import write_atomic
from repro.scenarios.engine import ScenarioResult, run_scenario
from repro.scenarios.jsonio import (
    SpecJSONError,
    spec_from_jsonable,
    spec_to_jsonable,
)
from repro.scenarios.spec import ScenarioSpec

#: Bump when the record layout changes; old records fail validation and
#: are reported (never silently reinterpreted).
RECORD_SCHEMA_VERSION = 1

CATEGORIES = (
    "oracle_violation",
    "conformance_divergence",
    "near_f_bound",
    "latency_outlier",
)

#: Categories :meth:`Corpus.prune` may age out.  Oracle violations and
#: conformance divergences are *bugs* and are kept forever; the survivor
#: tiers below are telemetry whose unbounded growth would make the
#: ``actions/cache`` manifest-hash key churn on every nightly run.
TRANSIENT_CATEGORIES = (
    "near_f_bound",
    "latency_outlier",
)

#: Default per-category cap applied by the fuzz farm after each run.
DEFAULT_TRANSIENT_CAP = 64

_MANIFEST_NAME = "manifest.json"


def _json_document(data: object) -> bytes:
    """The on-disk form of a record or the manifest (review-friendly JSON)."""
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class CorpusRecord:
    """One interesting spec, with everything needed to act on it."""

    category: str
    spec: ScenarioSpec
    #: ``(invariant, detail)`` pairs of the oracle violations (empty for
    #: non-violation categories).
    violations: Tuple[Tuple[str, str], ...] = ()
    #: Deterministic run statistics (latency, messages, drops, ...).
    stats: Dict[str, object] = field(default_factory=dict)
    #: The shrunk minimal reproducer, when the shrinker ran.
    shrunk_spec: Optional[ScenarioSpec] = None
    #: Violations of the shrunk spec (they preserve the original's).
    shrunk_violations: Tuple[Tuple[str, str], ...] = ()
    #: Ready-to-paste pytest regression stub for the minimal spec.
    regression_stub: Optional[str] = None
    #: Free-form discovery context (stream seed, cell index, backend...).
    discovery: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(
                f"unknown corpus category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )

    @property
    def scenario_hash(self) -> str:
        return self.spec.scenario_hash()

    def to_jsonable(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": RECORD_SCHEMA_VERSION,
            "hash": self.scenario_hash,
            "category": self.category,
            "spec": spec_to_jsonable(self.spec),
            "violations": [list(item) for item in self.violations],
            "stats": dict(self.stats),
            "discovery": dict(self.discovery),
            "shrunk_spec": (
                None if self.shrunk_spec is None else spec_to_jsonable(self.shrunk_spec)
            ),
            "shrunk_violations": [list(item) for item in self.shrunk_violations],
            "regression_stub": self.regression_stub,
        }
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "CorpusRecord":
        problems = validate_record_data(data)
        if problems:
            raise SpecJSONError(
                "invalid corpus record: " + "; ".join(problems)
            )
        shrunk = data.get("shrunk_spec")
        return cls(
            category=data["category"],
            spec=spec_from_jsonable(data["spec"]),
            violations=tuple(
                (str(inv), str(detail)) for inv, detail in data.get("violations", [])
            ),
            stats=dict(data.get("stats", {})),
            shrunk_spec=None if shrunk is None else spec_from_jsonable(shrunk),
            shrunk_violations=tuple(
                (str(inv), str(detail))
                for inv, detail in data.get("shrunk_violations", [])
            ),
            regression_stub=data.get("regression_stub"),
            discovery=dict(data.get("discovery", {})),
        )


def validate_record_data(data: object) -> List[str]:
    """Schema problems of one raw record document (empty = valid).

    This is what the CI fuzz lanes assert over every corpus file: the
    record parses, carries the current schema version, a known category,
    a decodable spec, and a ``hash`` that actually matches the spec.
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return [f"record must be a JSON object, got {type(data).__name__}"]
    if data.get("schema") != RECORD_SCHEMA_VERSION:
        problems.append(
            f"schema must be {RECORD_SCHEMA_VERSION}, got {data.get('schema')!r}"
        )
    if data.get("category") not in CATEGORIES:
        problems.append(f"unknown category {data.get('category')!r}")
    for key in ("violations", "shrunk_violations"):
        value = data.get(key, [])
        if not isinstance(value, list) or not all(
            isinstance(item, list) and len(item) == 2 for item in value
        ):
            problems.append(f"{key} must be a list of [invariant, detail] pairs")
    for key in ("stats", "discovery"):
        if not isinstance(data.get(key, {}), dict):
            problems.append(f"{key} must be a JSON object")
    spec = None
    if "spec" not in data:
        problems.append("record lacks a spec")
    else:
        try:
            spec = spec_from_jsonable(data["spec"])
        except SpecJSONError as exc:
            problems.append(f"spec does not decode: {exc}")
        else:
            if not isinstance(spec, ScenarioSpec):
                problems.append("spec decodes to a non-ScenarioSpec")
                spec = None
    if spec is not None and data.get("hash") != spec.scenario_hash():
        problems.append(
            f"hash {data.get('hash')!r} does not match the spec's scenario hash"
        )
    shrunk = data.get("shrunk_spec")
    if shrunk is not None:
        try:
            decoded = spec_from_jsonable(shrunk)
            if not isinstance(decoded, ScenarioSpec):
                problems.append("shrunk_spec decodes to a non-ScenarioSpec")
        except SpecJSONError as exc:
            problems.append(f"shrunk_spec does not decode: {exc}")
    return problems


class Corpus:
    """Directory-backed corpus of :class:`CorpusRecord` keyed by hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- paths ----------------------------------------------------------
    def path_for(self, scenario_hash: str) -> Path:
        return self.root / f"{scenario_hash}.json"

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    # -- membership / IO ------------------------------------------------
    def __contains__(self, scenario_hash: str) -> bool:
        return self.path_for(scenario_hash).exists()

    def hashes(self) -> Tuple[str, ...]:
        """Every stored scenario hash, sorted (manifest order)."""
        if not self.root.is_dir():
            return ()
        return tuple(
            sorted(
                path.stem
                for path in self.root.glob("*.json")
                if path.name != _MANIFEST_NAME
            )
        )

    def category(self, scenario_hash: str) -> Optional[str]:
        """The stored record's category; ``None`` if absent or unreadable."""
        try:
            data = json.loads(self.path_for(scenario_hash).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return data.get("category") if isinstance(data, dict) else None

    def add(self, record: CorpusRecord) -> bool:
        """Persist ``record`` unless its hash is already present.

        A violation or divergence replaces a stored transient record of
        the same hash, so :meth:`prune` cannot age out the only copy of a
        bug.  Returns whether a file was written.  The write is atomic
        (unique temp file renamed into place), so corpora shared between
        concurrent farm processes never hold a half-written record.
        """
        path = self.path_for(record.scenario_hash)
        if path.exists() and (
            record.category in TRANSIENT_CATEGORIES
            or self.category(record.scenario_hash) not in TRANSIENT_CATEGORIES
        ):
            return False
        write_atomic(path, _json_document(record.to_jsonable()))
        return True

    def load(self, scenario_hash: str) -> CorpusRecord:
        """Load one record by hash (raises ``SpecJSONError`` if invalid)."""
        path = self.path_for(scenario_hash)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(scenario_hash) from None
        except json.JSONDecodeError as exc:
            raise SpecJSONError(f"malformed corpus record {path.name}: {exc}") from exc
        return CorpusRecord.from_jsonable(data)

    def records(self) -> Iterator[CorpusRecord]:
        """Every record, in manifest (sorted-hash) order."""
        for scenario_hash in self.hashes():
            yield self.load(scenario_hash)

    def replay(self, scenario_hash: str) -> ScenarioResult:
        """Re-run a stored spec by hash (determinism makes this exact)."""
        return run_scenario(self.load(scenario_hash).spec)

    # -- retention ------------------------------------------------------
    def prune(
        self,
        *,
        max_per_category: int = DEFAULT_TRANSIENT_CAP,
        categories: Tuple[str, ...] = TRANSIENT_CATEGORIES,
    ) -> Tuple[str, ...]:
        """Bound the transient tiers; returns the removed hashes, sorted.

        For each category in ``categories`` the first
        ``max_per_category`` records *in sorted-hash order* are kept and
        the rest deleted — records carry no timestamp on purpose (the
        corpus is deterministic), so sorted-hash order is the only
        retention order every farm process agrees on, which keeps
        same-seed farm runs writing byte-identical corpora.  Categories
        outside ``categories`` (oracle violations, conformance
        divergences) are never touched.
        """
        if max_per_category < 0:
            raise ValueError(
                f"max_per_category must be non-negative, got {max_per_category}"
            )
        kept_per_category: Dict[str, int] = {}
        removed: List[str] = []
        for scenario_hash in self.hashes():
            # Anything unreadable has no category: left for validate().
            category = self.category(scenario_hash)
            if category not in categories:
                continue
            kept = kept_per_category.get(category, 0)
            if kept < max_per_category:
                kept_per_category[category] = kept + 1
                continue
            try:
                os.unlink(self.path_for(scenario_hash))
            except OSError:
                continue
            removed.append(scenario_hash)
        return tuple(removed)

    # -- manifest -------------------------------------------------------
    def manifest(self) -> Dict[str, object]:
        """Summary document: every record's hash and category, sorted."""
        entries = []
        for scenario_hash in self.hashes():
            try:
                data = json.loads(
                    self.path_for(scenario_hash).read_text(encoding="utf-8")
                )
                category = data.get("category", "unknown")
            except (OSError, json.JSONDecodeError):
                category = "unreadable"
            entries.append({"hash": scenario_hash, "category": category})
        return {"schema": RECORD_SCHEMA_VERSION, "records": entries}

    def manifest_hash(self) -> str:
        """Stable digest of the manifest — the CI corpus cache key."""
        canonical = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def write_manifest(self) -> Path:
        """Rewrite ``manifest.json`` (returns its path)."""
        write_atomic(self.manifest_path, _json_document(self.manifest()))
        return self.manifest_path

    def validate(self) -> Dict[str, List[str]]:
        """Schema problems per record file (empty dict = corpus is clean)."""
        problems: Dict[str, List[str]] = {}
        for scenario_hash in self.hashes():
            path = self.path_for(scenario_hash)
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                problems[path.name] = [f"unreadable: {exc}"]
                continue
            found = validate_record_data(data)
            if data.get("hash") != scenario_hash:
                found.append(
                    f"file name hash {scenario_hash} != record hash {data.get('hash')!r}"
                )
            if found:
                problems[path.name] = found
        return problems


__all__ = [
    "RECORD_SCHEMA_VERSION",
    "CATEGORIES",
    "TRANSIENT_CATEGORIES",
    "DEFAULT_TRANSIENT_CAP",
    "CorpusRecord",
    "Corpus",
    "validate_record_data",
]
