"""Human-readable JSON (de)serialization of scenario specs.

The fuzzing farm (:mod:`repro.fuzz`) persists every interesting spec as
a JSON record under ``corpus/`` so that corpus entries survive code
refactors, diff cleanly in review, and can be pasted into regression
tests.  Pickle (:mod:`repro.scenarios.serialize`) stays what the process
pool and the result cache carry — it round-trips ``RunMetrics`` and is
faster — but a corpus that outlives many code versions needs a format
where a renamed module does not orphan every stored entry.

The codec is intentionally closed-world: only the spec-level dataclasses
listed in :data:`SPEC_TYPES` are encodable, each tagged with its class
name (``{"__type__": "ScenarioSpec", ...}``).  Decoding an unknown tag
or a malformed document raises :class:`SpecJSONError` instead of
guessing.  Round-tripping preserves dataclass equality — and therefore
:meth:`~repro.scenarios.spec.ScenarioSpec.scenario_hash`, which is what
keys the corpus.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

from repro.core.errors import ReproError
from repro.core.modifications import ModificationSet
from repro.scenarios.faults import (
    CrashAt,
    CrashWhen,
    CutLinkWhen,
    DelayedStart,
    JoinAt,
    LeaveAt,
    LinkDropWindow,
    ObservationFilter,
    RewireLinkAt,
    TurnByzantineWhen,
)
from repro.scenarios.spec import (
    AdversarySpec,
    BroadcastSpec,
    DelaySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)


class SpecJSONError(ReproError):
    """A spec could not be encoded to or decoded from JSON."""


#: Every dataclass a :class:`ScenarioSpec` may transitively embed.
SPEC_TYPES = {
    cls.__name__: cls
    for cls in (
        ScenarioSpec,
        TopologySpec,
        DelaySpec,
        AdversarySpec,
        BroadcastSpec,
        WorkloadSpec,
        ModificationSet,
        CrashAt,
        LinkDropWindow,
        DelayedStart,
        JoinAt,
        LeaveAt,
        RewireLinkAt,
        ObservationFilter,
        CrashWhen,
        TurnByzantineWhen,
        CutLinkWhen,
    )
}


def spec_to_jsonable(value: Any) -> Any:
    """Recursively encode a spec (or nested spec value) to JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in SPEC_TYPES:
            raise SpecJSONError(
                f"cannot encode {name}: not a registered spec type "
                f"(expected one of {sorted(SPEC_TYPES)})"
            )
        encoded: Dict[str, Any] = {"__type__": name}
        for field in dataclasses.fields(value):
            if not field.init:
                continue
            encoded[field.name] = spec_to_jsonable(getattr(value, field.name))
        return encoded
    if isinstance(value, (tuple, list)):
        return [spec_to_jsonable(item) for item in value]
    if isinstance(value, bytes):
        # Tagged like spec types so a decoded document cannot confuse a
        # payload with a mapping; hex keeps the record human-diffable.
        return {"__bytes__": value.hex()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecJSONError(f"cannot encode value of type {type(value).__name__}")


def spec_from_jsonable(data: Any) -> Any:
    """Decode :func:`spec_to_jsonable` output back into spec dataclasses.

    Sequences decode to tuples — every sequence-valued spec field
    (adversaries, faults, adaptive, workload broadcasts) is tuple-typed,
    so the round trip restores dataclass equality exactly.
    """
    if isinstance(data, dict):
        if "__bytes__" in data and "__type__" not in data:
            if len(data) != 1 or not isinstance(data["__bytes__"], str):
                raise SpecJSONError(f"malformed __bytes__ value: {sorted(data)}")
            try:
                return bytes.fromhex(data["__bytes__"])
            except ValueError as exc:
                raise SpecJSONError(f"malformed __bytes__ hex: {exc}") from exc
        if "__type__" not in data:
            raise SpecJSONError(f"spec document lacks a __type__ tag: {sorted(data)}")
        name = data["__type__"]
        cls = SPEC_TYPES.get(name)
        if cls is None:
            raise SpecJSONError(f"unknown spec type tag {name!r}")
        fields = {
            field.name: field for field in dataclasses.fields(cls) if field.init
        }
        kwargs = {}
        for key, value in data.items():
            if key == "__type__":
                continue
            if key not in fields:
                raise SpecJSONError(f"{name} has no field {key!r}")
            kwargs[key] = spec_from_jsonable(value)
        try:
            return cls(**kwargs)
        except ReproError:
            raise
        except Exception as exc:
            raise SpecJSONError(f"cannot construct {name}: {exc!r}") from exc
    if isinstance(data, list):
        return tuple(spec_from_jsonable(item) for item in data)
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    raise SpecJSONError(f"cannot decode value of type {type(data).__name__}")


def dumps_spec_json(spec: ScenarioSpec, *, indent: int = 2) -> str:
    """Serialize one spec to a stable, human-diffable JSON document."""
    if not isinstance(spec, ScenarioSpec):
        raise SpecJSONError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    return json.dumps(spec_to_jsonable(spec), indent=indent, sort_keys=True)


def loads_spec_json(document: str) -> ScenarioSpec:
    """Deserialize one spec from :func:`dumps_spec_json` output."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SpecJSONError(f"malformed spec JSON: {exc}") from exc
    spec = spec_from_jsonable(data)
    if not isinstance(spec, ScenarioSpec):
        raise SpecJSONError(
            f"document decoded to {type(spec).__name__}, expected ScenarioSpec"
        )
    return spec


__all__ = [
    "SpecJSONError",
    "SPEC_TYPES",
    "spec_to_jsonable",
    "spec_from_jsonable",
    "dumps_spec_json",
    "loads_spec_json",
]
