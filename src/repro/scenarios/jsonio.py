"""The one JSON form of a scenario spec: corpus records and the scenario hash.

The fuzzing farm (:mod:`repro.fuzz`) persists every interesting spec as
a JSON record under ``corpus/`` so that corpus entries survive code
refactors, diff cleanly in review, and can be pasted into regression
tests.  The same walk keys every grid cell:
:meth:`~repro.scenarios.spec.ScenarioSpec.scenario_hash` is the SHA-256
of :func:`spec_to_jsonable`'s output dumped compactly with sorted keys,
so a record's ``hash`` is a function of its ``spec`` document alone.

Each spec dataclass is tagged with its class name
(``{"__type__": "ScenarioSpec", ...}``).  A field still equal to its
class's ``_HASH_SUPPRESS_DEFAULTS`` value is left out — that is how a
field is added without changing the hash of any spec that does not use
it.  ``bytes`` are written as plain hex strings and read back as bytes
only for fields annotated ``bytes`` / ``Optional[bytes]``.

The codec is closed-world: :data:`SPEC_TYPES` is every dataclass the
annotations of :class:`ScenarioSpec` reach (faults included, through
``FaultEvent`` and ``AdaptiveFault``), computed once at import, and no
other class encodes or decodes.  An unknown tag or a malformed document
raises :class:`SpecJSONError` instead of guessing.  Sequences decode to
tuples, so a round trip restores dataclass equality — and therefore the
scenario hash, which is what keys the corpus.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.core.errors import ReproError
from repro.scenarios.spec import ScenarioSpec


class SpecJSONError(ReproError):
    """A spec could not be encoded to or decoded from JSON."""


def _leaves(hint: Any) -> Tuple[Any, ...]:
    """The types a (possibly nested) ``Optional`` / ``Union`` / ``Tuple`` names."""
    args = typing.get_args(hint)
    if not args:
        return (hint,)
    return tuple(leaf for arg in args for leaf in _leaves(arg))


def _spec_types(root: type) -> Tuple[Dict[str, type], Dict[type, FrozenSet[str]]]:
    """Every dataclass ``root``'s field annotations reach, by name, and the
    fields of each that hold ``bytes``."""
    types: Dict[str, type] = {}
    bytes_fields: Dict[type, FrozenSet[str]] = {}
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls.__name__ in types:
            continue
        types[cls.__name__] = cls
        hints = typing.get_type_hints(cls)
        fields = dataclasses.fields(cls)
        bytes_fields[cls] = frozenset(
            field.name
            for field in fields
            if hints[field.name] in (bytes, Optional[bytes])
        )
        for field in fields:
            leaves = _leaves(hints[field.name])
            pending.extend(leaf for leaf in leaves if dataclasses.is_dataclass(leaf))
    return types, bytes_fields


#: Every dataclass a :class:`ScenarioSpec` may transitively embed, by name.
SPEC_TYPES, _BYTES_FIELDS = _spec_types(ScenarioSpec)


def spec_to_jsonable(value: Any) -> Any:
    """Recursively encode a spec (or nested spec value) to JSON-safe data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if SPEC_TYPES.get(cls.__name__) is not cls:
            raise SpecJSONError(
                f"cannot encode {cls.__name__}: not a registered spec type "
                f"(expected one of {sorted(SPEC_TYPES)})"
            )
        suppress = getattr(cls, "_HASH_SUPPRESS_DEFAULTS", {})
        encoded: Dict[str, Any] = {"__type__": cls.__name__}
        for field in dataclasses.fields(cls):
            item = spec_to_jsonable(getattr(value, field.name))
            if field.name not in suppress or item != suppress[field.name]:
                encoded[field.name] = item
        return encoded
    if isinstance(value, (tuple, list)):
        return [spec_to_jsonable(item) for item in value]
    if isinstance(value, bytes):
        return value.hex()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SpecJSONError(f"cannot encode value of type {type(value).__name__}")


def spec_from_jsonable(data: Any) -> Any:
    """Decode :func:`spec_to_jsonable` output back into spec dataclasses.

    Sequences decode to tuples — every sequence-valued spec field
    (adversaries, faults, adaptive, workload broadcasts) is tuple-typed,
    so the round trip restores dataclass equality exactly.  Omitted
    fields take their defaults, which is what a suppressed field held.
    """
    if isinstance(data, dict):
        if "__type__" not in data:
            raise SpecJSONError(f"spec document lacks a __type__ tag: {sorted(data)}")
        name = data["__type__"]
        cls = SPEC_TYPES.get(name)
        if cls is None:
            raise SpecJSONError(f"unknown spec type tag {name!r}")
        fields = [field.name for field in dataclasses.fields(cls)]
        unknown = data.keys() - fields - {"__type__"}
        if unknown:
            raise SpecJSONError(f"{name} has no field {min(unknown)!r}")
        kwargs = {}
        for key in fields:
            if key not in data:
                continue
            value = data[key]
            if key in _BYTES_FIELDS[cls] and value is not None:
                try:
                    kwargs[key] = bytes.fromhex(value)
                except (TypeError, ValueError) as exc:
                    raise SpecJSONError(f"{name}.{key} is not hex: {exc}") from exc
            else:
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
