"""Validated pickling of scenario specs and results.

Pickle is the format of two things only, and neither leaves the host:
:class:`~repro.runner.parallel.SweepExecutor`'s process pool pickles
every :class:`ScenarioSpec` it dispatches and every
:class:`ScenarioResult` a worker returns, and the result cache stores
results as pickles.  A spec's other form — the corpus record and the
scenario hash — is JSON (:mod:`repro.scenarios.jsonio`).  These helpers
do the pickling step on its own (the observatory benchmark times it
with them).  Pickle fits the objects —
specs embed :class:`~repro.core.modifications.ModificationSet`,
fault-event and workload (:class:`~repro.scenarios.spec.WorkloadSpec`)
dataclasses, and results carry full
:class:`~repro.metrics.collector.RunMetrics` snapshots plus
per-broadcast :class:`~repro.scenarios.engine.BroadcastOutcome` tuples —
and the helpers pin the failure mode raw ``pickle.loads`` leaves open:

* any unpickling problem — truncated payload, garbage bytes, a payload
  produced by an incompatible code version — raises
  :class:`SerializationError`;
* a payload that unpickles into the *wrong type* also raises
  :class:`SerializationError`, so a spec cannot pass for a result (or
  vice versa).

Trust model: the bytes come from the operator's own processes; the
validation here is about corruption and version skew, not about
sandboxing hostile pickles.
"""

from __future__ import annotations

import pickle

from repro.core.errors import ReproError
from repro.scenarios.engine import ScenarioResult
from repro.scenarios.spec import ScenarioSpec


class SerializationError(ReproError):
    """A spec or result payload could not be (de)serialized."""


def dumps_spec(spec: ScenarioSpec) -> bytes:
    """Pickle one spec."""
    if not isinstance(spec, ScenarioSpec):
        raise SerializationError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    return pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)


def loads_spec(payload: bytes) -> ScenarioSpec:
    """Deserialize a spec payload, validating its type."""
    return _loads(payload, ScenarioSpec)


def dumps_result(result: ScenarioResult) -> bytes:
    """Pickle one result."""
    if not isinstance(result, ScenarioResult):
        raise SerializationError(
            f"expected a ScenarioResult, got {type(result).__name__}"
        )
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def loads_result(payload: bytes) -> ScenarioResult:
    """Deserialize a result payload, validating its type."""
    return _loads(payload, ScenarioResult)


def _loads(payload: bytes, expected: type):
    try:
        value = pickle.loads(payload)
    except Exception as exc:
        raise SerializationError(
            f"cannot deserialize {expected.__name__} payload: {exc!r}"
        ) from exc
    if not isinstance(value, expected):
        raise SerializationError(
            f"payload deserialized to {type(value).__name__}, "
            f"expected {expected.__name__}"
        )
    return value


__all__ = [
    "SerializationError",
    "dumps_spec",
    "loads_spec",
    "dumps_result",
    "loads_result",
]
