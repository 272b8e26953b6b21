"""Always-on scenario fuzzing farm with a failing-spec shrinker.

The correctness-tooling analogue of a continuous eval farm: randomized
adversarial scenario search runs forever (in CI: a time-boxed smoke lane
per PR, a longer nightly lane on a schedule), every interesting spec is
persisted to a JSON corpus keyed by scenario hash, and any safety-oracle
violation arrives pre-minimized by a delta-debugging shrinker — plus a
ready-to-paste regression test stub.

* :mod:`repro.fuzz.sample` — the unbounded, seed-deterministic spec
  stream (lossy × adaptive × workload grids over both backends);
* :mod:`repro.fuzz.farm` — :class:`FuzzFarm`, the budgeted coordinator
  over the sweep executor;
* :mod:`repro.fuzz.corpus` — the JSON corpus and its record schema;
* :mod:`repro.fuzz.shrink` — the shrinker and regression-stub renderer;
* :mod:`repro.fuzz.cli` — the ``repro-fuzz`` console script
  (``python -m repro.fuzz`` from a checkout).
"""

from repro.fuzz.corpus import (
    CATEGORIES,
    DEFAULT_TRANSIENT_CAP,
    RECORD_SCHEMA_VERSION,
    TRANSIENT_CATEGORIES,
    Corpus,
    CorpusRecord,
    validate_record_data,
)
from repro.fuzz.farm import FuzzFarm, FuzzReport
from repro.fuzz.sample import stream_fuzz_specs
from repro.fuzz.shrink import (
    ShrinkResult,
    ShrinkStep,
    conformance_evaluator,
    oracle_evaluator,
    regression_stub,
    shrink_failing_spec,
)

__all__ = [
    "CATEGORIES",
    "TRANSIENT_CATEGORIES",
    "DEFAULT_TRANSIENT_CAP",
    "RECORD_SCHEMA_VERSION",
    "Corpus",
    "CorpusRecord",
    "validate_record_data",
    "FuzzFarm",
    "FuzzReport",
    "stream_fuzz_specs",
    "ShrinkResult",
    "ShrinkStep",
    "oracle_evaluator",
    "conformance_evaluator",
    "regression_stub",
    "shrink_failing_spec",
]
