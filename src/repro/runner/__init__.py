"""Sweep executors, result cache and protocol configurations.

A paper measurement (Sec. 7.1) is one
:class:`~repro.scenarios.spec.ScenarioSpec` cell run by
:func:`~repro.scenarios.engine.run_scenario`; this package fans cells
out — inline or over a process pool (:mod:`~repro.runner.parallel`),
across TCP-connected worker hosts (:mod:`~repro.runner.distributed`) —
caches their results by scenario hash (:mod:`~repro.runner.cache`) and
names the protocol families and modification sets the cells select
(:mod:`~repro.runner.configs`).
"""

from repro.runner.cache import CACHE_VERSION, ResultCache, partition_cached
from repro.runner.configs import (
    PROTOCOL_CONFIGURATIONS,
    modification_set_for,
    protocol_factory,
    protocol_family,
)
from repro.runner.distributed import (
    DistributedSweepExecutor,
    launch_local_workers,
    run_distributed_sweep,
    run_worker,
    worker_main,
)
from repro.runner.parallel import StreamedResult, SweepExecutor, run_sweep

__all__ = [
    "SweepExecutor",
    "StreamedResult",
    "run_sweep",
    "DistributedSweepExecutor",
    "run_distributed_sweep",
    "run_worker",
    "launch_local_workers",
    "worker_main",
    "ResultCache",
    "partition_cached",
    "CACHE_VERSION",
    "PROTOCOL_CONFIGURATIONS",
    "modification_set_for",
    "protocol_factory",
    "protocol_family",
]
