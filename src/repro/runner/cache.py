"""Scenario-hash result cache shared by every sweep executor.

One cache entry per scenario hash (see
:meth:`~repro.scenarios.spec.ScenarioSpec.scenario_hash`), stored as a
pickled ``(version, backend, result)`` record written atomically — a
temp file unique to the writing process renamed into place, so many
worker processes on the same cache directory never interleave bytes.

In the distributed executor the cache directory doubles as the
coordination layer: workers persist every result they compute, the
coordinator re-checks the cache at dispatch time, and a cell cached by
*any* participant is never dispatched again (including across separate
sweeps sharing the directory).

Loading is paranoid by design — a cache can only ever save work, never
corrupt a sweep:

* unreadable entries (truncated files, foreign pickles, records from a
  code version whose classes moved) degrade to a re-run;
* the record ``version`` must match :data:`CACHE_VERSION`;
* the record's ``backend`` tag — the backend that *executed* the stored
  result — must match the requesting spec's backend, so a crafted or
  misplaced entry cannot satisfy a simulation cell with asyncio output
  (the cross-backend collision fix; the spec-equality check alone would
  accept an entry whose pickled spec was rewritten to match);
* the stored result's spec must equal the requesting spec, so a hash
  collision degrades to a re-run as well.
"""

from __future__ import annotations

import itertools
import os
import pickle
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.scenarios.engine import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

#: Bump when the pickled record layout changes to invalidate stale caches.
#: v2: ScenarioSpec grew the ``backend`` field.
#: v3: the record carries the executing backend, verified on load.
#: v4: ScenarioSpec grew the ``workload`` field and ScenarioResult the
#:     per-broadcast ``outcomes`` — pre-v4 records lack both and must
#:     miss cleanly (the version check below runs before any attribute
#:     of the stored result is touched).
#: v5: DelaySpec grew the loss fields (``loss``, ``burst_period_ms``,
#:     ``burst_len_ms``) and ScenarioSpec the ``adaptive`` faults — a
#:     pre-v5 record's spec lacks them, so spec equality against a
#:     current-build spec would be meaningless; the version check makes
#:     it miss cleanly before any field is compared.
CACHE_VERSION = 5

#: Disambiguates concurrent same-process writers of one cache slot
#: (``next`` on a C-implemented counter is atomic under the GIL).
_TMP_COUNTER = itertools.count()


class ResultCache:
    """Per-cell result persistence keyed by scenario hash.

    ``cache_dir=None`` disables the cache: every operation becomes a
    no-op, which lets executors hold one unconditional instance.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    @property
    def enabled(self) -> bool:
        return self.cache_dir is not None

    def path_for(self, spec: ScenarioSpec) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.scenario_hash()}.pkl"

    def load(self, spec: ScenarioSpec) -> Optional[ScenarioResult]:
        """The cached result for ``spec``, or ``None`` to mean re-run."""
        path = self.path_for(spec)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                version, backend, result = pickle.load(handle)
        except Exception:
            # A missing file is the ordinary miss.  Any unreadable entry
            # — truncated file, foreign pickle, a pre-v3 record with a
            # different tuple shape — degrades to a re-run as well,
            # never to a failed sweep.
            return None
        if version != CACHE_VERSION or not isinstance(result, ScenarioResult):
            # Older schema versions (e.g. a v3 record unpickled by a
            # build whose ScenarioResult gained workload fields) are
            # skipped *before* the stored result is inspected further —
            # touching attributes of a stale-layout instance could raise.
            return None
        if backend != spec.backend:
            # Cross-backend collision: the entry was produced by another
            # execution backend and must not satisfy this cell.
            return None
        if result.spec != spec:
            # Hash collision or stale spec layout: recompute.
            return None
        return result

    def store(self, result: ScenarioResult) -> None:
        """Persist ``result`` under its scenario hash (atomic, idempotent)."""
        path = self.path_for(result.spec)
        if path is None:
            return
        # The temp name embeds the pid and a process-local counter so
        # concurrent writers — other processes sharing the directory,
        # and this process's own thread pool storing two same-hash
        # results at once — never interleave bytes in one .tmp file.
        tmp = path.with_suffix(f".{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
        try:
            try:
                handle = open(tmp, "wb")
            except FileNotFoundError:
                # First store into this directory (or it was removed).
                path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(tmp, "wb")
            with handle:
                pickle.dump(
                    (CACHE_VERSION, result.spec.backend, result),
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp, path)
        except BaseException:
            # Don't litter the (possibly long-lived, shared) directory
            # with half-written temp files on ENOSPC, pickling errors or
            # cancellation; a process killed mid-write still leaks one,
            # which paranoid loading simply never reads.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def partition_cached(
    cells: Sequence[ScenarioSpec], cache: ResultCache
) -> Tuple[List[Optional[ScenarioResult]], List[int], int]:
    """Split a sweep into served-from-cache and still-pending cells.

    Returns ``(results, pending, hits)``: the results list in cell order
    with cached entries filled in, the indices still needing execution,
    and the hit count.  The distributed coordinator starts a run here;
    :class:`~repro.runner.parallel.SweepExecutor` looks cells up one by
    one as its stream reads them.
    """
    results: List[Optional[ScenarioResult]] = [None] * len(cells)
    pending: List[int] = []
    hits = 0
    for index, spec in enumerate(cells):
        cached = cache.load(spec)
        if cached is not None:
            results[index] = cached
            hits += 1
        else:
            pending.append(index)
    return results, pending, hits


__all__ = ["CACHE_VERSION", "ResultCache", "partition_cached"]
