"""Aggregation helpers for the evaluation benchmarks.

Table 1 and Figs. 7–10 of the paper report, for every modification, the
*relative variation* (in percent) of latency and network consumption with
respect to a reference configuration, summarized as box plots (95%
interval, quartiles and median).  This module implements those
aggregations on lists of per-run measurements.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def relative_variation_percent(
    value: Optional[float], reference: Optional[float]
) -> Optional[float]:
    """Relative variation ``(value - reference) / reference`` in percent.

    A negative value means ``value`` improves on (is lower than) the
    reference, matching the sign convention of Table 1.  Either input may
    be ``None`` — a missing measurement, e.g. a latency mean over a run
    that delivered nothing — in which case the variation is ``None`` too
    rather than a ``TypeError``.
    """
    if value is None or reference is None:
        return None
    if reference == 0:
        raise ValueError("reference value must be non-zero")
    return 100.0 * (value - reference) / reference


@dataclass(frozen=True)
class BoxPlotStats:
    """The five summary statistics reported by the paper's box plots."""

    low: float  # 2.5th percentile (lower bound of the 95% interval)
    q1: float
    median: float
    q3: float
    high: float  # 97.5th percentile
    count: int

    def as_row(self) -> Tuple[float, float, float, float, float]:
        """The statistics as the 5-tuple printed in Figs. 7–10."""
        return (self.low, self.q1, self.median, self.q3, self.high)

    def format(self, precision: int = 1) -> str:
        """Render like the bracketed annotations of Figs. 7–10."""
        values = ", ".join(f"{v:.{precision}f}" for v in self.as_row())
        return f"[{values}]"


def _percentile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending list, linearly interpolated.

    The definition (and the rounding) of ``numpy.percentile``'s default
    method: position ``q / 100 * (n - 1)``, interpolated between the two
    neighbouring order statistics from whichever is nearer.
    """
    position = q / 100.0 * (len(ordered) - 1)
    index = int(position)
    below = ordered[index]
    above = ordered[min(index + 1, len(ordered) - 1)]
    weight = position - index
    if weight >= 0.5:
        return above - (above - below) * (1.0 - weight)
    return below + (above - below) * weight


def boxplot_stats(values: Sequence[float]) -> BoxPlotStats:
    """Compute the box-plot summary used by Figs. 7–10."""
    if not values:
        raise ValueError("cannot summarize an empty list of values")
    ordered = sorted(float(value) for value in values)
    low, q1, median, q3, high = (
        _percentile(ordered, q) for q in (2.5, 25.0, 50.0, 75.0, 97.5)
    )
    return BoxPlotStats(
        low=low, q1=q1, median=median, q3=q3, high=high, count=len(ordered)
    )


def variation_range(values: Sequence[float]) -> Tuple[float, float]:
    """The ``[min, max]`` variation interval reported in Table 1."""
    if not values:
        raise ValueError("cannot summarize an empty list of values")
    return (float(min(values)), float(max(values)))


def summarize_variations(
    measured: Mapping[str, Sequence[float]],
    reference: Mapping[str, Sequence[float]],
) -> Dict[str, Tuple[float, float]]:
    """Per-key ``[min, max]`` relative variations of paired measurements.

    ``measured`` and ``reference`` map an experiment key (for instance a
    ``(N, k, f)`` tuple rendered as a string) to lists of values; each
    measured value is compared with the reference value of the same key
    and position.
    """
    variations: Dict[str, List[float]] = {}
    for key, values in measured.items():
        refs = reference.get(key)
        if not refs:
            continue
        pairs = zip(values, refs)
        computed = (
            relative_variation_percent(value, ref) for value, ref in pairs if ref
        )
        variations[key] = [v for v in computed if v is not None]
    return {key: variation_range(vals) for key, vals in variations.items() if vals}


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (convenience wrapper for benchmark scripts)."""
    data = list(values)
    if not data:
        raise ValueError("cannot average an empty list")
    return statistics.fmean(data)


def median(values: Iterable[float]) -> float:
    """Median (convenience wrapper for benchmark scripts)."""
    data = list(values)
    if not data:
        raise ValueError("cannot take the median of an empty list")
    return float(statistics.median(data))


__all__ = [
    "relative_variation_percent",
    "BoxPlotStats",
    "boxplot_stats",
    "variation_range",
    "summarize_variations",
    "mean",
    "median",
]
