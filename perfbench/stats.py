"""Latency summaries that refuse to report an unsupported tail.

Two rules come from an earlier attempt at this benchmark whose p99s did
not repeat between identical runs:

* a percentile is reported only when at least ``MIN_BEYOND`` samples lie
  beyond it (:func:`percentile`), so a p99 needs 1000 samples;
* a percentile must not sit on the boundary between two cost modes of
  one op kind (:func:`boundary_modes`).  When a rare slow mode meets a
  common fast one right at the percentile, the percentile's value is
  decided by the slow mode's share, which varies from run to run.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10

#: half-width of the rank window examined around a percentile, as a
#: share of the sample count (at least ``MIN_WINDOW`` samples)
WINDOW_SHARE = 0.005
MIN_WINDOW = 5

#: a percentile is inside one mode when one mode supplies at least this
#: share of the samples in its rank window
DOMINANT_SHARE = 0.8


class TooFewSamples(ValueError):
    """The percentile would rest on fewer than ``MIN_BEYOND`` samples."""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ascending ``sorted_values`` by
    the nearest-rank rule, refusing when fewer than ``MIN_BEYOND``
    samples lie beyond it."""
    n = len(sorted_values)
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile {q!r} outside (0, 1)")
    rank = max(math.ceil(q * n), 1)  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted_values[rank - 1]


def boundary_modes(
    samples: Sequence[Tuple[float, str]], q: float
) -> Dict[str, float]:
    """The cost modes around the ``q``-quantile of labelled samples.

    ``samples`` are ``(latency, mode)`` pairs of one op kind, where the
    mode names the cost class the generator expects for the op (for
    example a stored read against a derived one).  Returns an empty dict
    when one mode supplies at least ``DOMINANT_SHARE`` of the samples in
    the rank window around the percentile -- the percentile is inside
    that mode.  Otherwise returns each mode's share of the window: the
    percentile sits on a boundary, and its value depends on the modes'
    shares."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    rank = max(math.ceil(q * n), 1) - 1
    half = max(MIN_WINDOW, int(WINDOW_SHARE * n))
    window = ordered[max(rank - half, 0): rank + half + 1]
    counts: Dict[str, int] = {}
    for _, mode in window:
        counts[mode] = counts.get(mode, 0) + 1
    if max(counts.values()) >= DOMINANT_SHARE * len(window):
        return {}
    return {mode: count / len(window) for mode, count in sorted(counts.items())}


def count(by_mode: Dict[str, Sequence[float]]) -> int:
    """Samples of one op kind, kept per cost mode, over all its modes."""
    return sum(len(values) for values in by_mode.values())


def labelled(by_mode: Dict[str, Sequence[float]]) -> List[Tuple[float, str]]:
    """One op kind's samples, kept per cost mode, as ``(seconds, mode)``
    pairs."""
    return [(value, mode) for mode, values in by_mode.items() for value in values]


def summarize(samples: Sequence[Tuple[float, str]]) -> Dict[str, float]:
    """p50 and p99 in milliseconds of one op kind's ``(seconds, mode)``
    samples."""
    values = sorted(latency for latency, _ in samples)
    return {
        "p50_ms": percentile(values, 0.50) * 1e3,
        "p99_ms": percentile(values, 0.99) * 1e3,
    }


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` of repeated-run values,
    with the quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else math.inf
