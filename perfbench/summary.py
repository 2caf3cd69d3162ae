"""Order statistics shared by the benchmark client and its self-tests."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10
MIN_SAMPLES = TAIL_BEYOND + 1  # the fewest that have a tail


def median(values) -> float:
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample_count), or None when there are too
    few samples for any sample to have TAIL_BEYOND others beyond it.  The
    value is the k-th smallest sample with k = n - TAIL_BEYOND, reported
    as the 100*k/n percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = n - TAIL_BEYOND
    if k < 1:
        return None
    return ordered[k - 1], 100.0 * k / n, n

