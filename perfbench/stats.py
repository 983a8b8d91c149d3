"""Arithmetic of the benchmark harness: medians, tail percentiles, span
self time and failure counting.

Kept free of numpy and of the library so that the harness tests
(``perfbench/test_harness.py``) exercise exactly the code the benchmark
reports with.
"""

from __future__ import annotations

import math
import statistics


def median(samples) -> float:
    """Median of a non-empty sample (mean of the two middle values)."""
    xs = list(samples)
    if not xs:
        raise ValueError("median of an empty sample")
    return float(statistics.median(xs))


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile: the smallest sample with at least
    ``q`` percent of the sample at or below it."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(xs))
    return float(xs[rank - 1])


#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


def tail_percentile(samples, q: float) -> tuple[float, int]:
    """The ``q``-th percentile and the number of samples strictly beyond
    it; raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples lie
    beyond, because such a tail value rests on too few observations."""
    xs = list(samples)
    value = percentile(xs, q)
    beyond = sum(1 for x in xs if x > value)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it "
            f"(need {MIN_BEYOND})")
    return value, beyond


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of ``[start, end]`` that its child
    spans cover.  Children are ``(start, end)`` pairs; overlapping
    children are counted once and parts outside the parent are clipped."""
    covered = 0.0
    reach = start
    for c0, c1 in sorted(children):
        c0, c1 = max(c0, reach), min(c1, end)
        if c1 > c0:
            covered += c1 - c0
            reach = c1
    return (end - start) - covered


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median, the way the
    benchmark's steadiness is judged (``statistics.quantiles(n=4)``)."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / q2 if q2 else math.inf


class Tally:
    """Attempted / failed request counts.

    A request counts as failed when it raised, came back as a typed
    error, or returned a result that did not pass verification; every
    attempt is counted exactly once.
    """

    OUTCOMES = ("ok", "error", "typed_error", "unverified")

    def __init__(self):
        self.counts = {k: 0 for k in self.OUTCOMES}

    def record(self, outcome: str) -> None:
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
