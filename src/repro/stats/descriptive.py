"""Boxplot-style descriptive statistics (Fig. 2 presentation).

"Boxes are bound by the first and third quartile, the median is the line in
the box, and the whiskers extend to the extreme values."
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return math.fsum(values) / len(values)


def _sorted_quantile(ordered: Sequence[float], q: float) -> float:
    """``numpy.quantile``'s default linear rule on sorted data, operation
    for operation (index clamping and two-sided lerp included), so the
    result matches it bit for bit."""
    last = len(ordered) - 1
    h = last * q
    lo = hi = last
    t = h + 1  # numpy clamps at the top and weighs from index -1
    if h < last:
        lo = math.floor(h)
        hi = lo + 1
        t = h - lo
    a = ordered[lo]
    d = ordered[hi] - a
    return a + d * t if t < 0.5 else ordered[hi] - d * (1 - t)


def quantile(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    return _sorted_quantile(sorted(map(float, values)), q)


@dataclass(frozen=True, slots=True)
class BoxStats:
    """Five-number summary matching the paper's boxplot convention."""

    low: float       #: whisker: minimum value
    q1: float        #: first quartile (box bottom)
    median: float    #: median (line in the box)
    q3: float        #: third quartile (box top)
    high: float      #: whisker: maximum value
    n: int           #: population size

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def as_row(self) -> dict[str, float]:
        return {
            "low": self.low,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "high": self.high,
            "n": self.n,
        }


def boxplot_stats(values: Sequence[float]) -> BoxStats:
    """Five-number summary with whiskers at the extremes (as in Fig. 2)."""
    if not values:
        raise ValueError("boxplot of empty sequence")
    ordered = sorted(map(float, values))
    return BoxStats(
        low=ordered[0],
        q1=_sorted_quantile(ordered, 0.25),
        median=_sorted_quantile(ordered, 0.5),
        q3=_sorted_quantile(ordered, 0.75),
        high=ordered[-1],
        n=len(ordered),
    )
