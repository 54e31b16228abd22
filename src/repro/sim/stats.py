"""Online statistics used by the metrics layer.

:class:`OnlineStats` implements Welford's single-pass algorithm so that
million-sample latency streams (one entry per I/O op or sync event) cost
O(1) memory; :func:`geomean` is the summary tables' aggregation.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional


class OnlineStats:
    """Single-pass count/mean/variance/min/max accumulator (Welford)."""

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    def add(self, x: float) -> None:
        """Accumulate one sample."""
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); NaN with fewer than two samples."""
        return self._m2 / (self.n - 1) if self.n > 1 else math.nan

    @property
    def stdev(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else math.nan  # NaN-propagating

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OnlineStats n={self.n} mean={self.mean:.3g} sd={self.stdev:.3g}>"


def geomean(xs: Iterable[float]) -> float:
    """Geometric mean; the aggregation the paper's summary tables use.

    All inputs must be positive. An empty input returns NaN.
    """
    logsum = 0.0
    n = 0
    for x in xs:
        if x <= 0:
            raise ValueError(f"geomean requires positive values, got {x}")
        logsum += math.log(x)
        n += 1
    return math.exp(logsum / n) if n else math.nan
