"""Small-sample statistics for experiment reporting.

The paper averages over 5-10 topology draws; honest reporting at such
sample sizes needs confidence intervals, so the harnesses use Student-t
intervals. The t quantiles are embedded (two-sided 95%) to keep the
runtime dependency-free; beyond 30 degrees of freedom the normal
approximation is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.util.errors import ReproError

#: two-sided 95% Student-t critical values, indexed by degrees of freedom
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}
_Z95 = 1.960


def t_critical_95(degrees_of_freedom: int) -> float:
    """Two-sided 95% t critical value (normal approximation past df=30)."""
    if degrees_of_freedom < 1:
        raise ReproError("degrees_of_freedom must be >= 1")
    return _T95.get(degrees_of_freedom, _Z95)


@dataclass(frozen=True)
class Summary:
    """Sample summary with a 95% confidence interval on the mean."""

    count: int
    mean: float
    std: float
    ci95: float

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.ci95:.2f} (n={self.count})"


def summarize(values: Sequence[float]) -> Summary:
    """Mean, sample std, and 95% CI half-width of *values*."""
    n = len(values)
    if n == 0:
        raise ReproError("cannot summarize an empty sample")
    mean = sum(values) / n
    if n == 1:
        return Summary(count=1, mean=mean, std=0.0, ci95=float("inf"))
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(variance)
    ci95 = t_critical_95(n - 1) * std / math.sqrt(n)
    return Summary(count=n, mean=mean, std=std, ci95=ci95)
