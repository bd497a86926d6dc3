"""Sample summaries and two-sample law comparison.

The Kolmogorov-Smirnov machinery is small enough to carry inline: the
statistic is the sup distance between the two empirical CDFs evaluated on
the pooled sample, and the decision uses the asymptotic threshold
c(alpha) * sqrt((n+m)/(n m)) with c(alpha) = sqrt(-ln(alpha/2)/2), which
at the 1 percent level is 1.6276.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def summarize(samples) -> tuple[float, float, float]:
    """(mean, variance, standard error); variance with ddof=1."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty sample")
    if x.size == 1:
        return float(x[0]), 0.0, 0.0
    var = float(np.var(x, ddof=1))
    return float(np.mean(x)), var, float(np.sqrt(var / x.size))


def ks_statistic(a, b) -> float:
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, m: int, alpha: float = 0.01) -> float:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    return float(c * np.sqrt((n + m) / (n * m)))


@dataclass(frozen=True)
class LawComparison:
    mean_gap: float
    joint_se: float
    ks_stat: float
    ks_threshold: float
    ks_pass: bool


def compare_laws(samples_a, samples_b) -> LawComparison:
    """Mean gap with its joint standard error, plus the KS verdict at 1 percent.

    Samples whose pooled spread is below the floating-point resolution
    floor (1e-9 relative) pass the KS test outright: at that scale the
    statistic measures rounding noise, not a law discrepancy.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    mean_a, _, se_a = summarize(a)
    mean_b, _, se_b = summarize(b)
    ks = ks_statistic(a, b)
    thr = ks_threshold(a.size, b.size)
    pooled = np.concatenate([a, b])
    span = float(pooled.max() - pooled.min())
    degenerate = span <= 1e-9 * (1.0 + float(np.max(np.abs(pooled))))
    return LawComparison(abs(mean_a - mean_b), float(np.hypot(se_a, se_b)),
                         ks, thr, bool(degenerate or ks <= thr))
