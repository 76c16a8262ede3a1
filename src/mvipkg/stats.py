"""Paired significance machinery for method comparisons.

Two ingredients, combined conservatively: an exact two-sided sign test on the
paired differences, and a seeded percentile bootstrap interval for the median
difference. A method is declared significantly better than a competitor only
when the sign test rejects at the given level *and* the bootstrap interval
excludes zero; a benchmark winner is flagged overall only when that holds
against every competitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass
class PairedSample:
    """Matched per-split scores for two conditions."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.a.size != self.b.size or self.a.size == 0:
            raise DataError("paired samples need equal, nonzero lengths")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise DataError("paired samples must be finite")

    def differences(self) -> np.ndarray:
        return self.a - self.b


def sign_test(sample: PairedSample) -> float:
    """Exact two-sided sign test p-value for median(a - b) = 0.

    Zero differences carry no sign information and are discarded; if all
    differences are zero there is no evidence of a difference and p = 1.
    p = 2 min(P[X <= k], P[X >= k]) under Binomial(n, 1/2), clipped to 1.
    """
    d = sample.differences()
    d = d[d != 0.0]
    n = d.size
    k = int((d > 0).sum())
    # tails as exact integer counts over 2^n outcomes; one true division of
    # Python ints rounds the p-value correctly
    lower = sum(math.comb(n, i) for i in range(k + 1))   # 2^n P[X <= k]
    upper = sum(math.comb(n, i) for i in range(k, n + 1))  # 2^n P[X >= k]
    return min(1.0, 2 * min(lower, upper) / 2**n)


def bootstrap_median_diff_ci(sample: PairedSample, n_boot: int = 10_000,
                             level: float = 0.95, seed: int = 0) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for median(a) - median(b).

    Resampling is paired: each bootstrap replicate draws split indices with
    replacement and applies them to both conditions, so a constant offset
    a = b + c yields the degenerate interval [c, c].
    """
    if not 0.0 < level < 1.0:
        raise DataError(f"confidence level must lie in (0, 1), got {level}")
    rng = np.random.default_rng(seed)
    n = sample.a.size
    idx = rng.integers(0, n, size=(n_boot, n))
    stat = np.median(sample.a[idx], axis=1) - np.median(sample.b[idx], axis=1)
    tail = 0.5 * (1.0 - level)
    lo, hi = np.quantile(stat, [tail, 1.0 - tail])
    return float(lo), float(hi)


@dataclass
class SignificanceReport:
    best: str
    alpha: float
    comparisons: dict[str, dict] = field(default_factory=dict)
    overall: bool = False


def significance_decision(best: str, others: dict[str, PairedSample],
                          alpha: float = 0.05, n_boot: int = 10_000,
                          level: float = 0.95, seed: int = 0) -> SignificanceReport:
    """Joint decision: is ``best`` significantly better than every competitor?

    ``others`` maps competitor names to paired samples with the best method's
    scores in ``a``. Per pair, significance requires the sign test to reject
    at ``alpha`` and the bootstrap interval to exclude zero. Bootstrap seeds
    derive deterministically from ``seed`` and the competitor's position in
    sorted name order.
    """
    report = SignificanceReport(best=best, alpha=alpha)
    verdicts = []
    for j, name in enumerate(sorted(others)):
        sample = others[name]
        p_value = sign_test(sample)
        lo, hi = bootstrap_median_diff_ci(sample, n_boot=n_boot, level=level,
                                          seed=seed + j)
        excludes_zero = lo > 0.0 or hi < 0.0
        significant = (p_value < alpha) and excludes_zero
        report.comparisons[name] = {
            "p_value": p_value,
            "ci_low": lo,
            "ci_high": hi,
            "significant": significant,
        }
        verdicts.append(significant)
    report.overall = bool(verdicts) and all(verdicts)
    return report
