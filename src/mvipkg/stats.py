"""Paired significance machinery for method comparisons.

Two ingredients, combined conservatively: an exact two-sided sign test on the
paired differences, and a seeded percentile bootstrap interval for the median
difference. A method is declared significantly better than a competitor only
when the sign test rejects at level alpha *and* the 95% bootstrap interval
excludes zero; a benchmark winner is flagged overall only when that holds
against every competitor. Scores are plain arrays with one value per split,
paired by position.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError

LEVEL = 0.95   # confidence of the bootstrap interval
# Bootstrap replicates drawn and reduced at once: the memory is a block's
# index and gather arrays, not n_boot x n of them.
_BOOT_BLOCK = 1024


def sign_test(d: np.ndarray) -> float:
    """Exact two-sided sign test p-value for median(d) = 0, d the paired
    differences a - b.

    Zero differences carry no sign information and are discarded; if all
    differences are zero there is no evidence of a difference and p = 1.
    p = 2 min(P[X <= k], P[X >= k]) under Binomial(n, 1/2), clipped to 1.
    """
    d = d[d != 0.0]
    n = d.size
    k = int((d > 0).sum())
    # tails as exact integer counts over 2^n outcomes; one true division of
    # Python ints rounds the p-value correctly
    lower = sum(math.comb(n, i) for i in range(k + 1))   # 2^n P[X <= k]
    upper = sum(math.comb(n, i) for i in range(k, n + 1))  # 2^n P[X >= k]
    return min(1.0, 2 * min(lower, upper) / 2**n)


def bootstrap_median_diff_ci(a: np.ndarray, b: np.ndarray, n_boot: int = 10_000,
                             seed: int = 0) -> tuple[float, float]:
    """Seeded percentile bootstrap interval for median(a) - median(b), at
    confidence ``LEVEL``.

    Resampling is paired: each bootstrap replicate draws split indices with
    replacement and applies them to both conditions, so a constant offset
    a = b + c yields the degenerate interval [c, c]. Replicates are drawn and
    reduced ``_BOOT_BLOCK`` at a time, the same stream as one n_boot x n draw.
    """
    rng = np.random.default_rng(seed)
    n = a.size
    stat = np.empty(n_boot)
    for start in range(0, n_boot, _BOOT_BLOCK):
        idx = rng.integers(0, n, size=(min(_BOOT_BLOCK, n_boot - start), n))
        stat[start:start + len(idx)] = np.median(a[idx], axis=1) - np.median(b[idx], axis=1)
    tail = 0.5 * (1.0 - LEVEL)
    lo, hi = np.quantile(stat, [tail, 1.0 - tail])
    return float(lo), float(hi)


def significance_decision(best: np.ndarray, others: dict[str, np.ndarray],
                          alpha: float = 0.05, n_boot: int = 10_000,
                          seed: int = 0) -> dict:
    """Joint decision: is the best method significantly better than every
    competitor?

    ``best`` holds the best method's per-split scores and ``others`` maps
    competitor names to theirs, split by split. Every array must match
    ``best``'s length, hold at least one value and be finite, or DataError
    is raised. Per pair, significance requires the sign test to reject
    at ``alpha`` and the bootstrap interval to exclude zero. Bootstrap seeds
    derive deterministically from ``seed`` and the competitor's position in
    sorted name order. Returns ``{"comparisons", "overall_significant"}``:
    each competitor's p-value, interval and verdict, and whether the best
    method wins against all of them.
    """
    best = np.asarray(best, dtype=float).ravel()
    others = {name: np.asarray(v, dtype=float).ravel() for name, v in others.items()}
    for v in (best, *others.values()):
        if v.size != best.size or v.size == 0 or not np.isfinite(v).all():
            raise DataError("paired scores need equal, nonzero lengths and finite values")
    comparisons = {}
    for j, (name, other) in enumerate(sorted(others.items())):
        p_value = sign_test(best - other)
        lo, hi = bootstrap_median_diff_ci(best, other, n_boot=n_boot, seed=seed + j)
        comparisons[name] = {
            "p_value": p_value,
            "ci_low": lo,
            "ci_high": hi,
            "significant": p_value < alpha and (lo > 0.0 or hi < 0.0),
        }
    verdicts = [c["significant"] for c in comparisons.values()]
    return {"comparisons": comparisons,
            "overall_significant": bool(verdicts) and all(verdicts)}
