import math

import numpy as np
import pytest

from mvipkg.errors import DataError
from mvipkg.stats import (LEVEL, PairedSample, bootstrap_median_diff_ci,
                          sign_test, significance_decision)


def exact_two_sided_p(k, n):
    """Sign-test p-value by direct binomial enumeration."""
    pmf = [math.comb(n, i) * 0.5 ** n for i in range(n + 1)]
    lower = sum(pmf[: k + 1])
    upper = sum(pmf[k:])
    return min(1.0, 2.0 * min(lower, upper))


# ---------------------------------------------------------------------------
# paired samples
# ---------------------------------------------------------------------------

def test_paired_sample_validation():
    with pytest.raises(DataError):
        PairedSample(np.zeros(3), np.zeros(4))
    with pytest.raises(DataError):
        PairedSample(np.zeros(0), np.zeros(0))
    with pytest.raises(DataError):
        PairedSample(np.array([1.0, np.nan]), np.zeros(2))
    with pytest.raises(DataError):
        PairedSample(np.array([1.0, np.inf]), np.zeros(2))


def test_differences():
    s = PairedSample(np.array([3.0, 1.0]), np.array([1.0, 2.0]))
    np.testing.assert_array_equal(s.differences(), [2.0, -1.0])


# ---------------------------------------------------------------------------
# sign test against full enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 13))
def test_sign_test_matches_enumeration(n):
    # every possible positive count k for every n up to 12
    for k in range(n + 1):
        d = np.array([1.0] * k + [-1.0] * (n - k))
        a = d
        b = np.zeros(n)
        p = sign_test(PairedSample(a, b))
        assert p == pytest.approx(exact_two_sided_p(k, n), rel=1.0e-12), (n, k)


def test_sign_test_drops_zero_differences():
    a = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    b = np.zeros(5)
    # the two ties are discarded: effective n = 3, k = 3
    assert sign_test(PairedSample(a, b)) == \
        pytest.approx(exact_two_sided_p(3, 3), rel=1.0e-12)


def test_sign_test_all_zero_gives_one():
    # no nonzero difference is no evidence of one: p = 1, exactly
    assert sign_test(PairedSample(np.ones(4), np.ones(4))) == 1.0
    # one nonzero difference among zeros is a test on n = 1
    assert sign_test(PairedSample(np.array([1.0, 2.0, 3.0]),
                                  np.array([1.0, 2.0, 2.5]))) == 1.0


def test_sign_test_symmetric():
    a = np.array([1.0, 2.0, 3.0, -1.0])
    b = np.zeros(4)
    assert sign_test(PairedSample(a, b)) == \
        pytest.approx(sign_test(PairedSample(b, a)), rel=1.0e-12)


def test_sign_test_magnitudes_irrelevant():
    b = np.zeros(5)
    p1 = sign_test(PairedSample(np.array([0.1, 0.2, 0.3, -0.4, 0.5]), b))
    p2 = sign_test(PairedSample(np.array([10.0, 20.0, 30.0, -4.0, 50.0]), b))
    assert p1 == p2


# ---------------------------------------------------------------------------
# bootstrap interval
# ---------------------------------------------------------------------------

def test_bootstrap_constant_shift_degenerates():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(20)
    a = b + 0.37
    lo, hi = bootstrap_median_diff_ci(PairedSample(a, b), n_boot=500, seed=1)
    assert lo == pytest.approx(0.37, abs=1.0e-12)
    assert hi == pytest.approx(0.37, abs=1.0e-12)


def test_bootstrap_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30) + 0.5
    b = rng.standard_normal(30)
    s = PairedSample(a, b)
    assert bootstrap_median_diff_ci(s, n_boot=200, seed=3) == \
        bootstrap_median_diff_ci(s, n_boot=200, seed=3)
    assert bootstrap_median_diff_ci(s, n_boot=200, seed=3) != \
        bootstrap_median_diff_ci(s, n_boot=200, seed=4)


def test_bootstrap_interval_ordered_and_covers_clear_shift():
    rng = np.random.default_rng(5)
    b = rng.standard_normal(60)
    a = b + 2.0 + 0.1 * rng.standard_normal(60)
    lo, hi = bootstrap_median_diff_ci(PairedSample(a, b), n_boot=2000, seed=0)
    assert lo <= hi
    assert lo > 0.0  # unambiguous improvement excludes zero
    assert lo < 2.0 < hi or abs(hi - 2.0) < 0.3


def _one_shot_ci(sample, n_boot, seed):
    """The interval from a single n_boot x n draw of the indices."""
    idx = np.random.default_rng(seed).integers(0, sample.a.size, size=(n_boot, sample.a.size))
    stat = np.median(sample.a[idx], axis=1) - np.median(sample.b[idx], axis=1)
    tail = 0.5 * (1.0 - LEVEL)
    lo, hi = np.quantile(stat, [tail, 1.0 - tail])
    return float(lo), float(hi)


@pytest.mark.parametrize("n", (3, 7, 20))
@pytest.mark.parametrize("n_boot", (1, 1023, 1024, 1025, 2049))
def test_blocked_bootstrap_matches_one_shot_draw(n, n_boot):
    # replicates drawn and reduced in blocks give the one-shot interval to the bit
    rng = np.random.default_rng(n + n_boot)
    sample = PairedSample(rng.standard_normal(n), rng.standard_normal(n))
    assert bootstrap_median_diff_ci(sample, n_boot=n_boot, seed=2) == \
        _one_shot_ci(sample, n_boot, seed=2)


# ---------------------------------------------------------------------------
# joint decision
# ---------------------------------------------------------------------------

def test_decision_requires_both_criteria():
    rng = np.random.default_rng(8)
    base = rng.standard_normal(40)
    clear = PairedSample(base + 1.0, base)           # both criteria fire
    tied = PairedSample(base, base.copy())           # identical: p = 1
    report = significance_decision("m", {"clear": clear, "tied": tied},
                                   alpha=0.05, n_boot=500, seed=0)
    assert report.comparisons["clear"]["significant"] is True
    assert report.comparisons["tied"]["p_value"] == 1.0
    assert report.comparisons["tied"]["significant"] is False
    assert report.overall is False


def test_decision_overall_true_when_all_clear():
    rng = np.random.default_rng(9)
    base = rng.standard_normal(50)
    others = {
        "x": PairedSample(base + 0.8, base),
        "y": PairedSample(base + 1.2, base + 0.1 * rng.standard_normal(50)),
    }
    report = significance_decision("m", others, alpha=0.05, n_boot=1000, seed=2)
    assert report.overall is True
    assert all(c["significant"] for c in report.comparisons.values())


def test_decision_no_competitors():
    report = significance_decision("m", {}, alpha=0.05, n_boot=100)
    assert report.overall is False
    assert report.comparisons == {}


def test_decision_deterministic_under_dict_order():
    rng = np.random.default_rng(10)
    base = rng.standard_normal(30)
    sa = PairedSample(base + 0.5, base)
    sb = PairedSample(base + 0.7, base)
    r1 = significance_decision("m", {"a": sa, "b": sb}, n_boot=300, seed=5)
    r2 = significance_decision("m", {"b": sb, "a": sa}, n_boot=300, seed=5)
    for name in ("a", "b"):
        assert r1.comparisons[name] == r2.comparisons[name]


def test_decision_near_tie_not_significant():
    rng = np.random.default_rng(11)
    base = rng.standard_normal(30)
    noisy = PairedSample(base + 0.01 * rng.standard_normal(30), base)
    report = significance_decision("m", {"n": noisy}, alpha=0.05, n_boot=500)
    assert report.comparisons["n"]["significant"] is False
    assert report.overall is False
