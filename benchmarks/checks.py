"""Correctness checks on mvipkg's reports, computed apart from mvipkg.

Every reference here comes from the data generators' definitions (which the
benchmark reimplements in ``inputs.py``) or from closed forms, never from a
stored copy of an earlier report. A check that fails marks the operation
(one train/test split through all the workload's methods) as failed.
"""

import math

import numpy as np

# Sampling allowance on the MSE floor, in standard deviations of the mean
# of n_test squared noise draws.
MSE_ALLOWANCE_SD = 6.0


def expected_cauchy_lpd(gamma: float, a: float) -> float:
    """E[ln Cauchy(e; 0, gamma)] for e uniform on [-a, a], in closed form."""
    r = a / gamma
    return (-math.log(math.pi * gamma) - math.log1p(r * r)
            + 2.0 - 2.0 * math.atan(r) / r)


def cauchy_oracle_lpd(a: float) -> tuple[float, float]:
    """Best expected lpd of any Cauchy predictive centred on the true curve.

    The maximum over gamma of :func:`expected_cauchy_lpd` sits where
    atan(r) = r / 2 with r = a / gamma; that root is found by bisection.
    Returns (maximum, gamma at the maximum).
    """
    lo, hi = 1.0, 4.0  # atan(r) - r/2 is positive at 1 and negative at 4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.atan(mid) - 0.5 * mid > 0.0:
            lo = mid
        else:
            hi = mid
    gamma = a / (0.5 * (lo + hi))
    return expected_cauchy_lpd(gamma, a), gamma


def mse_floor(a: float, n_test: int) -> float:
    """Irreducible noise variance a^2/3, less the stated sampling allowance.

    For e uniform on [-a, a], Var(e^2) = a^4/5 - a^4/9 = 4 a^4 / 45.
    """
    sd = math.sqrt(4.0 * a**4 / 45.0 / n_test)
    return a * a / 3.0 - MSE_ALLOWANCE_SD * sd


def _finite_lpds(methods: dict) -> list[str]:
    return [f"{m}: lpd {r['lpd']!r} is not finite"
            for m, r in methods.items() if not math.isfinite(r["lpd"])]


def check_cauchy_split(methods: dict, y_test: np.ndarray, a: float) -> list[str]:
    """Per-split properties of the heavy-tail regression suite."""
    problems = _finite_lpds(methods)
    floor = mse_floor(a, y_test.size)
    ceiling = float(np.var(y_test))
    for m, r in methods.items():
        if not r["mse"] >= floor:
            problems.append(f"{m}: mse {r['mse']:.5f} below the noise floor {floor:.5f}")
        if not r["mse"] < ceiling:
            problems.append(f"{m}: mse {r['mse']:.5f} not below the test-target "
                            f"variance {ceiling:.5f}")
    return problems


def check_cauchy_medians(split_methods: list[dict], a: float) -> list[str]:
    """Every method's median lpd over the round is at most the oracle."""
    ceiling, _ = cauchy_oracle_lpd(a)
    problems = []
    for m in split_methods[0] if split_methods else ():
        med = float(np.median([s[m]["lpd"] for s in split_methods]))
        if not med <= ceiling:
            problems.append(f"{m}: median lpd {med:.4f} above the Cauchy oracle "
                            f"{ceiling:.4f}")
    return problems


def check_classification_split(methods: dict, labels_test: np.ndarray,
                               n_classes: int) -> list[str]:
    """Per-split properties of a classification benchmark.

    The error rate must beat always guessing the test split's majority
    class, and the joint lpd must beat a uniform guess, n_test ln(1/K), and
    stay at most zero (a log of probabilities).
    """
    problems = _finite_lpds(methods)
    n_test = labels_test.size
    majority_error = 1.0 - np.bincount(labels_test).max() / n_test
    uniform = n_test * math.log(1.0 / n_classes)
    for m, r in methods.items():
        if not r["error_rate"] < majority_error:
            problems.append(f"{m}: error rate {r['error_rate']:.4f} not below the "
                            f"majority-class error {majority_error:.4f}")
        if not uniform < r["lpd"] <= 0.0:
            problems.append(f"{m}: joint lpd {r['lpd']:.3f} outside "
                            f"({uniform:.3f}, 0]")
    return problems
