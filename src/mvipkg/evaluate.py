"""Held-out evaluation of fitted Gaussian posteriors.

A posterior is any Gaussian read by ``mean``, ``root`` (R, cov = R R') and
``dim``: a family's ``FitResult`` or the ``LaplaceResult`` itself.

The central quantity is the Monte Carlo log predictive density: draw weights
w_s = mean + R z_s from the posterior, average the test-set likelihood over
the draws in probability space, take the log. The average is computed with
log-sum-exp, so only the log-likelihoods themselves ever need to be finite.

Conventions worth stating once:

* ``lpd`` is the *joint* test-set quantity ln (1/S) sum_s p(D_test | w_s).
  Classification metrics report it as is. Regression metrics divide it by
  the number of test points N. That is the joint lpd over N, not the
  pointwise mean_n ln (1/S) sum_s p(y_n | w_s) that published regression
  benchmarks quote, and the two differ in general.
* The base draws z are the caller's: ``bench.run_split`` draws them once per
  split and every method is scored on them.
* The fit curve is exact and the 2-D demo KL a Gauss-Hermite sum: no draws.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericalError
from .laplace import LaplaceResult
from .variational import FitResult

_KL_NODES = 256   # Gauss-Hermite nodes per axis of the demo KL


def log_mean_exp(values: np.ndarray) -> float:
    """log of the mean of exp(values).

    Returns -inf when every value is -inf, and raises NumericalError on a
    NaN or +inf value, which no likelihood can give.
    """
    values = np.asarray(values, dtype=float)
    m = np.max(values)
    if np.isnan(m) or m == np.inf:   # max propagates NaN
        raise NumericalError(f"a held-out log likelihood is {m}; the draws "
                             "cannot be averaged")
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(float(np.exp(values - m).mean())))


def classification_metrics(posterior: FitResult | LaplaceResult, model, X_test,
                           y_test, z: np.ndarray) -> dict:
    """``{"lpd", "error_rate"}``, the joint lpd and error rate, on the base draws z.

    Class probabilities are Monte Carlo averages of the per-draw predictive
    probabilities; they and the per-draw likelihoods come from one ``score``
    pass of the test rows' model over the draws mean + R z_s. Binary labels
    are predicted 1 only above probability 0.5 (ties fall to class 0);
    multiclass predictions take the first argmax, which also resolves ties
    toward the lowest class index.
    """
    mean_probs, ll = model.with_rows(X_test, y_test).score(posterior.mean, posterior.root, z)
    y = np.asarray(y_test)
    if mean_probs.ndim == 1:
        predicted = (mean_probs > 0.5).astype(int)
        truth = y.astype(int).ravel()
    else:
        predicted = mean_probs.argmax(axis=1)
        truth = np.atleast_2d(y).argmax(axis=1)
    return {"lpd": log_mean_exp(ll), "error_rate": float(np.mean(predicted != truth))}


def regression_metrics(posterior: FitResult | LaplaceResult, model, X_test, y_test,
                       z: np.ndarray) -> dict:
    """``{"lpd", "mse"}`` from one ``score`` pass of the test rows' model over
    the draws mean + R z_s: the joint lpd over the number of test points (not
    the pointwise mean lpd), and the MSE of the Monte Carlo mean prediction."""
    preds, ll = model.with_rows(X_test, y_test).score(posterior.mean, posterior.root, z)
    y = np.asarray(y_test, dtype=float).ravel()
    return {"lpd": log_mean_exp(ll) / y.size, "mse": float(np.mean((y - preds) ** 2))}


def predictive_curve(posterior: FitResult | LaplaceResult, model,
                     x_grid) -> tuple[np.ndarray, np.ndarray]:
    """Exact pointwise mean and sd of a regression function f = phi(x)'w on a
    grid: under w ~ N(mean, R R'), f(x) ~ N(phi'mean, ||R'phi||^2). One
    product of [mean; R'] with phi' of the grid's model gives both."""
    X = np.asarray(x_grid, dtype=float).reshape(len(x_grid), -1)
    f = np.vstack([posterior.mean, posterior.root.T]) @ model.with_rows(X, np.zeros(len(X))).phi.T
    return f[0], np.linalg.norm(f[1:], axis=0)


def kl_to_target_2d(posterior: FitResult | LaplaceResult, target) -> float:
    """KL(q || target) = -H(q) - E_q[ln target] for a 2-D Gaussian q.

    H(q) = 1 + ln 2 pi + ln|det R| in closed form. E_q[ln target] is a tensor
    Gauss-Hermite sum over ``_KL_NODES`` nodes per axis at the points
    mean + R z, exact for a log density polynomial in z of degree below
    2 ``_KL_NODES`` per coordinate. ``target`` needs a batch ``values``, its
    normalised log density over (G, 2) points.
    """
    # numpy.polynomial stays out of the package's import
    from numpy.polynomial.hermite_e import hermegauss

    if posterior.dim != 2:
        raise ConfigError("quadrature KL is only defined for 2-D posteriors")
    z, w = hermegauss(_KL_NODES)   # each axis's weights sum to sqrt(2 pi)
    zz = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    log_p = target.values(posterior.mean + zz @ posterior.root.T)
    expected_log_p = np.outer(w, w).ravel() @ log_p / (2.0 * np.pi)
    entropy = 1.0 + np.log(2.0 * np.pi) + np.linalg.slogdet(posterior.root)[1]
    return float(-entropy - expected_log_p)
