"""Held-out evaluation of fitted Gaussian posteriors.

A posterior is any Gaussian read by ``mean``, ``root`` (R, cov = R R') and
``dim``: a family's ``FitResult`` or the ``LaplaceResult`` itself.

The two task kinds estimate different log predictive densities:

* Regression ``lpd`` is the pointwise mean, mean_n ln p(y_n | D), the
  quantity published regression benchmarks quote. Under w ~ N(mean, R R') the
  regression function f_n = phi_n'w is N(m_n, s_n^2) exactly, so each
  p(y_n | D) = integral p(y_n | f) N(f; m_n, s_n^2) df is a 1-D integral,
  taken by ``_LPD_NODES``-node Gauss-Hermite quadrature: no draws. ``mse``
  is that of the exact predictive mean m_n.
* Classification ``lpd`` is the *joint* test-set quantity
  ln (1/S) sum_s p(D_test | w_s), a Monte Carlo average over the draws
  w_s = mean + R z_s in probability space, by log-sum-exp so that only the
  log-likelihoods need be finite. Its base draws z are the caller's:
  ``bench.run_split`` draws them once per classification split and every
  method is scored on them.

The fit curve is exact and the 2-D demo KL a Gauss-Hermite sum: no draws.
Hermite nodes are built on first use, which keeps ``numpy.polynomial`` off
the package's import path.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import ConfigError, NumericalError
from .laplace import LaplaceResult
from .variational import FitResult

_KL_NODES = 256   # Gauss-Hermite nodes per axis of the demo KL
# Nodes of the regression lpd. Against the exact Cauchy predictive (a Voigt
# profile) on the heavy-tail suite's fits, 200 nodes err by at most 1.2e-3
# nats at a point and 8.7e-6 in a run's mean lpd; 64 nodes by 3.3e-2 and 1.9e-4.
_LPD_NODES = 200
_LOG_2PI = float(np.log(2.0 * np.pi))


@cache
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights (they sum to sqrt(2 pi)),
    read-only: integral g(x) exp(-x^2 / 2) dx ~ sum_k w_k g(x_k)."""
    # numpy.polynomial stays out of the package's import
    from numpy.polynomial.hermite_e import hermegauss

    rule = hermegauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


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


def predictive_moments(posterior: FitResult | LaplaceResult,
                       rows) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and sd of the regression function f = phi(x)'w at each row
    of the model ``rows``: under w ~ N(mean, R R'), f(x) ~ N(phi'mean,
    ||R'phi||^2). One product of [mean; R'] with phi' gives both."""
    f = np.vstack([posterior.mean, posterior.root.T]) @ rows.phi.T
    return f[0], np.linalg.norm(f[1:], axis=0)


def pointwise_lpd(held_out, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """ln integral p(y_n | f) N(f; m_n, s_n^2) df at each row n of the
    regression model ``held_out``, whose ``pointwise_loglik`` gives
    ln p(y | f) at residuals f - y.

    The integral is a ``_LPD_NODES``-node Gauss-Hermite sum over
    f = m_n + s_n x_k, taken as a log-sum-exp over the nodes so that only
    the log likelihoods need be finite. A NaN or +inf log likelihood, which
    no likelihood can give, raises NumericalError.
    """
    x, w = _hermite_rule(_LPD_NODES)
    f = np.outer(s, x)
    f += (m - held_out.y)[:, None]   # the residuals f - y_n at the nodes
    ll = held_out.pointwise_loglik(f, out=f)
    ll += np.log(w) - 0.5 * _LOG_2PI
    top = ll.max(axis=1)   # max propagates NaN
    bad = top[np.isnan(top) | (top == np.inf)]
    if bad.size:
        raise NumericalError(f"a held-out log likelihood is {bad[0]}; the "
                             "quadrature cannot sum it")
    top[top == -np.inf] = 0.0   # a point of zero likelihood everywhere scores -inf
    ll -= top[:, None]
    np.exp(ll, out=ll)
    return top + np.log(ll.sum(axis=1))


def regression_metrics(posterior: FitResult | LaplaceResult, model, X_test,
                       y_test) -> dict:
    """``{"lpd", "mse"}`` of the test rows' model: the pointwise mean lpd by
    quadrature (``pointwise_lpd``) and the MSE of the exact predictive mean,
    both from one ``predictive_moments`` product."""
    held_out = model.with_rows(X_test, y_test)
    m, s = predictive_moments(posterior, held_out)
    return {"lpd": float(np.mean(pointwise_lpd(held_out, m, s))),
            "mse": float(np.mean((held_out.y - m) ** 2))}


def predictive_curve(posterior: FitResult | LaplaceResult, model,
                     x_grid) -> tuple[np.ndarray, np.ndarray]:
    """Exact pointwise mean and sd of a regression function f = phi(x)'w on a
    grid of inputs, by ``predictive_moments`` on the grid's model."""
    X = np.asarray(x_grid, dtype=float).reshape(len(x_grid), -1)
    return predictive_moments(posterior, model.with_rows(X, np.zeros(len(X))))


def kl_to_target_2d(posterior: FitResult | LaplaceResult, target) -> float:
    """KL(q || target) = -H(q) - E_q[ln target] for a 2-D Gaussian q.

    H(q) = 1 + ln 2 pi + ln|det R| in closed form. E_q[ln target] is a tensor
    Gauss-Hermite sum over ``_KL_NODES`` nodes per axis at the points
    mean + R z, exact for a log density polynomial in z of degree below
    2 ``_KL_NODES`` per coordinate. ``target`` needs a batch ``values``, its
    normalised log density over (G, 2) points.
    """
    if posterior.dim != 2:
        raise ConfigError("quadrature KL is only defined for 2-D posteriors")
    z, w = _hermite_rule(_KL_NODES)   # each axis's weights sum to sqrt(2 pi)
    zz = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
    log_p = target.values(posterior.mean + zz @ posterior.root.T)
    expected_log_p = np.outer(w, w).ravel() @ log_p / (2.0 * np.pi)
    entropy = 1.0 + np.log(2.0 * np.pi) + np.linalg.slogdet(posterior.root)[1]
    return float(-entropy - expected_log_p)
