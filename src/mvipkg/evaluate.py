"""Held-out evaluation of fitted Gaussian posteriors.

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
* Evaluation draws are fresh, raw standard normals under their own seed; the
  standardisation applied to optimisation sample sets is deliberately not
  applied here, so the reported numbers are plain Monte Carlo estimates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .variational import PosteriorGaussian

log = logging.getLogger(__name__)


def posterior_draws(posterior: PosteriorGaussian, n_samples: int, seed: int) -> np.ndarray:
    """Fresh weight draws w_s = mean + R z_s, shape (n_samples, P)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, posterior.dim))
    return posterior.mean[None, :] + z @ posterior.root.T


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


@dataclass
class PredictiveScore:
    """Held-out summary for one fitted method on one split.

    ``lpd`` follows the module convention: joint for classification,
    per-test-point for regression.
    """

    lpd: float
    error_rate: Optional[float] = None
    mse: Optional[float] = None


def _scored(posterior: PosteriorGaussian, model, X_test, y_test, n_samples: int,
            seed: int) -> tuple[np.ndarray, float]:
    """(mean prediction, joint lpd) from one ``model.score`` pass over the
    draws mean + R z_s, z drawn under ``seed``."""
    z = np.random.default_rng(seed).standard_normal((n_samples, posterior.dim))
    mean, ll = model.score(posterior.mean, posterior.root, z, X_test, y_test)
    value = log_mean_exp(ll)
    if value == -np.inf:
        log.warning("every posterior draw gave zero test likelihood; lpd is -inf")
    return mean, value


def classification_metrics(posterior: PosteriorGaussian, model, X_test, y_test,
                           n_samples: int = 10_000, seed: int = 0) -> PredictiveScore:
    """Error rate and joint lpd from one set of posterior draws.

    Class probabilities are Monte Carlo averages of the per-draw predictive
    probabilities; they and the per-draw likelihoods come from one pass of
    ``model.score`` over the draws. Binary labels are predicted 1 only above
    probability 0.5 (ties fall to class 0); multiclass predictions take the
    first argmax, which also resolves ties toward the lowest class index.
    """
    mean_probs, value = _scored(posterior, model, X_test, y_test, n_samples, seed)
    y = np.asarray(y_test)
    if mean_probs.ndim == 1:
        predicted = (mean_probs > 0.5).astype(int)
        truth = y.astype(int).ravel()
    else:
        predicted = mean_probs.argmax(axis=1)
        truth = np.atleast_2d(y).argmax(axis=1)
    error_rate = float(np.mean(predicted != truth))
    return PredictiveScore(lpd=value, error_rate=error_rate)


def regression_metrics(posterior: PosteriorGaussian, model, X_test, y_test,
                       n_samples: int = 10_000, seed: int = 0) -> PredictiveScore:
    """Mean squared error of the Monte Carlo mean prediction, plus the joint
    lpd divided by the number of test points (not the pointwise mean lpd)."""
    preds, value = _scored(posterior, model, X_test, y_test, n_samples, seed)
    y = np.asarray(y_test, dtype=float).ravel()
    mse = float(np.mean((y - preds) ** 2))
    return PredictiveScore(lpd=value / y.size, mse=mse)


def predictive_curve(posterior: PosteriorGaussian, model, x_grid,
                     n_samples: int = 10_000, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise mean and standard deviation of the predictive function on a grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    X = x_grid.reshape(-1, 1) if x_grid.ndim == 1 else x_grid
    draws = posterior_draws(posterior, n_samples, seed)
    f = model.predictive(draws, X)
    return f.mean(axis=0), f.std(axis=0)


def kl_to_target_2d(posterior: PosteriorGaussian, target,
                    bounds: tuple[float, float] | None = None,
                    resolution: int | None = None) -> float:
    """KL(q || target) for a 2-D Gaussian q by Riemann quadrature.

    ``target`` needs a batch ``log_density`` over (G, 2) points, and its
    ``bounds`` and ``resolution`` are the defaults. The grid must cover at
    least six q-standard deviations around q's mean and capture all but 1e-6
    of q's mass; otherwise a ConfigError suggests wider bounds.
    """
    if posterior.dim != 2:
        raise ConfigError("quadrature KL is only defined for 2-D posteriors")
    lo, hi = target.bounds if bounds is None else bounds
    res = target.resolution if resolution is None else resolution

    cov = posterior.cov()
    sd_max = float(np.sqrt(np.linalg.eigvalsh(cov).max()))
    mean = posterior.mean
    need_lo = float(mean.min() - 6.0 * sd_max)
    need_hi = float(mean.max() + 6.0 * sd_max)
    if need_lo < lo or need_hi > hi:
        raise ConfigError(
            f"quadrature grid [{lo}, {hi}]^2 is too small for q "
            f"(needs to cover [{need_lo:.2f}, {need_hi:.2f}]); widen the bounds")

    xs = np.linspace(lo, hi, res)
    cell = (xs[1] - xs[0]) ** 2
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])

    prec = np.linalg.inv(cov)
    sign, logdet = np.linalg.slogdet(cov)
    dev = pts - mean[None, :]
    quad = np.einsum("gi,ij,gj->g", dev, prec, dev)
    log_q = -np.log(2.0 * np.pi) - 0.5 * logdet - 0.5 * quad
    q = np.exp(log_q)

    mass = float(q.sum() * cell)
    if 1.0 - mass > 1.0e-6:
        raise ConfigError(
            f"quadrature grid captures only {mass:.8f} of q's mass; widen the "
            f"bounds beyond [{lo}, {hi}] or raise the resolution")

    log_p = np.asarray(target.log_density(pts), dtype=float)
    return float((q * (log_q - log_p)).sum() * cell)
