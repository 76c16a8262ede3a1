"""Small models, finite-difference oracles, the nesting warm start and the
Monte Carlo standard error shared by the test modules: ``from makers import ...``."""

import numpy as np

from mvipkg.errors import NumericalError
from mvipkg.models import (BinaryLogistic, CauchyRegression,
                           GaussianLinearModel, SoftmaxRegression)
from mvipkg.variational import VariationalParams


def make_cauchy(seed=0, n=12):
    """Tiny heavy-tail regression model, P = 3 (two centres plus bias)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n, 1))
    y = np.sin(X[:, 0]) + rng.uniform(-0.2, 0.2, size=n)
    centers = np.array([[-1.5], [1.5]])
    return CauchyRegression(X, y, centers, gamma=0.4, alpha=0.8, width=1.2)


def make_logistic(seed=0, n=14):
    """Tiny binary model, P = 3."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    centers = X[:2].copy()
    return BinaryLogistic(X, y, centers, alpha=0.6, width=1.5)


def make_softmax(seed=0, n=15):
    """Tiny 3-class model, P = 6 (one centre plus bias, three classes)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n)
    y = np.eye(3)[labels]
    centers = X[:1].copy()
    return SoftmaxRegression(X, y, centers, alpha=0.7, width=1.0)


def make_conjugate(seed=0, n=10, p=4, beta=2.0, alpha=0.5):
    """Linear-Gaussian oracle with closed-form posterior and evidence."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, p))
    w_true = rng.standard_normal(p)
    y = phi @ w_true + rng.standard_normal(n) / np.sqrt(beta)
    return GaussianLinearModel(phi, y, beta=beta, alpha=alpha)


ALL_MODEL_MAKERS = {
    "cauchy": make_cauchy,
    "logistic": make_logistic,
    "softmax": make_softmax,
    "conjugate": make_conjugate,
}


def finite_difference_gradient(f, x, h: float = 1.0e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    The independent oracle against which every analytic gradient of the
    package is checked. O(h^2) accurate.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_plus = float(f(x + step))
        f_minus = float(f(x - step))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"function not finite near x along coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_difference_jacobian(g, x, h: float = 1.0e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector function (e.g. a gradient,
    giving a Hessian oracle). Column i holds d g / d x_i."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g_plus = np.asarray(g(x + step), dtype=float)
        g_minus = np.asarray(g(x - step), dtype=float)
        if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
            raise NumericalError(f"gradient not finite near x along coordinate {i}")
        cols.append((g_plus - g_minus) / (2.0 * h))
    return np.stack(cols, axis=1)


def warm_start(family: str, at: VariationalParams, laplace, seed: int = 0) -> VariationalParams:
    """Start a richer family at a free-mean optimum without losing its bound.

    The eigen family at r equal to the Laplace scales, and the rank-one
    family at t = 0, reproduce the free-mean family's root exactly, so the
    warm-started bound equals the donor's bound to rounding. v is drawn small
    and nonzero because the (t, v) origin is a joint stationary point the
    optimiser could not leave.
    """
    if at.family != "mvi_mu":
        raise ValueError("warm starts are defined from a mvi_mu optimum")
    mu = at.mu.copy()
    theta = at.theta.copy()
    p = mu.size
    if family == "mvi_eig":
        return VariationalParams("mvi_eig", mu, theta, log_r=np.log(laplace.eig_root))
    if family == "mvi_lr":
        rng = np.random.default_rng(seed)
        return VariationalParams("mvi_lr", mu, theta,
                                 t=np.zeros(p), v=0.1 * rng.standard_normal(p))
    raise ValueError(f"no warm start defined for family {family!r}")


def log_mean_exp_se(values: np.ndarray) -> float:
    """Delta-method standard error of ln mean exp(values): the sd of the
    normalised weights over sqrt(S), divided by their mean."""
    w = np.exp(values - np.max(values))
    return float(w.std(ddof=1) / (np.sqrt(w.size) * w.mean()))
