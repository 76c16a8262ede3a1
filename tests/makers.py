"""Small models, the conjugate oracle, reference RBF features,
finite-difference oracles, the nesting warm start and the Monte Carlo
standard error shared by the test modules: ``from makers import ...``."""

import numpy as np

from mvipkg.errors import DataError, NumericalError
from mvipkg.models import (_LOG_2PI, BinaryLogistic, CauchyRegression, SoftmaxRegression,
                           _ModelBase, squared_distances)
from mvipkg.variational import VariationalParams


# ---------------------------------------------------------------------------
# conjugate linear-Gaussian model (exactness oracle), on the package's _ModelBase
# ---------------------------------------------------------------------------

class GaussianLinearModel(_ModelBase):
    """Bayesian linear regression with known precisions beta and alpha.

    The posterior, evidence, and held-out marginal likelihood are all
    available in closed form, which makes this model the exactness oracle for
    the Laplace and variational machinery: the Laplace fit must recover the
    posterior to rounding error, and the fixed-sample bound must recover the
    evidence. Exactness statements are relative to the stated model, so beta
    and alpha are fixed constants here, not tunable hyperparameters: theta is
    empty and the variational stage has nothing to move. Its log posterior is
    alpha-strongly concave, so it is marked ``log_concave`` like the
    classifiers, and the grid's score bound is exact in closed form here.

    The design matrix is taken as given (identity feature map), so the X of
    ``with_rows`` is itself a design matrix.
    """

    def __init__(self, phi: np.ndarray, y: np.ndarray, beta: float, alpha: float):
        self.phi = np.atleast_2d(np.asarray(phi, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        if self.phi.shape[0] != self.y.size:
            raise DataError("phi and y disagree on the number of rows")
        self.beta = float(beta)
        self.alpha = float(alpha)
        if min(self.beta, self.alpha) <= 0:
            raise NumericalError("beta and alpha must be positive")
        self.N, self.D = self.phi.shape
        self.P = self.D
        self._phi_stack = self.phi   # no hyperparameter moves the features

    log_concave = True

    def with_rows(self, phi: np.ndarray, y: np.ndarray) -> "GaussianLinearModel":
        """The same precisions over the design rows phi with targets y."""
        return GaussianLinearModel(phi, y, self.beta, self.alpha)

    def _pass(self, Q: np.ndarray, spare: np.ndarray | None, gradient: bool):
        """Log likelihood of each row of Q = F - y; d loglik / dF = -beta Q."""
        return (0.5 * Q.shape[1] * (np.log(self.beta) - _LOG_2PI)
                - 0.5 * self.beta * np.einsum("bn,bn->b", Q, Q)), -self.beta, []

    def _curvature(self, Q: np.ndarray) -> np.ndarray:
        """-d^2 loglik / df^2 = beta at every point."""
        return np.full_like(Q, self.beta)

    # -- closed forms --------------------------------------------------------

    def exact_posterior(self) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and covariance of the weights."""
        A = self.beta * self.phi.T @ self.phi + self.alpha * np.eye(self.D)
        cov = np.linalg.inv(A)
        cov = 0.5 * (cov + cov.T)
        mean = self.beta * cov @ self.phi.T @ self.y
        return mean, cov

    def log_evidence(self) -> float:
        """ln p(y) = ln integral of likelihood * prior, in closed form."""
        A = self.beta * self.phi.T @ self.phi + self.alpha * np.eye(self.D)
        mean, _ = self.exact_posterior()
        resid = self.y - self.phi @ mean
        energy = 0.5 * self.beta * resid @ resid + 0.5 * self.alpha * mean @ mean
        sign, logdet_A = np.linalg.slogdet(A)
        if sign <= 0:
            raise NumericalError("posterior precision lost positive definiteness")
        return float(0.5 * self.D * np.log(self.alpha)
                     + 0.5 * self.N * np.log(self.beta)
                     - 0.5 * self.N * _LOG_2PI
                     - energy - 0.5 * logdet_A)

    def test_log_marginal(self, phi_test: np.ndarray, y_test: np.ndarray) -> float:
        """ln p(y_test | training data): Gaussian with the posterior folded in."""
        phi_t = np.atleast_2d(np.asarray(phi_test, dtype=float))
        y_t = np.asarray(y_test, dtype=float).ravel()
        mean, cov = self.exact_posterior()
        m = phi_t @ mean
        S = phi_t @ cov @ phi_t.T + np.eye(y_t.size) / self.beta
        sign, logdet = np.linalg.slogdet(S)
        if sign <= 0:
            raise NumericalError("predictive covariance lost positive definiteness")
        resid = y_t - m
        quad = resid @ np.linalg.solve(S, resid)
        return float(-0.5 * (y_t.size * _LOG_2PI + logdet + quad))


def rbf_reference(X, centers, width: float) -> np.ndarray:
    """The RBF features exp(-d^2 / (2 width^2)) of the rows X, d the distance
    to each centre, with a trailing bias column of ones: shape (N, M + 1)."""
    bumps = np.exp(-squared_distances(X, centers) / (2.0 * width**2))
    return np.hstack([bumps, np.ones((bumps.shape[0], 1))])


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


def make_class_table(seed=0, n=60, n_classes=3):
    """A table of 2-D inputs uniform on [-2, 2]^2 whose labels are drawn from a
    softmax over n_classes spiral sectors, noisier towards the origin:
    (X, one-hot labels (n, n_classes))."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, 2))
    angle = np.arctan2(X[:, 1], X[:, 0])[:, None]
    r = np.hypot(X[:, 0], X[:, 1])[:, None]
    logits = 1.5 * r * np.cos(angle - 2.0 * np.pi * np.arange(n_classes) / n_classes - 0.5 * r)
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    cum = np.cumsum(prob / prob.sum(axis=1, keepdims=True), axis=1)
    labels = np.minimum((rng.uniform(size=(n, 1)) > cum).sum(axis=1), n_classes - 1)
    return X, np.eye(n_classes)[labels]


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
