"""Log-posterior models over radial-basis-function regression weights.

Every model in this module exposes the same duck-typed surface, which is what
the Laplace and variational layers program against:

    P               parameter dimension (weights, flattened for multiclass)
    theta           log-space vector of continuous hyperparameters
    theta_names     matching names, e.g. ("log_gamma", "log_alpha", "log_width")
    with_theta(t)   new model instance with hyperparameters exp(t), features
                    rebuilt if the basis width changed
    value/values    unnormalised log posterior at one point / a batch (B, P)
    grad/grads      gradient of the log posterior w.r.t. the weights
    theta_grads     gradient w.r.t. theta (log-space), batch (B, T)
    hessian         dense Hessian w.r.t. the weights at one point
    data_log_likelihoods(W, X, y)
                    likelihood-only terms on held-out data, summed over rows
    predictive(W, X)
                    per-sample predictions (regression) or probabilities

Predictions go through RBF features phi_m(x) = exp(-||x - c_m||^2 / (2 width^2))
with a trailing bias column of ones, so D = M + 1 features per input. Centres
come from k-means on the training inputs and stay fixed; the width, the prior
precision alpha, and any likelihood scale are the continuous hyperparameters.

Priors are kept fully normalised (including the (D/2) ln alpha term), so the
log-alpha gradient picks up the normaliser's contribution; this is what lets
the variational stage move alpha sensibly.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# feature construction
# ---------------------------------------------------------------------------

def squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, M)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    d = X[:, None, :] - C[None, :, :]
    return np.einsum("nmq,nmq->nm", d, d)


def rbf_features(X: np.ndarray, centers: np.ndarray, width: float,
                 bias: bool = True) -> np.ndarray:
    """Gaussian bump features with an optional bias column of ones.

    Returns shape (N, M + 1) when ``bias`` is set, (N, M) otherwise. All
    entries lie in (0, 1]; a point sitting exactly on a centre scores 1 there.
    """
    if width <= 0:
        raise NumericalError(f"RBF width must be positive, got {width}")
    d2 = squared_distances(X, centers)
    phi = np.exp(-d2 / (2.0 * width**2))
    if bias:
        phi = np.hstack([phi, np.ones((phi.shape[0], 1))])
    return phi


def kmeans(X: np.ndarray, n_centers: int, seed: int, max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm with distance-weighted seeding.

    Deterministic given ``seed``. Empty clusters are reseeded to the point
    currently farthest from its assigned centre. Requires
    1 <= n_centers <= len(X).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if not 1 <= n_centers <= n:
        raise DataError(f"need 1 <= n_centers <= {n}, got {n_centers}")
    if n_centers == n:
        return X.copy()
    rng = np.random.default_rng(seed)

    # k-means++-style seeding: first centre uniform, the rest proportional to
    # squared distance from the chosen set.
    chosen = [int(rng.integers(n))]
    d2 = squared_distances(X, X[chosen]).min(axis=1)
    while len(chosen) < n_centers:
        total = d2.sum()
        if total <= 0.0:
            remaining = [i for i in range(n) if i not in chosen]
            chosen.append(int(rng.choice(remaining)))
        else:
            chosen.append(int(rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, squared_distances(X, X[chosen[-1:]]).ravel())
    centers = X[chosen].copy()

    assign = np.full(n, -1)
    for _ in range(max_iters):
        d2_all = squared_distances(X, centers)
        new_assign = d2_all.argmin(axis=1)
        for m in range(n_centers):
            members = new_assign == m
            if members.any():
                centers[m] = X[members].mean(axis=0)
            else:
                far = int(d2_all[np.arange(n), new_assign].argmax())
                centers[m] = X[far]
                new_assign[far] = m
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers


def _as_batch(w: np.ndarray, p: int) -> np.ndarray:
    W = np.asarray(w, dtype=float)
    if W.ndim == 1:
        W = W[None, :]
    if W.shape[1] != p:
        raise ValueError(f"expected parameter dimension {p}, got {W.shape[1]}")
    return W


class _ModelBase:
    """Shared scalar wrappers over the batch methods."""

    def value(self, w: np.ndarray) -> float:
        return float(self.values(_as_batch(w, self.P))[0])

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.grads(_as_batch(w, self.P))[0]


# ---------------------------------------------------------------------------
# robust regression with a Cauchy likelihood
# ---------------------------------------------------------------------------

class CauchyRegression(_ModelBase):
    """Nonlinear regression y = w'phi(x) + Cauchy(gamma) noise, Gaussian prior.

    The Cauchy density (pi gamma [1 + ((y - mu)/gamma)^2])^-1 gives the
    likelihood its heavy tails; the resulting log posterior is non-concave in
    the weights (the per-point curvature changes sign once the residual
    exceeds gamma), which is exactly why a mode-plus-curvature fit can be
    poor and a variational refinement pays off.

    theta = (log_gamma, log_alpha, log_width).
    """

    theta_names = ("log_gamma", "log_alpha", "log_width")

    def __init__(self, X: np.ndarray, y: np.ndarray, centers: np.ndarray,
                 gamma: float, alpha: float, width: float):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise DataError("X and y disagree on the number of rows")
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.gamma = float(gamma)
        self.alpha = float(alpha)
        self.width = float(width)
        if min(self.gamma, self.alpha, self.width) <= 0:
            raise NumericalError("gamma, alpha and width must all be positive")
        self.phi = rbf_features(self.X, self.centers, self.width)
        self._d2 = squared_distances(self.X, self.centers)
        self.N, self.D = self.phi.shape
        self.P = self.D

    @property
    def theta(self) -> np.ndarray:
        return np.log([self.gamma, self.alpha, self.width])

    def with_theta(self, theta: np.ndarray) -> "CauchyRegression":
        g, a, w = np.exp(np.asarray(theta, dtype=float))
        return CauchyRegression(self.X, self.y, self.centers, g, a, w)

    # -- likelihood pieces ---------------------------------------------------

    def _features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(X, self.centers, self.width)

    def _loglik_rows(self, W: np.ndarray, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
        resid = y[None, :] - W @ phi.T
        n = y.size
        return (-n * np.log(np.pi * self.gamma)
                - np.log1p((resid / self.gamma) ** 2).sum(axis=1))

    def _log_prior_rows(self, W: np.ndarray) -> np.ndarray:
        return (0.5 * self.D * (np.log(self.alpha) - _LOG_2PI)
                - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W))

    # -- model surface -------------------------------------------------------

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        return self._loglik_rows(W, self.phi, self.y) + self._log_prior_rows(W)

    def grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        resid = self.y[None, :] - W @ self.phi.T
        # d loglik / d f_n = 2 e_n / (gamma^2 + e_n^2)
        gf = 2.0 * resid / (self.gamma**2 + resid**2)
        return gf @ self.phi - self.alpha * W

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        resid = self.y - self.phi @ w
        c = 2.0 * (self.gamma**2 - resid**2) / (self.gamma**2 + resid**2) ** 2
        H = -(self.phi * c[:, None]).T @ self.phi
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        resid = self.y[None, :] - W @ self.phi.T
        gf = 2.0 * resid / (self.gamma**2 + resid**2)
        d_lgamma = ((resid**2 - self.gamma**2) / (resid**2 + self.gamma**2)).sum(axis=1)
        d_lalpha = 0.5 * self.D - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W)
        # d phi_nm / d log width = phi_nm * d2_nm / width^2; bias column inert.
        phi_w = self.phi[:, :-1] * self._d2 / self.width**2
        df_dlw = W[:, :-1] @ phi_w.T
        d_lwidth = np.einsum("bn,bn->b", gf, df_dlw)
        return np.stack([d_lgamma, d_lalpha, d_lwidth], axis=1)

    def data_log_likelihoods(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        y = np.asarray(y, dtype=float).ravel()
        return self._loglik_rows(W, self._features(X), y)

    def predictive(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-sample mean predictions, shape (B, N)."""
        return _as_batch(W, self.P) @ self._features(X).T


# ---------------------------------------------------------------------------
# binary logistic regression
# ---------------------------------------------------------------------------

class BinaryLogistic(_ModelBase):
    """Logistic regression on RBF features with labels in {0, 1}.

    theta = (log_alpha, log_width). The log likelihood is written as
    y f - softplus(f), which is exact and stable for large |f|.
    """

    theta_names = ("log_alpha", "log_width")

    def __init__(self, X: np.ndarray, y: np.ndarray, centers: np.ndarray,
                 alpha: float, width: float):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = np.asarray(y, dtype=float).ravel()
        if self.X.shape[0] != self.y.size:
            raise DataError("X and y disagree on the number of rows")
        if not np.isin(self.y, (0.0, 1.0)).all():
            raise DataError("binary labels must be coded as 0/1")
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.alpha = float(alpha)
        self.width = float(width)
        if min(self.alpha, self.width) <= 0:
            raise NumericalError("alpha and width must be positive")
        self.phi = rbf_features(self.X, self.centers, self.width)
        self._d2 = squared_distances(self.X, self.centers)
        self.N, self.D = self.phi.shape
        self.P = self.D

    @property
    def theta(self) -> np.ndarray:
        return np.log([self.alpha, self.width])

    def with_theta(self, theta: np.ndarray) -> "BinaryLogistic":
        a, w = np.exp(np.asarray(theta, dtype=float))
        return BinaryLogistic(self.X, self.y, self.centers, a, w)

    def _features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(X, self.centers, self.width)

    @staticmethod
    def _loglik_rows(W: np.ndarray, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
        F = W @ phi.T
        return (y[None, :] * F - np.logaddexp(0.0, F)).sum(axis=1)

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        prior = (0.5 * self.D * (np.log(self.alpha) - _LOG_2PI)
                 - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W))
        return self._loglik_rows(W, self.phi, self.y) + prior

    def grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        gf = self.y[None, :] - expit(W @ self.phi.T)
        return gf @ self.phi - self.alpha * W

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        s = expit(self.phi @ w)
        r = s * (1.0 - s)
        H = -(self.phi * r[:, None]).T @ self.phi
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        gf = self.y[None, :] - expit(W @ self.phi.T)
        d_lalpha = 0.5 * self.D - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W)
        phi_w = self.phi[:, :-1] * self._d2 / self.width**2
        d_lwidth = np.einsum("bn,bn->b", gf, W[:, :-1] @ phi_w.T)
        return np.stack([d_lalpha, d_lwidth], axis=1)

    def data_log_likelihoods(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        return self._loglik_rows(W, self._features(X), np.asarray(y, dtype=float).ravel())

    def predictive(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-sample class-1 probabilities, shape (B, N)."""
        return expit(_as_batch(W, self.P) @ self._features(X).T)


# ---------------------------------------------------------------------------
# multiclass softmax regression
# ---------------------------------------------------------------------------

def _shifted_exp(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite (B, K, N) scores F with exp(F - m), m the class maximum.

    Every exponent is <= 0, so nothing overflows. A class far below the
    maximum underflows to probability 0, its correctly rounded value, which
    is not an error. Working in place spares allocating an array of F's
    size, which costs more than the exponentials. Returns (F, m).
    """
    m = F.max(axis=1, keepdims=True)
    F -= m
    with np.errstate(under="ignore"):
        np.exp(F, out=F)
    return F, m


def _logsumexp_classes(F: np.ndarray) -> np.ndarray:
    """log sum_k exp F[:, k, :], shape (B, N); overwrites F."""
    E, m = _shifted_exp(F)
    out = E.sum(axis=1)
    np.log(out, out=out)
    out += m[:, 0, :]
    return out


class SoftmaxRegression(_ModelBase):
    """K-class softmax regression with one weight vector per class.

    Weights are handled flattened, P = K * D, laid out class-major
    (w.reshape(K, D)). A single alpha is shared across all class blocks.
    Labels arrive one-hot, shape (N, K). theta = (log_alpha, log_width).
    """

    theta_names = ("log_alpha", "log_width")

    def __init__(self, X: np.ndarray, Y: np.ndarray, centers: np.ndarray,
                 alpha: float, width: float):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataError("X and Y disagree on the number of rows")
        row_sums = self.Y.sum(axis=1)
        if not (np.isin(self.Y, (0.0, 1.0)).all() and np.allclose(row_sums, 1.0)):
            raise DataError("multiclass labels must be one-hot rows")
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.alpha = float(alpha)
        self.width = float(width)
        if min(self.alpha, self.width) <= 0:
            raise NumericalError("alpha and width must be positive")
        self.phi = rbf_features(self.X, self.centers, self.width)
        self._d2 = squared_distances(self.X, self.centers)
        self.N, self.D = self.phi.shape
        self.K = self.Y.shape[1]
        self.P = self.K * self.D

    @property
    def theta(self) -> np.ndarray:
        return np.log([self.alpha, self.width])

    def with_theta(self, theta: np.ndarray) -> "SoftmaxRegression":
        a, w = np.exp(np.asarray(theta, dtype=float))
        return SoftmaxRegression(self.X, self.Y, self.centers, a, w)

    def _features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(X, self.centers, self.width)

    def _scores(self, W: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Class scores F = W phi', shape (B, K, N), from one GEMM."""
        B = W.shape[0]
        return (W.reshape(B * self.K, self.D) @ phi.T).reshape(B, self.K, -1)

    def _loglik_rows(self, W: np.ndarray, phi: np.ndarray, Y: np.ndarray) -> np.ndarray:
        F = self._scores(W, phi)
        # label term sum_{n,k} Y_nk F_bkn as one mat-vec over the (K, N)
        # layout, taken before the log-sum-exp overwrites F
        labels = F.reshape(F.shape[0], -1) @ Y.T.ravel()
        return labels - _logsumexp_classes(F).sum(axis=1)

    def _probabilities(self, W: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Softmax over classes, shape (B, K, N)."""
        E, _ = _shifted_exp(self._scores(W, phi))
        E /= E.sum(axis=1, keepdims=True)
        return E

    def _residual(self, W: np.ndarray) -> np.ndarray:
        """d loglik / d F = Y' - softmax(F), flattened to (B K, N)."""
        G = self._probabilities(W, self.phi)
        np.subtract(self.Y.T, G, out=G)
        return G.reshape(-1, self.N)

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        prior = (0.5 * self.K * self.D * (np.log(self.alpha) - _LOG_2PI)
                 - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W))
        return self._loglik_rows(W, self.phi, self.Y) + prior

    def grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        # row (b, k) of G @ phi is class k's block, so the class-major layout holds
        return (self._residual(W) @ self.phi).reshape(W.shape[0], self.P) - self.alpha * W

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        Pr = self._probabilities(w[None, :], self.phi)[0]
        # block (k, l) is -phi' diag(p_k (delta_kl - p_l)) phi, the per-point
        # softmax curvature, as one GEMM per class pair
        H = np.block([[-(self.phi.T * (Pr[k] * ((k == l) - Pr[l]))) @ self.phi
                       for l in range(self.K)] for k in range(self.K)])
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        B = W.shape[0]
        d_lalpha = (0.5 * self.K * self.D
                    - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W))
        # sum_{k,n} G_bkn dF_bkn with dF = W_k,:-1 phi_w', contracted as
        # ((G phi_w) * W_k,:-1) summed, so the (B, K, N) dF never forms
        phi_w = self.phi[:, :-1] * self._d2 / self.width**2
        Wk = W.reshape(B * self.K, self.D)[:, :-1]
        d_lwidth = ((self._residual(W) @ phi_w) * Wk).reshape(B, -1).sum(axis=1)
        return np.stack([d_lalpha, d_lwidth], axis=1)

    def data_log_likelihoods(self, W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        return self._loglik_rows(W, self._features(X), np.atleast_2d(np.asarray(Y, dtype=float)))

    def predictive(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-sample class probabilities, shape (B, N, K)."""
        return self._probabilities(_as_batch(W, self.P), self._features(X)).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# conjugate linear-Gaussian model (exactness oracle)
# ---------------------------------------------------------------------------

class GaussianLinearModel(_ModelBase):
    """Bayesian linear regression with known precisions beta and alpha.

    The posterior, evidence, and held-out marginal likelihood are all
    available in closed form, which makes this model the exactness oracle for
    the Laplace and variational machinery: the Laplace fit must recover the
    posterior to rounding error, and the fixed-sample bound must recover the
    evidence. Exactness statements are relative to the stated model, so beta
    and alpha are fixed constants here, not tunable hyperparameters: theta is
    empty and the variational stage has nothing to move.

    The design matrix is taken as given (identity feature map), so the X
    argument of ``data_log_likelihoods``/``predictive`` is itself a design
    matrix.
    """

    theta_names: tuple = ()

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

    @property
    def theta(self) -> np.ndarray:
        return np.zeros(0)

    def with_theta(self, theta: np.ndarray) -> "GaussianLinearModel":
        if np.asarray(theta).size:
            raise ValueError("the conjugate oracle model has no free hyperparameters")
        return self

    def _loglik_rows(self, W: np.ndarray, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
        resid = y[None, :] - W @ phi.T
        n = y.size
        return (0.5 * n * (np.log(self.beta) - _LOG_2PI)
                - 0.5 * self.beta * np.einsum("bn,bn->b", resid, resid))

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        prior = (0.5 * self.D * (np.log(self.alpha) - _LOG_2PI)
                 - 0.5 * self.alpha * np.einsum("bp,bp->b", W, W))
        return self._loglik_rows(W, self.phi, self.y) + prior

    def grads(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        resid = self.y[None, :] - W @ self.phi.T
        return self.beta * resid @ self.phi - self.alpha * W

    def hessian(self, w: np.ndarray) -> np.ndarray:
        H = -self.beta * self.phi.T @ self.phi
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        return np.zeros((_as_batch(W, self.P).shape[0], 0))

    def data_log_likelihoods(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        return self._loglik_rows(W, np.atleast_2d(np.asarray(X, dtype=float)),
                                 np.asarray(y, dtype=float).ravel())

    def predictive(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        return _as_batch(W, self.P) @ np.atleast_2d(np.asarray(X, dtype=float)).T

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
