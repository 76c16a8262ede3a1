"""Log-posterior models over radial-basis-function regression weights.

Every model in this module exposes the same duck-typed surface, which is what
the Laplace, variational and evaluation layers program against:

    P               parameter dimension (weights, flattened for multiclass)
    theta           log-space vector of continuous hyperparameters
    theta_names     matching names, e.g. ("log_gamma", "log_alpha", "log_width")
    with_theta(t)   new model instance with hyperparameters exp(t): same data,
                    centres and centre distances, features rebuilt
                    (``set_theta`` moves an RBF model itself)
    value/values    unnormalised log posterior at one point / a batch (B, P)
    grad/grads      gradient of the log posterior w.r.t. the weights
    theta_grads     gradient w.r.t. theta (log-space), batch (B, T)
    evaluate(W)     (values, grads, theta_grads) from one pass over the batch;
                    the mode search calls this once per point
    expectation(mu, R, draws)
                    means over fixed draws w_s = mu + R z_s (``FixedDraws``):
                    (value, g-bar, G, theta gradient), i.e. the log posterior,
                    its weight gradient g, G = sum_s g_s z_s' / S and the
                    theta gradient; one call per variational evaluation
    hessian         dense Hessian w.r.t. the weights at one point
    score(W, X, y)  held-out pass: (mean prediction over the draws, per-draw
                    test log likelihood), streaming the draws in fixed blocks
    data_log_likelihoods(W, X, y)
                    likelihood-only terms on held-out data, summed over rows
                    (the second half of ``score``)
    predictive(W, X)
                    per-sample predictions (regression) or probabilities

The Cauchy, binary and conjugate likelihoods depend on the weights only
through the projections F = W phi' (one row per draw, one column per data
point), and each is written once, as the model's ``_pass(Q, spare,
gradient, y)``. Q holds F - y for a regression (``_residual``) or F for the
binary model. The pass returns the log likelihood of each row; the factor
``scale`` with d loglik / dF = scale * Q once a gradient pass has rewritten
Q; and, per row, the derivatives in the likelihood's own hyperparameters
(log gamma for Cauchy). ``_ModelBase`` derives the rest from it, once:
``values`` (the pass in place), ``evaluate`` with ``grads`` and
``theta_grads`` (one GEMM of scale * Q with [phi | d phi / d log width]),
``score`` and ``predictive`` (through the ``_predict`` link of F: the
identity, or expit for binary), and ``hessian`` from ``_curvature``, the
per-point -d^2 loglik / dF^2. For draws w_s = mu + R z_s, F - y = Z1 A'
exactly, with Z1 = [1 | z] and A = [phi mu - y | phi R]: ``expectation``
forms every residual with that one GEMM, runs the pass in the draws'
buffers, and takes the mean gradients from one GEMM E' Z1 and products of
size P.

Softmax and the 2-D mixture keep kernels of their own and use
``sampled_expectation``, which forms the points and the per-draw gradients:
K class scores are not one F, and on the 3-class benchmark split the
projected form would need about twice the flops.

Predictions go through RBF features phi_m(x) = exp(-||x - c_m||^2 / (2 width^2))
with a trailing bias column of ones, so D = M + 1 features per input. Centres
come from k-means on the training inputs and stay fixed; the width, the prior
precision alpha, and any likelihood scale are the continuous hyperparameters.

The three RBF models (Cauchy regression, binary logistic, softmax) are built
in one place, ``_RBFBase``: a class declares ``theta_names`` and a
``_targets`` check of its labels, and the shared constructor
``Model(X, y, centers, **hyper)`` takes one positive keyword per name
without its ``log_`` prefix, checks the rows, the labels and positivity,
builds the features and sets ``P``; ``theta`` and ``with_theta`` follow from
the same names. ``values``, ``grads``, ``theta_grads`` and ``hessian`` stay
bound on each RBF class itself, even where it only re-binds ``_ModelBase``'s:
the benchmark's tracer times them through each class's own ``__dict__``, so
an inherited kernel would go untimed.

Priors are kept fully normalised (including the (D/2) ln alpha term), so the
log-alpha gradient picks up the normaliser's contribution; this is what lets
the variational stage move alpha sensibly.
"""

from __future__ import annotations

import copy
import math
from functools import cached_property

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))

# Draws per block of the held-out pass; the buffer for F holds one block,
# whatever the number of draws. With single-threaded OpenBLAS, a block of a
# multiple of 24 draws gets the rows of the one-shot product W phi' bit for
# bit; 256 draws did not, at 300 test points (edge tiles rounded apart).
_SCORE_BLOCK = 288


# ---------------------------------------------------------------------------
# feature construction
# ---------------------------------------------------------------------------

def squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, M)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    d = X[:, None, :] - C[None, :, :]
    return np.einsum("nmq,nmq->nm", d, d)


def _bumps(d2: np.ndarray, width: float) -> np.ndarray:
    """RBF features from squared centre distances d2 (N, M), with the bias
    column appended: shape (N, M + 1)."""
    phi = np.exp(-d2 / (2.0 * width**2))
    return np.hstack([phi, np.ones((phi.shape[0], 1))])


def rbf_features(X: np.ndarray, centers: np.ndarray, width: float) -> np.ndarray:
    """Gaussian bump features with a trailing bias column of ones.

    Returns shape (N, M + 1). All entries lie in (0, 1]; a point sitting
    exactly on a centre scores 1 there.
    """
    if width <= 0:
        raise NumericalError(f"RBF width must be positive, got {width}")
    return _bumps(squared_distances(X, centers), width)


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


# ---------------------------------------------------------------------------
# expectations over fixed draws w_s = mu + R z_s
# ---------------------------------------------------------------------------

class FixedDraws:
    """Base draws z (S, P) and what every expectation over them shares;
    ``work(n)`` hands out the same two S x n buffers on every call."""

    def __init__(self, z: np.ndarray):
        self.z = np.asarray(z, dtype=float)
        self.S = self.z.shape[0]
        self.weights = np.full(self.S, 1.0 / self.S)   # sample means as GEMVs
        self._work = None

    @cached_property
    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Z1 = [1 | z], z-bar and z'z / S, formed on first use."""
        return (np.hstack([np.ones((self.S, 1)), self.z]), self.weights @ self.z,
                self.z.T @ self.z / self.S)

    def work(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._work is None or self._work[0].shape[1] != n:
            self._work = (np.empty((self.S, n)), np.empty((self.S, n)))
        return self._work


def sampled_expectation(model, mu: np.ndarray, R: np.ndarray, draws: FixedDraws,
                        gradient: bool = True):
    """``expectation`` of a likelihood that is not one F = W phi': from the
    model's own batch methods at W = mu + z R', per-draw gradients and all."""
    W = mu[None, :] + draws.z @ R.T
    if not gradient:
        return float(model.values(W).mean()), None, None, None
    vals, g, theta_g = model.evaluate(W)
    return (float(vals.mean()), draws.weights @ g, g.T @ draws.z / draws.S,
            draws.weights @ theta_g)


# ---------------------------------------------------------------------------
# the held-out pass, one block of draws at a time
# ---------------------------------------------------------------------------

def _projection_blocks(W: np.ndarray, phi: np.ndarray, rows_per_draw: int = 1):
    """Yield (draw slice, F) with F = W[slice] phi' for consecutive blocks.

    Every F is a view of one reused buffer, which the caller may overwrite.
    A softmax draw contributes ``rows_per_draw`` = K rows of F. A lone last
    draw joins the block before it: numpy forms a one-row product with a
    matrix-vector call, whose rounding differs from the matrix product's.
    """
    B = W.shape[0]
    flat = W.reshape(B * rows_per_draw, -1)
    buf = np.empty((min(B, _SCORE_BLOCK + 1) * rows_per_draw, phi.shape[0]))
    start = 0
    while start < B:
        stop = B if start + _SCORE_BLOCK + 1 >= B else start + _SCORE_BLOCK
        F = buf[:(stop - start) * rows_per_draw]
        np.matmul(flat[start * rows_per_draw:stop * rows_per_draw], phi.T, out=F)
        yield slice(start, stop), F
        start = stop


def _add_rows(total: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """``total`` plus ``rows`` summed over its first axis, ``rows`` unchanged.

    The rows are added onto the running total one after another, the order
    in which numpy sums a whole (B, ...) array over axis 0, so a mean built
    block by block equals ``mean(axis=0)`` of all the draws bit for bit.
    """
    if total is None:
        return rows.sum(axis=0)
    first = rows[0].copy()
    rows[0] += total
    np.sum(rows, axis=0, out=total)
    rows[0] = first
    return total


# ---------------------------------------------------------------------------
# shared model pieces
# ---------------------------------------------------------------------------

class _ModelBase:
    """Scalar wrappers, the Gaussian prior, and every batch method of a model
    whose likelihood is one F = W phi', derived from its ``_pass``."""

    _residual = True   # ``_pass`` gets the residuals F - y, else the scores F

    @staticmethod
    def _predict(F: np.ndarray) -> np.ndarray:
        """Mean prediction from scores F: the identity link of a regression."""
        return F

    def value(self, w: np.ndarray) -> float:
        return float(self.values(_as_batch(w, self.P))[0])

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.grads(_as_batch(w, self.P))[0]

    def _projections(self, W: np.ndarray) -> np.ndarray:
        """Q = W phi' - y of a residual likelihood, else W phi', shape (B, N)."""
        Q = W @ self.phi.T
        if self._residual:
            Q -= self.y
        return Q

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        Q = self._projections(W)
        return self._pass(Q, Q, False, self.y)[0] + self._prior(W)[0]

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, grads, theta_grads) at a batch of weights, from one pass;
        the theta columns are the pass's lead rows, log alpha and log width."""
        W = _as_batch(W, self.P)
        Q = self._projections(W)
        rows, scale, lead = self._pass(Q, np.empty_like(Q), True, self.y)
        Q *= scale   # d loglik / dF
        # one GEMM gives the weight gradient and d loglik / d phi_w, which,
        # contracted with the weights, is the log-width derivative of each row
        both = Q @ self._phi_stack
        prior, d_lalpha = self._prior(W)
        grads = both[:, :self.D] - self.alpha * W
        if not self.theta_names:
            return rows + prior, grads, np.zeros((W.shape[0], 0))
        d_lwidth = np.einsum("bm,bm->b", both[:, self.D:], W[:, :-1])
        return rows + prior, grads, np.stack([*lead, d_lalpha, d_lwidth], axis=1)

    def grads(self, W: np.ndarray) -> np.ndarray:
        return self.evaluate(W)[1]

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        return self.evaluate(W)[2]

    def hessian(self, w: np.ndarray) -> np.ndarray:
        """-phi' diag(c) phi - alpha I, c the likelihood's ``_curvature`` at w."""
        F = self.phi @ np.asarray(w, dtype=float).ravel()
        c = self._curvature(F - self.y if self._residual else F)
        H = -(self.phi * c[:, None]).T @ self.phi
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def score(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean prediction over the draws, shape (N,), and per-draw test log
        likelihood; each block's F is scored in place after its prediction."""
        W = _as_batch(W, self.P)
        y = np.asarray(y, dtype=float).ravel()
        total, ll = None, np.empty(W.shape[0])
        for rows, F in _projection_blocks(W, self._features(X)):
            total = _add_rows(total, self._predict(F))
            if self._residual:
                F -= y
            ll[rows] = self._pass(F, F, False, y)[0]
        return total / W.shape[0], ll

    def predictive(self, W: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Per-sample predictions through the ``_predict`` link, shape (B, N)."""
        return self._predict(_as_batch(W, self.P) @ self._features(X).T)

    def data_log_likelihoods(self, W: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Held-out log likelihood of each draw, shape (B,)."""
        return self.score(W, X, y)[1]

    def _prior(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalised N(0, I/alpha) log density of each row, and its log-alpha derivative."""
        ww = np.einsum("bp,bp->b", W, W)
        return (0.5 * self.P * (np.log(self.alpha) - _LOG_2PI) - 0.5 * self.alpha * ww,
                0.5 * self.P - 0.5 * self.alpha * ww)

    def expectation(self, mu: np.ndarray, R: np.ndarray, draws: FixedDraws,
                    gradient: bool = True):
        """(value, g-bar, G, theta gradient) over the draws w_s = mu + R z_s,
        the gradient terms None unless ``gradient``; see the module docstring.
        No S x P array forms: the prior's terms come from z-bar and z'z / S."""
        z1, zbar, second = draws.moments
        MR = np.column_stack([mu, R])
        A = self.phi @ MR
        if self._residual:
            A[:, 0] -= self.y
        Q, spare = draws.work(self.N)
        spare = spare if gradient else Q   # a value-only pass runs in place
        np.matmul(z1, A.T, out=Q)
        rows, scale, lead = self._pass(Q, spare, gradient, self.y)
        Rz, RM = R @ zbar, R @ second
        ww = mu @ mu + 2.0 * (mu @ Rz) + np.vdot(RM, R)   # mean of |w_s|^2
        value = (float(draws.weights @ rows) + 0.5 * self.P * (math.log(self.alpha) - _LOG_2PI)
                 - 0.5 * self.alpha * ww)
        if not gradient:
            return value, None, None, None
        # now E = scale * Q; [phi | phi_w]' E' Z1 / S in one more small GEMM
        B = Q.T @ z1
        B *= scale / draws.S
        T = self._phi_stack.T @ B
        gbar = T[:self.D, 0] - self.alpha * (mu + Rz)
        G = T[:self.D, 1:] - self.alpha * (np.outer(mu, zbar) + RM)
        if not self.theta_names:   # the conjugate oracle's precisions are fixed
            return value, gbar, G, np.zeros(0)
        # d loglik / d log width = E[sum_nm e_n phi_w,nm w_m] over the draws
        d_lwidth = np.vdot(T[self.D:], MR[:-1])
        return value, gbar, G, np.array([*(draws.weights @ row for row in lead),
                                         0.5 * self.P - 0.5 * self.alpha * ww, d_lwidth])


class _RBFBase(_ModelBase):
    """Construction (see the module docstring), features and their width
    derivative, shared by the RBF models."""

    def __init__(self, X: np.ndarray, y: np.ndarray, centers: np.ndarray, **hyper: float):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.y = self._targets(y)
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("X and the labels disagree on the number of rows")
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self._d2 = squared_distances(self.X, self.centers)
        self._set_hyper(hyper)

    def _set_hyper(self, hyper: dict) -> None:
        """Check and set the hyperparameters; build phi and [phi | d phi / d log width]."""
        names = self._hyper_names()
        if set(hyper) != set(names):
            raise TypeError(f"{type(self).__name__} takes the hyperparameters {names}")
        values = [float(hyper[name]) for name in names]
        # width**2 and gamma**2 would raise OverflowError, where v * v gives inf
        if not all(v > 0 and math.isfinite(v * v) for v in values):
            raise NumericalError(f"{', '.join(names)} must all be positive with "
                                 f"a finite square (got {values})")
        for name, v in zip(names, values):
            setattr(self, name, v)
        self.phi = _bumps(self._d2, self.width)
        # d phi_nm / d log width = phi_nm d2_nm / width^2; the bias column is inert
        self._phi_stack = np.hstack([self.phi, self.phi[:, :-1] * self._d2 / self.width**2])
        self.N, self.D = self.phi.shape
        self.K = 1 if self.y.ndim == 1 else self.y.shape[1]   # outputs per input
        self.P = self.K * self.D

    @classmethod
    def _hyper_names(cls) -> tuple[str, ...]:
        return tuple(name.removeprefix("log_") for name in cls.theta_names)

    @classmethod
    def _hyper_at(cls, theta: np.ndarray) -> dict:
        return dict(zip(cls._hyper_names(), np.exp(np.asarray(theta, dtype=float)), strict=True))

    @classmethod
    def at_theta(cls, X: np.ndarray, y: np.ndarray, centers: np.ndarray, theta: np.ndarray):
        """The model with hyperparameters exp(theta), theta in ``theta_names`` order."""
        return cls(X, y, centers, **cls._hyper_at(theta))

    @property
    def theta(self) -> np.ndarray:
        return np.log([getattr(self, name) for name in self._hyper_names()])

    def set_theta(self, theta: np.ndarray) -> None:
        """``with_theta`` in place: this model moves to exp(theta)."""
        self._set_hyper(self._hyper_at(theta))

    def with_theta(self, theta: np.ndarray):
        """``at_theta`` on this model's data and centres; only the features are rebuilt."""
        model = copy.copy(self)
        model.set_theta(theta)
        return model

    def _features(self, X: np.ndarray) -> np.ndarray:
        return rbf_features(X, self.centers, self.width)


# ---------------------------------------------------------------------------
# robust regression with a Cauchy likelihood
# ---------------------------------------------------------------------------

class CauchyRegression(_RBFBase):
    """Nonlinear regression y = w'phi(x) + Cauchy(gamma) noise, Gaussian prior.

    The Cauchy density (pi gamma [1 + ((y - mu)/gamma)^2])^-1 gives the
    likelihood its heavy tails; the resulting log posterior is non-concave in
    the weights (the per-point curvature changes sign once the residual
    exceeds gamma), which is exactly why a mode-plus-curvature fit can be
    poor and a variational refinement pays off.

    theta = (log_gamma, log_alpha, log_width).
    """

    theta_names = ("log_gamma", "log_alpha", "log_width")

    @staticmethod
    def _targets(y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float).ravel()

    def _pass(self, Q: np.ndarray, spare: np.ndarray, gradient: bool, y: np.ndarray):
        """Log likelihood N log(gamma / pi) - sum_n log d_n of each row of
        Q = F - y, with d = gamma^2 + r^2 formed in ``spare``. If ``gradient``,
        Q becomes (F - y) / d, so that d loglik / dF = -2 Q, and the lead row
        is d loglik / d log gamma = sum_n (r_n^2 - gamma^2) / d_n
        = 2 sum_n r_n^2 / d_n - N, from r^2 / d = Q^2 d with no S x N temporary."""
        d = np.square(Q, out=spare)
        d += self.gamma**2
        lead = []
        if gradient:
            np.divide(Q, d, out=Q)
            lead = [2.0 * np.einsum("bn,bn,bn->b", Q, Q, d) - Q.shape[1]]
        np.log(d, out=d)
        return Q.shape[1] * np.log(self.gamma / np.pi) - d @ np.ones(Q.shape[1]), -2.0, lead

    def _curvature(self, Q: np.ndarray) -> np.ndarray:
        """-d^2 loglik / df^2 = 2 (gamma^2 - r^2) / (gamma^2 + r^2)^2 at each
        residual of Q; negative where |r| > gamma."""
        return 2.0 * (self.gamma**2 - Q**2) / (self.gamma**2 + Q**2) ** 2

    values, grads, theta_grads, hessian = (_ModelBase.values, _ModelBase.grads,
                                           _ModelBase.theta_grads, _ModelBase.hessian)


# ---------------------------------------------------------------------------
# binary logistic regression
# ---------------------------------------------------------------------------

class BinaryLogistic(_RBFBase):
    """Logistic regression on RBF features with labels in {0, 1}.

    theta = (log_alpha, log_width). The log likelihood is written as
    y f - softplus(f), which is exact and stable for large |f|.
    """

    theta_names = ("log_alpha", "log_width")

    @staticmethod
    def _targets(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError("binary labels must be coded as 0/1")
        return y

    _residual = False   # the pass gets the scores F
    _predict = staticmethod(expit)   # the mean prediction is a class-1 probability

    def _pass(self, F: np.ndarray, spare: np.ndarray, gradient: bool, y: np.ndarray):
        """Log likelihood sum_n y_n f_n - softplus(f_n) of each row of F and,
        if ``gradient``, F overwritten with d loglik / dF = y - expit(F)."""
        rows = (y * F - np.logaddexp(0.0, F)).sum(axis=1)
        if gradient:
            np.subtract(y, expit(F, out=F), out=F)
        return rows, 1.0, []

    def _curvature(self, F: np.ndarray) -> np.ndarray:
        """-d^2 loglik / df^2 = s (1 - s), s = expit(f), at each score of F."""
        s = expit(F)
        return s * (1.0 - s)

    values, grads, theta_grads, hessian = (_ModelBase.values, _ModelBase.grads,
                                           _ModelBase.theta_grads, _ModelBase.hessian)


# ---------------------------------------------------------------------------
# multiclass softmax regression
# ---------------------------------------------------------------------------

def _log_normaliser(F: np.ndarray, normalise: bool = False) -> np.ndarray:
    """log sum_k exp F[:, k, :] of (B, K, N) scores, shape (B, N).

    Overwrites F with exp(F - m), m the class maximum, or with the class
    probabilities when ``normalise`` is set. Every exponent is <= 0, so
    nothing overflows. A class far below the maximum underflows to
    probability 0, its correctly rounded value, which is not an error.
    Working in place spares allocating an array of F's size, which costs
    more than the exponentials.
    """
    m = F.max(axis=1, keepdims=True)
    F -= m
    with np.errstate(under="ignore"):
        np.exp(F, out=F)
    out = F.sum(axis=1)
    if normalise:
        F /= out[:, None, :]
    np.log(out, out=out)
    out += m[:, 0, :]
    return out


class SoftmaxRegression(_RBFBase):
    """K-class softmax regression with one weight vector per class.

    Weights are handled flattened, P = K * D, laid out class-major
    (w.reshape(K, D)). A single alpha is shared across all class blocks.
    Labels arrive one-hot, shape (N, K), and are kept as ``y``. theta = (log_alpha, log_width).
    """

    theta_names = ("log_alpha", "log_width")

    @staticmethod
    def _targets(Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if not (np.isin(Y, (0.0, 1.0)).all() and np.allclose(Y.sum(axis=1), 1.0)):
            raise DataError("multiclass labels must be one-hot rows")
        return Y

    def _scores(self, W: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Class scores F = W phi', shape (B, K, N), from one GEMM."""
        B = W.shape[0]
        return (W.reshape(B * self.K, self.D) @ phi.T).reshape(B, self.K, -1)

    @staticmethod
    def _labels(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """sum_{n,k} Y_nk F_bkn per draw, one mat-vec over the (K, N) layout."""
        return F.reshape(F.shape[0], -1) @ Y.T.ravel()

    def _probabilities(self, W: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Softmax over classes, shape (B, K, N)."""
        F = self._scores(W, phi)
        _log_normaliser(F, normalise=True)
        return F

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        F = self._scores(W, self.phi)
        labels = self._labels(F, self.y)   # before the log-sum-exp overwrites F
        return labels - _log_normaliser(F).sum(axis=1) + self._prior(W)[0]

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        W = _as_batch(W, self.P)
        B = W.shape[0]
        F = self._scores(W, self.phi)
        labels = self._labels(F, self.y)
        prior, d_lalpha = self._prior(W)
        values = labels - _log_normaliser(F, normalise=True).sum(axis=1) + prior
        # d loglik / d F = Y' - softmax(F), flattened to (B K, N); row (b, k)
        # of G @ phi is class k's block, so the class-major layout holds
        G = np.subtract(self.y.T, F, out=F).reshape(-1, self.N)
        grads = (G @ self.phi).reshape(B, self.P) - self.alpha * W
        # sum_{k,n} G_bkn dF_bkn with dF = W_k,:-1 phi_w', contracted as
        # ((G phi_w) * W_k,:-1) summed, so the (B, K, N) dF never forms
        Wk = W.reshape(B * self.K, self.D)[:, :-1]
        d_lwidth = ((G @ self._phi_stack[:, self.D:]) * Wk).reshape(B, -1).sum(axis=1)
        return values, grads, np.stack([d_lalpha, d_lwidth], axis=1)

    expectation = sampled_expectation   # the K class scores are not one F
    grads, theta_grads = _ModelBase.grads, _ModelBase.theta_grads

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        Pr = self._probabilities(w[None, :], self.phi)[0]
        # block (k, l) is -phi' diag(p_k (delta_kl - p_l)) phi, the per-point
        # softmax curvature, as one GEMM per class pair
        H = np.block([[-(self.phi.T * (Pr[k] * ((k == l) - Pr[l]))) @ self.phi
                       for l in range(self.K)] for k in range(self.K)])
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def score(self, W: np.ndarray, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean class probabilities over the draws, shape (N, K), and per-draw
        test log likelihood."""
        W = _as_batch(W, self.P)
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        total, ll = None, np.empty(W.shape[0])
        for rows, F in _projection_blocks(W, self._features(X), self.K):
            F = F.reshape(-1, self.K, Y.shape[0])
            labels = self._labels(F, Y)
            ll[rows] = labels - _log_normaliser(F, normalise=True).sum(axis=1)
            total = _add_rows(total, F)
        return (total / W.shape[0]).T, ll

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
    argument of ``score``/``data_log_likelihoods``/``predictive`` is itself a
    design matrix.
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
        self._phi_stack = self.phi   # no hyperparameter moves the features

    @property
    def theta(self) -> np.ndarray:
        return np.zeros(0)

    def with_theta(self, theta: np.ndarray) -> "GaussianLinearModel":
        if np.asarray(theta).size:
            raise ValueError("the conjugate oracle model has no free hyperparameters")
        return self

    @staticmethod
    def _features(X: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(X, dtype=float))   # a design matrix

    def _pass(self, Q: np.ndarray, spare: np.ndarray, gradient: bool, y: np.ndarray):
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
