"""Log-posterior models over radial-basis-function regression weights, and
the fixed 2-D mixture target of the demonstration.

Every model in this module exposes the same duck-typed surface, which is what
the Laplace, variational and evaluation layers program against:

    P               parameter dimension (weights, flattened for multiclass)
    theta           log-space vector of continuous hyperparameters
    theta_names     matching names, e.g. ("log_gamma", "log_alpha", "log_width")
    log_concave     True where the log likelihood is concave in the weights, so
                    ln p~ is alpha-strongly concave (binary, softmax; not Cauchy)
    with_theta(t)   new model instance with hyperparameters exp(t): same data,
                    centres and centre distances, features rebuilt
    with_rows(X, y) the same likelihood, centres and hyperparameters over other
                    rows, e.g. a test set's, built by the constructor
    value/values    unnormalised log posterior at one point / a batch (B, P)
    grad/grads      gradient of the log posterior w.r.t. the weights
    theta_grads     gradient w.r.t. theta (log-space), batch (B, T)
    evaluate(W)     (values, grads, theta_grads) from one pass over the batch;
                    the mode search calls this once per point
    expectation(mu, R, draws)
                    means over fixed draws w_s = mu + R z_s (``FixedDraws``):
                    (value, g-bar, G, theta gradient), i.e. the log posterior,
                    its weight gradient g, G = sum_s g_s z_s' / S and the
                    theta gradient, always all four; one call per evaluation
                    of the bound (``variational.elbo_and_gradient``)
    hessian         dense Hessian w.r.t. the weights at one point, (P, P)
    score(mu, R, z) pass over the draws w_s = mu + R z_s on the model's rows:
                    (mean prediction over the draws, per-draw log
                    likelihood), streaming the draws in fixed blocks; held-out
                    rows score as ``model.with_rows(X_test, y_test).score``
    pointwise_loglik(Q, out)
                    regression only: ln p(y | f) at each residual f - y of an
                    array Q of any shape, in ``out`` (Q itself, say; a new
                    array if None), which the held-out quadrature reads

Every likelihood here (Cauchy, binary, softmax) depends on the weights only
through the projections F = W phi' (one row per draw and output, one column
per data point; a softmax draw's K class blocks give K rows, class-major),
and each is written once, as the model's ``_pass(Q, spare, gradient)`` over
its targets ``y``. Q holds F - y for a regression (``_residual``) or F for
the classifiers. The pass returns the log likelihood of each draw, formed
before a gradient pass rewrites Q (so it equals the rows of ``values`` bit
for bit); the factor ``scale`` with d loglik / dF = scale * Q once a gradient
pass has rewritten Q; and, per draw, the derivatives in the likelihood's own
hyperparameters (log gamma for Cauchy). ``_ModelBase`` derives the rest from
it, once: ``values`` (the pass in place), ``evaluate`` with ``grads`` and
``theta_grads`` (one GEMM of scale * Q with [phi | d phi / d log width]),
and ``hessian``, the blocks -phi' diag(c_kl) phi - alpha I from
``_curvature``, the per-point c_kl = -d^2 loglik / dF_k dF_l: one block for
K = 1, and p_k (delta_kl - p_l) for softmax (Williams & Barber, 1998). For
draws w_s = mu + R z_s, F - y = Z1 A' exactly, with Z1 = [1 | z] and
A = [phi mu - y | phi R]: ``expectation`` forms every residual with that one
GEMM, runs the pass in the draws' buffers, and takes the mean gradients from
one GEMM E' Z1 and products of size P. ``score`` forms the residuals the
same way, one block of draws at a time; a regression's mean prediction is
phi (mu + R z-bar) in closed form, and binary's is the mean of expit(F)
over the draws.

Softmax keeps its own ``score`` (mean class probabilities) and
``expectation`` from ``sampled_expectation``, which forms the points and the
per-draw gradients: projecting its draws through A would cost K times the
flops. The 2-D mixture is no F at all; it writes its own ``values`` (its
normalised log density, which the demo's contours and KL read too),
``evaluate`` and ``hessian``, its responsibilities being a softmax over its
two components from the same ``_log_normaliser`` as the softmax likelihood.
Every target, the mixture too, takes the scalar wrappers ``value`` and
``grad``, ``grads`` and ``theta_grads`` from ``Target``, and a target without
hyperparameters (the mixture) its empty ``theta`` and a ``with_theta`` that
refuses a non-empty one.

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
the same names, and ``with_rows`` calls the constructor with the
hyperparameters as stored, so held-out rows get their features from the
same code as training rows. Each RBF class re-binds the shared ``values``,
``grads``, ``theta_grads`` and ``hessian`` on itself: the benchmark's tracer
times them through each class's own ``__dict__``, so an inherited kernel
would go untimed.

Priors are kept fully normalised (including the (D/2) ln alpha term), so the
log-alpha gradient picks up the normaliser's contribution; this is what lets
the variational stage move alpha sensibly.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DataError, NumericalError

_LOG_2PI = float(np.log(2.0 * np.pi))
# entropy of a unit-variance Gaussian coordinate: 0.5 * ln(2 pi e)
_HALF_LOG_2PIE = 0.5 * float(np.log(2.0 * np.pi) + 1.0)

# Draws per block of the held-out pass; the buffer for F holds one block: 0.8 MB at 1,000
# test points, inside a 2 MB L2 cache per core (288 draws: 2.3 MB, up to 1.4x slower). With
# one-thread OpenBLAS, a block of a multiple of 24 draws gets the rows of the one-shot
# W phi' bit for bit, so each draw's log likelihood (not the block-summed mean, equal to
# round-off); 256 draws did not, at 300 test points (edge tiles rounded apart).
_SCORE_BLOCK = 96


def expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic 1 / (1 + e^-x) of an array, in place if ``out`` is ``x``. x is raised
    to -709 first so that e^-x cannot overflow; below -709 the error is under 1.3e-308."""
    out = np.maximum(x, -709.0, out=out)
    np.exp(np.negative(out, out=out), out=out)
    return np.reciprocal(np.add(out, 1.0, out=out), out=out)


# ---------------------------------------------------------------------------
# feature construction
# ---------------------------------------------------------------------------

def squared_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (N, M)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    C = np.atleast_2d(np.asarray(centers, dtype=float))
    d = X[:, None, :] - C[None, :, :]
    return np.einsum("nmq,nmq->nm", d, d)


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


def standardize_draws(z: np.ndarray) -> np.ndarray:
    """Centre columns and whiten the empirical second moment to identity.

    Whitening needs more rows than columns; with S <= P only the centring is
    applied. With S = 1 the single row centres to zero, which degenerates the
    bound to value-at-the-mean plus entropy (a useful property in tests).
    """
    z = np.asarray(z, dtype=float)
    z = z - z.mean(axis=0, keepdims=True)
    s, p = z.shape
    if s > p:   # z C'^-1, with C C' the second moment
        z = np.linalg.solve(np.linalg.cholesky(z.T @ z / s), z.T).T
    return z


def sampled_expectation(model, mu: np.ndarray, R: np.ndarray, draws: FixedDraws):
    """``expectation`` of a likelihood that is not one F = W phi': from the
    model's own batch methods at W = mu + z R', per-draw gradients and all."""
    vals, g, theta_g = model.evaluate(mu[None, :] + draws.z @ R.T)
    return (float(vals.mean()), draws.weights @ g, g.T @ draws.z / draws.S,
            draws.weights @ theta_g)


# ---------------------------------------------------------------------------
# the held-out pass, one block of draws at a time
# ---------------------------------------------------------------------------

def _projection_blocks(W: np.ndarray, phi: np.ndarray, rows_per_draw: int = 1):
    """Yield (draw slice, F) with F = W[slice] phi' for consecutive blocks:
    the scores of softmax draws W, or the residuals Z1 A' when W = Z1, phi = A.

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


# ---------------------------------------------------------------------------
# shared model pieces
# ---------------------------------------------------------------------------

class Target:
    """The surface every target shares over its own ``values`` and
    ``evaluate``: the scalar and single-output wrappers, and an empty theta,
    which a target with hyperparameters overrides."""

    theta_names: tuple = ()
    log_concave = False

    @property
    def theta(self) -> np.ndarray:
        return np.zeros(0)

    def with_theta(self, theta: np.ndarray):
        if np.asarray(theta).size:
            raise ValueError(f"{type(self).__name__} has no free hyperparameters")
        return self

    def value(self, w: np.ndarray) -> float:
        return float(self.values(_as_batch(w, self.P))[0])

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.grads(_as_batch(w, self.P))[0]

    def grads(self, W: np.ndarray) -> np.ndarray:
        return self.evaluate(W)[1]

    def theta_grads(self, W: np.ndarray) -> np.ndarray:
        return self.evaluate(W)[2]


class _ModelBase(Target):
    """The Gaussian prior, and every batch method of a model whose likelihood
    is one F = W phi', derived from its ``_pass``. A subclass without
    ``theta_names`` (fixed features and precisions, such as a conjugate
    linear-Gaussian model) gets an empty theta gradient."""

    _residual = True   # ``_pass`` gets the residuals F - y, else the scores F
    K = 1              # outputs per input: rows of F per draw

    def _projections(self, W: np.ndarray) -> np.ndarray:
        """Q = W phi' - y of a residual likelihood, else W phi', with W read as
        (B K, D) rows, class-major: shape (B K, N), (B, N) for one output."""
        Q = W.reshape(-1, self.D) @ self.phi.T
        if self._residual:
            Q -= self.y
        return Q

    def values(self, W: np.ndarray) -> np.ndarray:
        W = _as_batch(W, self.P)
        Q = self._projections(W)
        return self._pass(Q, Q, False)[0] + self._prior(W)[0]

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, grads, theta_grads) at a batch of weights, from one pass;
        the theta columns are the pass's lead rows, log alpha and log width."""
        W = _as_batch(W, self.P)
        Q = self._projections(W)
        rows, scale, lead = self._pass(Q, None, True)
        if scale != 1.0:
            Q *= scale   # d loglik / dF
        # one GEMM gives the weight gradient and d loglik / d phi_w, which,
        # contracted with the weights, is the log-width derivative of each
        # draw (over its K class rows: views for K = 1, copies otherwise)
        both = Q @ self._phi_stack
        prior, d_lalpha = self._prior(W)
        grads = both[:, :self.D].reshape(W.shape) - self.alpha * W
        if not self.theta_names:
            return rows + prior, grads, np.zeros((W.shape[0], 0))
        B = W.shape[0]
        d_lwidth = np.einsum("bm,bm->b", both[:, self.D:].reshape(B, -1),
                             W.reshape(-1, self.D)[:, :-1].reshape(B, -1))
        return rows + prior, grads, np.stack([*lead, d_lalpha, d_lwidth], axis=1)

    def hessian(self, w: np.ndarray) -> np.ndarray:
        """Blocks (k, l) -phi' diag(c_kl) phi, one GEMM each, minus alpha I:
        c (K, K, N) the likelihood's ``_curvature`` at w, one block for K = 1."""
        c = self._curvature(self._projections(_as_batch(w, self.P))).reshape(self.K, self.K, -1)
        H = np.block([[-(self.phi.T * c[k, l]) @ self.phi for l in range(self.K)]
                      for k in range(self.K)])
        H[np.diag_indices_from(H)] -= self.alpha
        return H

    def score(self, mu: np.ndarray, R: np.ndarray,
              z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean prediction over the draws w_s = mu + R z_s at the model's
        rows, shape (N,), and per-draw log likelihood. Each block of residuals
        (of scores, for binary) is one GEMM Z1 A' with A = [phi mu - y | phi R],
        scored in place. A regression's mean is linear in the draws, so a
        residual likelihood takes it in closed form, phi (mu + R z-bar)."""
        A = self.phi @ np.column_stack([mu, R])
        if self._residual:
            A[:, 0] -= self.y
        S = z.shape[0]
        total, ll = 0.0, np.empty(S)
        for rows, Q in _projection_blocks(np.hstack([np.ones((S, 1)), z]), A):
            if not self._residual:
                total += self._predict(Q).sum(axis=0)
            ll[rows] = self._pass(Q, Q, False)[0]
        if self._residual:
            return self.phi @ (mu + R @ z.mean(axis=0)), ll
        return total / S, ll

    def _prior(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Normalised N(0, I/alpha) log density of each row, and its log-alpha derivative."""
        ww = np.einsum("bp,bp->b", W, W)
        return (0.5 * self.P * (np.log(self.alpha) - _LOG_2PI) - 0.5 * self.alpha * ww,
                0.5 * self.P - 0.5 * self.alpha * ww)

    def expectation(self, mu: np.ndarray, R: np.ndarray, draws: FixedDraws):
        """(value, g-bar, G, theta gradient) over the draws w_s = mu + R z_s;
        see the module docstring. No S x P array forms: the prior's terms come
        from z-bar and z'z / S."""
        z1, zbar, second = draws.moments
        MR = np.column_stack([mu, R])
        A = self.phi @ MR
        if self._residual:
            A[:, 0] -= self.y
        Q, spare = draws.work(self.N)
        np.matmul(z1, A.T, out=Q)
        rows, scale, lead = self._pass(Q, spare, True)
        Rz, RM = R @ zbar, R @ second
        ww = mu @ mu + 2.0 * (mu @ Rz) + np.vdot(RM, R)   # mean of |w_s|^2
        value = (float(draws.weights @ rows) + 0.5 * self.P * (math.log(self.alpha) - _LOG_2PI)
                 - 0.5 * self.alpha * ww)
        # now E = scale * Q; [phi | phi_w]' E' Z1 / S in one more small GEMM
        B = Q.T @ z1
        B *= scale / draws.S
        T = self._phi_stack.T @ B
        gbar = T[:self.D, 0] - self.alpha * (mu + Rz)
        G = T[:self.D, 1:] - self.alpha * (np.outer(mu, zbar) + RM)
        if not self.theta_names:
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
        self.K = 1 if self.y.ndim == 1 else self.y.shape[1]
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("X and the labels disagree on the number of rows")
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self._d2 = squared_distances(self.X, self.centers)
        self.N, self.D = self._d2.shape[0], self._d2.shape[1] + 1
        self.P = self.K * self.D
        names = self._hyper_names()
        if set(hyper) != set(names):
            raise TypeError(f"{type(self).__name__} takes the hyperparameters {names}")
        self._set_hyper([float(hyper[name]) for name in names])

    def _set_hyper(self, values) -> None:
        """Check and set the hyperparameters, given in ``theta_names`` order, and
        build [phi | d phi / d log width] in one array, ``_phi_stack``; ``phi``
        is a view of its leading D columns: phi_nm = exp(-d2_nm / (2 width^2))
        with a trailing bias column of ones, and phi_nm d2_nm / width^2."""
        names = self._hyper_names()
        # width**2 and gamma**2 would raise OverflowError, where v * v gives inf
        if not all(v > 0 and math.isfinite(v * v) for v in values):
            raise NumericalError(f"{', '.join(names)} must all be positive with "
                                 f"a finite square (got {values})")
        for name, v in zip(names, values, strict=True):
            setattr(self, name, v)
        M = self.D - 1
        bumps = np.negative(self._d2)   # worked on whole: a strided pass costs twice
        bumps /= 2.0 * self.width**2
        np.exp(bumps, out=bumps)
        self._phi_stack = np.empty((self.N, 2 * M + 1))
        self._phi_stack[:, :M] = bumps
        self._phi_stack[:, M] = 1.0
        # d phi_nm / d log width = phi_nm d2_nm / width^2; the bias column is inert
        bumps *= self._d2
        bumps /= self.width**2
        self._phi_stack[:, self.D:] = bumps
        self.phi = self._phi_stack[:, :self.D]

    @classmethod
    def _hyper_names(cls) -> tuple[str, ...]:
        return tuple(name.removeprefix("log_") for name in cls.theta_names)

    @property
    def theta(self) -> np.ndarray:
        return np.log([getattr(self, name) for name in self._hyper_names()])

    def with_theta(self, theta: np.ndarray):
        """This model at hyperparameters exp(theta), theta in ``theta_names``
        order, on the same data and centres; only the features are rebuilt."""
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        with np.errstate(over="ignore"):   # inf fails _set_hyper's finite-square check
            hyper = np.exp(np.asarray(theta, dtype=float))
        model._set_hyper(hyper.tolist())
        return model

    def with_rows(self, X: np.ndarray, y: np.ndarray):
        """This model's likelihood, centres and hyperparameters over the rows
        X with targets y, from the constructor and its checks; the
        hyperparameters pass as stored, not through exp(log theta)."""
        return type(self)(X, y, self.centers,
                          **{name: getattr(self, name) for name in self._hyper_names()})


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

    def _spread(self, Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """d = gamma^2 + r^2 at each residual r of Q, formed in ``out`` (a new
        array if None): the Cauchy density is gamma / (pi d)."""
        d = np.square(Q, out=out)
        d += self.gamma**2
        return d

    def pointwise_loglik(self, Q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """ln p(y | f) = ln(gamma / pi) - ln d at each residual r = f - y of Q,
        an array of any shape, with d from ``_spread``, formed in ``out``."""
        d = self._spread(Q, out)
        np.log(d, out=d)
        return np.subtract(np.log(self.gamma / np.pi), d, out=d)

    def _pass(self, Q: np.ndarray, spare: np.ndarray | None, gradient: bool):
        """Log likelihood N log(gamma / pi) - sum_n log d_n of each row of
        Q = F - y, with d = gamma^2 + r^2 formed by ``_spread`` in ``spare``.
        If ``gradient``,
        Q becomes (F - y) (1 / d), so that d loglik / dF = -2 Q, and the lead
        row is d loglik / d log gamma = sum_n (r_n^2 - gamma^2) / d_n
        = N - 2 gamma^2 sum_n 1 / d_n, both from one array of reciprocals."""
        d = self._spread(Q, spare)
        lead = []
        if gradient:
            inv = np.reciprocal(d)
            Q *= inv
            lead = [Q.shape[1] - 2.0 * self.gamma**2 * (inv @ np.ones(Q.shape[1]))]
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
    log_concave = True

    @staticmethod
    def _targets(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if not np.isin(y, (0.0, 1.0)).all():
            raise DataError("binary labels must be coded as 0/1")
        return y

    _residual = False   # the pass gets the scores F
    _predict = staticmethod(expit)   # the mean prediction is a class-1 probability

    def _pass(self, F: np.ndarray, spare: np.ndarray | None, gradient: bool):
        """Log likelihood sum_n y_n f_n - softplus(f_n) of each row of F and,
        if ``gradient``, F overwritten with d loglik / dF = y - expit(F)."""
        rows = (self.y * F - np.logaddexp(0.0, F)).sum(axis=1)
        if gradient:
            np.subtract(self.y, expit(F, out=F), out=F)
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
    log_concave = True

    @staticmethod
    def _targets(Y: np.ndarray) -> np.ndarray:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if not (np.isin(Y, (0.0, 1.0)).all() and np.allclose(Y.sum(axis=1), 1.0)):
            raise DataError("multiclass labels must be one-hot rows")
        return Y

    _residual = False   # the pass gets the scores F, K rows per draw

    @staticmethod
    def _labels(F: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """sum_{n,k} Y_nk F_bkn per draw, one mat-vec over the (K, N) layout."""
        return F.reshape(F.shape[0], -1) @ Y.T.ravel()

    def _pass(self, F: np.ndarray, spare: np.ndarray | None, gradient: bool):
        """Log likelihood sum_{k,n} Y_nk F_kn - log sum_k exp F_kn of each
        draw's K rows of F and, if ``gradient``, F overwritten with
        d loglik / dF = Y' - softmax(F), row (b, k) being class k of draw b."""
        F = F.reshape(-1, self.K, F.shape[1])
        labels = self._labels(F, self.y)   # before the log-sum-exp overwrites F
        rows = labels - _log_normaliser(F, normalise=gradient).sum(axis=1)
        if gradient:
            np.subtract(self.y.T, F, out=F)
        return rows, 1.0, []

    def _curvature(self, F: np.ndarray) -> np.ndarray:
        """-d^2 loglik / df_k df_l = p_k (delta_kl - p_l), shape (K, K, N),
        p = softmax of the (K, N) scores F, formed in F."""
        _log_normaliser(F.reshape(1, self.K, -1), normalise=True)
        return F[:, None, :] * (np.eye(self.K)[:, :, None] - F[None, :, :])

    # projecting the draws through A would cost K times the flops of forming them
    expectation = sampled_expectation
    values, grads, theta_grads, hessian = (_ModelBase.values, _ModelBase.grads,
                                           _ModelBase.theta_grads, _ModelBase.hessian)

    def score(self, mu: np.ndarray, R: np.ndarray,
              z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mean class probabilities over the draws w_s = mu + R z_s at the
        model's rows, shape (N, K), and per-draw log likelihood, from the
        draws themselves: projecting them would cost K times the flops."""
        W = mu[None, :] + z @ R.T
        total, ll = 0.0, np.empty(W.shape[0])
        for rows, F in _projection_blocks(W, self.phi, self.K):
            F = F.reshape(-1, self.K, self.N)
            labels = self._labels(F, self.y)
            ll[rows] = labels - _log_normaliser(F, normalise=True).sum(axis=1)
            total += F.sum(axis=0)
        return (total / W.shape[0]).T, ll


# ---------------------------------------------------------------------------
# 2-D mixture target
# ---------------------------------------------------------------------------

class MixtureTarget2D(Target):
    """A fixed two-component Gaussian mixture density on the plane.

    Normalised, with analytic gradient and Hessian of the log density, so it
    doubles as a log-posterior model for the 2-D demonstration: mode finding
    and the curvature fit run directly on it. ``theta`` is empty (nothing to
    tune), and ``bounds`` is the square the demo draws its contours on.
    """

    bounds = (-10.0, 10.0)
    P = 2

    def __init__(self):
        self.weights = np.array([2.0 / 3.0, 1.0 / 3.0])
        self.means = np.array([[0.0, 0.0], [-1.0, -2.0]])
        self.covs = np.stack([np.eye(2), np.diag([3.5, 0.3])])
        self._precs = np.stack([np.linalg.inv(c) for c in self.covs])
        self._log_norm = np.array([-np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(c)[1]
                                   for c in self.covs])

    def _log_density_terms(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Log density and the responsibilities, (G,) and (G, 2): the latter a
        softmax over the components' weighted log densities."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lp = np.empty((pts.shape[0], 2))
        for i in range(2):
            dev = pts - self.means[i][None, :]
            quad = np.einsum("gj,jk,gk->g", dev, self._precs[i], dev)
            lp[:, i] = self._log_norm[i] - 0.5 * quad
        lp += np.log(self.weights)[None, :]
        values = _log_normaliser(lp[:, :, None], normalise=True)   # lp becomes the softmax
        return values[:, 0], lp

    def values(self, W: np.ndarray) -> np.ndarray:
        return self._log_density_terms(W)[0]

    def _components(self, W: np.ndarray):
        """One pass over the components at the rows of W: the log density, the
        responsibilities, each component's gradient of its own log density,
        and the mixture's gradient."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        values, resp = self._log_density_terms(W)
        comp_grads = [-(W - self.means[i][None, :]) @ self._precs[i] for i in range(2)]
        grad = sum(resp[:, i:i + 1] * comp_grads[i] for i in range(2))
        return values, resp, comp_grads, grad

    # -- log-posterior model surface (``Target`` adds the rest) ---------------

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, grads, theta_grads) from one pass over the components."""
        values, _, _, grad = self._components(W)
        return values, grad, np.zeros((grad.shape[0], 0))

    expectation = sampled_expectation   # from ``evaluate`` at the points mu + R z

    def hessian(self, w: np.ndarray) -> np.ndarray:
        """The log density's Hessian at one point, from the same pass as ``evaluate``."""
        _, resp, comp_grads, grad = self._components(np.ravel(w))
        h = sum(resp[0, i] * (np.outer(comp_grads[i], comp_grads[i]) - self._precs[i])
                for i in range(2))
        return h - np.outer(grad, grad)
