"""Gaussian variational families seeded by a Laplace approximation.

The posterior family is always N(mu, R R') for a square root R built from the
Laplace decompositions, and the objective is the evidence lower bound with the
expectation replaced by an average over a *fixed* set of base samples:

    bound(params) = (1/S) sum_s ln p~(mu + R z_s | theta, data) + entropy(R)

Because the z_s never change during optimisation, the bound is an ordinary
deterministic function of the parameters and is optimised with the L-BFGS
routine from :mod:`.optimize`; no stochastic-gradient machinery is involved.
A fit's ``FitResult`` is the fitted Gaussian itself, read by scoring through
``mean``, ``root`` and ``dim`` as the ``LaplaceResult`` is. Every family is
optimised in Laplace-whitened coordinates (:class:`_Whitened`): the mean as
mu0 + C xi, C the Laplace Cholesky factor, and theta scaled by its curvature
at the start; mvi_lr's rank-one update is written in the same frame, C t v'.
The change of variables leaves the bound as it is; since the Laplace fit
holds the posterior's geometry, the whitened bound is better scaled, and
L-BFGS reaches its optimum in fewer evaluations.

The sample term is the model's ``expectation(mu, R, draws)``: the means
over the draws of the log posterior, of its gradient g_s at w_s = mu + R z_s
(g-bar), of g_s z_s' (G) and of the theta gradient. Each family's
``contract`` maps G onto its fields, so no evaluation forms a gradient per
draw here. Every family reads the caller's draws as they are; an evaluation
at a theta other than the model's own scores ``model.with_theta(theta)``, a
copy with the features rebuilt. The bound has one evaluation path,
:func:`elbo_and_gradient`: a caller that wants the value alone takes its
first element.

Families
--------
Each family is defined once, by its :class:`FamilySpec` record in
``FAMILY_SPECS``: its parameter fields, the covariance root built from the
Laplace fit, the log-determinant terms of the entropy, the contraction of
G onto the fields and the starting values. The functions below read that
table; none branches on the name. Only :func:`initialise` takes a name (and a
seed): every function after it reads the family from the parameters.

mvi_mu    free mean only; R = C, the Laplace Cholesky factor itself, covariance
          frozen at the Laplace fit.
mvi_eig   free mean and eigen-scales; R = Q diag(r) A with Q the Laplace
          eigenvector matrix and A = diag(1/r0) Q' C orthogonal, r0 the
          Laplace eigenvalue square roots. Initialised at r = r0.
mvi_lr    free mean plus a rank-one update of the Cholesky factor,
          in the Laplace frame: R = C (I + t v') = C + (C t) v'. The
          start's C t v' is an outer product of small Gaussian noise,
          balanced to |t| = |v|.
vi_diag   mean-field baseline; R = diag(sigma), no Laplace coupling beyond
          the start, sigma^2 equal to the Laplace covariance diagonal.

All positive quantities (r, sigma, and the model hyperparameters) are
optimised in log space. Model hyperparameters theta enter only through the
log-posterior term; the root factors stay frozen at their Laplace values.

Two details matter for exactness guarantees and are easy to miss:

* ``draw_fixed_samples`` standardises the draws: columns are centred and the
  empirical second moment is whitened to the identity. For a Gaussian
  (conjugate) target this makes the fixed-sample bound attain its maximum of
  exactly ln Z at the exact posterior, instead of ln Z plus an O(1/sqrt(S))
  fluctuation that the optimiser could also overfit.
* R = C at the Laplace scales: the eigen family's root carries the
  orthogonal factor A, so at r = r0 it is the Cholesky factor and its sample
  paths are the Cholesky families' on the same draws. Without this, bounds
  of nested families would differ by Monte Carlo noise at the common
  distribution and warm-start monotonicity would only hold on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import NumericalError
from .models import _HALF_LOG_2PIE, FixedDraws, standardize_draws
from .optimize import MinimizeResult, OptimConfig, minimize

# |1 + v' t| below this means the rank-one update has numerically
# annihilated the root determinant
_DET_LEMMA_FLOOR = 1.0e-12


# ---------------------------------------------------------------------------
# fixed sample sets
# ---------------------------------------------------------------------------

def draw_fixed_samples(n_samples: int, dim: int, seed: int) -> FixedDraws:
    """Draw and standardise the base samples for one optimisation, read-only;
    deterministic given ``seed``."""
    rng = np.random.default_rng(seed)
    z = standardize_draws(rng.standard_normal((n_samples, dim)))
    z.flags.writeable = False
    return FixedDraws(z)


# ---------------------------------------------------------------------------
# parameters and the family table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, kw_only=True)
class VariationalParams:
    """Free parameters of one family, stored as one vector ``x``: the mean,
    then the fields its spec lists, in order, then theta. That vector is the
    point the optimiser moves. ``mu``, ``theta`` and each field are views of
    ``x``, and the record is frozen, so ``x`` and the names never disagree:
    move a point in place through a view (``params.t[:] = ...``) or build a
    new one. The constructor takes the optimiser's ``x`` itself, for a mean
    of ``dim`` coordinates, unchecked and not copied; :meth:`of` checks the
    family, the field names and the sizes once, then copies."""

    family: str
    x: np.ndarray
    dim: int

    @classmethod
    def of(cls, family: str, mu, theta, **fields) -> VariationalParams:
        """The family's parameters from mu, theta and its spec's fields, copied into one x."""
        names = _spec(family).fields
        blocks = [np.asarray(b, dtype=float).ravel() for b in (mu, *map(fields.get, names))]
        if set(fields) != set(names) or any(b.size != blocks[0].size for b in blocks):
            raise ValueError(f"family {family} takes the fields {names}, each the size "
                             f"of mu; got {tuple(fields)}")
        return cls(family=family, dim=blocks[0].size,
                   x=np.concatenate([*blocks, np.asarray(theta, dtype=float).ravel()]))

    def __getattr__(self, name: str) -> np.ndarray:
        """``mu``, ``theta`` or a field of the family's spec, as its view of ``x``.
        A dunder name is refused before ``family`` is read: unpickling asks for
        ``__setstate__`` while the record is still empty."""
        if name.startswith("__"):
            raise AttributeError(name)
        names = ("mu", *FAMILY_SPECS[self.family].fields)
        if name == "theta":
            return self.x[len(names) * self.dim:]
        if name not in names:
            raise AttributeError(f"family {self.family} has no field {name!r}")
        i = names.index(name)
        return self.x[i * self.dim:(i + 1) * self.dim]


@dataclass(frozen=True)
class FamilySpec:
    """What sets one family apart. G = sum_s g_s z_s' / S, g_s the log-posterior
    gradient at mu + R z_s, is all the fields' sample terms need. The fields
    take no change of variables of their own: :func:`fit_family` fits every
    family in the one frame of :class:`_Whitened`."""

    fields: tuple[str, ...]     # stored between mu and theta, in this order
    root: Callable              # (params, laplace) -> R
    log_det: Callable           # (params, laplace) -> terms of ln|det R|, added in order
    contract: Callable          # (params, laplace, G) -> gradient blocks of the fields:
                                # the sample term from G alone plus the entropy's terms
    init: Callable              # (laplace, seed) -> starting fields


def _lemma(params: VariationalParams) -> float:
    """s = 1 + v' t, so that det(C (I + t v')) = det(C) s."""
    s = 1.0 + float(params.v @ params.t)
    if abs(s) < _DET_LEMMA_FLOOR:
        raise NumericalError(
            "rank-one update made the covariance root numerically singular "
            f"(|1 + v' t| = {abs(s):.3e})")
    return s


def _log_scale_block(BG: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """Gradient in log s of a root R = B diag(s), from BG = B' G: the sample
    term diag(BG) plus the entropy's 1/s, times s for the log space."""
    scale = np.exp(log_s)
    return (np.diagonal(BG) + 1.0 / scale) * scale


def _eig_frame(laplace) -> np.ndarray:
    """A = diag(1/r0) Q' C, orthogonal since C C' = Q diag(r0^2) Q': mvi_eig's
    root Q diag(r) A has the covariance Q diag(r^2) Q' and is C at r = r0."""
    return (laplace.eigvecs.T @ laplace.chol) / laplace.eig_root[:, None]


def _contract_lr(params: VariationalParams, laplace, G: np.ndarray) -> list[np.ndarray]:
    """[C' G v + v / s, G' C t + t / s]: the sample term of R = C + (C t) v'
    and the entropy's ln|s|, s from :func:`_lemma`."""
    s = _lemma(params)
    return [laplace.chol.T @ (G @ params.v) + params.v / s,
            G.T @ (laplace.chol @ params.t) + params.t / s]


def _init_lr(laplace, seed: int) -> dict:
    """The root C + u v', u and v small Gaussian noise, as t = c C^-1 u and
    v / c with c = sqrt(|v| / |C^-1 u|): the bound is flat along (c t, v / c),
    and the start is the point of that orbit with |t| = |v|."""
    rng = np.random.default_rng(seed)
    p = laplace.mean.size
    t = np.linalg.solve(laplace.chol, 0.1 * rng.standard_normal(p))
    if not np.isfinite(t).all():
        raise NumericalError("rank-one start C^-1 u is not finite")
    v = 0.1 * rng.standard_normal(p)
    c = math.sqrt(np.linalg.norm(v) / np.linalg.norm(t))
    return {"t": c * t, "v": v / c}


FAMILY_SPECS = {
    "mvi_mu": FamilySpec(
        fields=(),
        root=lambda params, lap: lap.chol,
        log_det=lambda params, lap: (lap.log_det,),
        contract=lambda params, lap, G: [],
        init=lambda lap, seed: {}),
    "mvi_eig": FamilySpec(
        fields=("log_r",),
        root=lambda params, lap: (lap.eigvecs * np.exp(params.log_r)) @ _eig_frame(lap),
        log_det=lambda params, lap: (float(np.sum(params.log_r)),),   # |det A| = 1
        contract=lambda params, lap, G: [
            _log_scale_block(lap.eigvecs.T @ G @ _eig_frame(lap).T, params.log_r)],
        init=lambda lap, seed: {"log_r": np.log(lap.eig_root)}),
    "mvi_lr": FamilySpec(
        fields=("t", "v"),
        root=lambda params, lap: lap.chol + np.outer(lap.chol @ params.t, params.v),
        log_det=lambda params, lap: (lap.log_det, float(np.log(abs(_lemma(params))))),
        contract=_contract_lr,
        init=_init_lr),
    "vi_diag": FamilySpec(
        fields=("log_sigma",),
        root=lambda params, lap: np.diag(np.exp(params.log_sigma)),
        log_det=lambda params, lap: (float(np.sum(params.log_sigma)),),
        contract=lambda params, lap, G: [_log_scale_block(G, params.log_sigma)],
        init=lambda lap, seed: {"log_sigma": 0.5 * np.log(np.diag(lap.cov))}),
}
FAMILIES = tuple(FAMILY_SPECS)


def _spec(family: str) -> FamilySpec:
    if family not in FAMILY_SPECS:
        raise ValueError(f"unknown family {family!r}")
    return FAMILY_SPECS[family]


# ---------------------------------------------------------------------------
# family geometry
# ---------------------------------------------------------------------------

def entropy(params: VariationalParams, laplace) -> float:
    """Differential entropy of the family's Gaussian.

    mvi_mu reads the Laplace fit's ``log_det``; mvi_eig and vi_diag
    reduce to sums of log scales; mvi_lr uses the matrix determinant lemma
    det(C (I + t v')) = det(C) (1 + v' t), and refuses to proceed when the
    rank-one update collapses the determinant.
    """
    value = params.dim * _HALF_LOG_2PIE
    for term in _spec(params.family).log_det(params, laplace):
        value += term
    return value


# ---------------------------------------------------------------------------
# bound and gradient
# ---------------------------------------------------------------------------

def elbo_and_gradient(params: VariationalParams, samples: FixedDraws,
                      model, laplace) -> tuple[float, np.ndarray]:
    """Fixed-sample bound and its gradient w.r.t. the free parameters, laid out
    as ``params.x``; the bound is evaluated at ``params.theta`` (the caller's
    model itself while theta is its own).

    All gradients are analytic. The sample term differentiates through
    w_s = mu + R z_s (g-bar for mu, G through ``contract``); the entropy
    contributes 1/r (resp. 1/sigma) in the scale coordinates and the
    determinant-lemma terms for the rank-one family. In log-space
    coordinates those entropy terms become the constant one. Hyperparameter
    gradients flow only through the log-posterior term.
    """
    if not np.array_equal(params.theta, model.theta):
        model = model.with_theta(params.theta)
    value, gbar, G, theta_g = model.expectation(
        params.mu, _spec(params.family).root(params, laplace), samples)
    if not math.isfinite(value):
        raise NumericalError(f"log posterior not finite (mean over the draws {value})")
    value += entropy(params, laplace)
    grad = np.concatenate([gbar, *_spec(params.family).contract(params, laplace, G), theta_g])
    if not np.isfinite(grad).all():
        raise NumericalError("bound gradient not finite")
    return value, grad


# ---------------------------------------------------------------------------
# initialisation and fitting
# ---------------------------------------------------------------------------

def initialise(family: str, laplace, seed: int = 0) -> VariationalParams:
    """The family's one start, at the Laplace fit: its mean and theta, and
    the fields its spec's ``init`` gives (vi_diag's sigma^2 the Laplace
    covariance diagonal)."""
    return VariationalParams.of(family, laplace.mean, laplace.theta,
                                **_spec(family).init(laplace, seed))


@dataclass
class FitResult:
    """A fitted family, and its Gaussian N(mean, R R'), read as every Gaussian
    is, by ``mean`` (a copy of ``params.mu``), ``root`` (the spec's root of
    ``params``) and ``dim``."""

    params: VariationalParams
    elbo: float
    opt: MinimizeResult
    mean: np.ndarray
    root: np.ndarray

    dim = property(lambda self: self.mean.size)
    family = property(lambda self: self.params.family)


# Step of the forward difference that measures each theta curvature of a whitened fit.
_CURVATURE_STEP = 1.0e-4


def _theta_scales(fun, x0: np.ndarray, g0: np.ndarray, n_theta: int) -> np.ndarray:
    """s_j = 1 / sqrt(c_j) for the last ``n_theta`` coordinates, c_j the
    curvature of ``fun`` in coordinate j at x0: the forward difference of its
    gradient ``g0`` there, one evaluation each. s_j = 1 where c_j is not
    finite and positive."""
    scales = np.ones(n_theta)
    for j, k in enumerate(range(x0.size - n_theta, x0.size)):
        x = x0.copy()
        x[k] += _CURVATURE_STEP
        c = (fun(x)[1][k] - g0[k]) / (x[k] - x0[k])
        if math.isfinite(c) and c > 0.0:
            scales[j] = 1.0 / math.sqrt(c)
    return scales


class _Whitened:
    """The negated bound ``fun`` over y, with x = x0 + T y and T block-diagonal:
    the Laplace Cholesky factor C on the mean (mu = mu0 + C xi), the identity
    on the family's fields, and diag(s) on theta from :func:`_theta_scales`.

    The Laplace fit holds the posterior's geometry, so in y the bound is far
    better scaled than in x (Nocedal & Wright 2006, ch. 6-7), and L-BFGS takes
    fewer steps to the same optimum. The minimiser sees the gradient T' g;
    ``max_abs`` keeps max|g| of every point evaluated, by the bytes of its y.
    """

    def __init__(self, fun, x0: np.ndarray, start: tuple[float, np.ndarray],
                 chol: np.ndarray, n_theta: int):
        self.fun, self.x0, self.chol, self.start = fun, x0, chol, start
        self.p, self.t = chol.shape[0], slice(x0.size - n_theta, x0.size)
        self.scales = _theta_scales(fun, x0, start[1], n_theta)
        self.max_abs = {}

    def x(self, y: np.ndarray) -> np.ndarray:
        x = self.x0 + y
        x[:self.p] = self.x0[:self.p] + self.chol @ y[:self.p]
        x[self.t] = self.x0[self.t] + self.scales * y[self.t]
        return x

    def __call__(self, y: np.ndarray) -> tuple[float, np.ndarray]:
        if self.start is None:
            f, g = self.fun(self.x(y))
        else:   # the minimiser's first call, at y = 0: the start, evaluated already
            (f, g), self.start = self.start, None
        self.max_abs[y.tobytes()] = float(np.max(np.abs(g)))
        gy = g.copy()
        gy[:self.p] = self.chol.T @ g[:self.p]
        gy[self.t] *= self.scales
        return f, gy

    def minimize(self, config: OptimConfig) -> MinimizeResult:
        """:func:`minimize` from y = 0, reported in x: the point, the raw max|g|
        there and every evaluation, the probes of the theta curvature included."""
        res = minimize(self, np.zeros(self.x0.size), config)
        return replace(res, x=self.x(res.x), grad_norm=self.max_abs[res.x.tobytes()],
                       n_evals=res.n_evals + self.scales.size)


def fit_family(model, laplace, samples: FixedDraws, start: VariationalParams,
               config: OptimConfig | None = None) -> FitResult:
    """Optimise the fixed-sample bound of ``start.family`` from ``start``.

    The fit runs in the coordinates of :class:`_Whitened`, so its stop test
    reads the whitened gradient; ``opt`` holds the fitted parameter vector,
    the raw max|gradient| of the bound there, and every evaluation of the
    objective. ``params`` is that vector itself: ``params.x is opt.x``. The
    result is the fitted Gaussian too, its root formed once, here.
    """
    at = partial(VariationalParams, family=start.family, dim=start.dim)

    def bound(x: np.ndarray) -> tuple[float, np.ndarray]:
        try:
            val, grad = elbo_and_gradient(at(x=x), samples, model, laplace)
        except NumericalError:
            # A trial point outside the usable region (hyperparameters
            # underflowed to zero or with an overflowing square, a sample with
            # zero likelihood, a non-finite gradient, a collapsed rank-one
            # root). Report an infinite value so the optimiser's line search
            # halves the step past it; only the initial point and a line
            # search without one finite trial still surface as errors.
            return np.inf, np.full(x.size, np.nan)
        return -val, -grad

    first = bound(start.x)   # the minimiser's first evaluation, made once
    if not math.isfinite(first[0]):
        raise NumericalError("objective is not finite at the initial point")
    result = _Whitened(bound, start.x, first, laplace.chol,
                       start.theta.size).minimize(config or OptimConfig())
    params = at(x=result.x)
    return FitResult(params=params, elbo=-result.f, opt=result, mean=params.mu.copy(),
                     root=_spec(params.family).root(params, laplace))
