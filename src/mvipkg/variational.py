"""Gaussian variational families seeded by a Laplace approximation.

The posterior family is always N(mu, R R') for a square root R built from the
Laplace decompositions, and the objective is the evidence lower bound with the
expectation replaced by an average over a *fixed* set of base samples:

    bound(params) = (1/S) sum_s ln p~(mu + R z_s | theta, data) + entropy(R)

Because the z_s never change during optimisation, the bound is an ordinary
deterministic function of the parameters and is optimised with the L-BFGS
routine from :mod:`.optimize`; no stochastic-gradient machinery is involved.
Every family is optimised in Laplace-whitened coordinates
(:class:`_Whitened`): the mean as mu0 + C xi, C the Laplace Cholesky factor,
and theta scaled by its curvature at the start; mvi_lr's rank-one update is
written in the same frame, C t v'. The change of variables leaves the
bound as it is and saves evaluations: on the 20-run heavy-tail suite mvi_mu,
mvi_eig, mvi_lr and vi_diag take 419, 633, 1,884 and 731 against 911,
1,297, 2,449 and 3,552 in the raw coordinates (mvi_lr's as C + u v'; the
raw vi_diag count covers two starts, Laplace diagonal and sigma^2 = 1e-4).

The sample term is the model's ``expectation(mu, R, draws)``: the means
over the draws of the log posterior, of its gradient g_s at w_s = mu + R z_s
(g-bar), of g_s z_s' (G) and of the theta gradient. Each family's
``contract`` maps G onto its fields, so no evaluation forms a gradient per
draw here. A fit forms its family's draws once; an evaluation at a theta
other than the model's own scores ``model.with_theta(theta)``, a copy with
the features rebuilt.

Families
--------
Each family is defined once, by its :class:`FamilySpec` record in
``FAMILY_SPECS``: the packed fields, the covariance root built from the
Laplace fit, the log-determinant terms of the entropy, the contraction of
G onto the fields, the sample remap and the starting values. The functions
below read that table; none branches on the name.

mvi_mu    free mean only; R = C (the Laplace Cholesky factor), covariance
          frozen at the Laplace fit.
mvi_eig   free mean and eigen-scales; R = Q diag(r) with Q the Laplace
          eigenvector matrix. Initialised at r equal to the Laplace
          eigenvalue square roots.
mvi_lr    free mean plus a rank-one update of the Cholesky factor,
          in the Laplace frame: R = C (I + t v') = C + (C t) v'. v and
          C t start as small Gaussian noise.
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
* The eigen family consumes the shared samples through an orthogonal remap
  (see :func:`family_samples`) so that at r equal to the Laplace scales its
  sample paths coincide with the Cholesky-route paths. Without this, bounds
  of nested families would differ by Monte Carlo noise at the common
  distribution and warm-start monotonicity would only hold on average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
from .models import FixedDraws
from .optimize import MinimizeResult, OptimConfig, minimize

# entropy of a unit-variance Gaussian coordinate: 0.5 * ln(2 pi e)
_HALF_LOG_2PIE = 0.5 * float(np.log(2.0 * np.pi) + 1.0)

# |1 + v' t| below this means the rank-one update has numerically
# annihilated the root determinant
_DET_LEMMA_FLOOR = 1.0e-12


# ---------------------------------------------------------------------------
# fixed sample sets
# ---------------------------------------------------------------------------

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

@dataclass(frozen=True)
class PosteriorGaussian:
    """A Gaussian given by mean and a square covariance root (cov = R R')."""

    mean: np.ndarray
    root: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.size

    def cov(self) -> np.ndarray:
        return self.root @ self.root.T


@dataclass
class VariationalParams:
    """Free parameters of one family; exactly the fields its spec lists are set."""

    family: str
    mu: np.ndarray
    theta: np.ndarray
    log_r: Optional[np.ndarray] = None
    t: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    log_sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        required = _spec(self.family).fields
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        for name in _ALL_FIELDS:
            val = getattr(self, name)
            if name in required:
                if val is None:
                    raise ValueError(f"family {self.family} requires field {name}")
                arr = np.asarray(val, dtype=float).ravel()
                if arr.size != self.mu.size:
                    raise ValueError(f"{name} must match the dimension of mu")
                setattr(self, name, arr)
            elif val is not None:
                raise ValueError(f"family {self.family} does not use field {name}")

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class FamilySpec:
    """What sets one family apart. G = sum_s g_s z_s' / S, g_s the log-posterior
    gradient at mu + R z_s, is all the fields' sample terms need. The fields
    take no change of variables of their own: :func:`fit_family` fits every
    family in the one frame of :class:`_Whitened`."""

    fields: tuple[str, ...]     # packed between mu and theta, in this order
    root: Callable              # (params, laplace) -> R
    log_det: Callable           # (params, laplace, shared) -> terms of ln|det R|, added in order
    contract: Callable          # (params, laplace, G, shared) -> gradient blocks of the fields:
                                # the sample term from G alone plus the entropy's terms
    init: Callable              # (laplace, seed) -> starting fields
    remap: Optional[Callable] = None          # laplace -> M: the family's samples are z M
    shared: Callable = lambda params, lap: None  # what log_det and contract share per point


def _log_det_chol(laplace) -> float:
    return float(np.sum(np.log(np.diag(laplace.chol))))


def _lemma(params: VariationalParams, laplace) -> float:
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


def _contract_lr(params: VariationalParams, laplace, G: np.ndarray,
                 s: float) -> list[np.ndarray]:
    """[C' G v + v / s, G' C t + t / s]: the sample term of R = C + (C t) v'
    and the entropy's ln|s|."""
    return [laplace.chol.T @ (G @ params.v) + params.v / s,
            G.T @ (laplace.chol @ params.t) + params.t / s]


def _init_lr(laplace, seed: int) -> dict:
    """t = C^-1 u and v, u and v small Gaussian noise: the root C + u v'."""
    rng = np.random.default_rng(seed)
    p = laplace.mean.size
    t = np.linalg.solve(laplace.chol, 0.1 * rng.standard_normal(p))
    if not np.isfinite(t).all():
        raise NumericalError("rank-one start C^-1 u is not finite")
    return {"t": t, "v": 0.1 * rng.standard_normal(p)}


FAMILY_SPECS = {
    "mvi_mu": FamilySpec(
        fields=(),
        root=lambda params, lap: lap.chol.copy(),
        log_det=lambda params, lap, _: (_log_det_chol(lap),),
        contract=lambda params, lap, G, _: [],
        init=lambda lap, seed: {}),
    "mvi_eig": FamilySpec(
        fields=("log_r",),
        root=lambda params, lap: lap.eigvecs * np.exp(params.log_r)[None, :],
        log_det=lambda params, lap, _: (float(np.sum(params.log_r)),),
        contract=lambda params, lap, G, _: [_log_scale_block(lap.eigvecs.T @ G, params.log_r)],
        init=lambda lap, seed: {"log_r": np.log(lap.eig_root)},
        remap=lambda lap: (lap.chol.T @ lap.eigvecs) / lap.eig_root[None, :]),
    "mvi_lr": FamilySpec(
        fields=("t", "v"),
        root=lambda params, lap: lap.chol + np.outer(lap.chol @ params.t, params.v),
        log_det=lambda params, lap, s: (_log_det_chol(lap), float(np.log(abs(s)))),
        contract=_contract_lr,
        init=_init_lr,
        shared=_lemma),
    "vi_diag": FamilySpec(
        fields=("log_sigma",),
        root=lambda params, lap: np.diag(np.exp(params.log_sigma)),
        log_det=lambda params, lap, _: (float(np.sum(params.log_sigma)),),
        contract=lambda params, lap, G, _: [_log_scale_block(G, params.log_sigma)],
        init=lambda lap, seed: {"log_sigma": 0.5 * np.log(np.diag(lap.cov))}),
}
FAMILIES = tuple(FAMILY_SPECS)
_ALL_FIELDS = tuple(n for spec in FAMILY_SPECS.values() for n in spec.fields)


def _spec(family: str) -> FamilySpec:
    if family not in FAMILY_SPECS:
        raise ValueError(f"unknown family {family!r}")
    return FAMILY_SPECS[family]


def pack(params: VariationalParams) -> np.ndarray:
    """Flatten free parameters for the optimiser: mu, family fields, theta."""
    fields = [getattr(params, n) for n in _spec(params.family).fields]
    return np.concatenate([params.mu, *fields, params.theta])


def unpack(template: VariationalParams, x: np.ndarray) -> VariationalParams:
    """Inverse of :func:`pack`, using the template for family and sizes; the
    fields are views of ``x``."""
    x = np.asarray(x, dtype=float).ravel()
    p = template.dim
    names = _spec(template.family).fields
    pos = (len(names) + 1) * p
    if pos + template.theta.size != x.size:
        raise ValueError("packed vector length does not match the template")
    return VariationalParams(template.family, x[:p], x[pos:],
                             **{n: x[(i + 1) * p:(i + 2) * p] for i, n in enumerate(names)})


# ---------------------------------------------------------------------------
# family geometry
# ---------------------------------------------------------------------------

def covariance_root(params: VariationalParams, laplace) -> PosteriorGaussian:
    """The family's current Gaussian as (mean, root)."""
    root = _spec(params.family).root(params, laplace)
    return PosteriorGaussian(mean=params.mu.copy(), root=root)


def laplace_posterior(laplace) -> PosteriorGaussian:
    """The Laplace fit itself, as a PosteriorGaussian (root = Cholesky factor)."""
    return PosteriorGaussian(mean=laplace.mean.copy(), root=laplace.chol.copy())


def entropy(params: VariationalParams, laplace, shared=None) -> float:
    """Differential entropy of the family's Gaussian.

    mvi_mu reads it off the Laplace Cholesky diagonal; mvi_eig and vi_diag
    reduce to sums of log scales; mvi_lr uses the matrix determinant lemma
    det(C (I + t v')) = det(C) (1 + v' t), and refuses to proceed when the
    rank-one update collapses the determinant.
    ``shared`` is the family's ``shared`` value at ``params``, if known.
    """
    spec = _spec(params.family)
    shared = spec.shared(params, laplace) if shared is None else shared
    value = params.dim * _HALF_LOG_2PIE
    for term in spec.log_det(params, laplace, shared):
        value += term
    return value


def family_samples(family: str, samples: FixedDraws, laplace) -> FixedDraws:
    """Base samples as consumed by a family: ``samples`` itself unless the
    family remaps them, so their moments and buffers are formed once per draw
    set, not once per fit.

    The eigen family's root factors the same covariance differently from the
    Cholesky-based families, so the shared draws are remapped by the
    orthogonal matrix A = diag(1/r) Q' C. At r equal to the Laplace scales
    Q diag(r) A z = C z, so nested families then see identical sample paths;
    orthogonality of A keeps the remapped draws standard (and standardised).
    """
    remap = _spec(family).remap
    return samples if remap is None else FixedDraws(samples.z @ remap(laplace))


# ---------------------------------------------------------------------------
# bound and gradient
# ---------------------------------------------------------------------------

def _expectation(params: VariationalParams, draws: FixedDraws, model, laplace,
                 gradient: bool):
    """The model's (value, g-bar, G, theta gradient) over the family's draws,
    at ``params.theta`` (the caller's model itself while theta is its own)."""
    if not np.array_equal(params.theta, model.theta):
        model = model.with_theta(params.theta)
    out = model.expectation(params.mu, _spec(params.family).root(params, laplace), draws,
                            gradient)
    if not math.isfinite(out[0]):
        raise NumericalError(f"log posterior not finite (mean over the draws {out[0]})")
    return out


def elbo_estimate(params: VariationalParams, samples: FixedDraws,
                  model, laplace) -> float:
    """Fixed-sample evidence lower bound at the given parameters."""
    draws = family_samples(params.family, samples, laplace)
    value = _expectation(params, draws, model, laplace, gradient=False)[0]
    return value + entropy(params, laplace)


def elbo_and_gradient(params: VariationalParams, samples: FixedDraws,
                      model, laplace, draws: FixedDraws | None = None) -> tuple[float, np.ndarray]:
    """Bound and its gradient w.r.t. the packed free parameters.

    All gradients are analytic. The sample term differentiates through
    w_s = mu + R z_s (g-bar for mu, G through ``contract``); the entropy
    contributes 1/r (resp. 1/sigma) in the scale coordinates and the
    determinant-lemma terms for the rank-one family. In log-space
    coordinates those entropy terms become the constant one. Hyperparameter
    gradients flow only through the log-posterior term. ``draws`` are the
    family's samples, :func:`family_samples` of ``samples`` unless given;
    :func:`fit_family` forms them once per fit.
    """
    draws = family_samples(params.family, samples, laplace) if draws is None else draws
    value, gbar, G, theta_g = _expectation(params, draws, model, laplace, gradient=True)
    spec = _spec(params.family)
    shared = spec.shared(params, laplace)
    value += entropy(params, laplace, shared)
    grad = np.concatenate([gbar, *spec.contract(params, laplace, G, shared), theta_g])
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
    return VariationalParams(family, laplace.mean.copy(),
                             np.asarray(laplace.theta, dtype=float).copy(),
                             **_spec(family).init(laplace, seed))


@dataclass
class FitResult:
    params: VariationalParams
    elbo: float
    opt: MinimizeResult

    @property
    def family(self) -> str:
        return self.params.family


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


def fit_family(model, laplace, samples: FixedDraws, family: str,
               seed: int = 0, config: OptimConfig | None = None,
               init: VariationalParams | None = None) -> FitResult:
    """Optimise one family's fixed-sample bound from its standard (or given) start.

    The fit runs in the coordinates of :class:`_Whitened`, so its stop test
    reads the whitened gradient; ``opt`` holds the packed parameters, the raw
    max|gradient| of the bound there, and every evaluation of the objective.
    """
    params0 = init if init is not None else initialise(family, laplace, seed)
    draws = family_samples(family, samples, laplace)

    def bound(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = unpack(params0, x)
        try:
            val, grad = elbo_and_gradient(p, samples, model, laplace, draws)
        except NumericalError:
            # A trial point outside the usable region (hyperparameters
            # underflowed to zero or with an overflowing square, a sample with
            # zero likelihood, a non-finite gradient, a collapsed rank-one
            # root). Report an infinite value so the optimiser's line search
            # halves the step past it; only the initial point and a line
            # search without one finite trial still surface as errors.
            return np.inf, np.full(x.size, np.nan)
        return -val, -grad

    x0 = pack(params0)
    start = bound(x0)   # the minimiser's first evaluation, made once
    if not math.isfinite(start[0]):
        raise NumericalError("objective is not finite at the initial point")
    result = _Whitened(bound, x0, start, laplace.chol,
                       params0.theta.size).minimize(config or OptimConfig())
    fitted = unpack(params0, result.x)
    return FitResult(params=fitted, elbo=-result.f, opt=result)
