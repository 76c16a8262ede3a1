"""Gaussian variational families seeded by a Laplace approximation.

The posterior family is always N(mu, R R') for a square root R built from the
Laplace decompositions, and the objective is the evidence lower bound with the
expectation replaced by an average over a *fixed* set of base samples:

    bound(params) = (1/S) sum_s ln p~(mu + R z_s | theta, data) + entropy(R)

Because the z_s never change during optimisation, the bound is an ordinary
deterministic function of the parameters and is optimised with the L-BFGS
routine from :mod:`.optimize`; no stochastic-gradient machinery is involved.

The sample term is the model's ``expectation(mu, R, draws)``: the means
over the draws of the log posterior, of its gradient g_s at w_s = mu + R z_s
(g-bar), of g_s z_s' (G) and of the theta gradient. Each family's
``contract`` maps G onto its fields, so no evaluation forms a gradient per
draw here. A :class:`Workspace`, built once per fit, holds the draws and a
private model copy whose features are rebuilt in place when theta moves.

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
mvi_lr    free mean plus a rank-one update of the Cholesky factor;
          R = C + u v'. u, v start as small Gaussian noise.
vi_diag   mean-field baseline; R = diag(sigma), no Laplace coupling beyond
          the initialisation of sigma.

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

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError
from .models import FixedDraws
from .optimize import MinimizeResult, OptimConfig, minimize

# entropy of a unit-variance Gaussian coordinate: 0.5 * ln(2 pi e)
_HALF_LOG_2PIE = 0.5 * float(np.log(2.0 * np.pi) + 1.0)

# |1 + v' C^-1 u| below this means the rank-one update has numerically
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
    u: Optional[np.ndarray] = None
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
    gradient at mu + R z_s, is all the fields' sample terms need."""

    fields: tuple[str, ...]     # packed between mu and theta, in this order
    root: Callable              # (params, laplace) -> R
    log_det: Callable           # (params, laplace, shared) -> terms of ln|det R|, added in order
    contract: Callable          # (params, laplace, G, shared) -> gradient blocks of the fields:
                                # the sample term from G alone plus the entropy's terms
    init: Callable              # (laplace, seed, variant) -> starting fields
    variants: tuple[str, ...] = ("laplace",)  # starts ``init`` accepts; ``fit_best`` fits each
    remap: Optional[Callable] = None          # laplace -> M: the family's samples are z M
    shared: Callable = lambda params, lap: None  # what log_det and contract share per point


def _log_det_chol(laplace) -> float:
    return float(np.sum(np.log(np.diag(laplace.chol))))


def _lemma(params: VariationalParams, laplace) -> tuple[np.ndarray, float]:
    """t = C^-1 u and s = 1 + v' t, so that det(C + u v') = det(C) s."""
    t = laplace.chol_inv @ params.u
    s = 1.0 + float(params.v @ t)
    if abs(s) < _DET_LEMMA_FLOOR:
        raise NumericalError(
            "rank-one update made the covariance root numerically singular "
            f"(|1 + v' C^-1 u| = {abs(s):.3e})")
    return t, s


def _log_scale_block(BG: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """Gradient in log s of a root R = B diag(s), from BG = B' G: the sample
    term diag(BG) plus the entropy's 1/s, times s for the log space."""
    scale = np.exp(log_s)
    return (np.diagonal(BG) + 1.0 / scale) * scale


def _contract_lr(params: VariationalParams, laplace, G: np.ndarray,
                 lemma: tuple[np.ndarray, float]) -> list[np.ndarray]:
    t, s = lemma
    return [G @ params.v + params.v @ laplace.chol_inv / s,   # C^-T v = v' C^-1
            G.T @ params.u + t / s]


def _init_lr(laplace, seed: int, variant: str) -> dict:
    rng = np.random.default_rng(seed)
    p = laplace.mean.size
    return {"u": 0.1 * rng.standard_normal(p), "v": 0.1 * rng.standard_normal(p)}


def _init_diag(laplace, seed: int, variant: str) -> dict:
    if variant == "laplace":
        return {"log_sigma": 0.5 * np.log(np.diag(laplace.cov))}
    return {"log_sigma": np.full(laplace.mean.size, 0.5 * np.log(1.0e-4))}


FAMILY_SPECS = {
    "mvi_mu": FamilySpec(
        fields=(),
        root=lambda params, lap: lap.chol.copy(),
        log_det=lambda params, lap, _: (_log_det_chol(lap),),
        contract=lambda params, lap, G, _: [],
        init=lambda lap, seed, variant: {}),
    "mvi_eig": FamilySpec(
        fields=("log_r",),
        root=lambda params, lap: lap.eigvecs * np.exp(params.log_r)[None, :],
        log_det=lambda params, lap, _: (float(np.sum(params.log_r)),),
        contract=lambda params, lap, G, _: [_log_scale_block(lap.eigvecs.T @ G, params.log_r)],
        init=lambda lap, seed, variant: {"log_r": np.log(lap.eig_root)},
        remap=lambda lap: (lap.chol.T @ lap.eigvecs) / lap.eig_root[None, :]),
    "mvi_lr": FamilySpec(
        fields=("u", "v"),
        root=lambda params, lap: lap.chol + np.outer(params.u, params.v),
        log_det=lambda params, lap, lemma: (_log_det_chol(lap), float(np.log(abs(lemma[1])))),
        contract=_contract_lr,
        init=_init_lr,
        shared=_lemma),
    "vi_diag": FamilySpec(
        fields=("log_sigma",),
        root=lambda params, lap: np.diag(np.exp(params.log_sigma)),
        log_det=lambda params, lap, _: (float(np.sum(params.log_sigma)),),
        contract=lambda params, lap, G, _: [_log_scale_block(G, params.log_sigma)],
        init=_init_diag,
        variants=("laplace", "small")),
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
    det(C + u v') = det(C) (1 + v' C^-1 u), C^-1 u one mat-vec with the fit's
    C^-1, and refuses to proceed when the rank-one update collapses the
    determinant.
    ``shared`` is the family's ``shared`` value at ``params``, if known.
    """
    spec = _spec(params.family)
    shared = spec.shared(params, laplace) if shared is None else shared
    value = params.dim * _HALF_LOG_2PIE
    for term in spec.log_det(params, laplace, shared):
        value += term
    return value


def family_samples(family: str, samples: FixedDraws, laplace) -> np.ndarray:
    """Base samples as consumed by a family.

    The eigen family's root factors the same covariance differently from the
    Cholesky-based families, so the shared draws are remapped by the
    orthogonal matrix A = diag(1/r) Q' C. At r equal to the Laplace scales
    Q diag(r) A z = C z, so nested families then see identical sample paths;
    orthogonality of A keeps the remapped draws standard (and standardised).
    """
    remap = _spec(family).remap
    return samples.z if remap is None else samples.z @ remap(laplace)


# ---------------------------------------------------------------------------
# bound and gradient
# ---------------------------------------------------------------------------

class Workspace:
    """What every evaluation of one family's bound shares: the family's
    samples as :class:`~.models.FixedDraws` and a private copy of the model,
    moved in place when theta moves."""

    def __init__(self, family: str, samples: FixedDraws, model, laplace):
        # a family without a remap runs on the caller's draws, so their
        # moments and buffers are formed once per draw set, not once per fit
        self.draws = (samples if _spec(family).remap is None
                      else FixedDraws(family_samples(family, samples, laplace)))
        self._model = copy.copy(model)
        self._theta = np.asarray(model.theta, dtype=float)

    def model_at(self, theta: np.ndarray):
        if theta.size and not np.array_equal(theta, self._theta):
            self._model.set_theta(theta)   # raises NumericalError, leaving it unmoved
            self._theta = theta.copy()
        return self._model


def _expectation(params: VariationalParams, samples: FixedDraws, model, laplace,
                 work: Workspace | None, gradient: bool):
    """The model's (value, g-bar, G, theta gradient) over the family's draws."""
    work = work or Workspace(params.family, samples, model, laplace)
    out = work.model_at(params.theta).expectation(
        params.mu, _spec(params.family).root(params, laplace), work.draws, gradient)
    if not math.isfinite(out[0]):
        raise NumericalError(f"log posterior not finite (mean over the draws {out[0]})")
    return out


def elbo_estimate(params: VariationalParams, samples: FixedDraws,
                  model, laplace) -> float:
    """Fixed-sample evidence lower bound at the given parameters."""
    value = _expectation(params, samples, model, laplace, None, gradient=False)[0]
    return value + entropy(params, laplace)


def elbo_and_gradient(params: VariationalParams, samples: FixedDraws,
                      model, laplace, work: Workspace | None = None) -> tuple[float, np.ndarray]:
    """Bound and its gradient w.r.t. the packed free parameters.

    All gradients are analytic. The sample term differentiates through
    w_s = mu + R z_s (g-bar for mu, G through ``contract``); the entropy
    contributes 1/r (resp. 1/sigma) in the scale coordinates and the
    determinant-lemma terms for the rank-one family. In log-space
    coordinates those entropy terms become the constant one. Hyperparameter
    gradients flow only through the log-posterior term. :func:`fit_family`
    passes ``work``, built once per fit.
    """
    value, gbar, G, theta_g = _expectation(params, samples, model, laplace, work,
                                           gradient=True)
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

def initialise(family: str, laplace, seed: int = 0,
               diag_variant: str = "laplace") -> VariationalParams:
    """Standard initialisation of a family at the Laplace fit.

    vi_diag has two published starting points: sigma^2 equal to the Laplace
    covariance diagonal (``diag_variant="laplace"``) or sigma^2 = 1e-4
    (``diag_variant="small"``). :func:`fit_best` fits both and keeps the
    higher training bound, never a test-set score. The other families have
    the one start, "laplace".
    """
    spec = _spec(family)
    if diag_variant not in spec.variants:
        raise ValueError(f"unknown {family} variant {diag_variant!r}")
    return VariationalParams(family, laplace.mean.copy(),
                             np.asarray(laplace.theta, dtype=float).copy(),
                             **spec.init(laplace, seed, diag_variant))


@dataclass
class FitResult:
    params: VariationalParams
    elbo: float
    opt: MinimizeResult

    @property
    def family(self) -> str:
        return self.params.family


def fit_family(model, laplace, samples: FixedDraws, family: str,
               seed: int = 0, config: OptimConfig | None = None,
               init: VariationalParams | None = None,
               diag_variant: str = "laplace") -> FitResult:
    """Optimise one family's fixed-sample bound from its standard (or given) start."""
    params0 = init if init is not None else initialise(family, laplace, seed, diag_variant)
    work = Workspace(family, samples, model, laplace)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = unpack(params0, x)
        try:
            val, grad = elbo_and_gradient(p, samples, model, laplace, work)
        except NumericalError:
            # A trial point outside the usable region (hyperparameters
            # underflowed to zero or with an overflowing square, a sample with
            # zero likelihood, a non-finite gradient, a collapsed rank-one
            # root). Report an infinite value so the optimiser's line search
            # halves the step past it; only the initial point and a line
            # search without one finite trial still surface as errors.
            return np.inf, np.full(x.size, np.nan)
        return -val, -grad

    result = minimize(objective, pack(params0), config or OptimConfig())
    fitted = unpack(params0, result.x)
    return FitResult(params=fitted, elbo=-result.f, opt=result)


def fit_best(model, laplace, samples: FixedDraws, family: str, seed: int = 0,
             config: OptimConfig | None = None) -> tuple[str, FitResult, dict[str, FitResult]]:
    """Fit every start the family lists and keep the highest bound, ties to
    the first listed: (kept variant, its fit, the other fits by variant)."""
    fits = {v: fit_family(model, laplace, samples, family, seed=seed, config=config,
                          diag_variant=v)
            for v in _spec(family).variants}
    variant = max(fits, key=lambda v: fits[v].elbo)   # max keeps the first of equals
    return variant, fits.pop(variant), fits
