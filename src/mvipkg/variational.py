"""Gaussian variational families seeded by a Laplace approximation.

The posterior family is always N(mu, R R') for a square root R built from the
Laplace decompositions, and the objective is the evidence lower bound with the
expectation replaced by an average over a *fixed* set of base samples:

    bound(params) = (1/S) sum_s ln p~(mu + R z_s | theta, data) + entropy(R)

Because the z_s never change during optimisation, the bound is an ordinary
deterministic function of the parameters and is optimised with the scaled
conjugate gradient routine from :mod:`.optimize`; no stochastic-gradient
machinery is involved.

Families
--------
Each family is defined once, by its :class:`FamilySpec` record in
``FAMILY_SPECS``: the packed fields, the covariance root built from the
Laplace fit, the log-determinant terms of the entropy, the contraction of
the sample gradient onto the fields, the sample remap and the starting
values. The functions below read that table; none branches on the name.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NumericalError
from .optimize import MinimizeResult, OptimConfig, minimize

# entropy of a unit-variance Gaussian coordinate: 0.5 * ln(2 pi e)
_HALF_LOG_2PIE = 0.5 * float(np.log(2.0 * np.pi) + 1.0)

# |1 + v' C^-1 u| below this means the rank-one update has numerically
# annihilated the root determinant
_DET_LEMMA_FLOOR = 1.0e-12


# ---------------------------------------------------------------------------
# fixed sample sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedSampleSet:
    """Frozen matrix of base samples, one row per draw."""

    z: np.ndarray  # (S, P), read-only
    seed: int

    @property
    def n_samples(self) -> int:
        return self.z.shape[0]

    @property
    def dim(self) -> int:
        return self.z.shape[1]


def standardize_draws(z: np.ndarray) -> np.ndarray:
    """Centre columns and whiten the empirical second moment to identity.

    Whitening needs more rows than columns; with S <= P only the centring is
    applied. With S = 1 the single row centres to zero, which degenerates the
    bound to value-at-the-mean plus entropy (a useful property in tests).
    """
    z = np.asarray(z, dtype=float)
    z = z - z.mean(axis=0, keepdims=True)
    s, p = z.shape
    if s > p:
        second = z.T @ z / s
        chol = np.linalg.cholesky(second)
        z = solve_triangular(chol, z.T, lower=True).T
    return z


def draw_fixed_samples(n_samples: int, dim: int, seed: int) -> FixedSampleSet:
    """Draw and standardise the base samples for one optimisation; deterministic given ``seed``."""
    rng = np.random.default_rng(seed)
    z = standardize_draws(rng.standard_normal((n_samples, dim)))
    z.flags.writeable = False
    return FixedSampleSet(z=z, seed=seed)


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

    def copy(self) -> "VariationalParams":
        fields = {n: getattr(self, n).copy() for n in _spec(self.family).fields}
        return VariationalParams(self.family, self.mu.copy(), self.theta.copy(), **fields)


@dataclass(frozen=True)
class FamilySpec:
    """What sets one family apart; g is the log-posterior gradient at mu + R z."""

    fields: tuple[str, ...]     # packed between mu and theta, in this order
    root: Callable              # (params, laplace) -> R
    log_det: Callable           # (params, laplace) -> terms of ln|det R|, added in order
    contract: Callable          # (params, laplace, g, z) -> gradient blocks of the fields
    init: Callable              # (laplace, seed, variant) -> starting fields
    variants: tuple[str, ...] = ("laplace",)  # starts ``init`` accepts; benchmarks fit each
    remap: Optional[Callable] = None          # laplace -> M: the family's samples are z M


def _log_det_chol(laplace) -> float:
    return float(np.sum(np.log(np.diag(laplace.chol))))


def _lemma(params: VariationalParams, laplace) -> tuple[np.ndarray, float]:
    """t = C^-1 u and s = 1 + v' t, so that det(C + u v') = det(C) s."""
    t = solve_triangular(laplace.chol, params.u, lower=True)
    s = 1.0 + float(params.v @ t)
    if abs(s) < _DET_LEMMA_FLOOR:
        raise NumericalError(
            "rank-one update made the covariance root numerically singular "
            f"(|1 + v' C^-1 u| = {abs(s):.3e})")
    return t, s


def _log_scale_block(bg: np.ndarray, z: np.ndarray, log_s: np.ndarray) -> np.ndarray:
    """Gradient in log s of a root R = B diag(s), from bg = g B: the sample
    term mean(bg * z) plus the entropy's 1/s, times s for the log space."""
    scale = np.exp(log_s)
    d = np.einsum("sp,sp->p", bg, z) / z.shape[0] + 1.0 / scale
    return d * scale


def _contract_lr(params: VariationalParams, laplace, g: np.ndarray,
                 z: np.ndarray) -> list[np.ndarray]:
    t, s = _lemma(params, laplace)
    vz = z @ params.v
    gu = g @ params.u
    d_u = (g * vz[:, None]).mean(axis=0) + \
        solve_triangular(laplace.chol.T, params.v, lower=False) / s
    d_v = (z * gu[:, None]).mean(axis=0) + t / s
    return [d_u, d_v]


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
        log_det=lambda params, lap: (_log_det_chol(lap),),
        contract=lambda params, lap, g, z: [],
        init=lambda lap, seed, variant: {}),
    "mvi_eig": FamilySpec(
        fields=("log_r",),
        root=lambda params, lap: lap.eigvecs * np.exp(params.log_r)[None, :],
        log_det=lambda params, lap: (float(np.sum(params.log_r)),),
        contract=lambda params, lap, g, z: [
            _log_scale_block(g @ lap.eigvecs, z, params.log_r)],
        init=lambda lap, seed, variant: {"log_r": np.log(lap.eig_root)},
        remap=lambda lap: (lap.chol.T @ lap.eigvecs) / lap.eig_root[None, :]),
    "mvi_lr": FamilySpec(
        fields=("u", "v"),
        root=lambda params, lap: lap.chol + np.outer(params.u, params.v),
        log_det=lambda params, lap: (_log_det_chol(lap),
                                     float(np.log(abs(_lemma(params, lap)[1])))),
        contract=_contract_lr,
        init=_init_lr),
    "vi_diag": FamilySpec(
        fields=("log_sigma",),
        root=lambda params, lap: np.diag(np.exp(params.log_sigma)),
        log_det=lambda params, lap: (float(np.sum(params.log_sigma)),),
        contract=lambda params, lap, g, z: [_log_scale_block(g, z, params.log_sigma)],
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
    """Inverse of :func:`pack`, using the template for family and sizes."""
    x = np.asarray(x, dtype=float).ravel()
    p = template.dim
    t = template.theta.size
    out = template.copy()
    names = ("mu",) + _spec(template.family).fields
    for i, name in enumerate(names):
        setattr(out, name, x[i * p:(i + 1) * p].copy())
    pos = len(names) * p
    out.theta = x[pos:pos + t].copy()
    if pos + t != x.size:
        raise ValueError("packed vector length does not match the template")
    return out


# ---------------------------------------------------------------------------
# family geometry
# ---------------------------------------------------------------------------

def covariance_root(params: VariationalParams, laplace) -> PosteriorGaussian:
    """The family's current Gaussian as (mean, root)."""
    p = params.dim
    root = _spec(params.family).root(params, laplace)
    if root.shape != (p, p):
        raise ValueError("covariance root has inconsistent shape")
    return PosteriorGaussian(mean=params.mu.copy(), root=root)


def laplace_posterior(laplace) -> PosteriorGaussian:
    """The Laplace fit itself, as a PosteriorGaussian (root = Cholesky factor)."""
    return PosteriorGaussian(mean=laplace.mean.copy(), root=laplace.chol.copy())


def entropy(params: VariationalParams, laplace) -> float:
    """Differential entropy of the family's Gaussian.

    mvi_mu reads it off the Laplace Cholesky diagonal; mvi_eig and vi_diag
    reduce to sums of log scales; mvi_lr uses the matrix determinant lemma
    det(C + u v') = det(C) (1 + v' C^-1 u) with one triangular solve, and
    refuses to proceed when the rank-one update collapses the determinant.
    """
    value = params.dim * _HALF_LOG_2PIE
    for term in _spec(params.family).log_det(params, laplace):
        value += term
    return value


def family_samples(family: str, samples: FixedSampleSet, laplace) -> np.ndarray:
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

def _model_at(model, theta: np.ndarray):
    if theta.size and not np.array_equal(theta, np.asarray(model.theta)):
        return model.with_theta(theta)
    return model


def _sample_points(params: VariationalParams, samples: FixedSampleSet,
                   model, laplace):
    """The model at the params' theta, the family's base samples z, and the
    points mu + R z."""
    m = _model_at(model, params.theta)
    z = family_samples(params.family, samples, laplace)
    w = params.mu[None, :] + z @ covariance_root(params, laplace).root.T
    return m, z, w


def _finite(vals: np.ndarray) -> np.ndarray:
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NumericalError(
            f"log posterior not finite (first at sample {int(np.argmax(bad))})")
    return vals


def elbo_estimate(params: VariationalParams, samples: FixedSampleSet,
                  model, laplace) -> float:
    """Fixed-sample evidence lower bound at the given parameters."""
    m, _, w = _sample_points(params, samples, model, laplace)
    return float(_finite(m.values(w)).mean()) + entropy(params, laplace)


def elbo_and_gradient(params: VariationalParams, samples: FixedSampleSet,
                      model, laplace) -> tuple[float, np.ndarray]:
    """Bound and its gradient w.r.t. the packed free parameters.

    All gradients are analytic. The sample term differentiates through
    w_s = mu + R z_s; the entropy contributes 1/r (resp. 1/sigma) in the
    scale coordinates and the determinant-lemma terms for the rank-one
    family. In log-space coordinates those entropy terms become the constant
    one. Hyperparameter gradients flow only through the log-posterior term.
    """
    m, z, w = _sample_points(params, samples, model, laplace)
    vals, g, theta_g = m.evaluate(w)
    value = float(_finite(vals).mean()) + entropy(params, laplace)
    fields = _spec(params.family).contract(params, laplace, g, z)
    return value, np.concatenate([g.mean(axis=0), *fields, theta_g.mean(axis=0)])


# ---------------------------------------------------------------------------
# initialisation and fitting
# ---------------------------------------------------------------------------

def initialise(family: str, laplace, seed: int = 0,
               diag_variant: str = "laplace") -> VariationalParams:
    """Standard initialisation of a family at the Laplace fit.

    vi_diag has two published starting points: sigma^2 equal to the Laplace
    covariance diagonal (``diag_variant="laplace"``) or sigma^2 = 1e-4
    (``diag_variant="small"``). Benchmarks run both and keep the better
    held-out score. The other families have the one start, "laplace".
    """
    spec = _spec(family)
    if diag_variant not in spec.variants:
        raise ValueError(f"unknown {family} variant {diag_variant!r}")
    return VariationalParams(family, laplace.mean.copy(),
                             np.asarray(laplace.theta, dtype=float).copy(),
                             **spec.init(laplace, seed, diag_variant))


def warm_start(family: str, at: VariationalParams, laplace, seed: int = 0) -> VariationalParams:
    """Start a richer family at a free-mean optimum without losing its bound.

    The eigen family at r equal to the Laplace scales, and the rank-one
    family at u = 0, reproduce the free-mean family's root exactly, so the
    warm-started bound equals the donor's bound to rounding. v is drawn small
    and nonzero because the (u, v) origin is a joint stationary point the
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
                                 u=np.zeros(p), v=0.1 * rng.standard_normal(p))
    raise ValueError(f"no warm start defined for family {family!r}")


@dataclass
class FitResult:
    params: VariationalParams
    elbo: float
    opt: MinimizeResult

    @property
    def family(self) -> str:
        return self.params.family


def fit_family(model, laplace, samples: FixedSampleSet, family: str,
               seed: int = 0, config: OptimConfig | None = None,
               init: VariationalParams | None = None,
               diag_variant: str = "laplace") -> FitResult:
    """Optimise one family's fixed-sample bound from its standard (or given) start."""
    params0 = init if init is not None else initialise(family, laplace, seed, diag_variant)
    template = params0.copy()

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        p = unpack(template, x)
        try:
            val, grad = elbo_and_gradient(p, samples, model, laplace)
        except NumericalError:
            # A trial point outside the usable region (hyperparameters
            # underflowed to zero, a sample with zero likelihood, a collapsed
            # rank-one root). Report an infinite value so the optimiser's
            # step-shrinking recovery handles it; only the initial point and
            # exhausted recovery still surface as errors.
            return np.inf, np.full(x.size, np.nan)
        return -val, -grad

    result = minimize(objective, pack(params0), config or OptimConfig())
    fitted = unpack(template, result.x)
    return FitResult(params=fitted, elbo=-result.f, opt=result)
