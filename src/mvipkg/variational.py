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
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NumericalError
from .optimize import MinimizeResult, OptimConfig, minimize

FAMILIES = ("mvi_mu", "mvi_eig", "mvi_lr", "vi_diag")

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
    antithetic: bool = False

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


def draw_fixed_samples(n_samples: int, dim: int, seed: int,
                       antithetic: bool = False) -> FixedSampleSet:
    """Draw and standardise the base samples for one optimisation.

    Deterministic given ``seed``. With ``antithetic`` the draws come in
    (z, -z) pairs (``n_samples`` must be even); pairing survives the
    standardisation because both centring and whitening are linear.
    """
    rng = np.random.default_rng(seed)
    if antithetic:
        if n_samples % 2:
            raise ValueError("antithetic draws need an even sample count")
        half = rng.standard_normal((n_samples // 2, dim))
        raw = np.vstack([half, -half])
    else:
        raw = rng.standard_normal((n_samples, dim))
    z = standardize_draws(raw)
    z.flags.writeable = False
    return FixedSampleSet(z=z, seed=seed, antithetic=antithetic)


# ---------------------------------------------------------------------------
# parameters and derived quantities
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
    """Free parameters of one family; exactly the declared family's fields are set."""

    family: str
    mu: np.ndarray
    theta: np.ndarray
    log_r: Optional[np.ndarray] = None      # mvi_eig
    u: Optional[np.ndarray] = None          # mvi_lr
    v: Optional[np.ndarray] = None          # mvi_lr
    log_sigma: Optional[np.ndarray] = None  # vi_diag

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        self.mu = np.asarray(self.mu, dtype=float).ravel()
        self.theta = np.asarray(self.theta, dtype=float).ravel()
        required = {
            "mvi_mu": (),
            "mvi_eig": ("log_r",),
            "mvi_lr": ("u", "v"),
            "vi_diag": ("log_sigma",),
        }[self.family]
        for name in ("log_r", "u", "v", "log_sigma"):
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
        fields = {n: (None if getattr(self, n) is None else getattr(self, n).copy())
                  for n in ("log_r", "u", "v", "log_sigma")}
        return VariationalParams(self.family, self.mu.copy(), self.theta.copy(), **fields)


def pack(params: VariationalParams) -> np.ndarray:
    """Flatten free parameters for the optimiser: mu, family block, theta."""
    blocks = [params.mu]
    if params.family == "mvi_eig":
        blocks.append(params.log_r)
    elif params.family == "mvi_lr":
        blocks.extend([params.u, params.v])
    elif params.family == "vi_diag":
        blocks.append(params.log_sigma)
    blocks.append(params.theta)
    return np.concatenate(blocks)


def unpack(template: VariationalParams, x: np.ndarray) -> VariationalParams:
    """Inverse of :func:`pack`, using the template for family and sizes."""
    x = np.asarray(x, dtype=float).ravel()
    p = template.dim
    t = template.theta.size
    out = template.copy()
    out.mu = x[:p].copy()
    pos = p
    if template.family == "mvi_eig":
        out.log_r = x[pos:pos + p].copy()
        pos += p
    elif template.family == "mvi_lr":
        out.u = x[pos:pos + p].copy()
        out.v = x[pos + p:pos + 2 * p].copy()
        pos += 2 * p
    elif template.family == "vi_diag":
        out.log_sigma = x[pos:pos + p].copy()
        pos += p
    out.theta = x[pos:pos + t].copy()
    if pos + t != x.size:
        raise ValueError("packed vector length does not match the template")
    return out


def n_free_parameters(params: VariationalParams) -> int:
    return pack(params).size


# ---------------------------------------------------------------------------
# family geometry
# ---------------------------------------------------------------------------

def covariance_root(params: VariationalParams, laplace) -> PosteriorGaussian:
    """The family's current Gaussian as (mean, root)."""
    p = params.dim
    if params.family == "mvi_mu":
        root = laplace.chol.copy()
    elif params.family == "mvi_eig":
        root = laplace.eigvecs * np.exp(params.log_r)[None, :]
    elif params.family == "mvi_lr":
        root = laplace.chol + np.outer(params.u, params.v)
    else:  # vi_diag
        root = np.diag(np.exp(params.log_sigma))
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
    p = params.dim
    const = p * _HALF_LOG_2PIE
    if params.family == "mvi_mu":
        return const + float(np.sum(np.log(np.diag(laplace.chol))))
    if params.family == "mvi_eig":
        return const + float(np.sum(params.log_r))
    if params.family == "vi_diag":
        return const + float(np.sum(params.log_sigma))
    # mvi_lr
    c = laplace.chol
    t = solve_triangular(c, params.u, lower=True)
    s = 1.0 + float(params.v @ t)
    if abs(s) < _DET_LEMMA_FLOOR:
        raise NumericalError(
            "rank-one update made the covariance root numerically singular "
            f"(|1 + v' C^-1 u| = {abs(s):.3e})")
    return const + float(np.sum(np.log(np.diag(c)))) + float(np.log(abs(s)))


def family_samples(family: str, samples: FixedSampleSet, laplace) -> np.ndarray:
    """Base samples as consumed by a family.

    The eigen family's root factors the same covariance differently from the
    Cholesky-based families, so the shared draws are remapped by the
    orthogonal matrix A = diag(1/r) Q' C. At r equal to the Laplace scales
    Q diag(r) A z = C z, so nested families then see identical sample paths;
    orthogonality of A keeps the remapped draws standard (and standardised).
    """
    if family != "mvi_eig":
        return samples.z
    m = (laplace.chol.T @ laplace.eigvecs) / laplace.eig_root[None, :]
    return samples.z @ m


# ---------------------------------------------------------------------------
# bound and gradient
# ---------------------------------------------------------------------------

def _model_at(model, theta: np.ndarray):
    if theta.size and not np.array_equal(theta, np.asarray(model.theta)):
        return model.with_theta(theta)
    return model


def elbo_estimate(params: VariationalParams, samples: FixedSampleSet,
                  model, laplace) -> float:
    """Fixed-sample evidence lower bound at the given parameters."""
    m = _model_at(model, params.theta)
    z = family_samples(params.family, samples, laplace)
    gauss = covariance_root(params, laplace)
    w = params.mu[None, :] + z @ gauss.root.T
    vals = m.values(w)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NumericalError(
            f"log posterior not finite (first at sample {int(np.argmax(bad))})")
    return float(vals.mean()) + entropy(params, laplace)


def elbo_and_gradient(params: VariationalParams, samples: FixedSampleSet,
                      model, laplace) -> tuple[float, np.ndarray]:
    """Bound and its gradient w.r.t. the packed free parameters.

    All gradients are analytic. The sample term differentiates through
    w_s = mu + R z_s; the entropy contributes 1/r (resp. 1/sigma) in the
    scale coordinates and the determinant-lemma terms for the rank-one
    family. In log-space coordinates those entropy terms become the constant
    one. Hyperparameter gradients flow only through the log-posterior term.
    """
    m = _model_at(model, params.theta)
    z = family_samples(params.family, samples, laplace)
    gauss = covariance_root(params, laplace)
    w = params.mu[None, :] + z @ gauss.root.T
    vals, g, theta_g = m.evaluate(w)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NumericalError(
            f"log posterior not finite (first at sample {int(np.argmax(bad))})")

    ent = entropy(params, laplace)
    value = float(vals.mean()) + ent
    d_mu = g.mean(axis=0)
    blocks = [d_mu]

    if params.family == "mvi_eig":
        r = np.exp(params.log_r)
        qg = g @ laplace.eigvecs
        d_r = np.einsum("sp,sp->p", qg, z) / z.shape[0] + 1.0 / r
        blocks.append(d_r * r)  # chain rule into log space
    elif params.family == "mvi_lr":
        c = laplace.chol
        t = solve_triangular(c, params.u, lower=True)
        s = 1.0 + float(params.v @ t)
        vz = z @ params.v
        gu = g @ params.u
        d_u = (g * vz[:, None]).mean(axis=0) + solve_triangular(c.T, params.v, lower=False) / s
        d_v = (z * gu[:, None]).mean(axis=0) + t / s
        blocks.extend([d_u, d_v])
    elif params.family == "vi_diag":
        sigma = np.exp(params.log_sigma)
        d_sigma = np.einsum("sp,sp->p", g, z) / z.shape[0] + 1.0 / sigma
        blocks.append(d_sigma * sigma)

    blocks.append(theta_g.mean(axis=0))
    return value, np.concatenate(blocks)


def elbo_gradient(params: VariationalParams, samples: FixedSampleSet,
                  model, laplace) -> VariationalParams:
    """Gradient in parameter layout (a VariationalParams holding derivatives)."""
    _, flat = elbo_and_gradient(params, samples, model, laplace)
    return unpack(params, flat)


# ---------------------------------------------------------------------------
# initialisation and fitting
# ---------------------------------------------------------------------------

def initialise(family: str, laplace, seed: int = 0,
               diag_variant: str = "laplace") -> VariationalParams:
    """Standard initialisation of a family at the Laplace fit.

    vi_diag has two published starting points: sigma^2 equal to the Laplace
    covariance diagonal (``diag_variant="laplace"``) or sigma^2 = 1e-4
    (``diag_variant="small"``). Benchmarks run both and keep the better
    held-out score.
    """
    p = laplace.mean.size
    mu = laplace.mean.copy()
    theta = np.asarray(laplace.theta, dtype=float).copy()
    if family == "mvi_mu":
        return VariationalParams("mvi_mu", mu, theta)
    if family == "mvi_eig":
        return VariationalParams("mvi_eig", mu, theta, log_r=np.log(laplace.eig_root))
    if family == "mvi_lr":
        rng = np.random.default_rng(seed)
        u = 0.1 * rng.standard_normal(p)
        v = 0.1 * rng.standard_normal(p)
        return VariationalParams("mvi_lr", mu, theta, u=u, v=v)
    if family == "vi_diag":
        if diag_variant == "laplace":
            log_sigma = 0.5 * np.log(np.diag(laplace.cov))
        elif diag_variant == "small":
            log_sigma = np.full(p, 0.5 * np.log(1.0e-4))
        else:
            raise ValueError(f"unknown vi_diag variant {diag_variant!r}")
        return VariationalParams("vi_diag", mu, theta, log_sigma=log_sigma)
    raise ValueError(f"unknown family {family!r}")


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
