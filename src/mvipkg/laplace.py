"""Laplace approximation and hyperparameter selection.

A Laplace fit is a second-order story: find a mode of the unnormalised log
posterior, then read a Gaussian off the negated Hessian there. The result
object keeps both decompositions of the covariance that the variational
families build on: the lower Cholesky factor C (Sigma = C C') and the
eigendecomposition Q diag(r^2) Q' (Sigma's eigenvectors and the square roots
of its eigenvalues).

Hyperparameters (basis size, centres, width, precisions) are chosen by a
cheap randomized grid: every candidate gets a short mode search and a
curvature fit, candidates are scored by the Monte Carlo variational bound of
their own Laplace Gaussian on one shared set of base samples, and the winner
is refined with a long mode search.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .models import BinaryLogistic, CauchyRegression, FixedDraws, SoftmaxRegression, kmeans
from .optimize import MinimizeResult, OptimConfig, minimize
from .variational import elbo_estimate, initialise, standardize_draws

# Jitter ladder for repairing a curvature matrix that is not quite positive
# definite: relative steps 1e-8, 1e-7, ..., 1e-2 of the mean diagonal.
_JITTER_STEPS = tuple(10.0**k for k in range(-8, -1))


def find_mode(model, w0: np.ndarray, config: OptimConfig | None = None) -> MinimizeResult:
    """Gradient-based ascent to a stationary point of the log posterior.

    Returns the deterministic minimiser's result on the negated objective
    (``f`` is minus the log posterior at ``x``): it stops on the max-norm
    gradient test (``converged``), after ``max_iters`` accepted steps, or
    (reason ``f_tol``) when no finite line search trial lowers the value.
    """

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        values, grads, _ = model.evaluate(w)
        return -float(values[0]), -grads[0]

    return minimize(objective, np.asarray(w0, dtype=float), config or OptimConfig())


@dataclass
class LaplaceResult:
    """Gaussian fit at a mode, with both covariance factorizations.

    ``bound_at_mode`` is the deterministic Laplace evidence approximation
    ln p~(w*) + (P/2) ln 2 pi + (1/2) ln det Sigma; for a Gaussian target it
    equals the log evidence exactly.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray       # lower triangular, cov = chol @ chol.T
    eigvecs: np.ndarray    # Q, columns are eigenvectors of cov
    eig_root: np.ndarray   # r, sqrt of cov eigenvalues (ascending)
    theta: np.ndarray      # log-space continuous hyperparameters at the fit
    bound_at_mode: float
    jitter: float = 0.0    # diagonal added to -H before factorization

    @property
    def dim(self) -> int:
        return self.mean.size


def laplace_approximation(model, w_star: np.ndarray) -> LaplaceResult:
    """Fit the Gaussian N(w*, (-H)^-1) at a (near-)mode w*.

    The negated Hessian must admit a Cholesky factorization; if it does not,
    an escalating relative jitter (1e-8 to 1e-2 of the mean diagonal) is
    added before giving up with a diagnostic naming the smallest eigenvalue.
    """
    w_star = np.asarray(w_star, dtype=float).ravel()
    p = w_star.size
    a = -model.hessian(w_star)
    a = 0.5 * (a + a.T)
    diag_scale = float(np.mean(np.diag(a)))
    if not np.isfinite(diag_scale) or diag_scale <= 0:
        raise NumericalError(
            f"negated Hessian has non-positive mean diagonal ({diag_scale:.3e})")

    for step in (0.0,) + _JITTER_STEPS:
        jitter = step * diag_scale
        try:
            chol_a = np.linalg.cholesky(a + jitter * np.eye(p))
            break
        except np.linalg.LinAlgError:
            continue
    else:
        smallest = float(np.linalg.eigvalsh(a).min())
        raise NumericalError(
            "negated Hessian is not positive definite even after jitter up to "
            f"1e-2 of the mean diagonal (smallest eigenvalue {smallest:.3e})")

    inv_a = np.linalg.inv(chol_a)
    cov = inv_a.T @ inv_a   # Sigma = L^-T L^-1 for -H + jitter = L L', symmetric to the bit
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("curvature covariance lost positive definiteness") from exc
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() <= 0:
        raise NumericalError(
            f"curvature covariance has a non-positive eigenvalue ({eigvals.min():.3e})")

    log_det_half = float(np.sum(np.log(np.diag(chol))))
    bound = model.value(w_star) + 0.5 * p * math.log(2.0 * math.pi) + log_det_half
    return LaplaceResult(
        mean=w_star.copy(),
        cov=cov,
        chol=chol,
        eigvecs=eigvecs,
        eig_root=np.sqrt(eigvals),
        theta=np.asarray(model.theta, dtype=float).copy(),
        bound_at_mode=float(bound),
        jitter=jitter,
    )


# ---------------------------------------------------------------------------
# randomized hyperparameter grid
# ---------------------------------------------------------------------------

@dataclass
class GridConfig:
    basis_sizes: tuple[int, ...] = (10, 20, 30)
    n_pairs: int = 10
    search_iters: int = 10


@dataclass
class SearchResult:
    model: object            # winning model at its fitted mode's hyperparameters
    laplace: LaplaceResult
    mode: MinimizeResult     # the final mode search
    candidates: list[dict]   # per-candidate record incl. score or failure
    timing: dict             # seconds of "grid", "final_mode" and "curvature"


TASK_MODELS = {"regression": CauchyRegression, "binary": BinaryLogistic,
               "multiclass": SoftmaxRegression}


def hyperparameter_search(X: np.ndarray, y: np.ndarray, task: str, seed: int,
                          n_samples: int = 1000,
                          grid: GridConfig | None = None,
                          optim: OptimConfig | None = None) -> SearchResult:
    """Randomized grid over basis size, width, and precisions.

    Basis sizes above the training-set size are dropped. For each remaining
    size M the centres come from seeded k-means; ``n_pairs`` draws of (width,
    alpha) - and gamma for regression - from Uniform(0, 1) give the
    candidates. Each candidate gets
    a ``search_iters``-step mode search from zero and a curvature fit, and is
    scored with the fixed-sample bound of its own Laplace Gaussian (the
    ``mvi_mu`` family at the fit) on a shared master sample matrix: a
    candidate of dimension P consumes its first P columns, standardised once
    per distinct P, so equal-sized candidates share draws exactly. The
    best-scoring candidate is refined by a mode search under ``optim``,
    warm-started at its short-search mode.

    Failed candidates (indefinite curvature, non-finite objectives) score
    -inf and are recorded with the error and its kind (``reason``, the
    message without its parenthesised numbers); the search only errors if
    every candidate failed.

    ``timing`` splits the call's wall-clock seconds three ways: ``grid``
    (everything up to the choice of the winner), ``final_mode`` (the long
    mode search) and ``curvature`` (the winner's Laplace fit).
    """
    started = time.perf_counter()
    if task not in TASK_MODELS:
        raise ValueError(f"unknown task {task!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    grid = grid or GridConfig()
    base_optim = optim or OptimConfig()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_train = X.shape[0]

    ss = np.random.SeedSequence(seed)
    ss_pairs, ss_z, ss_km = ss.spawn(3)
    pair_rng = np.random.default_rng(ss_pairs)

    sizes = [m for m in grid.basis_sizes if m <= n_train]
    if not sizes:
        raise NumericalError(
            f"no admissible basis size: training set has {n_train} rows, "
            f"grid asks for {grid.basis_sizes}")
    km_seeds = ss_km.spawn(len(sizes))
    n_hyper = len(TASK_MODELS[task].theta_names)

    k_classes = np.atleast_2d(np.asarray(y)).shape[1] if task == "multiclass" else 1
    p_max = (max(sizes) + 1) * k_classes
    z_master = np.random.default_rng(ss_z).standard_normal((n_samples, p_max))

    search_cfg = OptimConfig(max_iters=grid.search_iters, grad_tol=base_optim.grad_tol)
    records = []
    best = None        # (score, model, mode) of the best candidate so far
    sample_sets = {}   # standardised draws per parameter dimension
    for m, km_seed in zip(sizes, km_seeds):
        centers = kmeans(X, m, seed=km_seed)
        for row in pair_rng.uniform(size=(grid.n_pairs, n_hyper)):
            hyper = dict(zip(("width", "alpha", "gamma"), row.tolist()))
            rec = {"M": m, "gamma": None, **hyper}
            try:
                model = TASK_MODELS[task](X, y, centers, **hyper)
                mode = find_mode(model, np.zeros(model.P), search_cfg)
                lap = laplace_approximation(model, mode.x)
                if model.P not in sample_sets:
                    sample_sets[model.P] = FixedDraws(standardize_draws(z_master[:, :model.P]))
                score = elbo_estimate(initialise("mvi_mu", lap),
                                      sample_sets[model.P], model, lap)
                rec["score"] = score
                # highest score wins, ties go to the earliest; the rest are dropped
                if best is None or score > best[0]:
                    best = (score, model, mode)
            except (NumericalError, np.linalg.LinAlgError) as exc:
                rec["score"] = -np.inf
                rec["error"] = str(exc)
                # messages put their numbers in parentheses; the rest is the kind
                rec["reason"] = rec["error"].split(" (")[0]
            records.append(rec)

    if best is None:
        failures = "; ".join(r.get("error", "?") for r in records[:5])
        raise NumericalError(f"every grid candidate failed: {failures}")

    _, best_model, best_mode = best
    grid_done = time.perf_counter()
    mode = find_mode(best_model, best_mode.x, base_optim)
    mode_done = time.perf_counter()
    lap = laplace_approximation(best_model, mode.x)
    timing = {"grid": grid_done - started, "final_mode": mode_done - grid_done,
              "curvature": time.perf_counter() - mode_done}
    return SearchResult(model=best_model, laplace=lap, mode=mode, candidates=records,
                        timing=timing)
