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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import NumericalError
from .models import BinaryLogistic, CauchyRegression, SoftmaxRegression, kmeans
from .optimize import OptimConfig, minimize
from .variational import FixedSampleSet, elbo_estimate, initialise, standardize_draws

# Jitter ladder for repairing a curvature matrix that is not quite positive
# definite: relative steps 1e-8, 1e-7, ..., 1e-2 of the mean diagonal.
_JITTER_STEPS = tuple(10.0**k for k in range(-8, -1))


@dataclass
class ModeResult:
    w: np.ndarray
    value: float
    grad_norm: float
    n_iters: int
    converged: bool
    reason: str            # the minimiser's stop reason
    n_evals: int
    trace: list[float] = field(default_factory=list)


def find_mode(model, w0: np.ndarray, config: OptimConfig | None = None) -> ModeResult:
    """Gradient-based ascent to a stationary point of the log posterior.

    Runs the deterministic minimiser on the negated objective; ``converged``
    reports whether the max-norm gradient tolerance was met rather than the
    iteration cap.
    """
    cfg = config or OptimConfig(max_iters=1000)

    def objective(w: np.ndarray) -> tuple[float, np.ndarray]:
        values, grads, _ = model.evaluate(w)
        return -float(values[0]), -grads[0]

    res = minimize(objective, np.asarray(w0, dtype=float), cfg)
    return ModeResult(
        w=res.x,
        value=-res.f,
        grad_norm=res.grad_norm,
        n_iters=res.n_iters,
        converged=res.grad_norm <= cfg.grad_tol,
        reason=res.reason,
        n_evals=res.n_evals,
        trace=[-f for f in res.trace],
    )


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

    chol_a = None
    jitter = 0.0
    for step in (0.0,) + _JITTER_STEPS:
        jitter = step * diag_scale
        try:
            chol_a = np.linalg.cholesky(a + jitter * np.eye(p))
            break
        except np.linalg.LinAlgError:
            continue
    if chol_a is None:
        smallest = float(np.linalg.eigvalsh(a).min())
        raise NumericalError(
            "negated Hessian is not positive definite even after jitter up to "
            f"1e-2 of the mean diagonal (smallest eigenvalue {smallest:.3e})")

    cov = cho_solve((chol_a, True), np.eye(p))
    cov = 0.5 * (cov + cov.T)
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
    final_iters: int = 1000


@dataclass
class SearchResult:
    model: object            # winning model at its fitted mode's hyperparameters
    laplace: LaplaceResult
    mode: ModeResult
    candidates: list[dict]   # per-candidate record incl. score or failure


TASK_MODELS = {"regression": CauchyRegression, "binary": BinaryLogistic,
               "multiclass": SoftmaxRegression}


def hyperparameter_search(X: np.ndarray, y: np.ndarray, task: str, seed: int,
                          n_samples: int = 1000,
                          grid: GridConfig | None = None,
                          optim: OptimConfig | None = None) -> SearchResult:
    """Randomized grid over basis size, width, and precisions.

    For each basis size M (clamped to the training-set size) the centres come
    from seeded k-means; ``n_pairs`` draws of (width, alpha) - and gamma for
    regression - from Uniform(0, 1) give the candidates. Each candidate gets
    a ``search_iters``-step mode search from zero and a curvature fit, and is
    scored with the fixed-sample bound of its own Laplace Gaussian (the
    ``mvi_mu`` family at the fit) on a shared master sample matrix: a
    candidate of dimension P consumes its first P columns, standardised once
    per distinct P, so equal-sized candidates share draws exactly. The
    best-scoring candidate is refined with a ``final_iters``-step mode search
    warm-started at its short-search mode.

    Failed candidates (indefinite curvature, non-finite objectives) score
    -inf and are recorded with the error and its kind (``reason``, the
    message without its parenthesised numbers); the search only errors if
    every candidate failed.
    """
    if task not in TASK_MODELS:
        raise ValueError(f"unknown task {task!r}")
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
    n_hyper = 3 if task == "regression" else 2

    candidates = []
    for m, km_seed in zip(sizes, km_seeds):
        centers = kmeans(X, m, seed=km_seed)
        draws = pair_rng.uniform(size=(grid.n_pairs, n_hyper))
        for row in draws:
            width, alpha = float(row[0]), float(row[1])
            gamma = float(row[2]) if task == "regression" else None
            candidates.append({
                "M": m, "centers": centers, "width": width,
                "alpha": alpha, "gamma": gamma,
            })

    k_classes = np.atleast_2d(np.asarray(y)).shape[1] if task == "multiclass" else 1
    p_max = max((c["M"] + 1) * k_classes for c in candidates)
    z_master = np.random.default_rng(ss_z).standard_normal((n_samples, p_max))

    search_cfg = OptimConfig(max_iters=grid.search_iters,
                             grad_tol=base_optim.grad_tol, f_tol=base_optim.f_tol)
    records = []
    scored = []
    sample_sets = {}   # standardised draws per parameter dimension
    for idx, cand in enumerate(candidates):
        rec = {k: cand[k] for k in ("M", "width", "alpha", "gamma")}
        try:
            scale = {} if cand["gamma"] is None else {"gamma": cand["gamma"]}
            model = TASK_MODELS[task](X, y, cand["centers"], alpha=cand["alpha"],
                                      width=cand["width"], **scale)
            mode = find_mode(model, np.zeros(model.P), search_cfg)
            lap = laplace_approximation(model, mode.w)
            if model.P not in sample_sets:
                sample_sets[model.P] = FixedSampleSet(
                    z=standardize_draws(z_master[:, :model.P]), seed=seed)
            score = elbo_estimate(initialise("mvi_mu", lap),
                                  sample_sets[model.P], model, lap)
            rec["score"] = score
            scored.append((score, idx, model, mode))
        except (NumericalError, np.linalg.LinAlgError) as exc:
            rec["score"] = -np.inf
            rec["error"] = str(exc)
            # messages put their numbers in parentheses; the rest is the kind
            rec["reason"] = rec["error"].split(" (")[0]
        records.append(rec)

    if not scored:
        failures = "; ".join(r.get("error", "?") for r in records[:5])
        raise NumericalError(f"every grid candidate failed: {failures}")

    # Highest score wins; ties resolve to the earliest candidate.
    best_score, best_idx, best_model, best_mode = max(
        scored, key=lambda item: (item[0], -item[1]))
    final_cfg = OptimConfig(max_iters=grid.final_iters,
                            grad_tol=base_optim.grad_tol, f_tol=base_optim.f_tol)
    mode = find_mode(best_model, best_mode.w, final_cfg)
    lap = laplace_approximation(best_model, mode.w)
    for rec in records:
        rec.pop("centers", None)
    return SearchResult(model=best_model, laplace=lap, mode=mode, candidates=records)
