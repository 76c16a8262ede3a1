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
is refined with a long mode search; one race over chunks of its draws scores
every candidate, whatever the likelihood (see ``hyperparameter_search``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .models import BinaryLogistic, CauchyRegression, FixedDraws, SoftmaxRegression, kmeans
from .optimize import MinimizeResult, OptimConfig, minimize
from .variational import entropy, initialise, standardize_draws

# Jitter ladder for repairing a curvature matrix that is not quite positive
# definite: relative steps 1e-8, 1e-7, ..., 1e-2 of the mean diagonal.
_JITTER_STEPS = tuple(10.0**k for k in range(-8, -1))

# Draws per chunk of a log-concave model's race; a race with U = +inf (Cauchy) is never dropped
# and takes all its draws as one chunk. With one-thread OpenBLAS, chunks of a multiple of 24
# draws get the rows of that one-chunk z C' bit for bit (as models._SCORE_BLOCK does).
_RACE_CHUNK = 120


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
    """The Laplace method's Gaussian N(mean, C C'), with both covariance
    factorizations; scoring reads it, as every Gaussian, by ``mean``, ``root``
    (C) and ``dim``.

    ``bound_at_mode`` is the deterministic Laplace evidence approximation
    ln p~(w*) + (P/2) ln 2 pi + ``log_det``, the last (1/2) ln det Sigma, which
    the families on C read too; for a Gaussian target it equals the log
    evidence exactly. ``eigvecs`` and ``eig_root`` come from one ``eigh`` of
    ``cov`` on first access, which raises ``NumericalError`` for a
    non-positive eigenvalue; of a grid's fits only the winner's is read.
    """

    mean: np.ndarray
    cov: np.ndarray
    chol: np.ndarray       # lower triangular, cov = chol @ chol.T
    theta: np.ndarray      # log-space continuous hyperparameters at the fit
    bound_at_mode: float
    jitter: float = 0.0    # diagonal added to -H before factorization
    _eig = None            # (Q, r) once formed

    @property
    def dim(self) -> int:
        return self.mean.size

    root = property(lambda self: self.chol)             # R = C
    log_det = property(lambda self: float(np.sum(np.log(np.diag(self.chol)))))   # sum ln diag C
    eigvecs = property(lambda self: self._eigh()[0])    # Q, columns are eigenvectors of cov
    eig_root = property(lambda self: self._eigh()[1])   # r, sqrt of cov eigenvalues (ascending)

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            eigvals, eigvecs = np.linalg.eigh(self.cov)
            if eigvals.min() <= 0:
                raise NumericalError(
                    f"curvature covariance has a non-positive eigenvalue ({eigvals.min():.3e})")
            self._eig = (eigvecs, np.sqrt(eigvals))
        return self._eig


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

    lap = LaplaceResult(mean=w_star.copy(), cov=cov, chol=chol,
                        theta=np.asarray(model.theta, dtype=float).copy(),
                        bound_at_mode=math.nan, jitter=jitter)   # set from its log_det
    lap.bound_at_mode = float(model.value(w_star) + 0.5 * p * math.log(2.0 * math.pi)
                              + lap.log_det)
    return lap


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
    draws: int               # draws at which the grid's scores evaluated ln p~


TASK_MODELS = {"regression": CauchyRegression, "binary": BinaryLogistic,
               "multiclass": SoftmaxRegression}


def _upper_bound(model, lap: LaplaceResult, draws: FixedDraws) -> float:
    """U >= the score; +inf unless ``model.log_concave``, when ln p~ is below
    t(w) = ln p~(mu) + g'(w - mu) - (alpha/2) |w - mu|^2, g its gradient at mu
    (Challis & Barber, 2013). Over centred draws w_s = mu + C z_s the mean of
    t is free of g: U = bound_at_mode + P/2 - (alpha/2) tr(C M C'), M = z'z / S."""
    if not model.log_concave:
        return math.inf
    return float(lap.bound_at_mode + 0.5 * lap.dim
                 - 0.5 * model.alpha * np.vdot(lap.chol @ draws.moments[2], lap.chol))


def _race(model, lap: LaplaceResult, draws: FixedDraws, bound: float, floor: float):
    """(score, None, S), or (None, bound, draws evaluated) once U or a chunk's
    finite bound, checked before each chunk, is below ``floor``. ln p~(w_s)
    is evaluated in chunks (see ``_RACE_CHUNK``); after each but the last the
    bound falls by the sum of t(w_s) - ln p~(w_s) >= 0 over its draws, over S,
    the rest standing at their tangent t of ``_upper_bound``, formed only then.
    The score is the values' mean plus the entropy of the Laplace Gaussian;
    with no floor yet, or U = +inf (Cauchy), a race is never dropped."""
    mu, S = lap.mean, draws.S
    chunk = _RACE_CHUNK if model.log_concave else S
    values = np.empty(S)
    for start in range(0, S, chunk):
        if floor > bound > -math.inf:
            return None, float(bound), start
        stop = min(start + chunk, S)
        step = draws.z[start:stop] @ lap.chol.T   # w_s - mu
        values[start:stop] = model.values(mu[None, :] + step)
        if stop < S:
            if start == 0:
                (value,), (g,), _ = model.evaluate(mu)
            bound += (values[start:stop].sum() - (stop - start) * value
                      - step.sum(axis=0) @ g + 0.5 * model.alpha * np.vdot(step, step)) / S
    mean = float(values.mean())
    if not math.isfinite(mean):
        raise NumericalError(f"log posterior not finite (mean over the draws {mean})")
    return mean + entropy(initialise("mvi_mu", lap), lap), None, S


def hyperparameter_search(X: np.ndarray, y: np.ndarray, task: str, seed: int,
                          n_samples: int = 1000,
                          grid: GridConfig | None = None,
                          optim: OptimConfig | None = None) -> SearchResult:
    """Randomized grid over basis size, width, and precisions.

    Basis sizes above the training-set size are dropped. For each remaining
    size M the centres come from seeded k-means; ``n_pairs`` draws of (width,
    alpha) - and gamma for regression - from Uniform(0, 1) give the
    candidates. Phase 1 gives each, in loop order, a ``search_iters``-step
    mode search from zero and a curvature fit. Phase 2 scores them with the
    fixed-sample bound of their own Laplace Gaussian (the ``mvi_mu`` family
    at the fit) on a shared master sample matrix: a candidate of dimension P
    consumes its first P columns, standardised once per distinct P, so
    equal-sized candidates share draws exactly. The highest score wins, ties
    going to the earliest candidate, and is refined by a mode search under
    ``optim``, warm-started at its short-search mode.

    Phase 2 is an exact branch and bound in descending order of the
    ``_upper_bound`` U (ties in loop order), one ``_race`` for every
    candidate: ln p~ over its ``_RACE_CHUNK``-draw chunks, dropped once U or
    its bound after a chunk is below best - 1e-9 (1 + |best|), best the
    highest score so far (record: score -inf and that ``bound``), else scored
    by the chunks' mean plus its entropy; the tangent at the mean is formed
    only when another chunk is to come. Cauchy's U is +inf, which no chunk
    lowers: every candidate is scored, in loop order, from one chunk. ``draws``
    counts the draws that evaluated ln p~: S per scored candidate, plus each drop's.

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

    def fail(rec: dict, exc: Exception) -> None:
        rec["score"] = -np.inf
        rec["error"] = str(exc)
        # messages put their numbers in parentheses; the rest is the kind
        rec["reason"] = rec["error"].split(" (")[0]

    search_cfg = OptimConfig(max_iters=grid.search_iters, grad_tol=base_optim.grad_tol)
    records, fits = [], []   # fits: (record index, model, mode, Laplace fit)
    for m, km_seed in zip(sizes, km_seeds):
        centers = kmeans(X, m, seed=km_seed)
        for row in pair_rng.uniform(size=(grid.n_pairs, n_hyper)):
            hyper = dict(zip(("width", "alpha", "gamma"), row.tolist()))
            records.append({"M": m, "gamma": None, **hyper})
            try:
                model = TASK_MODELS[task](X, y, centers, **hyper)
                mode = find_mode(model, np.zeros(model.P), search_cfg)
                fits.append((len(records) - 1, model, mode, laplace_approximation(model, mode.x)))
            except (NumericalError, np.linalg.LinAlgError) as exc:
                fail(records[-1], exc)

    sample_sets = {p: FixedDraws(standardize_draws(z_master[:, :p]))
                   for p in {model.P for _, model, _, _ in fits}}
    bounds = [_upper_bound(model, lap, sample_sets[model.P]) for _, model, _, lap in fits]
    best, n_draws = None, 0   # best: (score, record index, model, mode)
    for j in sorted(range(len(fits)), key=lambda j: (-bounds[j], j)):
        i, model, mode, lap = fits[j]
        floor = -math.inf if best is None else best[0] - 1e-9 * (1.0 + abs(best[0]))
        try:
            score, bound, done = _race(model, lap, sample_sets[model.P], bounds[j], floor)
        except NumericalError as exc:
            fail(records[i], exc)
            continue
        n_draws += done
        records[i].update({"score": -np.inf, "bound": bound} if score is None else {"score": score})
        if score is not None and (best is None or (score, -i) > (best[0], -best[1])):
            best = (score, i, model, mode)

    if best is None:
        failures = "; ".join(r.get("error", "?") for r in records[:5])
        raise NumericalError(f"every grid candidate failed: {failures}")

    _, _, best_model, best_mode = best
    grid_done = time.perf_counter()
    mode = find_mode(best_model, best_mode.x, base_optim)
    mode_done = time.perf_counter()
    lap = laplace_approximation(best_model, mode.x)
    timing = {"grid": grid_done - started, "final_mode": mode_done - grid_done,
              "curvature": time.perf_counter() - mode_done}
    return SearchResult(model=best_model, laplace=lap, mode=mode, candidates=records,
                        timing=timing, draws=n_draws)
