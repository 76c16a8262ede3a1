"""Experiment orchestration: per-split fits, aggregation, and reports.

Each runner returns a plain dict that serialises to JSON as-is. It holds
what the run produced, not the settings it ran with: the caller, which chose
them, records those (the CLI writes them under "config"). Wall-clock times
live under a single "timing" key so callers can compare everything else
bit-for-bit between reruns.
"""

import os
import time
from collections import Counter
from functools import cache, partial

import numpy as np

from . import data as data_mod
from . import evaluate, variational
from . import laplace as laplace_mod
from .errors import ConfigError, NumericalError
from .laplace import GridConfig
from .optimize import OptimConfig
from .stats import PairedSample, significance_decision

METHODS = ("laplace", "mvi_mu", "mvi_eig", "mvi_lr", "vi_diag")
DEMO_FAMILIES = ("mvi_mu", "mvi_eig", "mvi_lr")

# Sub-seed salts, spaced far beyond any plausible split count so the
# per-purpose streams of different splits never collide.
SALT_SAMPLES = 1_000_000
SALT_INIT = 2_000_000
SALT_EVAL = 3_000_000
SALT_BOOT = 4_000_000

_METRIC_SENSE = {"lpd": 1.0, "mse": -1.0, "error_rate": -1.0}
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def error_metric(kind: str) -> str:
    """The metric reported beside lpd for a task kind."""
    return "mse" if kind == "regression" else "error_rate"


def _check_methods(methods):
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method(s) {unknown}; choose from {METHODS}")
    if not methods:
        raise ConfigError("no methods requested")
    return methods


# ---------------------------------------------------------------------------
# one split
# ---------------------------------------------------------------------------

def _fit_diagnostics(res) -> dict:
    """Iterations, evaluations, stop reason and final max|g| of a MinimizeResult."""
    return {"n_iters": int(res.n_iters), "n_evals": int(res.n_evals),
            "stop_reason": str(res.reason), "grad_norm": float(res.grad_norm)}


def _search_and_fit(train, seed: int, n_samples: int, grid: GridConfig | None,
                    optim: OptimConfig | None):
    """The grid search on ``train``, and ``fit(method)``: one method's
    (posterior, scoring model, fit). For laplace these are the search's
    Laplace Gaussian and model, and None; for a variational method the
    family's Gaussian, the model at its hyperparameters and the
    ``variational.fit_family`` fit, from the family's one start (seeded by
    ``seed``) on draws of ``seed`` that every method shares, drawn by the
    first variational fit.
    """
    search = laplace_mod.hyperparameter_search(
        train.X, train.y, train.kind, seed=seed,
        n_samples=n_samples, grid=grid, optim=optim)
    model, lap = search.model, search.laplace

    @cache
    def samples():
        return variational.draw_fixed_samples(n_samples, model.P, seed + SALT_SAMPLES)

    def fit(method: str):
        if method == "laplace":
            return variational.laplace_posterior(lap), model, None
        fitted = variational.fit_family(model, lap, samples(), method,
                                        seed=seed + SALT_INIT, config=optim)
        params = fitted.params
        return (variational.covariance_root(params, lap), model.with_theta(params.theta),
                fitted)
    return search, fit


def run_split(train, test, methods=METHODS, seed: int = 0, n_samples: int = 1000,
              n_eval: int = 10_000, grid: GridConfig | None = None,
              optim: OptimConfig | None = None):
    """Fit the requested methods on one train/test pair and score them.

    Returns (records, timing, search_info). The evaluation seed is shared
    across methods, so paired comparisons run on common random numbers;
    each method is scored once.
    Each variational record carries ``theta``, the log-space hyperparameters
    its fit ended at; the Laplace ones are ``search_info["theta_la"]``.
    Every record carries its fit's diagnostics: ``n_iters``, ``n_evals``,
    ``stop_reason`` and the final max-norm gradient ``grad_norm`` (for
    laplace, those of the final mode search). Every variational record has
    the same keys.
    The search info counts the failed grid candidates (``grid_failed``) and
    the failures of each kind (``grid_failures``). The timing holds the
    search's seconds (``grid``, ``final_mode``, ``curvature``), then
    ``<method>.fit`` for each variational method and ``<method>.score``.
    """
    methods = _check_methods(methods)
    score = (evaluate.regression_metrics if train.kind == "regression"
             else evaluate.classification_metrics)

    records = {}
    search, fit = _search_and_fit(train, seed, n_samples, grid, optim)
    timing = dict(search.timing)
    model, lap = search.model, search.laplace
    failures = Counter(c["reason"] for c in search.candidates if "reason" in c)
    info = {
        "n_centers": int(model.centers.shape[0]),
        "theta_la": [float(t) for t in lap.theta],
        "mode_converged": bool(search.mode.converged),
        "jitter": float(lap.jitter),
        "grid_failed": int(sum(failures.values())),
        "grid_failures": dict(sorted(failures.items())),
    }

    eval_seed = seed + SALT_EVAL
    for method in methods:
        t0 = time.perf_counter()
        posterior, scorer, fitted = fit(method)
        if fitted is None:
            rec = {"elbo": float(lap.bound_at_mode), **_fit_diagnostics(search.mode)}
        else:
            timing[f"{method}.fit"] = time.perf_counter() - t0
            t0 = time.perf_counter()
            rec = {"elbo": float(fitted.elbo), **_fit_diagnostics(fitted.opt),
                   "theta": [float(t) for t in fitted.params.theta]}
        rec.update(score(posterior, scorer, test.X, test.y, n_samples=n_eval, seed=eval_seed))
        records[method] = rec
        timing[f"{method}.score"] = time.perf_counter() - t0
    return records, timing, info


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def median_table(method_records: list[dict], methods, metrics) -> dict:
    """Per-method medians over splits; input is one records dict per split."""
    out = {}
    for m in methods:
        out[m] = {k: float(np.median([r[m][k] for r in method_records]))
                  for k in metrics}
    return out


def significance_block(method_records: list[dict], methods, metric: str,
                       alpha: float = 0.05, n_boot: int = 10_000,
                       seed: int = 0):
    """Best-by-median method for one metric, tested against every other.

    Returns None when fewer than two methods or no completed splits exist,
    and a note instead of a decision when scores are not finite (the sign
    test and bootstrap need finite pairs).
    """
    methods = tuple(methods)
    if len(methods) < 2 or not method_records:
        return None
    sense = _METRIC_SENSE[metric]
    scores = {m: np.array([r[m][metric] for r in method_records], dtype=float)
              for m in methods}
    medians = {m: float(np.median(v)) for m, v in scores.items()}
    best = max(methods, key=lambda m: sense * medians[m])
    block = {"metric": metric, "best": best, "best_median": medians[best],
             "medians": medians, "alpha": alpha}
    if not all(np.isfinite(v).all() for v in scores.values()):
        block["note"] = "non-finite scores present; significance not tested"
        block["overall_significant"] = False
        return block
    others = {m: PairedSample(scores[best], scores[m])
              for m in methods if m != best}
    block.update(significance_decision(others, alpha=alpha, n_boot=n_boot, seed=seed))
    return block


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _parallel_map(fn, items, n_workers: int) -> list:
    """``[fn(item) for item in items]``, on ``n_workers`` processes when more than one.

    The processes are forked from the process's forkserver, which the first
    pool starts with BLAS pinned to one thread (the parent's environment is
    restored afterwards) and which imports this module, numpy with it, once.
    So results do not depend on the parent's BLAS settings or on scheduling,
    and later pools start warm. The server is global to the process and
    lives until the process exits. It starts with the directory that holds
    this mvipkg at the head of ``PYTHONPATH``, since CPython 3.11's forkserver
    ignores the caller's ``sys.path``. A forkserver that the caller's own
    code started earlier keeps its BLAS settings, and its workers inherit
    them. Where the platform has no forkserver, the processes start by
    ``spawn``.

    ``fn`` and every item and result are pickled: ``fn`` must be importable
    by name, or a ``functools.partial`` of such a function. An exception
    raised by ``fn`` reaches the caller with its class. Results come back in
    item order, and the pool is shut down, its processes joined, before this
    returns. Every worker imports the caller's ``__main__`` again as it
    starts; a pool whose processes die raises ``BrokenProcessPool`` naming
    the ``__main__`` guard, the usual cause.
    """
    if n_workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    saved = {var: os.environ.get(var) for var in (*_BLAS_THREAD_VARS, "PYTHONPATH")}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    home = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (home, saved["PYTHONPATH"])))
    if "forkserver" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("forkserver")
        # the default preload, __main__, would run the caller's script in the server
        context.set_forkserver_preload([__name__])
    else:
        context = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(n_workers, mp_context=context)
    try:
        return list(pool.map(fn, items))
    except BrokenProcessPool as err:
        raise BrokenProcessPool(
            "a worker process died. Each worker imports the caller's __main__ again "
            "as it starts: a script that runs a suite must do so under "
            '`if __name__ == "__main__":`') from err
    finally:
        pool.shutdown(cancel_futures=True)
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _split_outcome(methods, fit_options, job) -> dict:
    """Fit and score split ``job = (index, (train, test, seed))``; a split whose
    fit fails numerically is returned as skipped."""
    i, (train, test, seed) = job
    try:
        recs, timing, info = run_split(train, test, methods, seed=seed, **fit_options)
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
        return {"index": i, "seed": seed, "error": str(err)}
    return {"index": i, "seed": seed, "search": info,
            "methods": recs, "_timing": timing}


def _run_suite(splits, methods, metrics, base_seed, n_workers, alpha, n_boot,
               **fit_options) -> dict:
    """Run ``run_split`` on every split and assemble the suite's report.

    ``splits`` holds each split's (train, test, seed). A split whose fit
    fails numerically is recorded as skipped. ``n_workers`` is the requested
    worker count; None asks for one per usable core. Either is capped at the
    number of splits, and the count used is ``timing["n_workers"]``.
    ``timing["wall"]`` is the suite's elapsed time; the per-split times under
    ``timing["splits"]`` overlap under several workers, and
    ``timing["significance"]`` is the seconds of the significance tests,
    which ``alpha`` and ``n_boot`` set.
    """
    n_workers = max(1, min(n_workers or usable_cores(), len(splits)))
    started = time.perf_counter()
    outcomes = _parallel_map(partial(_split_outcome, methods, fit_options),
                             enumerate(splits), n_workers)
    records = [o for o in outcomes if "error" not in o]
    skipped = [o for o in outcomes if "error" in o]
    run_times = [{"index": r["index"], **r.pop("_timing")} for r in records]
    ok = [r["methods"] for r in records]

    medians = median_table(ok, methods, metrics) if ok else {}
    tests_started = time.perf_counter()
    significance, markers = {}, {}
    for metric in metrics:
        block = significance_block(ok, methods, metric, alpha=alpha, n_boot=n_boot,
                                   seed=base_seed + SALT_BOOT)
        if block is not None:
            significance[metric] = block
            markers[metric] = {"best": block["best"],
                               "significant": block["overall_significant"]}
    tests_s = time.perf_counter() - tests_started
    return {
        "n_completed": len(records),
        "n_skipped": len(skipped),
        "skipped": skipped,
        "records": records,
        "medians": medians,
        "significance": significance,
        "markers": markers,
        "timing": {"splits": run_times,
                   "significance": tests_s,
                   "wall": time.perf_counter() - started,
                   "n_workers": n_workers},
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_cauchy(n_runs: int = 20, methods=METHODS, seed: int = 0,
               n_samples: int = 1000, n_eval: int = 10_000,
               n_train: int = 50, n_test: int = 1000,
               grid: GridConfig | None = None, optim: OptimConfig | None = None,
               alpha: float = 0.05, n_boot: int = 10_000,
               n_workers: int | None = None) -> dict:
    """The synthetic heavy-tail regression suite: n_runs fresh datasets.

    ``n_workers`` processes run the splits; None (the default) starts one
    per usable core. Several are forked from the process's forkserver,
    which lives until the process exits (see ``_parallel_map``), and each
    imports the caller's ``__main__`` again: call this under ``if __name__
    == "__main__":``, or the pool dies with ``BrokenProcessPool``.
    """
    methods = _check_methods(methods)
    splits = [(*data_mod.generate_cauchy_task(seed + i, n_train, n_test), seed + i)
              for i in range(n_runs)]
    return _run_suite(splits, methods, ("lpd", error_metric("regression")), seed,
                      n_workers, alpha, n_boot,
                      n_samples=n_samples, n_eval=n_eval, grid=grid, optim=optim)


def run_benchmark(dataset, methods=METHODS, plan=None,
                  n_samples: int = 1000, n_eval: int = 10_000,
                  grid: GridConfig | None = None, optim: OptimConfig | None = None,
                  alpha: float = 0.05, n_boot: int = 10_000,
                  n_workers: int | None = None) -> dict:
    """Split-resampling benchmark on a loaded dataset; ``n_workers``, the
    forkserver its pool forks from, and the ``__main__`` guard, as in
    :func:`run_cauchy`. The report's ``task`` is the dataset's task kind."""
    methods = _check_methods(methods)
    plan = plan or data_mod.SplitPlan()
    splits = data_mod.make_splits(dataset, plan)
    report = _run_suite(splits, methods, ("lpd", error_metric(dataset.kind)), plan.seed,
                        n_workers, alpha, n_boot,
                        n_samples=n_samples, n_eval=n_eval, grid=grid, optim=optim)
    return {"task": dataset.kind, **report}


# ---------------------------------------------------------------------------
# 2-D demonstration
# ---------------------------------------------------------------------------

def ellipse_points(posterior, mass: float = 0.70, n_points: int = 128) -> np.ndarray:
    """Boundary polyline of the central ``mass`` region of a 2-D Gaussian.

    The squared Mahalanobis radius of the region is the chi-square(2)
    quantile -2 ln(1 - mass); the boundary is mean + c R u over unit
    vectors u, with R any covariance root. The first and last points
    coincide so the polyline closes.
    """
    c = float(np.sqrt(-2.0 * np.log1p(-mass)))
    phi = np.linspace(0.0, 2.0 * np.pi, n_points + 1)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    return posterior.mean[None, :] + c * circle @ posterior.root.T


def run_demo2d(seed: int = 0, n_samples: int = 1000,
               optim: OptimConfig | None = None,
               contour_resolution: int = 201, ellipse_mass: float = 0.70) -> dict:
    """Fit LA and the three structured families to the fixed 2-D mixture.

    Returns a report dict plus plot-ready arrays under "arrays": the target
    log-density grid and, per method, the posterior mean and its
    ``ellipse_mass`` ellipse polyline.
    """
    target = data_mod.MixtureTarget2D()
    timing = {}
    t0 = time.perf_counter()
    mode = laplace_mod.find_mode(target, np.zeros(2))
    if not mode.converged:
        raise NumericalError("mode search did not converge on the mixture target")
    lap = laplace_mod.laplace_approximation(target, mode.x)
    timing["laplace"] = time.perf_counter() - t0

    samples = variational.draw_fixed_samples(n_samples, 2, seed + SALT_SAMPLES)
    posteriors = {"laplace": variational.laplace_posterior(lap)}
    elbos = {"laplace": float(lap.bound_at_mode)}
    iters = {}
    for family in DEMO_FAMILIES:
        t0 = time.perf_counter()
        fit = variational.fit_family(target, lap, samples, family, seed=seed + SALT_INIT,
                                     config=optim)
        posteriors[family] = variational.covariance_root(fit.params, lap)
        elbos[family] = float(fit.elbo)
        iters[family] = int(fit.opt.n_iters)
        timing[family] = time.perf_counter() - t0

    t0 = time.perf_counter()
    kl = {name: float(evaluate.kl_to_target_2d(post, target))
          for name, post in posteriors.items()}
    timing["kl"] = time.perf_counter() - t0

    lo, hi = target.bounds
    xs = np.linspace(lo, hi, contour_resolution)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    arrays = {
        "contours": np.column_stack([pts, target.log_density(pts)]),
        "means": {name: post.mean.copy() for name, post in posteriors.items()},
        "ellipses": {name: ellipse_points(post, ellipse_mass)
                     for name, post in posteriors.items()},
    }
    return {
        "kl": kl,
        "elbo": elbos,
        "n_iters": iters,
        "mode": [float(v) for v in mode.x],
        "timing": timing,
        "arrays": arrays,
    }


# ---------------------------------------------------------------------------
# single fits
# ---------------------------------------------------------------------------

def run_fit(train, method: str, seed: int = 0, n_samples: int = 1000,
            grid: GridConfig | None = None, optim: OptimConfig | None = None):
    """Fit one method on a dataset, as ``run_split`` fits it, and package it
    for serialisation.

    Returns (meta, arrays, posterior, model): the fit's JSON-safe outputs
    (the dataset's ``task``, the derived seeds and the bounds; not its
    settings), the numpy arrays for a binary sidecar, the fitted Gaussian,
    and the model ``run_split`` scores it with. ``meta["elbo_estimate"]``
    is the fit's training bound (for laplace, the bound at the mode).
    A variational ``meta`` carries the fit's diagnostics: ``n_iters``,
    ``n_evals``, ``stop_reason`` and ``grad_norm``.
    """
    (method,) = _check_methods((method,))
    search, fit = _search_and_fit(train, seed, n_samples, grid, optim)
    model, lap = search.model, search.laplace
    posterior, scorer, fitted = fit(method)

    meta = {
        "task": train.kind,
        "sample_seed": seed + SALT_SAMPLES,
        "init_seed": seed + SALT_INIT,
        "n_centers": int(model.centers.shape[0]),
        "jitter": float(lap.jitter),
        "bound_at_mode": float(lap.bound_at_mode),
        "elbo_estimate": float(lap.bound_at_mode),
    }
    arrays = {
        "la_mean": lap.mean, "la_cov": lap.cov, "la_chol": lap.chol,
        "la_eigvecs": lap.eigvecs, "la_eig_root": lap.eig_root,
        "theta_la": lap.theta, "centers": model.centers,
    }
    if fitted is not None:
        meta.update(_fit_diagnostics(fitted.opt), elbo_estimate=float(fitted.elbo))
        params = fitted.params
        arrays.update(mu=params.mu, theta=params.theta)
        for name in variational.FAMILY_SPECS[method].fields:
            arrays[name] = getattr(params, name)
    return meta, arrays, posterior, scorer
