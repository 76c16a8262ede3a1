"""Experiment orchestration: per-split fits, aggregation, and reports.

Each runner returns a plain dict that serialises to JSON as-is. Wall-clock
times live under a single "timing" key so callers can compare everything
else bit-for-bit between reruns.
"""

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

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


def derive_seed(base: int, salt: int = 0) -> int:
    return int(base) + int(salt)


def _check_methods(methods):
    methods = tuple(methods)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown method(s) {unknown}; choose from {METHODS}")
    if not methods:
        raise ConfigError("no methods requested")
    return methods


def _grid_dict(grid: GridConfig) -> dict:
    return {
        "basis_sizes": [int(m) for m in grid.basis_sizes],
        "n_pairs": int(grid.n_pairs),
        "search_iters": int(grid.search_iters),
        "final_iters": int(grid.final_iters),
    }


def _optim_dict(optim: OptimConfig) -> dict:
    return {
        "max_iters": int(optim.max_iters),
        "grad_tol": float(optim.grad_tol),
        "f_tol": float(optim.f_tol),
    }


# ---------------------------------------------------------------------------
# one split
# ---------------------------------------------------------------------------

def _fit_diagnostics(res) -> dict:
    """Iterations, evaluations, stop reason and final max|g| of a
    MinimizeResult or ModeResult."""
    return {"n_iters": int(res.n_iters), "n_evals": int(res.n_evals),
            "stop_reason": str(res.reason), "grad_norm": float(res.grad_norm)}


def run_split(train, test, methods=METHODS, seed: int = 0, n_samples: int = 1000,
              n_eval: int = 10_000, grid: GridConfig | None = None,
              optim: OptimConfig | None = None):
    """Fit the requested methods on one train/test pair and score them.

    Returns (records, timing, search_info). The evaluation seed is shared
    across methods, so paired comparisons run on common random numbers.
    Each variational record carries ``theta``, the log-space hyperparameters
    its fit ended at; the Laplace ones are ``search_info["theta_la"]``.
    Every record carries its fit's diagnostics: ``n_iters``, ``n_evals``,
    ``stop_reason`` and the final max-norm gradient ``grad_norm`` (for
    laplace, those of the final mode search). A family with two published
    starts (vi_diag) fits both and keeps the better held-out lpd, recording
    which variant won (whose diagnostics the record holds) and the loser's lpd.
    The search info counts the failed grid candidates (``grid_failed``) and
    the failures of each kind (``grid_failures``).
    """
    methods = _check_methods(methods)
    if train.kind == "regression":
        score, metric = evaluate.regression_metrics, "mse"
    else:
        score, metric = evaluate.classification_metrics, "error_rate"

    records, timing = {}, {}
    t0 = time.perf_counter()
    search = laplace_mod.hyperparameter_search(
        train.X, train.y, train.kind, seed=derive_seed(seed),
        n_samples=n_samples, grid=grid, optim=optim)
    timing["search"] = time.perf_counter() - t0
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

    eval_seed = derive_seed(seed, SALT_EVAL)
    samples = None
    if any(m != "laplace" for m in methods):
        samples = variational.draw_fixed_samples(
            n_samples, model.P, derive_seed(seed, SALT_SAMPLES))

    def scored_fit(family, variant):
        fit = variational.fit_family(
            model, lap, samples, family, seed=derive_seed(seed, SALT_INIT),
            config=optim, diag_variant=variant)
        posterior = variational.covariance_root(fit.params, lap)
        sc = score(posterior, model.with_theta(fit.params.theta),
                   test.X, test.y, n_samples=n_eval, seed=eval_seed)
        return fit, sc

    for method in methods:
        t0 = time.perf_counter()
        if method == "laplace":
            sc = score(variational.laplace_posterior(lap), model,
                       test.X, test.y, n_samples=n_eval, seed=eval_seed)
            rec = {"lpd": float(sc.lpd), metric: float(getattr(sc, metric)),
                   "elbo": float(lap.bound_at_mode),
                   **_fit_diagnostics(search.mode)}
        else:
            candidates = {v: scored_fit(method, v)
                          for v in variational.FAMILY_SPECS[method].variants}
            variant = max(candidates, key=lambda v: candidates[v][1].lpd)
            fit, sc = candidates.pop(variant)
            rec = {"lpd": float(sc.lpd), metric: float(getattr(sc, metric)),
                   "elbo": float(fit.elbo),
                   **_fit_diagnostics(fit.opt),
                   "theta": [float(t) for t in fit.params.theta]}
            if candidates:   # the other published start
                (_, other), = candidates.values()
                rec.update(variant=variant, lpd_other=float(other.lpd))
        records[method] = rec
        timing[method] = time.perf_counter() - t0
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
    report = significance_decision(best, others, alpha=alpha, n_boot=n_boot,
                                   seed=seed)
    block["comparisons"] = report.comparisons
    block["overall_significant"] = bool(report.overall)
    return block


def _parallel_map(fn, n_jobs: int, n_workers: int):
    """Index-ordered map; results never depend on scheduling."""
    if n_workers <= 1:
        return [fn(i) for i in range(n_jobs)]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, range(n_jobs)))


def _run_suite(config, split, n_splits: int, methods, metrics, base_seed,
               **fit_options) -> dict:
    """Run ``run_split`` on every split and assemble the suite's report.

    ``split(i)`` gives split i's (train, test, seed). A split whose fit
    fails numerically is recorded as skipped. ``timing["wall"]`` is the
    suite's elapsed time, while ``timing["total"]`` sums the per-split
    times, which overlap under several workers. ``alpha``, ``n_boot`` and
    ``n_workers`` are read from ``config``.
    """
    def one(i):
        train, test, seed = split(i)
        try:
            recs, timing, info = run_split(train, test, methods, seed=seed,
                                           **fit_options)
        except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
            return {"index": i, "seed": seed, "error": str(err)}
        return {"index": i, "seed": seed, "search": info,
                "methods": recs, "_timing": timing}

    started = time.perf_counter()
    outcomes = _parallel_map(one, n_splits, config["n_workers"])
    alpha, n_boot = config["alpha"], config["n_boot"]
    records = [o for o in outcomes if "error" not in o]
    skipped = [o for o in outcomes if "error" in o]
    run_times = [{"index": r["index"], **r.pop("_timing")} for r in records]
    ok = [r["methods"] for r in records]

    medians = median_table(ok, methods, metrics) if ok else {}
    significance, markers = {}, {}
    for metric in metrics:
        block = significance_block(ok, methods, metric, alpha=alpha,
                                   n_boot=n_boot,
                                   seed=derive_seed(base_seed, SALT_BOOT))
        if block is not None:
            significance[metric] = block
            markers[metric] = {"best": block["best"],
                               "significant": block["overall_significant"]}
    report = {
        "config": config,
        "n_completed": len(records),
        "n_skipped": len(skipped),
        "skipped": skipped,
        "records": records,
        "medians": medians,
        "significance": significance,
        "markers": markers,
        "timing": {"splits": run_times,
                   "total": float(sum(sum(t for k, t in rt.items() if k != "index")
                                      for rt in run_times)),
                   "wall": time.perf_counter() - started},
    }
    return report


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_cauchy(n_runs: int = 20, methods=METHODS, seed: int = 0,
               n_samples: int = 1000, n_eval: int = 10_000,
               n_train: int = 50, n_test: int = 1000,
               grid: GridConfig | None = None, optim: OptimConfig | None = None,
               alpha: float = 0.05, n_boot: int = 10_000,
               n_workers: int = 1) -> dict:
    """The synthetic heavy-tail regression suite: n_runs fresh datasets."""
    methods = _check_methods(methods)
    grid = grid or GridConfig()
    optim = optim or OptimConfig()
    config = {
        "command": "cauchy", "n_runs": int(n_runs), "methods": list(methods),
        "seed": int(seed), "n_samples": int(n_samples), "n_eval": int(n_eval),
        "n_train": int(n_train), "n_test": int(n_test),
        "grid": _grid_dict(grid), "optim": _optim_dict(optim),
        "alpha": float(alpha), "n_boot": int(n_boot),
        "n_workers": int(n_workers),
    }

    def split(i):
        run_seed = derive_seed(seed, i)
        return (*data_mod.generate_cauchy_task(seed=run_seed, n_train=n_train,
                                               n_test=n_test), run_seed)

    return _run_suite(config, split, n_runs, methods, ("lpd", "mse"), seed,
                      n_samples=n_samples, n_eval=n_eval, grid=grid, optim=optim)


def run_benchmark(dataset, methods=METHODS, plan=None,
                  n_samples: int = 1000, n_eval: int = 10_000,
                  grid: GridConfig | None = None, optim: OptimConfig | None = None,
                  alpha: float = 0.05, n_boot: int = 10_000,
                  n_workers: int = 1) -> dict:
    """Split-resampling benchmark on a loaded dataset."""
    methods = _check_methods(methods)
    plan = plan or data_mod.SplitPlan()
    grid = grid or GridConfig()
    optim = optim or OptimConfig()
    splits = data_mod.make_splits(dataset, plan)
    metric = "mse" if dataset.kind == "regression" else "error_rate"
    config = {
        "command": "benchmark", "dataset": dataset.name, "task": dataset.kind,
        "n_splits": len(splits), "train_fraction": float(plan.train_fraction),
        "seed": int(plan.seed), "indices_path": plan.indices_path,
        "methods": list(methods), "n_samples": int(n_samples),
        "n_eval": int(n_eval), "grid": _grid_dict(grid),
        "optim": _optim_dict(optim), "alpha": float(alpha),
        "n_boot": int(n_boot), "n_workers": int(n_workers),
    }

    return _run_suite(config, splits.__getitem__, len(splits), methods,
                      ("lpd", metric), plan.seed,
                      n_samples=n_samples, n_eval=n_eval, grid=grid, optim=optim)


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
    optim = optim or OptimConfig()
    target = data_mod.mixture_2d_target()
    config = {
        "command": "demo2d", "seed": int(seed), "n_samples": int(n_samples),
        "optim": _optim_dict(optim),
        "contour_resolution": int(contour_resolution),
        "ellipse_mass": float(ellipse_mass),
    }

    timing = {}
    t0 = time.perf_counter()
    mode = laplace_mod.find_mode(target, np.zeros(2))
    if not mode.converged:
        raise NumericalError("mode search did not converge on the mixture target")
    lap = laplace_mod.laplace_approximation(target, mode.w)
    timing["laplace"] = time.perf_counter() - t0

    samples = variational.draw_fixed_samples(
        n_samples, 2, derive_seed(seed, SALT_SAMPLES))
    posteriors = {"laplace": variational.laplace_posterior(lap)}
    elbos = {"laplace": float(lap.bound_at_mode)}
    iters = {}
    for family in DEMO_FAMILIES:
        t0 = time.perf_counter()
        fit = variational.fit_family(target, lap, samples, family,
                                     seed=derive_seed(seed, SALT_INIT),
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
    report = {
        "config": config,
        "kl": kl,
        "elbo": elbos,
        "n_iters": iters,
        "mode": [float(v) for v in mode.w],
        "timing": timing,
        "arrays": arrays,
    }
    return report


# ---------------------------------------------------------------------------
# single fits with round-trip serialisation
# ---------------------------------------------------------------------------

def run_fit(train, method: str, seed: int = 0, n_samples: int = 1000,
            grid: GridConfig | None = None,
            optim: OptimConfig | None = None) -> tuple[dict, dict]:
    """Fit one method on a dataset and package it for serialisation.

    Returns (meta, arrays): JSON-safe metadata plus the numpy arrays for a
    binary sidecar. ``meta["elbo_estimate"]`` is recomputed through
    elbo_estimate at the fitted parameters, so a reload that rebuilds the
    same inputs reproduces it bit-for-bit. For vi_diag both initialisations
    are fitted and the better final bound is kept. ``meta`` carries the
    fit's diagnostics: ``n_iters``, ``n_evals``, ``stop_reason`` and
    ``grad_norm``.
    """
    methods = _check_methods((method,))
    method = methods[0]
    grid = grid or GridConfig()
    optim = optim or OptimConfig()
    search = laplace_mod.hyperparameter_search(
        train.X, train.y, train.kind, seed=derive_seed(seed),
        n_samples=n_samples, grid=grid, optim=optim)
    model, lap = search.model, search.laplace

    meta = {
        "method": method, "task": train.kind, "seed": int(seed),
        "n_samples": int(n_samples),
        "sample_seed": derive_seed(seed, SALT_SAMPLES),
        "init_seed": derive_seed(seed, SALT_INIT),
        "grid": _grid_dict(grid), "optim": _optim_dict(optim),
        "n_centers": int(model.centers.shape[0]),
        "jitter": float(lap.jitter),
        "bound_at_mode": float(lap.bound_at_mode),
    }
    arrays = {
        "la_mean": lap.mean, "la_cov": lap.cov, "la_chol": lap.chol,
        "la_eigvecs": lap.eigvecs, "la_eig_root": lap.eig_root,
        "theta_la": lap.theta, "centers": model.centers,
    }

    if method == "laplace":
        meta["elbo_estimate"] = float(lap.bound_at_mode)
        return meta, arrays

    samples = variational.draw_fixed_samples(
        n_samples, model.P, meta["sample_seed"])
    spec = variational.FAMILY_SPECS[method]
    fits = {v: variational.fit_family(model, lap, samples, method,
                                      seed=meta["init_seed"], config=optim,
                                      diag_variant=v)
            for v in spec.variants}
    variant = max(fits, key=lambda v: fits[v].elbo)
    if len(fits) > 1:
        meta["variant"] = variant
    fit = fits[variant]
    params = fit.params
    meta.update(_fit_diagnostics(fit.opt))
    meta["elbo_estimate"] = float(variational.elbo_estimate(
        params, samples, model, lap))
    arrays["mu"] = params.mu
    arrays["theta"] = params.theta
    for name in spec.fields:
        arrays[name] = getattr(params, name)
    return meta, arrays


def load_fit(meta: dict, arrays: dict, train):
    """Rebuild (model, laplace, posterior, params, samples) from a saved fit.

    ``train`` must be the dataset the fit was made on; the artifact stores
    hyperparameters, decompositions, and seeds but not the data itself.
    For the laplace method ``params`` and ``samples`` are None.
    """
    if train.kind != meta["task"]:
        raise ConfigError(
            f"saved fit is for task {meta['task']!r}, dataset is {train.kind!r}")
    model = laplace_mod.TASK_MODELS[meta["task"]].at_theta(
        train.X, train.y, np.asarray(arrays["centers"], dtype=float), arrays["theta_la"])
    lap = laplace_mod.LaplaceResult(
        mean=np.asarray(arrays["la_mean"], dtype=float),
        cov=np.asarray(arrays["la_cov"], dtype=float),
        chol=np.asarray(arrays["la_chol"], dtype=float),
        eigvecs=np.asarray(arrays["la_eigvecs"], dtype=float),
        eig_root=np.asarray(arrays["la_eig_root"], dtype=float),
        theta=np.asarray(arrays["theta_la"], dtype=float),
        bound_at_mode=float(meta["bound_at_mode"]),
        jitter=float(meta["jitter"]),
    )
    if meta["method"] == "laplace":
        return model, lap, variational.laplace_posterior(lap), None, None

    fields = {name: np.asarray(arrays[name], dtype=float)
              for name in variational.FAMILY_SPECS[meta["method"]].fields}
    params = variational.VariationalParams(
        meta["method"], np.asarray(arrays["mu"], dtype=float),
        np.asarray(arrays["theta"], dtype=float), **fields)
    samples = variational.draw_fixed_samples(
        meta["n_samples"], model.P, meta["sample_seed"])
    posterior = variational.covariance_root(params, lap)
    return model.with_theta(params.theta), lap, posterior, params, samples
