"""Spans around mvipkg's public functions, installed from outside the package.

A span is (name, start, end, parent). Spans are held in memory while a round
runs and written out when the benchmark ends. A name is ``layer.function``,
the layer being the mvipkg module that defines the function. A span's self
time is its duration minus the part of its interval that its child spans
cover; the self times of all spans under one root add up to the root's
duration.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FAMILIES = ("mvi_mu", "mvi_eig", "mvi_lr", "vi_diag")
LAYERS = ("bench", "cli", "data", "laplace", "variational", "optimize",
          "models", "evaluate", "stats")
KERNELS = ("values", "grads", "theta_grads")
MODEL_CLASSES = ("CauchyRegression", "BinaryLogistic", "SoftmaxRegression")

# Functions timed per module. Methods of the model classes are listed apart.
MODULE_FUNCTIONS = {
    "bench": ("run_cauchy", "run_benchmark", "run_split", "significance_block"),
    "cli": ("main", "cmd_benchmark", "write_report", "write_median_table"),
    "data": ("generate_cauchy_task", "load_csv_dataset", "make_splits"),
    "laplace": ("hyperparameter_search", "find_mode", "laplace_approximation"),
    "variational": ("fit_family", "elbo_and_gradient"),
    "optimize": ("minimize",),
    "evaluate": ("regression_metrics", "classification_metrics"),
    "stats": ("significance_decision",),
}


class Tracer:
    """Records spans and per-call facts of the wrapped functions."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.facts = []   # (span index, dict) for calls whose results we read
        self._stack = []

    def span(self, name, fn, fact=None):
        """Wrap fn so that every call records a span named ``name``.

        ``fact(args, kwargs, result)`` may return a dict kept beside the span.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if fact is not None:
                self.facts.append((idx, fact(args, kwargs, result)))
            return result
        return wrapper

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {"names": names,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[code[n], round(a - t0, 7), round(b - t0, 7), p]
                             for n, a, b, p in self.spans]}
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# installing the spans
# ---------------------------------------------------------------------------

def _batch_shape(args, kwargs, result):
    model, W = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["W"])
    rows = W.shape[0] if W.ndim == 2 else 1
    return {"flops": 2.0 * rows * model.N * model.P}


def _minimize_fact(args, kwargs, result):
    return {"iters": result.n_iters, "reason": result.reason}


def _search_fact(args, kwargs, result):
    ok = sum(1 for c in result.candidates if np.isfinite(c["score"]))
    return {"candidates": len(result.candidates), "ok": ok,
            "final_iters": result.mode.n_iters,
            "converged": bool(result.mode.converged)}


def _family_of_fit(args, kwargs, result):
    return {"family": result.family}


def _family_of_eval(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    return {"family": params.family}


FACTS = {
    "optimize.minimize": _minimize_fact,
    "laplace.hyperparameter_search": _search_fact,
    "variational.fit_family": _family_of_fit,
    "variational.elbo_and_gradient": _family_of_eval,
}


def install(tracer: Tracer):
    """Wrap the listed functions everywhere mvipkg refers to them.

    A module that imported a function by name holds its own reference, so
    every mvipkg module attribute that is the original function is replaced.
    Returns an undo list for :func:`uninstall`.
    """
    import mvipkg.cli  # noqa: F401  (loads every mvipkg module)
    from mvipkg import models

    modules = [m for name, m in sys.modules.items()
               if name == "mvipkg" or name.startswith("mvipkg.")]
    undo = []
    for layer, names in MODULE_FUNCTIONS.items():
        home = sys.modules[f"mvipkg.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapped = tracer.span(f"{layer}.{fname}", original,
                                  FACTS.get(f"{layer}.{fname}"))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
    for cls_name in MODEL_CLASSES:
        cls = getattr(models, cls_name)
        for meth in KERNELS + ("hessian",):
            original = cls.__dict__[meth]
            fact = _batch_shape if meth in KERNELS else None
            undo.append((cls, meth, original))
            setattr(cls, meth, tracer.span(f"models.{meth}", original, fact))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced round; absent layers read zero."""
    spans = tracer.spans
    own = self_times(spans)
    total = defaultdict(float)   # inclusive time per span name
    calls = Counter()
    self_by_name = defaultdict(float)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), s in zip(spans, own):
        total[name] += end - start
        calls[name] += 1
        self_by_name[name] += s
        self_by_layer[name.split(".", 1)[0]] += s

    flops = 0.0
    iters = 0
    stops = Counter()
    search = Counter()
    converged = 0
    evals = Counter()
    fit_s = defaultdict(float)
    eval_s = defaultdict(float)
    for idx, fact in tracer.facts:
        name, start, end, _ = spans[idx]
        if "flops" in fact:
            flops += fact["flops"]
        elif name == "optimize.minimize":
            iters += fact["iters"]
            stops[fact["reason"]] += 1
        elif name == "laplace.hyperparameter_search":
            search.update({k: fact[k] for k in ("candidates", "ok", "final_iters")})
            converged += fact["converged"]
        elif name == "variational.fit_family":
            fit_s[fact["family"]] += end - start
        elif name == "variational.elbo_and_gradient":
            evals[fact["family"]] += 1
            eval_s[fact["family"]] += end - start

    kernel_s = sum(self_by_name[f"models.{k}"] for k in KERNELS)
    score_calls = calls["evaluate.regression_metrics"] + calls["evaluate.classification_metrics"]
    score_s = total["evaluate.regression_metrics"] + total["evaluate.classification_metrics"]
    m = {
        "models.batch_calls": float(sum(calls[f"models.{k}"] for k in KERNELS)),
        "models.kernel_s": kernel_s,
        "models.kernel_gflops": flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        "models.hessian_s": total["models.hessian"],
    }
    for f in FAMILIES:
        m[f"variational.{f}.fit_s"] = fit_s[f]
        m[f"variational.{f}.evals"] = float(evals[f])
        m[f"variational.{f}.ms_per_eval"] = (1e3 * eval_s[f] / evals[f]
                                             if evals[f] else 0.0)
    m.update({
        "optimize.iters": float(iters),
        "optimize.stops_f_tol": float(stops["f_tol"]),
        "optimize.stops_grad_tol": float(stops["grad_tol"]),
        "optimize.stops_max_iters": float(stops["max_iters"]),
        "laplace.search_s": total["laplace.hyperparameter_search"],
        "laplace.grid_score_s": self_by_name["laplace.hyperparameter_search"],
        "laplace.find_mode_calls": float(calls["laplace.find_mode"]),
        "laplace.find_mode_s": total["laplace.find_mode"],
        "laplace.curvature_s": total["laplace.laplace_approximation"],
        "laplace.grid_candidates": float(search["candidates"]),
        "laplace.grid_ok": float(search["ok"]),
        "laplace.grid_ok_ratio": (search["ok"] / search["candidates"]
                                  if search["candidates"] else 0.0),
        "laplace.final_mode_iters": float(search["final_iters"]),
        "laplace.final_mode_converged": float(converged),
        "evaluate.score_calls": float(score_calls),
        "evaluate.score_s": score_s,
        "evaluate.ms_per_score": 1e3 * score_s / score_calls if score_calls else 0.0,
        "stats.significance_s": total["stats.significance_decision"],
        "data.load_split_s": total["data.load_csv_dataset"] + total["data.make_splits"],
        "cli.write_s": total["cli.write_report"] + total["cli.write_median_table"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
