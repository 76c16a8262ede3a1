import multiprocessing
import operator
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mvipkg import bench, evaluate, models, variational
from mvipkg import laplace as laplace_mod
from mvipkg.data import Dataset, SplitPlan, generate_cauchy_task
from mvipkg.errors import ConfigError, DataError
from mvipkg.laplace import GridConfig
from mvipkg.optimize import OptimConfig
from mvipkg.variational import PosteriorGaussian

SMALL_GRID = GridConfig(basis_sizes=(5,), n_pairs=4, search_iters=5)
SMALL_OPTIM = OptimConfig(max_iters=150)


def _small_task(seed=0):
    return generate_cauchy_task(seed=seed, n_train=20, n_test=40)


# ---------------------------------------------------------------------------
# seeds and method validation
# ---------------------------------------------------------------------------

def test_check_methods():
    assert bench._check_methods(["laplace", "mvi_mu"]) == ("laplace", "mvi_mu")
    with pytest.raises(ConfigError, match="unknown"):
        bench._check_methods(["laplace", "mvi_full"])
    with pytest.raises(ConfigError, match="no methods"):
        bench._check_methods([])


# ---------------------------------------------------------------------------
# one split
# ---------------------------------------------------------------------------

def test_run_split_record_structure():
    train, test = _small_task()
    started = time.perf_counter()
    recs, timing, info = bench.run_split(
        train, test, methods=("laplace", "mvi_mu", "vi_diag"), seed=0,
        n_samples=100, n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    elapsed = time.perf_counter() - started
    assert set(recs) == {"laplace", "mvi_mu", "vi_diag"}
    for rec in recs.values():
        assert {"lpd", "mse", "elbo", "n_iters"} <= set(rec)
        assert np.isfinite(rec["lpd"]) and np.isfinite(rec["mse"])
    # one fit per family: every variational record has the same keys, the
    # Laplace record those but the fitted theta
    fitted = {"elbo", "n_iters", "n_evals", "stop_reason", "grad_norm", "theta",
              "lpd", "mse"}
    assert set(recs["mvi_mu"]) == set(recs["vi_diag"]) == fitted
    assert set(recs["laplace"]) == fitted - {"theta"}
    # the search's three stages, then each method's; no two overlap
    assert set(timing) == {"grid", "final_mode", "curvature", "laplace.score",
                           "mvi_mu.fit", "mvi_mu.score", "vi_diag.fit", "vi_diag.score"}
    assert all(t >= 0.0 for t in timing.values())
    assert sum(timing.values()) <= elapsed
    assert info["n_centers"] == 6 - 1  # M = 5 centres
    assert len(info["theta_la"]) == 3


def test_run_split_records_fitted_theta():
    train, test = _small_task()
    recs, _, info = bench.run_split(
        train, test, methods=("laplace", "mvi_mu", "vi_diag"), seed=0,
        n_samples=100, n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    # the Laplace hyperparameters live in the search info, not the record
    assert "theta" not in recs["laplace"]
    for method in ("mvi_mu", "vi_diag"):
        theta = recs[method]["theta"]
        assert len(theta) == 3 and np.all(np.isfinite(theta))
    # the variational stage moves theta off the Laplace values
    assert recs["mvi_mu"]["theta"] != info["theta_la"]


def test_run_split_deterministic():
    train, test = _small_task(seed=1)
    kwargs = dict(methods=("laplace", "mvi_eig"), seed=4, n_samples=100,
                  n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    a, _, _ = bench.run_split(train, test, **kwargs)
    b, _, _ = bench.run_split(train, test, **kwargs)
    assert a == b


def test_run_split_shares_evaluation_draws():
    # methods are compared on common random numbers: rerunning a single
    # method reproduces exactly the lpd it got inside the joint run
    train, test = _small_task(seed=2)
    joint, _, _ = bench.run_split(
        train, test, methods=("laplace", "mvi_mu"), seed=5, n_samples=100,
        n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    solo, _, _ = bench.run_split(
        train, test, methods=("mvi_mu",), seed=5, n_samples=100,
        n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    assert joint["mvi_mu"] == solo["mvi_mu"]


def test_run_split_scores_each_method_once(monkeypatch):
    # one metrics call per reported method, every one on the same read-only
    # base draws: raw standard normals under the split's evaluation seed
    draws = []
    real = evaluate.regression_metrics

    def counted(posterior, model, X, y, z):
        draws.append((z, posterior.dim))
        return real(posterior, model, X, y, z)

    monkeypatch.setattr(evaluate, "regression_metrics", counted)
    train, test = _small_task(seed=2)
    methods = ("laplace", "mvi_mu", "vi_diag")
    recs, _, _ = bench.run_split(
        train, test, methods=methods, seed=5, n_samples=100, n_eval=200,
        grid=SMALL_GRID, optim=SMALL_OPTIM)
    assert len(draws) == len(methods) == len(recs)
    z, P = draws[0]
    assert all(d is z and dim == P for d, dim in draws)
    assert not z.flags.writeable
    assert z.shape == (200, P)
    assert np.array_equal(
        z, np.random.default_rng(5 + bench.SALT_EVAL).standard_normal((200, P)))


@pytest.mark.parametrize("method", bench.METHODS)
def test_run_fit_matches_run_split(method):
    # one fitter and one search record: fit.json says what a report says of
    # the same split, the Laplace fit's mode search included
    train, test = _small_task(seed=3)
    recs, _, info = bench.run_split(
        train, test, methods=(method,), seed=2, n_samples=100, n_eval=50,
        grid=SMALL_GRID, optim=SMALL_OPTIM)
    meta, arrays, *_ = bench.run_fit(train, method, seed=2, n_samples=100,
                                     grid=SMALL_GRID, optim=SMALL_OPTIM)
    rec = recs[method]
    assert meta["elbo_estimate"] == rec["elbo"]
    for key in ("n_iters", "n_evals", "stop_reason", "grad_norm"):
        assert meta[key] == rec[key]
    assert {key: meta[key] for key in info} == info
    if method == "laplace":
        assert "theta" not in rec and "theta" not in arrays
    else:
        assert [float(t) for t in arrays["theta"]] == rec["theta"]


def test_fit_method_gives_the_laplace_fit_itself():
    # the Laplace method's Gaussian is the search's LaplaceResult, read as
    # every Gaussian is, and laplace draws no fit samples
    train, _ = _small_task(seed=3)
    search = laplace_mod.hyperparameter_search(train.X, train.y, train.kind, seed=2,
                                               n_samples=100, grid=SMALL_GRID, optim=SMALL_OPTIM)
    posterior, scorer, fitted, record = bench.fit_method(
        "laplace", search.model, search.laplace, search.mode,
        lambda: pytest.fail("laplace drew fit samples"), seed=2, optim=SMALL_OPTIM)
    assert posterior is search.laplace and posterior.root is search.laplace.chol
    assert scorer is search.model and fitted is None
    assert record["elbo"] == search.laplace.bound_at_mode


def test_readme_library_example_is_run_split():
    # the first python block under "Library use" prints the bound, lpd and
    # MSE that run_split records for mvi_lr on the same split, bit for bit
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = [float(v) for v in run.stdout.split()]
    train, test = generate_cauchy_task(seed=0)
    rec = bench.run_split(train, test, ("mvi_lr",), seed=0)[0]["mvi_lr"]
    assert printed == [rec["elbo"], rec["lpd"], rec["mse"]]


def test_non_finite_held_out_draw_skips_the_split(monkeypatch):
    # a NaN log likelihood is a NumericalError, which the suite records as a
    # skipped split, not as an lpd of -inf
    def nan_score(self, mu, R, z):
        ll = np.zeros(z.shape[0])
        ll[0] = np.nan
        return np.zeros(self.N), ll

    monkeypatch.setattr(models.CauchyRegression, "score", nan_score)
    report = bench.run_cauchy(n_runs=1, methods=("laplace",), seed=0,
                              n_samples=50, n_eval=20, n_train=20, n_test=40,
                              grid=SMALL_GRID, optim=SMALL_OPTIM, n_boot=100)
    assert report["n_completed"] == 0 and report["n_skipped"] == 1
    assert "held-out log likelihood is nan" in report["skipped"][0]["error"]


def test_run_split_rejects_unknown_method():
    train, test = _small_task()
    with pytest.raises(ConfigError):
        bench.run_split(train, test, methods=("laplace", "typo"))


# ---------------------------------------------------------------------------
# aggregation helpers
# ---------------------------------------------------------------------------

def test_median_table_self_consistent():
    records = [
        {"a": {"lpd": 1.0, "mse": 4.0}, "b": {"lpd": 0.0, "mse": 5.0}},
        {"a": {"lpd": 3.0, "mse": 2.0}, "b": {"lpd": 2.0, "mse": 7.0}},
        {"a": {"lpd": 2.0, "mse": 9.0}, "b": {"lpd": 4.0, "mse": 6.0}},
    ]
    table = bench.median_table(records, ("a", "b"), ("lpd", "mse"))
    assert table["a"] == {"lpd": 2.0, "mse": 4.0}
    assert table["b"] == {"lpd": 2.0, "mse": 6.0}


def test_significance_block_picks_best_by_sense():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(30)
    records = [{"a": {"mse": float(b + 1.0)}, "b": {"mse": float(b)}}
               for b in base]
    block = bench.significance_block(records, ("a", "b"), "mse", n_boot=300)
    assert block["best"] == "b"  # lower mse wins
    assert block["comparisons"]["a"]["significant"] is True
    assert block["overall_significant"] is True
    lpd_records = [{"a": {"lpd": float(b + 1.0)}, "b": {"lpd": float(b)}}
                   for b in base]
    lpd_block = bench.significance_block(lpd_records, ("a", "b"), "lpd",
                                         n_boot=300)
    assert lpd_block["best"] == "a"  # higher lpd wins


def test_significance_block_single_method_is_none():
    records = [{"a": {"lpd": 1.0}}]
    assert bench.significance_block(records, ("a",), "lpd") is None
    assert bench.significance_block([], ("a", "b"), "lpd") is None


def test_significance_block_nonfinite_scores_noted():
    records = [{"a": {"lpd": 1.0}, "b": {"lpd": -np.inf}},
               {"a": {"lpd": 2.0}, "b": {"lpd": 0.0}}]
    block = bench.significance_block(records, ("a", "b"), "lpd", n_boot=100)
    assert "note" in block
    assert block["overall_significant"] is False
    assert "comparisons" not in block


# a pool pickles its function by name, so the ones sent to it live at module level

def _square_later_first(i):
    time.sleep(0.05 * (5 - i))   # the last items finish first
    return i * i


def _blas_variables(_):
    return [os.environ.get(v) for v in bench._BLAS_THREAD_VARS]


def _parent_pid(_):
    time.sleep(0.05)   # holds its worker, so both workers of a pool report
    return os.getppid()


def _raise_at_one(job):
    i, error = job
    if i == 1:
        raise error("raised in a pool process")
    return i


def test_parallel_map_orders_results():
    out = bench._parallel_map(_square_later_first, range(6), n_workers=3)
    assert out == [0, 1, 4, 9, 16, 25]
    assert bench._parallel_map(operator.neg, range(4), n_workers=1) == [0, -1, -2, -3]


@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_parallel_map_raises_a_pool_error_with_its_class(error):
    # the CLI maps the class onto its exit code, so it must survive the pool
    with pytest.raises(error, match="raised in a pool process"):
        bench._parallel_map(_raise_at_one, [(i, error) for i in range(4)], n_workers=2)
    assert multiprocessing.active_children() == []


def test_pool_records_a_numerical_failure_as_skipped():
    train, test = _small_task()
    nan_train = Dataset(train.X, np.full_like(train.y, np.nan), "regression")
    report = bench._run_suite([(nan_train, test, 7), (train, test, 8)],
                              ("laplace",), ("lpd", "mse"), 0, 2, 0.05, 100,
                              n_samples=50, n_eval=50, grid=SMALL_GRID,
                              optim=SMALL_OPTIM)
    assert report["timing"]["n_workers"] == 2
    assert report["n_skipped"] == 1 and report["n_completed"] == 1
    assert report["skipped"][0]["index"] == 0 and report["skipped"][0]["seed"] == 7
    assert "every grid candidate failed" in report["skipped"][0]["error"]
    assert report["records"][0]["index"] == 1


def test_pool_leaves_no_process_and_the_blas_variables_as_they_were(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    python_path = os.environ.get("PYTHONPATH")
    report = bench.run_cauchy(n_runs=2, methods=("laplace",), seed=0,
                              n_samples=50, n_eval=50, n_train=20, n_test=40,
                              grid=SMALL_GRID, optim=SMALL_OPTIM, n_boot=100,
                              n_workers=2)
    assert report["timing"]["n_workers"] == 2
    assert multiprocessing.active_children() == []
    assert _blas_variables(None) == ["3", "2", None]
    # while the parent keeps its own, the pool's processes start pinned
    assert bench._parallel_map(_blas_variables, range(2), n_workers=2) == [["1"] * 3] * 2
    assert _blas_variables(None) == ["3", "2", None]
    assert os.environ.get("PYTHONPATH") == python_path


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="pools start by spawn where there is no forkserver")
def test_pools_fork_from_one_server():
    # every pool forks its workers from the same preloaded server, a process
    # of its own, rather than starting fresh interpreters
    first = bench._parallel_map(_parent_pid, range(4), n_workers=2)
    second = bench._parallel_map(_parent_pid, range(4), n_workers=2)
    parents = set(first + second)
    assert len(parents) == 1 and os.getpid() not in parents
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods()
                    or not os.path.exists(f"/proc/{os.getpid()}/maps"),
                    reason="needs a forkserver, and /proc to read the server's mappings")
def test_server_preloads_mvipkg_found_through_sys_path_alone(tmp_path):
    # CPython 3.11's forkserver ignores the caller's sys.path; a script that
    # finds mvipkg only through it must still get a server with numpy loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(bench.__file__)))
    script = tmp_path / "path_only.py"
    script.write_text("\n".join([
        "import os, sys",
        f"sys.path.insert(0, {src!r})",
        "from mvipkg import bench",
        "def numpy_in_parent(_):",
        "    with open(f'/proc/{os.getppid()}/maps') as maps:",
        "        return 'numpy' in maps.read()",
        "if __name__ == '__main__':",
        "    print(bench._parallel_map(numpy_in_parent, range(2), n_workers=2))",
    ]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[True, True]"


def test_unguarded_pool_script_names_the_main_guard(tmp_path):
    # a script that runs a suite at its top level starts it again in every
    # worker, which imports __main__ as it starts; the caller's error must
    # name the guard it lacks
    script = tmp_path / "unguarded.py"
    script.write_text("\n".join([
        "from mvipkg import bench",
        "from mvipkg.laplace import GridConfig",
        "from mvipkg.optimize import OptimConfig",
        "bench.run_cauchy(n_runs=2, methods=('laplace',), n_samples=20, n_eval=20,",
        "                 n_train=10, n_test=10, n_boot=10, n_workers=2,",
        "                 grid=GridConfig(basis_sizes=(3,), n_pairs=1, search_iters=2),",
        "                 optim=OptimConfig(max_iters=5))",
    ]))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 1
    # the caller's traceback ends on the pool's error, chained to the pool's
    # own; the workers' tracebacks and exit warnings may come around it
    raised = [line for line in run.stderr.splitlines()
              if line.startswith("concurrent.futures.process.BrokenProcessPool: ")]
    assert raised and 'if __name__ == "__main__":' in raised[-1]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_run_cauchy_small():
    report = bench.run_cauchy(n_runs=2, methods=("laplace", "mvi_mu"), seed=0,
                              n_samples=100, n_eval=200, n_train=20, n_test=40,
                              grid=SMALL_GRID, optim=SMALL_OPTIM, n_boot=200)
    # the caller records the settings; the report holds only what the run made
    assert "config" not in report
    assert report["n_completed"] == 2
    assert report["n_skipped"] == 0
    assert len(report["records"]) == 2
    assert report["records"][0]["index"] == 0
    assert set(report["medians"]) == {"laplace", "mvi_mu"}
    assert set(report["significance"]) == {"lpd", "mse"}
    assert report["markers"]["lpd"]["best"] in ("laplace", "mvi_mu")
    assert len(report["timing"]["splits"]) == 2
    assert set(report["timing"]) == {"splits", "significance", "wall", "n_workers"}
    assert 0.0 <= report["timing"]["significance"] < report["timing"]["wall"]
    # every split runs inside the suite's wall time, so it covers the
    # longest of them
    longest = max(sum(t for k, t in rt.items() if k != "index")
                  for rt in report["timing"]["splits"])
    assert report["timing"]["wall"] > 0
    assert report["timing"]["wall"] >= longest
    # records carry no timing; it all lives under the timing block
    assert all("_timing" not in r for r in report["records"])


def test_run_cauchy_deterministic_and_worker_invariant():
    kwargs = dict(n_runs=2, methods=("laplace", "mvi_mu"), seed=3,
                  n_samples=100, n_eval=200, n_train=20, n_test=40,
                  grid=SMALL_GRID, optim=SMALL_OPTIM, n_boot=200)
    a = bench.run_cauchy(n_workers=1, **kwargs)
    b = bench.run_cauchy(n_workers=1, **kwargs)
    c = bench.run_cauchy(n_workers=2, **kwargs)
    d = bench.run_cauchy(**kwargs)
    for other in (b, c, d):
        assert a["records"] == other["records"]
        assert a["medians"] == other["medians"]
        assert a["significance"] == other["significance"]
    # timing holds the count used
    assert [r["timing"]["n_workers"] for r in (a, c, d)] == [
        1, 2, min(bench.usable_cores(), 2)]


def _spiral_table(seed, n_rows):
    """Three classes on [-2, 2]^2 from a softmax over the logits
    1.5 r cos(angle - 2 pi k / 3 - r / 2): spiral sectors whose labels grow
    noisier towards the origin; the targets one-hot."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n_rows, 2))
    angle = np.arctan2(X[:, 1], X[:, 0])[:, None]
    r = np.hypot(X[:, 0], X[:, 1])[:, None]
    logits = 1.5 * r * np.cos(angle - 2.0 * np.pi * np.arange(3) / 3.0 - 0.5 * r)
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    labels = (rng.uniform(size=n_rows)[:, None] > np.cumsum(prob, axis=1)).sum(axis=1)
    return Dataset(X, np.eye(3)[np.minimum(labels, 2)], "multiclass", name="spiral")


@pytest.mark.parametrize("suite", ["cauchy", "multiclass"])
def test_every_variational_fit_stops_on_its_gradient_test(suite):
    # at the default settings; mvi_lr's bound is flat along (c t, v / c), and
    # from an unbalanced start a softmax mvi_lr fit once ran 2,000 iterations
    families = bench.METHODS[1:]
    if suite == "cauchy":
        report = bench.run_cauchy(n_runs=2, methods=families, seed=0, n_eval=200,
                                  n_boot=200)
    else:
        plan = SplitPlan(n_splits=2, train_fraction=0.525, seed=0)
        report = bench.run_benchmark(_spiral_table(0, 400), methods=families, plan=plan,
                                     n_eval=200, n_boot=200)
    assert report["n_completed"] == 2
    reasons = [(r["index"], m, rec["stop_reason"], rec["n_evals"])
               for r in report["records"] for m, rec in r["methods"].items()]
    assert len(reasons) == 8
    assert all(reason == "grad_tol" for _, _, reason, _ in reasons), reasons


def test_run_benchmark_small():
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 2, size=(30, 1))
    y = np.sin(2 * X[:, 0]) + 0.1 * rng.standard_normal(30)
    data = Dataset(X, y, "regression", name="toy")
    plan = SplitPlan(n_splits=2, train_fraction=0.6, seed=0)
    report = bench.run_benchmark(data, methods=("laplace", "vi_diag"),
                                 plan=plan, n_samples=100, n_eval=200,
                                 grid=SMALL_GRID, optim=SMALL_OPTIM,
                                 n_boot=200)
    assert "config" not in report
    assert report["task"] == "regression"
    assert report["n_completed"] == 2 and report["n_skipped"] == 0
    assert set(report["significance"]) == {"lpd", "mse"}


def test_run_benchmark_classification_metric():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 2))
    y = (X[:, 0] > 0).astype(float)
    data = Dataset(X, y, "binary", name="toyb")
    plan = SplitPlan(n_splits=1, train_fraction=0.6, seed=0)
    report = bench.run_benchmark(data, methods=("laplace",), plan=plan,
                                 n_samples=100, n_eval=200, grid=SMALL_GRID,
                                 optim=SMALL_OPTIM, n_boot=100)
    assert report["task"] == "binary"
    rec = report["records"][0]["methods"]["laplace"]
    assert "error_rate" in rec and "mse" not in rec
    # single method: no significance blocks at all
    assert report["significance"] == {}
    assert report["markers"] == {}


# ---------------------------------------------------------------------------
# 2-D demonstration
# ---------------------------------------------------------------------------

def test_ellipse_points_radius_and_closure():
    post = PosteriorGaussian(mean=np.array([1.0, -1.0]), root=2.0 * np.eye(2))
    pts = bench.ellipse_points(post, mass=0.70, n_points=64)
    assert pts.shape == (65, 2)
    np.testing.assert_allclose(pts[0], pts[-1], atol=1.0e-12)
    radii = np.linalg.norm(pts - np.array([1.0, -1.0]), axis=1)
    expected = 2.0 * np.sqrt(-2.0 * np.log(0.30))
    np.testing.assert_allclose(radii, expected, rtol=1.0e-12)


def test_ellipse_mass_monotone():
    post = PosteriorGaussian(mean=np.zeros(2), root=np.eye(2))
    r50 = np.linalg.norm(bench.ellipse_points(post, mass=0.50)[0])
    r90 = np.linalg.norm(bench.ellipse_points(post, mass=0.90)[0])
    assert r90 > r50


def test_run_demo2d_structure():
    report = bench.run_demo2d(seed=0, n_samples=200,
                              optim=OptimConfig(max_iters=300),
                              contour_resolution=41)
    assert set(report) == {"kl", "elbo", "n_iters", "mode", "timing", "arrays"}
    assert set(report["kl"]) == {"laplace", "mvi_mu", "mvi_eig", "mvi_lr"}
    assert all(np.isfinite(v) and v >= 0.0 for v in report["kl"].values())
    assert report["arrays"]["contours"].shape == (41 * 41, 3)
    for name in report["kl"]:
        assert report["arrays"]["means"][name].shape == (2,)
        assert report["arrays"]["ellipses"][name].shape[1] == 2
    # the mixture's dominant mode is near the origin
    assert np.linalg.norm(report["mode"]) < 1.0


def test_run_demo2d_kl_ordering():
    # richer families fit the mixture at least as well, and every
    # variational fit improves on the raw curvature Gaussian
    report = bench.run_demo2d(seed=0, n_samples=500)
    kl = report["kl"]
    tol = 1.0e-3
    assert kl["mvi_mu"] <= kl["laplace"] + tol
    assert kl["mvi_eig"] <= kl["mvi_mu"] + tol
    assert kl["mvi_lr"] <= kl["mvi_eig"] + tol


# ---------------------------------------------------------------------------
# single fits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", bench.METHODS)
def test_run_fit_outputs(method):
    train, _ = _small_task(seed=3)
    meta, arrays, posterior, model = bench.run_fit(
        train, method, seed=2, n_samples=100, grid=SMALL_GRID, optim=SMALL_OPTIM)
    # outputs only: the settings the fit ran with are the caller's to record
    assert not {"method", "seed", "n_samples", "grid", "optim"} & set(meta)
    assert meta["task"] == "regression"
    np.testing.assert_array_equal(model.centers, arrays["centers"])
    # fit.json carries the same diagnostics as a report record, laplace's too
    assert {"n_iters", "n_evals", "stop_reason", "grad_norm"} <= set(meta)
    if method == "laplace":
        assert meta["elbo_estimate"] == meta["bound_at_mode"]
        np.testing.assert_array_equal(posterior.mean, arrays["la_mean"])
        np.testing.assert_array_equal(posterior.root, arrays["la_chol"])
        np.testing.assert_allclose(model.theta, arrays["theta_la"], rtol=1.0e-12)
    else:
        np.testing.assert_array_equal(posterior.mean, arrays["mu"])
        # the posterior is scored at the fit's own hyperparameters
        np.testing.assert_allclose(model.theta, arrays["theta"], rtol=1.0e-12)
    cov = posterior.root @ posterior.root.T
    np.testing.assert_allclose(cov, cov.T, atol=1.0e-12)
