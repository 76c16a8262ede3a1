import numpy as np
import pytest

from mvipkg import bench
from mvipkg.data import Dataset, SplitPlan, generate_cauchy_task
from mvipkg.errors import ConfigError
from mvipkg.laplace import GridConfig
from mvipkg.optimize import OptimConfig
from mvipkg.variational import PosteriorGaussian, elbo_estimate

SMALL_GRID = GridConfig(basis_sizes=(5,), n_pairs=4, search_iters=5,
                        final_iters=100)
SMALL_OPTIM = OptimConfig(max_iters=150)


def _small_task(seed=0):
    return generate_cauchy_task(seed=seed, n_train=20, n_test=40)


# ---------------------------------------------------------------------------
# seeds and method validation
# ---------------------------------------------------------------------------

def test_derive_seed_arithmetic():
    assert bench.derive_seed(7) == 7
    assert bench.derive_seed(7, bench.SALT_EVAL) == 7 + 3_000_000
    salts = [bench.SALT_SAMPLES, bench.SALT_INIT, bench.SALT_EVAL,
             bench.SALT_BOOT]
    assert len(set(salts)) == 4  # distinct random streams


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
    recs, timing, info = bench.run_split(
        train, test, methods=("laplace", "mvi_mu", "vi_diag"), seed=0,
        n_samples=100, n_eval=200, grid=SMALL_GRID, optim=SMALL_OPTIM)
    assert set(recs) == {"laplace", "mvi_mu", "vi_diag"}
    for rec in recs.values():
        assert {"lpd", "mse", "elbo", "n_iters"} <= set(rec)
        assert np.isfinite(rec["lpd"]) and np.isfinite(rec["mse"])
    assert recs["vi_diag"]["variant"] in ("laplace", "small")
    assert np.isfinite(recs["vi_diag"]["lpd_other"])
    assert recs["vi_diag"]["lpd"] >= recs["vi_diag"]["lpd_other"]
    assert "variant" not in recs["mvi_mu"]
    assert set(timing) == {"search", "laplace", "mvi_mu", "vi_diag"}
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


def test_parallel_map_orders_results():
    out = bench._parallel_map(lambda i: i * i, 6, n_workers=3)
    assert out == [0, 1, 4, 9, 16, 25]
    assert bench._parallel_map(lambda i: -i, 4, n_workers=1) == [0, -1, -2, -3]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_run_cauchy_small():
    report = bench.run_cauchy(n_runs=2, methods=("laplace", "mvi_mu"), seed=0,
                              n_samples=100, n_eval=200, n_train=20, n_test=40,
                              grid=SMALL_GRID, optim=SMALL_OPTIM, n_boot=200)
    assert report["config"]["command"] == "cauchy"
    assert report["n_completed"] == 2
    assert report["n_skipped"] == 0
    assert len(report["records"]) == 2
    assert report["records"][0]["index"] == 0
    assert set(report["medians"]) == {"laplace", "mvi_mu"}
    assert set(report["significance"]) == {"lpd", "mse"}
    assert report["markers"]["lpd"]["best"] in ("laplace", "mvi_mu")
    assert len(report["timing"]["splits"]) == 2
    assert report["timing"]["total"] > 0
    # one worker runs the splits one after another, so the suite's wall time
    # covers the longest of them
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
    a = bench.run_cauchy(**kwargs)
    b = bench.run_cauchy(**kwargs)
    c = bench.run_cauchy(n_workers=2, **kwargs)
    for other in (b, c):
        assert a["records"] == other["records"]
        assert a["medians"] == other["medians"]
        assert a["significance"] == other["significance"]


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
    assert report["config"]["dataset"] == "toy"
    assert report["config"]["task"] == "regression"
    assert report["config"]["n_splits"] == 2
    assert report["n_completed"] == 2
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
    for key in ("config", "kl", "elbo", "n_iters", "mode", "timing", "arrays"):
        assert key in report
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
# fit round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["laplace", "mvi_mu", "mvi_eig", "mvi_lr", "vi_diag"])
def test_fit_round_trip(method):
    train, _ = _small_task(seed=3)
    meta, arrays = bench.run_fit(train, method, seed=2, n_samples=100,
                                 grid=SMALL_GRID, optim=SMALL_OPTIM)
    assert meta["method"] == method
    model, lap, posterior, params, samples = bench.load_fit(meta, arrays, train)
    np.testing.assert_array_equal(lap.mean, arrays["la_mean"])
    if method == "laplace":
        assert params is None and samples is None
        assert meta["elbo_estimate"] == meta["bound_at_mode"]
    else:
        # the reloaded pieces reproduce the saved bound bit-for-bit
        value = elbo_estimate(params, samples, model, lap)
        assert value == meta["elbo_estimate"]
        if method == "vi_diag":
            assert meta["variant"] in ("laplace", "small")
        else:
            assert "variant" not in meta
        # fit.json carries the same diagnostics as a report record
        assert {"n_iters", "n_evals", "stop_reason", "grad_norm"} <= set(meta)
    cov = posterior.cov()
    np.testing.assert_allclose(cov, cov.T, atol=1.0e-12)


def test_load_fit_task_mismatch():
    train, _ = _small_task(seed=4)
    meta, arrays = bench.run_fit(train, "laplace", seed=0, n_samples=100,
                                 grid=SMALL_GRID, optim=SMALL_OPTIM)
    other = Dataset(train.X, (train.y > 0).astype(float), "binary")
    with pytest.raises(ConfigError, match="task"):
        bench.load_fit(meta, arrays, other)
