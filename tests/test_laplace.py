import math
from types import SimpleNamespace

import numpy as np
import pytest

from mvipkg import bench, laplace, optimize
from mvipkg.data import Dataset, generate_cauchy_task
from mvipkg.errors import NumericalError
from mvipkg.laplace import (GridConfig, LaplaceResult, find_mode, hyperparameter_search,
                            laplace_approximation)
from mvipkg.models import BinaryLogistic, CauchyRegression, FixedDraws, SoftmaxRegression
from mvipkg.optimize import MinimizeResult
from mvipkg.variational import elbo_and_gradient, entropy, initialise, standardize_draws

from makers import make_cauchy, make_class_table, make_conjugate, make_logistic


# ---------------------------------------------------------------------------
# exactness on the conjugate model
# ---------------------------------------------------------------------------

def test_mode_search_finds_exact_posterior_mean():
    model = make_conjugate(seed=1, n=12, p=4)
    mean, _ = model.exact_posterior()
    mode = find_mode(model, np.zeros(4))
    assert isinstance(mode, MinimizeResult)
    np.testing.assert_allclose(mode.x, mean, atol=1.0e-7)
    assert mode.f == pytest.approx(-model.value(mode.x), rel=1.0e-12)
    assert mode.converged
    assert mode.grad_norm <= 1.0e-6


def test_curvature_fit_recovers_exact_posterior():
    model = make_conjugate(seed=2, n=10, p=3)
    mean, cov = model.exact_posterior()
    lap = laplace_approximation(model, mean)
    np.testing.assert_allclose(lap.cov, cov, rtol=1.0e-10)
    np.testing.assert_allclose(lap.mean, mean)
    assert lap.jitter == 0.0


def test_bound_at_mode_equals_log_evidence_for_gaussian():
    # the quadratic expansion is exact here, so the curvature bound is the
    # true log normalizer
    model = make_conjugate(seed=3, n=14, p=5)
    mean, _ = model.exact_posterior()
    lap = laplace_approximation(model, mean)
    assert lap.bound_at_mode == pytest.approx(model.log_evidence(), rel=1.0e-10)


def test_bound_at_mode_formula():
    model = make_cauchy(seed=4)
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    _, logdet = np.linalg.slogdet(lap.cov)
    expected = (model.value(mode.x)
                + 0.5 * model.P * math.log(2 * math.pi) + 0.5 * logdet)
    assert lap.bound_at_mode == pytest.approx(expected, rel=1.0e-12)


def test_log_det_is_written_once_and_the_bound_reads_it():
    # (1/2) ln det Sigma is the sum of ln diag C, and the bound at the mode
    # adds it last, bit for bit
    model = make_cauchy(seed=4)
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    assert lap.log_det == np.sum(np.log(np.diag(lap.chol)))
    assert lap.bound_at_mode == (model.value(mode.x) + 0.5 * model.P * math.log(2 * math.pi)
                                 + lap.log_det)
    assert lap.root is lap.chol and lap.dim == model.P


# ---------------------------------------------------------------------------
# factorization consistency
# ---------------------------------------------------------------------------

def test_factor_fields_reassemble_covariance():
    model = make_logistic(seed=5)
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    np.testing.assert_allclose(lap.chol @ lap.chol.T, lap.cov, atol=1.0e-12)
    rebuilt = lap.eigvecs @ np.diag(lap.eig_root ** 2) @ lap.eigvecs.T
    np.testing.assert_allclose(rebuilt, lap.cov, atol=1.0e-10)
    np.testing.assert_allclose(lap.eigvecs.T @ lap.eigvecs,
                               np.eye(model.P), atol=1.0e-12)
    assert np.all(lap.eig_root > 0)
    assert np.all(np.diff(lap.eig_root) >= 0)


def test_eigendecomposition_is_formed_on_first_access():
    model = make_logistic(seed=5)
    lap = laplace_approximation(model, find_mode(model, np.zeros(model.P)).x)
    assert lap._eig is None
    eigvals, eigvecs = np.linalg.eigh(lap.cov)
    np.testing.assert_array_equal(lap.eigvecs, eigvecs)
    np.testing.assert_array_equal(lap.eig_root, np.sqrt(eigvals))
    assert lap.eigvecs is lap.eigvecs and lap.eig_root is lap.eig_root


@pytest.mark.parametrize("field", ["eigvecs", "eig_root"])
def test_non_positive_covariance_eigenvalue_raises_on_first_access(field):
    lap = LaplaceResult(mean=np.zeros(2), cov=np.diag([1.0, -1.0e-3]), chol=np.eye(2),
                        theta=np.zeros(0), bound_at_mode=0.0)
    with pytest.raises(NumericalError, match="non-positive eigenvalue"):
        getattr(lap, field)


def test_theta_snapshot_stored():
    model = make_cauchy(seed=6)
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    np.testing.assert_array_equal(lap.theta, model.theta)


# ---------------------------------------------------------------------------
# indefinite curvature handling
# ---------------------------------------------------------------------------

def _fake_model(neg_hessian):
    p = neg_hessian.shape[0]
    return SimpleNamespace(
        value=lambda w: 0.0,
        hessian=lambda w: -neg_hessian,
        theta=np.zeros(0),
        P=p,
    )


def test_small_negative_eigenvalue_fixed_by_jitter():
    a = np.diag([1.0, 1.0, -1.0e-9])
    lap = laplace_approximation(_fake_model(a), np.zeros(3))
    assert lap.jitter > 0.0
    assert np.all(np.isfinite(lap.cov))


def test_strongly_indefinite_curvature_raises():
    a = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(NumericalError, match="positive definite"):
        laplace_approximation(_fake_model(a), np.zeros(3))


def test_negative_mean_diagonal_raises():
    a = -np.eye(2)
    with pytest.raises(NumericalError):
        laplace_approximation(_fake_model(a), np.zeros(2))


# ---------------------------------------------------------------------------
# randomized hyperparameter grid
# ---------------------------------------------------------------------------

def _toy_regression(seed=0, n=18):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 1))
    y = np.sin(2.0 * X[:, 0]) + 0.1 * rng.standard_normal(n)
    return X, y


def test_search_is_deterministic():
    X, y = _toy_regression()
    grid = GridConfig(basis_sizes=(4, 6), n_pairs=3, search_iters=5)
    a = hyperparameter_search(X, y, "regression", seed=7, n_samples=64, grid=grid)
    b = hyperparameter_search(X, y, "regression", seed=7, n_samples=64, grid=grid)
    np.testing.assert_array_equal(a.laplace.mean, b.laplace.mean)
    np.testing.assert_array_equal(a.model.theta, b.model.theta)
    assert [c.get("score") for c in a.candidates] == \
        [c.get("score") for c in b.candidates]


def test_search_seed_changes_candidates():
    X, y = _toy_regression()
    grid = GridConfig(basis_sizes=(4,), n_pairs=3, search_iters=5)
    a = hyperparameter_search(X, y, "regression", seed=1, n_samples=64, grid=grid)
    b = hyperparameter_search(X, y, "regression", seed=2, n_samples=64, grid=grid)
    assert [c["width"] for c in a.candidates] != [c["width"] for c in b.candidates]


def test_search_single_candidate():
    X, y = _toy_regression()
    grid = GridConfig(basis_sizes=(5,), n_pairs=1, search_iters=5)
    res = hyperparameter_search(X, y, "regression", seed=0, n_samples=64,
                                grid=grid)
    assert len(res.candidates) == 1
    assert res.model.P == 6
    assert res.model.theta.size == 3
    assert set(res.timing) == {"grid", "final_mode", "curvature"}
    assert all(t >= 0.0 for t in res.timing.values())


@pytest.mark.parametrize("n_samples", [0, -5])
def test_search_rejects_sample_count_below_one(n_samples):
    X, y = _toy_regression()
    with pytest.raises(ValueError, match="n_samples"):
        hyperparameter_search(X, y, "regression", seed=0, n_samples=n_samples)


def test_search_rejects_an_unknown_task():
    X, y = _toy_regression()
    with pytest.raises(ValueError, match="unknown task 'ordinal'"):
        hyperparameter_search(X, y, "ordinal", seed=0)


def test_search_drops_basis_above_training_size():
    X, y = _toy_regression(n=8)
    grid = GridConfig(basis_sizes=(4, 50), n_pairs=2, search_iters=5)
    res = hyperparameter_search(X, y, "regression", seed=0, n_samples=64,
                                grid=grid)
    assert {c["M"] for c in res.candidates} == {4}


def test_search_no_admissible_size_raises():
    X, y = _toy_regression(n=6)
    grid = GridConfig(basis_sizes=(50,), n_pairs=2)
    with pytest.raises(NumericalError, match="basis size"):
        hyperparameter_search(X, y, "regression", seed=0, n_samples=32,
                              grid=grid)


def test_search_binary_task():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((16, 2))
    y = (X[:, 0] + 0.3 * rng.standard_normal(16) > 0).astype(float)
    grid = GridConfig(basis_sizes=(4,), n_pairs=2, search_iters=5)
    res = hyperparameter_search(X, y, "binary", seed=3, n_samples=64, grid=grid)
    assert res.model.theta.size == 2
    assert all(c["gamma"] is None for c in res.candidates)
    assert np.isfinite(res.laplace.bound_at_mode)


def test_search_winner_has_best_score():
    X, y = _toy_regression()
    grid = GridConfig(basis_sizes=(4, 6), n_pairs=3, search_iters=5)
    res = hyperparameter_search(X, y, "regression", seed=11, n_samples=64,
                                grid=grid)
    scores = [c["score"] for c in res.candidates if "score" in c]
    best = max(scores)
    # the winner was refined from the best-scoring short search
    winner = [c for c in res.candidates if c.get("score") == best][0]
    assert winner["M"] + 1 == res.model.P
    np.testing.assert_allclose(
        np.exp(res.model.theta),
        [winner["gamma"], winner["alpha"], winner["width"]], rtol=1.0e-12)


def test_search_completes_on_heavy_tail_run_5001():
    # a run on which every candidate's ten-step mode search once ended at an
    # indefinite curvature, and the search raised
    train, _ = generate_cauchy_task(seed=5001)
    res = hyperparameter_search(train.X, train.y, "regression", seed=5001)
    assert any(np.isfinite(c["score"]) for c in res.candidates)
    assert np.isfinite(res.laplace.bound_at_mode)


def test_grid_does_not_depend_on_the_memory(monkeypatch):
    # every candidate's search stops within the optimiser's memory, so its
    # record and the winner are the same at a memory of 10 and at _MEMORY;
    # only the final mode search from the winner can move
    train, _ = generate_cauchy_task(seed=2, n_train=30)
    grid = GridConfig(basis_sizes=(10, 20), n_pairs=5)
    assert grid.search_iters <= 10

    def search():
        return hyperparameter_search(train.X, train.y, "regression", seed=2,
                                     n_samples=200, grid=grid)

    now = search()
    monkeypatch.setattr(optimize, "_MEMORY", 10)
    old = search()
    assert any("error" in c for c in now.candidates)
    assert any(np.isfinite(c["score"]) for c in now.candidates)
    assert now.candidates == old.candidates
    np.testing.assert_array_equal(now.laplace.theta, old.laplace.theta)


# ---------------------------------------------------------------------------
# branch and bound over the grid's candidates
# ---------------------------------------------------------------------------

# six candidates per basis size, and 480 draws: four race chunks of 120
BNB_GRID = GridConfig(basis_sizes=(5, 10), n_pairs=6)
BNB_SAMPLES = 480


def _bnb_task(task):
    X, Y = make_class_table(seed=1, n=60)
    return X, (Y if task == "multiclass" else Y[:, 0])


def _bnb_search(task):
    X, y = _bnb_task(task)
    return hyperparameter_search(X, y, task, seed=1, n_samples=BNB_SAMPLES, grid=BNB_GRID)


@pytest.mark.parametrize("task", ["multiclass", "binary"])
def test_every_bound_is_above_the_score(task, monkeypatch):
    # (model, Laplace fit, draws) of every candidate the search fitted, in loop order
    seen = []
    upper = laplace._upper_bound
    monkeypatch.setattr(laplace, "_upper_bound",
                        lambda *args: seen.append(args) or upper(*args))
    records = _bnb_search(task).candidates
    assert len(seen) == len(records) == 12
    for record, (model, lap, draws) in zip(records, seen):
        params = initialise("mvi_mu", lap)
        steps = draws.z @ lap.chol.T   # w_s - mu, all draws at once
        values = model.values(lap.mean[None, :] + steps)
        (value,), (g,), _ = model.evaluate(lap.mean)
        # t(w_s) - ln p~(w_s) >= 0, t the tangent of _upper_bound at the mean
        gaps = value + steps @ g - 0.5 * model.alpha * np.sum(steps**2, axis=1) - values
        U = upper(model, lap, draws)
        # U, then after each of the first three 120-draw chunks
        bounds = [U - gaps[:120 * k].sum() / draws.S for k in range(4)]
        # the score from 120-draw chunks, as _race evaluates them
        chunked = np.concatenate([
            model.values(lap.mean[None, :] + draws.z[i:i + 120] @ lap.chol.T)
            for i in range(0, draws.S, 120)])
        score = float(chunked.mean()) + entropy(params, lap)
        assert all(score <= b for b in bounds)
        assert bounds == sorted(bounds, reverse=True)
        if "bound" not in record:   # a survivor, scored from its chunks
            assert record["score"] == score
        for k, b in enumerate(bounds):   # a floor just above the k-th bound drops there
            _, dropped, done = laplace._race(model, lap, draws, U, b + 1.0e-9 * (1.0 + abs(b)))
            assert done == 120 * k and dropped == pytest.approx(b, rel=1.0e-12)
        elbo = elbo_and_gradient(params, draws, model, lap)[0]
        # softmax's one-shot pass is its values'; binary's projected one, to round-off
        assert score == (elbo if task == "multiclass" else pytest.approx(elbo, rel=1.0e-12))


def test_cauchy_race_evaluates_its_draws_in_one_call(monkeypatch):
    # a race with U = +inf is never dropped, so its 300 draws are one chunk, not three
    model = make_cauchy()
    lap = laplace_approximation(model, find_mode(model, np.zeros(model.P)).x)
    draws = FixedDraws(standardize_draws(np.random.default_rng(0).standard_normal((300, 3))))
    calls = []
    values = CauchyRegression.values
    monkeypatch.setattr(CauchyRegression, "values",
                        lambda self, W: calls.append(len(W)) or values(self, W))
    bound = laplace._upper_bound(model, lap, draws)
    assert bound == math.inf
    score, dropped, done = laplace._race(model, lap, draws, bound, -math.inf)
    assert calls == [300] and dropped is None and done == 300
    assert score == pytest.approx(elbo_and_gradient(initialise("mvi_mu", lap), draws, model,
                                                    lap)[0], rel=1.0e-12)


def test_only_a_race_that_can_tighten_forms_its_tangent(monkeypatch):
    # the tangent at the mean (one evaluate) only lowers a chunk bound, which a
    # Cauchy race (U = +inf) or a race of one chunk never has to lower
    calls = []
    for model_class in (CauchyRegression, BinaryLogistic):
        monkeypatch.setattr(model_class, "evaluate",
                            lambda self, W, original=model_class.evaluate:
                            calls.append(W) or original(self, W))
    rng = np.random.default_rng(0)
    for model, n_calls in [(make_cauchy(), {300: 0}), (make_logistic(), {7: 0, 120: 0, 480: 1})]:
        lap = laplace_approximation(model, find_mode(model, np.zeros(model.P)).x)
        for S, want in n_calls.items():
            draws = FixedDraws(standardize_draws(rng.standard_normal((S, model.P))))
            calls.clear()
            _, dropped, done = laplace._race(model, lap, draws,
                                             laplace._upper_bound(model, lap, draws), -math.inf)
            assert (len(calls), dropped, done) == (want, None, S)
            assert all(w is lap.mean for w in calls)   # at the mean, if at all


@pytest.mark.parametrize("task", ["regression", "binary"])
def test_a_race_with_a_non_finite_value_is_a_recorded_failure(task, monkeypatch):
    # a NaN in the first race's first chunk: a Cauchy race of one chunk, or a
    # binary race of four, scores -inf with its reason, and the search goes on
    model_class = CauchyRegression if task == "regression" else BinaryLogistic
    chunks = []   # rows of every batch of more than one point: the races' chunks

    def values(self, W, original=model_class.values):
        out = original(self, W)
        if len(W) > 1:
            chunks.append(len(W))
            if len(chunks) == 1:
                out[0] = np.nan
        return out

    monkeypatch.setattr(model_class, "values", values)
    if task == "regression":
        train, _ = generate_cauchy_task(seed=3, n_train=20, n_test=40)
        res = hyperparameter_search(train.X, train.y, task, seed=0, n_samples=300,
                                    grid=GridConfig(basis_sizes=(5,), n_pairs=4, search_iters=5))
        assert chunks[0] == 300
    else:
        res = _bnb_search(task)
        assert chunks[:4] == [120] * 4   # the first race, with no floor, runs to its end
    failed = [c for c in res.candidates if c.get("reason") == "log posterior not finite"]
    assert len(failed) == 1 and failed[0]["score"] == -np.inf and "bound" not in failed[0]
    assert failed[0]["error"] == "log posterior not finite (mean over the draws nan)"
    assert any(np.isfinite(c["score"]) for c in res.candidates)
    assert np.isfinite(res.laplace.bound_at_mode)


def test_cauchy_scores_are_chunk_means(monkeypatch):
    # U = +inf could never be lowered: each candidate takes its draws as one
    # chunk, in loop order, is never dropped, even below a finite floor, and is
    # scored by the log-concave models' rule
    races = []
    race = laplace._race
    monkeypatch.setattr(laplace, "_race", lambda *args: races.append(args) or race(*args))
    train, _ = generate_cauchy_task(seed=3, n_train=20, n_test=40)
    grid = GridConfig(basis_sizes=(5,), n_pairs=4, search_iters=5)
    res = hyperparameter_search(train.X, train.y, "regression", seed=0, n_samples=300, grid=grid)
    scores = [c["score"] for c in res.candidates if "error" not in c]
    assert scores and len(scores) == len(races)
    for score, (model, lap, draws, bound, _) in zip(scores, races):
        params = initialise("mvi_mu", lap)
        values = model.values(lap.mean[None, :] + draws.z @ lap.chol.T)
        assert bound == math.inf
        assert race(model, lap, draws, bound, score + 1.0) == (score, None, draws.S)
        assert score == float(values.mean()) + entropy(params, lap)
        assert score == pytest.approx(elbo_and_gradient(params, draws, model, lap)[0], rel=1.0e-12)


def test_grid_draws_count_each_scored_candidate_once(monkeypatch):
    # S per scored candidate, plus the draws each dropped one evaluated before
    # its drop: a raced binary survivor evaluates its draws once, in its chunks
    outcomes = []
    race = laplace._race
    monkeypatch.setattr(laplace, "_race",
                        lambda *args: outcomes.append((args[-1], race(*args))) or outcomes[-1][1])
    res = _bnb_search("binary")
    scored = [c for c in res.candidates if np.isfinite(c["score"])]
    drawn = [out[2] for _, out in outcomes if out[0] is None]   # draws before the drop
    assert any(floor > -math.inf and out[0] is not None for floor, out in outcomes)
    assert res.draws == BNB_SAMPLES * len(scored) + sum(drawn)


def test_grid_never_runs_the_fits_expectation(monkeypatch):
    # every grid candidate is scored from its own chunked draws, whatever the likelihood
    def refuse(*args, **kwargs):
        raise AssertionError("the grid called a model's expectation")

    for model_class in (CauchyRegression, BinaryLogistic, SoftmaxRegression):
        monkeypatch.setattr(model_class, "expectation", refuse)
    train, _ = generate_cauchy_task(seed=3, n_train=20, n_test=40)
    grid = GridConfig(basis_sizes=(5, 10), n_pairs=4, search_iters=5)
    results = [hyperparameter_search(train.X, train.y, "regression", seed=0, n_samples=300,
                                     grid=grid),
               _bnb_search("binary"), _bnb_search("multiclass")]
    for res in results:
        assert any(np.isfinite(c["score"]) for c in res.candidates)


@pytest.mark.parametrize("task", ["multiclass", "binary"])
def test_pruned_search_is_the_full_search_bit_for_bit(task, monkeypatch):
    outcomes = []   # (floor, race result) of every race
    race = laplace._race
    monkeypatch.setattr(laplace, "_race",
                        lambda *args: outcomes.append((args[-1], race(*args))) or outcomes[-1][1])
    pruned = _bnb_search(task)
    monkeypatch.undo()
    model_class = SoftmaxRegression if task == "multiclass" else BinaryLogistic
    monkeypatch.setattr(model_class, "log_concave", False)
    full = _bnb_search(task)

    dropped = [c for c in pruned.candidates if "bound" in c]
    drawn = [out[2] for _, out in outcomes if out[0] is None]   # draws before the drop
    raced = [out for floor, out in outcomes if out[0] is not None and floor > -math.inf]
    assert len(drawn) == len(dropped)
    assert 0 in drawn and max(drawn) > 0   # some before their draws, some during
    assert raced   # a survivor of the race, scored from its chunks' values
    assert not any("bound" in c for c in full.candidates)
    assert full.draws == BNB_SAMPLES * len(full.candidates) > pruned.draws
    for got, want in zip(pruned.candidates, full.candidates):
        if "bound" in got:
            assert got["score"] == -np.inf and want["score"] < got["bound"]
        else:
            assert got == want
    np.testing.assert_array_equal(pruned.model.theta, full.model.theta)
    for name in ("mean", "cov", "chol", "theta", "eigvecs", "eig_root"):
        np.testing.assert_array_equal(getattr(pruned.laplace, name),
                                      getattr(full.laplace, name), err_msg=name)
    assert (pruned.laplace.bound_at_mode, pruned.laplace.jitter) == \
        (full.laplace.bound_at_mode, full.laplace.jitter)
    for name, value in vars(full.mode).items():
        np.testing.assert_array_equal(getattr(pruned.mode, name), value, err_msg=name)


@pytest.mark.parametrize("n_samples", [40, 7])   # S > P and S <= P = 8
def test_bound_gap_is_closed_form_on_the_conjugate_model(n_samples):
    # at the exact posterior ln p~ is quadratic with no slope, so U exceeds
    # the fixed-sample score by exactly the likelihood's share of the curvature
    model = make_conjugate(seed=4, n=12, p=8, beta=2.0, alpha=0.5)
    mean, _ = model.exact_posterior()
    lap = laplace_approximation(model, mean)
    z = standardize_draws(np.random.default_rng(3).standard_normal((n_samples, 8)))
    draws = FixedDraws(z)
    gap = (laplace._upper_bound(model, lap, draws)
           - elbo_and_gradient(initialise("mvi_mu", lap), draws, model, lap)[0])
    M = z.T @ z / n_samples
    PC = model.phi @ lap.chol
    assert gap == pytest.approx(0.5 * model.beta * np.trace(PC @ M @ PC.T), rel=1.0e-9)


def test_cauchy_split_bypasses_the_bound():
    train, test = generate_cauchy_task(seed=3, n_train=20, n_test=40)
    grid = GridConfig(basis_sizes=(5,), n_pairs=4, search_iters=5)
    _, _, info = bench.run_split(train, test, methods=("laplace",), seed=0,
                                 n_samples=300, n_eval=200, grid=grid)
    assert info["grid_pruned"] == 0
    assert info["grid_draws"] == 300 * (4 - info["grid_failed"])


def test_pruned_grid_evaluates_at_most_half_the_draws(monkeypatch):
    # a count, not a time: it repeats exactly on every machine that runs the grid
    X, Y = make_class_table(seed=2, n=200)
    train, test = Dataset(X[:105], Y[:105], "multiclass"), Dataset(X[105:], Y[105:], "multiclass")

    def draws():
        return bench.run_split(train, test, methods=("laplace",), seed=0, n_eval=100)[2]

    pruned = draws()
    monkeypatch.setattr(SoftmaxRegression, "log_concave", False)
    full = draws()
    assert full["grid_pruned"] == 0 and full["grid_failed"] == pruned["grid_failed"]
    assert full["grid_draws"] == 1000 * (30 - full["grid_failed"])
    assert pruned["grid_draws"] <= full["grid_draws"] / 2
