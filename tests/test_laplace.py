import math
from types import SimpleNamespace

import numpy as np
import pytest

from mvipkg import optimize
from mvipkg.data import generate_cauchy_task
from mvipkg.errors import NumericalError
from mvipkg.laplace import (GridConfig, find_mode, hyperparameter_search,
                            laplace_approximation)
from mvipkg.optimize import MinimizeResult

from makers import make_cauchy, make_conjugate, make_logistic


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
