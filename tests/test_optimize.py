import numpy as np
import pytest

from mvipkg import optimize
from mvipkg.errors import NumericalError
from mvipkg.laplace import GridConfig
from mvipkg.optimize import OptimConfig, _Memory, minimize


def quadratic_problem(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)

    def f(x):
        return 0.5 * x @ a @ x - b @ x, a @ x - b

    return f, np.linalg.solve(a, b)


def rosenbrock(x):
    val = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array([
        -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
        200.0 * (x[1] - x[0] ** 2),
    ])
    return val, grad


def _pairs(n_pairs, n=12):
    """Curvature pairs (s, A s) of one SPD matrix A, all with s'y > 0."""
    rng = np.random.default_rng(n_pairs)
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    pairs = [(s, a @ s) for s in rng.standard_normal((n_pairs, n))]
    return pairs, rng.standard_normal(n)


@pytest.mark.parametrize("n_pairs", sorted({1, 4, 10, optimize._MEMORY, optimize._MEMORY + 7}))
def test_compact_memory_matches_dense_bfgs_inverse_hessian(n_pairs):
    # H_0 = (s'y / y'y) I from the newest pair, then for each kept pair oldest
    # first H <- (I - rho s y') H (I - rho y s') + rho s s', rho = 1 / s'y; past
    # _MEMORY pairs the oldest are dropped, so the reference uses the newest
    pairs, g = _pairs(n_pairs)
    memory = _Memory(g.size)
    for s, y in pairs:
        memory.add(s, y, float(s @ y))
    kept = pairs[-optimize._MEMORY:]
    assert memory.m == len(kept)
    s, y = kept[-1]
    h = (s @ y) / (y @ y) * np.eye(g.size)
    for s, y in kept:
        v = np.eye(g.size) - np.outer(y, s) / (s @ y)
        h = v.T @ h @ v + np.outer(s, s) / (s @ y)
    np.testing.assert_allclose(memory.direction(g), h @ g, rtol=1.0e-12)


def test_pairs_without_positive_curvature_are_not_stored(monkeypatch):
    # s'y <= 0 would make H indefinite: every step of a concave objective
    # skips its pair, and every step of a convex quadratic keeps its own
    seen = []
    add = _Memory.add
    monkeypatch.setattr(_Memory, "add",
                        lambda memory, s, y, sy: (seen.append(sy), add(memory, s, y, sy)))
    concave = minimize(lambda x: (-0.5 * x @ x, -x), np.ones(3), OptimConfig(max_iters=5))
    assert concave.n_iters == 5 and seen == []
    convex = minimize(quadratic_problem(5, seed=1)[0], np.ones(5), OptimConfig(max_iters=5))
    assert len(seen) == convex.n_iters > 0 and min(seen) > 0.0


def test_cleared_memory_gives_a_scaled_gradient_step():
    pairs, g = _pairs(4)
    memory = _Memory(g.size)
    for s, y in pairs:
        memory.add(s, y, float(s @ y))
    memory.m = 0
    np.testing.assert_array_equal(memory.direction(g), g / max(1.0, np.linalg.norm(g)))
    np.testing.assert_array_equal(memory.direction(g / 1e3), g / 1e3)


@pytest.mark.parametrize("objective, x0", [
    (rosenbrock, np.array([-1.2, 1.0])),
    (quadratic_problem(30, seed=4)[0], np.ones(30)),
])
def test_short_searches_do_not_depend_on_the_memory(monkeypatch, objective, x0):
    # k accepted steps store at most k pairs, so a search of up to 10 steps
    # drops none at any memory of 10 or more: the grid's short mode searches
    # are the same at a memory of 10 and at _MEMORY
    cfg = OptimConfig(grad_tol=0.0, f_tol=0.0)
    for max_iters in range(11):
        cfg.max_iters = max_iters
        now = minimize(objective, x0, cfg)
        monkeypatch.setattr(optimize, "_MEMORY", 10)
        old = minimize(objective, x0, cfg)
        monkeypatch.undo()
        assert now.n_iters == old.n_iters == max_iters
        np.testing.assert_array_equal(now.x, old.x)
        assert (now.f, now.n_evals) == (old.f, old.n_evals)


def test_grid_searches_fit_in_the_memory():
    assert GridConfig().search_iters <= optimize._MEMORY


@pytest.mark.parametrize("n", [2, 5, 10])
def test_spd_quadratic_converges_within_3n_iterations(n):
    f, x_star = quadratic_problem(n, seed=n)
    cfg = OptimConfig(max_iters=10 * n, grad_tol=1.0e-8, f_tol=0.0)
    res = minimize(f, np.zeros(n), cfg)
    assert res.grad_norm <= 1.0e-8
    assert res.reason == "grad_tol" and res.converged
    assert res.n_iters <= 3 * n
    assert np.max(np.abs(res.x - x_star)) < 1.0e-6


def test_rosenbrock_reaches_minimum():
    res = minimize(rosenbrock, np.array([-1.2, 1.0]),
                   OptimConfig(max_iters=500, grad_tol=1.0e-8, f_tol=0.0))
    assert res.f < 1.0e-8
    assert np.max(np.abs(res.x - 1.0)) < 1.0e-4


def test_constant_shift_leaves_iterates_unchanged():
    f, _ = quadratic_problem(6, seed=1)

    def shifted(x):
        v, g = f(x)
        return v + 123.456, g

    x0 = np.full(6, 0.3)
    res_a = minimize(f, x0, OptimConfig())
    res_b = minimize(shifted, x0, OptimConfig())
    assert res_a.n_iters == res_b.n_iters
    np.testing.assert_array_equal(res_a.x, res_b.x)


def test_trace_is_monotone_non_increasing():
    # minimize is deterministic: max_iters = k stops the one trajectory after
    # k accepted steps, so the final values over k = 0..K are its trace
    x0 = np.array([-1.2, 1.0])
    full = minimize(rosenbrock, x0, OptimConfig(max_iters=200))
    trace = [minimize(rosenbrock, x0, OptimConfig(max_iters=k)).f
             for k in range(full.n_iters + 1)]
    assert len(trace) > 1 and trace[-1] == full.f
    assert np.all(np.diff(trace) <= 0.0)


def test_f_tol_termination_reports_reason():
    f, _ = quadratic_problem(4, seed=2)
    res = minimize(f, np.ones(4), OptimConfig(grad_tol=0.0, f_tol=1.0e-6))
    assert res.reason == "f_tol"


def test_max_iters_termination_reports_reason():
    f, _ = quadratic_problem(8, seed=3)
    res = minimize(f, np.ones(8), OptimConfig(max_iters=2, grad_tol=0.0, f_tol=0.0))
    assert res.reason == "max_iters"
    assert res.n_iters == 2
    assert not res.converged


def test_deterministic_given_start():
    res_a = minimize(rosenbrock, np.array([0.5, -0.5]), OptimConfig())
    res_b = minimize(rosenbrock, np.array([0.5, -0.5]), OptimConfig())
    np.testing.assert_array_equal(res_a.x, res_b.x)
    assert res_a.f == res_b.f


def test_non_finite_objective_raises():
    def bad(x):
        if x[0] > 0.5:
            return np.inf, np.full_like(x, np.nan)
        return float(x @ x - 2 * x.sum()), 2 * x - 2.0

    # descent direction pushes x toward 1, where the objective blows up; the
    # minimizer must either step around it or give up loudly, never return nan
    res = minimize(bad, np.zeros(2), OptimConfig(max_iters=50))
    assert np.isfinite(res.f)


def test_objective_finite_only_at_start_raises():
    x0 = np.zeros(3)

    def only_at_start(x):
        if np.array_equal(x, x0):
            return 1.0, np.ones_like(x)
        return np.inf, np.full_like(x, np.nan)

    with pytest.raises(NumericalError, match="non-finite"):
        minimize(only_at_start, x0, OptimConfig(max_iters=50))
