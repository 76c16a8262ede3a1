"""The finite-difference oracles of ``makers`` against known derivatives, and
its warm start against the bound it must keep."""

import numpy as np
import pytest

from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.optimize import OptimConfig
from mvipkg.variational import draw_fixed_samples, elbo_and_gradient, fit_family, initialise

from makers import finite_difference_gradient, finite_difference_jacobian, warm_start


def test_finite_difference_gradient_matches_analytic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    a = a @ a.T + 5 * np.eye(5)

    def f(x):
        return float(0.5 * x @ a @ x)

    x = rng.standard_normal(5)
    fd = finite_difference_gradient(f, x)
    np.testing.assert_allclose(fd, a @ x, rtol=1.0e-6)


def test_finite_difference_jacobian_matches_analytic():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))

    def g(x):
        return a @ x

    x = rng.standard_normal(4)
    fd = finite_difference_jacobian(g, x)
    np.testing.assert_allclose(fd, a, atol=1.0e-7)


def test_warm_start_preserves_bound_exactly(cauchy_model):
    mode = find_mode(cauchy_model, np.zeros(cauchy_model.P))
    lap = laplace_approximation(cauchy_model, mode.x)
    samples = draw_fixed_samples(60, lap.dim, seed=13)
    fit_mu = fit_family(cauchy_model, lap, samples, "mvi_mu",
                        config=OptimConfig(max_iters=200))
    for family in ("mvi_eig", "mvi_lr"):
        warm = warm_start(family, fit_mu.params, lap, seed=1)
        np.testing.assert_array_equal(warm.mu, fit_mu.params.mu)
        np.testing.assert_array_equal(warm.theta, fit_mu.params.theta)
        warm_val = elbo_and_gradient(warm, samples, cauchy_model, lap)[0]
        assert warm_val == pytest.approx(fit_mu.elbo, abs=1.0e-9)
    assert np.array_equal(warm_start("mvi_lr", fit_mu.params, lap, seed=1).t,
                          np.zeros(lap.dim))
    with pytest.raises(ValueError):
        warm_start("vi_diag", fit_mu.params, lap)
    eig = initialise("mvi_eig", lap)
    with pytest.raises(ValueError):
        warm_start("mvi_lr", eig, lap)
