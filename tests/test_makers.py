"""The finite-difference oracles of ``makers`` against known derivatives."""

import numpy as np

from makers import finite_difference_gradient, finite_difference_jacobian


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
