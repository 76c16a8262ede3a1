import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from mvipkg.data import mixture_2d_target
from mvipkg.errors import DataError, NumericalError
from mvipkg.models import (BinaryLogistic, CauchyRegression, GaussianLinearModel,
                           SoftmaxRegression, kmeans, rbf_features,
                           squared_distances)
from mvipkg.optimize import finite_difference_gradient, finite_difference_jacobian

from makers import ALL_MODEL_MAKERS, make_conjugate


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def test_squared_distances_brute_force():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    C = rng.standard_normal((4, 3))
    expected = np.array([[np.sum((x - c) ** 2) for c in C] for x in X])
    np.testing.assert_allclose(squared_distances(X, C), expected, atol=1.0e-12)


def test_rbf_features_bias_column_and_kernel_values():
    X = np.array([[0.0], [2.0]])
    C = np.array([[0.0], [1.0]])
    phi = rbf_features(X, C, width=2.0)
    assert phi.shape == (2, 3)
    np.testing.assert_array_equal(phi[:, -1], 1.0)
    assert phi[0, 0] == pytest.approx(1.0)
    assert phi[0, 1] == pytest.approx(math.exp(-1.0 / 8.0))
    assert phi[1, 0] == pytest.approx(math.exp(-4.0 / 8.0))


def test_kmeans_deterministic_and_finite():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 2))
    c1 = kmeans(X, 5, seed=11)
    c2 = kmeans(X, 5, seed=11)
    np.testing.assert_array_equal(c1, c2)
    assert np.all(np.isfinite(c1))
    assert c1.shape == (5, 2)


def test_kmeans_all_points_returns_data():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((6, 2))
    centers = kmeans(X, 6, seed=0)
    np.testing.assert_allclose(np.sort(centers, axis=0), np.sort(X, axis=0))


def test_kmeans_separated_clusters_found():
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(-10, 0.1, size=(20, 1)),
                   rng.normal(10, 0.1, size=(20, 1))])
    centers = np.sort(kmeans(X, 2, seed=0).ravel())
    assert abs(centers[0] + 10) < 0.5 and abs(centers[1] - 10) < 0.5


# ---------------------------------------------------------------------------
# construction of the RBF models
# ---------------------------------------------------------------------------

RBF_CLASSES = {"cauchy": CauchyRegression, "logistic": BinaryLogistic,
               "softmax": SoftmaxRegression}


def _rbf_args(name, n=8):
    """(X, labels, centers, hyperparameters) of a small valid model."""
    rng = np.random.default_rng(3)
    X = rng.standard_normal((n, 2))
    labels = {"cauchy": X[:, 0], "logistic": (X[:, 0] > 0).astype(float),
              "softmax": np.eye(3)[np.arange(n) % 3]}[name]
    hyper = {"alpha": 0.7, "width": 1.3}
    if name == "cauchy":
        hyper["gamma"] = 0.4
    return X, labels, X[:2].copy(), hyper


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_rbf_constructor_rejects_row_mismatch(name):
    X, labels, centers, hyper = _rbf_args(name)
    with pytest.raises(DataError, match="rows"):
        RBF_CLASSES[name](X[:-1], labels, centers, **hyper)


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_rbf_constructor_rejects_nonpositive_hyperparameters(name):
    X, labels, centers, hyper = _rbf_args(name)
    for key in hyper:
        for bad in (0.0, -1.0):
            with pytest.raises(NumericalError, match="positive"):
                RBF_CLASSES[name](X, labels, centers, **{**hyper, key: bad})


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_rbf_constructor_rejects_hyperparameters_whose_square_overflows(name):
    X, labels, centers, hyper = _rbf_args(name)
    for key in hyper:
        for bad in (np.inf, np.nan, 1.0e200):
            with pytest.raises(NumericalError, match="finite square"):
                RBF_CLASSES[name](X, labels, centers, **{**hyper, key: bad})
    # a log-width one long quasi-Newton step can reach: exp(470)**2 overflows
    model = RBF_CLASSES[name](X, labels, centers, **hyper)
    theta = model.theta.copy()
    theta[model.theta_names.index("log_width")] = 470.0
    with pytest.raises(NumericalError, match="finite square"):
        model.with_theta(theta)


def test_binary_constructor_rejects_labels_other_than_0_1():
    X, labels, centers, hyper = _rbf_args("logistic")
    for bad in (2.0, -1.0, 0.5):
        y = labels.copy()
        y[0] = bad
        with pytest.raises(DataError, match="0/1"):
            BinaryLogistic(X, y, centers, **hyper)


def test_softmax_constructor_rejects_rows_that_are_not_one_hot():
    X, Y, centers, hyper = _rbf_args("softmax")
    for row in ([1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [2.0, -1.0, 0.0]):
        bad = Y.copy()
        bad[0] = row
        with pytest.raises(DataError, match="one-hot"):
            SoftmaxRegression(X, bad, centers, **hyper)


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_with_theta_at_own_theta_rebuilds_the_same_model(name):
    X, labels, centers, hyper = _rbf_args(name)
    model = RBF_CLASSES[name](X, labels, centers, **hyper)
    again = model.with_theta(model.theta)
    assert type(again) is type(model)
    np.testing.assert_array_equal(again.theta, model.theta)
    W = np.random.default_rng(4).standard_normal((5, model.P))
    np.testing.assert_array_equal(again.values(W), model.values(W))


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_with_theta_matches_at_theta_bit_for_bit(name):
    X, labels, centers, hyper = _rbf_args(name)
    cls = RBF_CLASSES[name]
    model = cls(X, labels, centers, **hyper)
    theta = model.theta + np.linspace(-0.3, 0.5, model.theta.size)
    moved = model.with_theta(theta)
    assert moved._d2 is model._d2 and moved.y is model.y
    W = np.random.default_rng(5).standard_normal((7, model.P))
    for got, want in zip(moved.evaluate(W), cls.at_theta(X, labels, centers, theta).evaluate(W)):
        np.testing.assert_array_equal(got, want)
    for i in range(theta.size):
        for bad in (-np.inf, -800.0, np.nan, 470.0):
            with pytest.raises(NumericalError, match="positive"):
                model.with_theta(np.where(np.arange(theta.size) == i, bad, theta))


# ---------------------------------------------------------------------------
# finite-difference oracles for every model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_gradient_matches_finite_differences(name):
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(10)
    for _ in range(3):
        w = 0.5 * rng.standard_normal(model.P)
        fd = finite_difference_gradient(lambda x: model.value(x), w)
        np.testing.assert_allclose(model.grad(w), fd, rtol=2.0e-6, atol=1.0e-8)


@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_hessian_matches_finite_differences(name):
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(11)
    w = 0.4 * rng.standard_normal(model.P)
    fd = finite_difference_jacobian(lambda x: model.grad(x), w)
    fd = 0.5 * (fd + fd.T)
    np.testing.assert_allclose(model.hessian(w), fd, rtol=5.0e-5, atol=1.0e-6)


@pytest.mark.parametrize("name", ["cauchy", "logistic", "softmax"])
def test_theta_gradients_match_finite_differences(name):
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(12)
    W = 0.3 * rng.standard_normal((4, model.P))
    analytic = model.theta_grads(W)
    theta0 = model.theta.copy()
    for j in range(theta0.size):
        def value_sum(tj):
            theta = theta0.copy()
            theta[j] = np.asarray(tj).item()
            return float(np.sum(model.with_theta(theta).values(W)))

        fd = finite_difference_gradient(value_sum, np.array([theta0[j]]))[0]
        assert np.sum(analytic[:, j]) == pytest.approx(fd, rel=2.0e-5, abs=1.0e-7)


@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_value_bit_reproducible(name):
    model = ALL_MODEL_MAKERS[name]()
    w = np.linspace(-0.5, 0.5, model.P)
    assert model.value(w) == model.value(w)
    np.testing.assert_array_equal(model.grad(w), model.grad(w))


# ---------------------------------------------------------------------------
# single-datum closed forms
# ---------------------------------------------------------------------------

def test_cauchy_value_at_zero_residual():
    # one datum with y = w' phi, w = 0, alpha = 1: the likelihood is the
    # Cauchy density at its peak and the prior is a standard normal at zero
    X = np.array([[0.7]])
    centers = np.array([[0.0]])
    gamma = 0.3
    phi = rbf_features(X, centers, width=1.0)
    w = np.zeros(2)
    y = np.array([float(phi[0] @ w)])
    model = CauchyRegression(X, y, centers, gamma=gamma, alpha=1.0, width=1.0)
    expected = -math.log(math.pi * gamma) - 0.5 * 2 * math.log(2 * math.pi)
    assert model.value(w) == pytest.approx(expected, rel=1.0e-12)


def test_cauchy_value_direct_formula():
    # residuals from 1e-6 to 1e6 widths at the first draw, either sign
    model = ALL_MODEL_MAKERS["cauchy"]()
    rng = np.random.default_rng(12)
    W = rng.standard_normal((3, model.P))
    phi = rbf_features(model.X, model.centers, model.width)
    signs = np.where(np.arange(model.N) % 2 == 0, 1.0, -1.0)
    y = phi @ W[0] + signs * model.gamma * np.logspace(-6.0, 6.0, model.N)
    model = CauchyRegression(model.X, y, model.centers, gamma=model.gamma,
                             alpha=model.alpha, width=model.width)
    loglik = np.array([math.fsum(-math.log(math.pi * model.gamma * (1.0 + (r / model.gamma) ** 2))
                                 for r in y - phi @ w) for w in W])
    prior = -0.5 * model.alpha * np.einsum("bp,bp->b", W, W) \
        + 0.5 * model.P * (np.log(model.alpha) - np.log(2 * np.pi))
    np.testing.assert_allclose(model.values(W), loglik + prior, rtol=1.0e-12)
    np.testing.assert_allclose(model.data_log_likelihoods(W, model.X, y), loglik, rtol=1.0e-12)


def test_logistic_value_direct_formula():
    model = ALL_MODEL_MAKERS["logistic"]()
    rng = np.random.default_rng(13)
    w = rng.standard_normal(model.P)
    phi = rbf_features(model.X, model.centers, model.width)
    f = phi @ w
    loglik = float(np.sum(model.y * f - np.logaddexp(0.0, f)))
    prior = float(-0.5 * model.alpha * w @ w
                  + 0.5 * model.P * (np.log(model.alpha) - np.log(2 * np.pi)))
    assert model.value(w) == pytest.approx(loglik + prior, rel=1.0e-12)


def _softmax_loglik_direct(W, phi, Y):
    """sum_n (f_{n,y_n} - log sum_k exp f_{n,k}), one weight row at a time."""
    out = []
    for w in W:
        F = phi @ w.reshape(Y.shape[1], -1).T
        out.append(sum(F[n, Y[n].argmax()] - math.log(sum(math.exp(f) for f in F[n]))
                       for n in range(F.shape[0])))
    return np.array(out)


def test_softmax_value_direct_formula():
    model = ALL_MODEL_MAKERS["softmax"]()
    rng = np.random.default_rng(14)
    W = rng.standard_normal((3, model.P))
    loglik = _softmax_loglik_direct(W, model.phi, model.y)
    prior = (-0.5 * model.alpha * np.sum(W * W, axis=1)
             + 0.5 * model.P * (np.log(model.alpha) - np.log(2 * np.pi)))
    np.testing.assert_allclose(model.values(W), loglik + prior, rtol=1.0e-12)

    X_test = rng.standard_normal((9, 2))
    Y_test = np.eye(3)[rng.integers(0, 3, size=9)]
    phi_test = rbf_features(X_test, model.centers, model.width)
    np.testing.assert_allclose(model.data_log_likelihoods(W, X_test, Y_test),
                               _softmax_loglik_direct(W, phi_test, Y_test),
                               rtol=1.0e-12)


def test_softmax_large_logits_stay_finite():
    # class scores near +-800 overflow exp() unless the log-sum-exp and the
    # probabilities are shifted by the per-point maximum
    model = ALL_MODEL_MAKERS["softmax"]()
    W = np.zeros((2, model.P))
    bias = np.arange(model.D - 1, model.P, model.D)   # bias weight of each class
    W[0, bias] = [800.0, -800.0, 0.0]
    W[1, bias] = [-790.0, 805.0, 799.0]
    with np.errstate(all="raise"):
        values = model.values(W)
        probs = model.predictive(W, model.X)
    assert np.all(np.isfinite(values))
    assert probs.shape == (2, model.N, model.K)
    np.testing.assert_allclose(probs.sum(axis=2), 1.0, rtol=0.0, atol=1.0e-12)


# ---------------------------------------------------------------------------
# conjugate closed forms against independent routes
# ---------------------------------------------------------------------------

def test_exact_posterior_matches_direct_solve():
    model = make_conjugate(seed=2, n=12, p=3)
    mean, cov = model.exact_posterior()
    A = model.beta * model.phi.T @ model.phi + model.alpha * np.eye(3)
    np.testing.assert_allclose(cov @ A, np.eye(3), atol=1.0e-12)
    np.testing.assert_allclose(A @ mean, model.beta * model.phi.T @ model.y,
                               atol=1.0e-10)


def test_log_evidence_matches_quadrature_oracle():
    # 1-D weight so the evidence integral is a plain Riemann sum
    model = make_conjugate(seed=3, n=8, p=1, beta=1.5, alpha=0.7)
    w_grid = np.linspace(-8.0, 8.0, 40001).reshape(-1, 1)
    vals = model.values(w_grid)
    dx = w_grid[1, 0] - w_grid[0, 0]
    m = vals.max()
    quad = m + np.log(np.sum(np.exp(vals - m)) * dx)
    assert model.log_evidence() == pytest.approx(float(quad), abs=1.0e-8)


def test_test_log_marginal_matches_scipy_density():
    model = make_conjugate(seed=4, n=15, p=3)
    rng = np.random.default_rng(5)
    phi_t = rng.standard_normal((4, 3))
    y_t = rng.standard_normal(4)
    mean, cov = model.exact_posterior()
    m = phi_t @ mean
    S = phi_t @ cov @ phi_t.T + np.eye(4) / model.beta
    expected = multivariate_normal(mean=m, cov=S).logpdf(y_t)
    assert model.test_log_marginal(phi_t, y_t) == pytest.approx(expected,
                                                                rel=1.0e-10)


def test_conjugate_evidence_consistency_via_posterior_identity():
    # ln p(y) = ln p(y|w) + ln p(w) - ln p(w|y) at any w; use w = 0
    model = make_conjugate(seed=6, n=9, p=4)
    mean, cov = model.exact_posterior()
    w = np.zeros(4)
    log_post_at_w = multivariate_normal(mean=mean, cov=cov).logpdf(w)
    assert model.log_evidence() == pytest.approx(
        model.value(w) - log_post_at_w, rel=1.0e-10)


def test_conjugate_rejects_nonempty_theta():
    model = make_conjugate()
    with pytest.raises(ValueError):
        model.with_theta(np.array([0.1]))


# ---------------------------------------------------------------------------
# batch consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_batched_values_match_loop(name):
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(14)
    W = 0.3 * rng.standard_normal((5, model.P))
    batched = model.values(W)
    looped = np.array([model.value(w) for w in W])
    np.testing.assert_allclose(batched, looped, rtol=1.0e-12)


@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_batched_grads_match_loop(name):
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(15)
    W = 0.3 * rng.standard_normal((5, model.P))
    batched = model.grads(W)
    looped = np.vstack([model.grad(w) for w in W])
    np.testing.assert_allclose(batched, looped, rtol=1.0e-12)
    # per row, not only summed over the batch: a lead averaged over the rows
    # and broadcast back would still match a finite difference of the sum
    batched = model.theta_grads(W)
    looped = np.vstack([model.theta_grads(w[None, :])[0] for w in W])
    assert batched.shape == (W.shape[0], model.theta.size)
    np.testing.assert_allclose(batched, looped, rtol=1.0e-12)


# ---------------------------------------------------------------------------
# fused passes: evaluate and score against the separate kernels
# ---------------------------------------------------------------------------

FIVE_MODEL_MAKERS = {**ALL_MODEL_MAKERS, "mixture2d": mixture_2d_target}


@pytest.mark.parametrize("name", sorted(FIVE_MODEL_MAKERS))
def test_evaluate_equals_separate_kernels(name):
    model = FIVE_MODEL_MAKERS[name]()
    rng = np.random.default_rng(16)
    # at scale 30 the Cauchy residuals lie far above gamma = 0.4
    for scale in (0.3, 30.0):
        W = scale * rng.standard_normal((7, model.P))
        values, grads, theta_grads = model.evaluate(W)
        assert np.array_equal(values, model.values(W))
        assert np.array_equal(grads, model.grads(W))
        assert np.array_equal(theta_grads, model.theta_grads(W))
        assert theta_grads.shape == (7, model.theta.size)


def test_rbf_models_define_traced_kernels_on_the_class():
    # benchmarks/tracing.py wraps these methods through each class's own
    # __dict__; an inherited method would silently escape `run.py --trace 1`
    for cls in (CauchyRegression, BinaryLogistic, SoftmaxRegression):
        for method in ("values", "grads", "theta_grads", "hessian"):
            assert method in vars(cls), (cls.__name__, method)


def test_binary_predictions_are_class_one_probabilities():
    # the binary link: predictive and score's mean go through expit(W phi'),
    # where the regression models return the projections themselves
    model = ALL_MODEL_MAKERS["logistic"]()
    W = np.random.default_rng(18).standard_normal((4, model.P))
    want = 1.0 / (1.0 + np.exp(-(W @ model.phi.T)))
    np.testing.assert_allclose(model.predictive(W, model.X), want, rtol=1.0e-12)
    np.testing.assert_allclose(model.score(W, model.X, model.y)[0], want.mean(axis=0),
                               rtol=1.0e-12)


def _one_shot_log_likelihoods(model, W, X, y):
    """Per-draw test log likelihood from the whole product F = W phi' at once."""
    phi = rbf_features(X, model.centers, model.width)
    if isinstance(model, CauchyRegression):
        d = model.gamma**2 + (y[None, :] - W @ phi.T) ** 2
        return y.size * np.log(model.gamma / np.pi) - np.log(d) @ np.ones(y.size)
    if isinstance(model, BinaryLogistic):
        F = W @ phi.T
        return (y[None, :] * F - np.logaddexp(0.0, F)).sum(axis=1)
    B, K = W.shape[0], model.K
    F = (W.reshape(B * K, model.D) @ phi.T).reshape(B, K, -1)
    labels = F.reshape(B, -1) @ y.T.ravel()
    m = F.max(axis=1, keepdims=True)
    lse = np.log(np.exp(F - m).sum(axis=1)) + m[:, 0, :]
    return labels - lse.sum(axis=1)


def _score_mismatches(exact: bool, draw_counts=(1, 289, 1001, 10_000)) -> list:
    """Compare ``score`` with ``predictive(...).mean(0)`` and the one-shot
    likelihood for Cauchy, binary and softmax models.

    The models have 10 centres (D = 11), the benchmark's smallest basis.
    Draw counts: one, one past a block (the lone draw joins its block), not
    a multiple of the block, and the 10,000 of held-out scoring. Test sets
    of 1,000 and 190 points are the benchmark's; at 300 points a 256-draw
    block rounded apart from the one-shot product.
    """
    rng = np.random.default_rng(17)
    X1 = rng.uniform(-3.0, 3.0, size=(50, 1))
    X2 = rng.standard_normal((60, 2))
    models = {
        "cauchy": CauchyRegression(X1, np.sin(X1[:, 0]), X1[:10],
                                   gamma=0.4, alpha=0.8, width=1.2),
        "logistic": BinaryLogistic(X2, (X2[:, 0] > 0).astype(float), X2[:10],
                                   alpha=0.6, width=1.5),
        "softmax": SoftmaxRegression(X2, np.eye(3)[rng.integers(0, 3, size=60)],
                                     X2[:10], alpha=0.7, width=1.0),
    }
    same = np.array_equal if exact else (
        lambda a, b: np.allclose(a, b, rtol=1.0e-12, atol=1.0e-14))
    bad = []
    for name, model in models.items():
        for n_test in (1000, 300, 190):
            X = rng.uniform(-3.0, 3.0, size=(n_test, model.X.shape[1]))
            if name == "cauchy":
                y = np.sin(X[:, 0]) + rng.standard_cauchy(n_test)
            elif name == "logistic":
                y = (X[:, 0] > 0).astype(float)
            else:
                y = np.eye(model.K)[rng.integers(0, model.K, size=n_test)]
            for n_draws in draw_counts:
                W = rng.standard_normal((n_draws, model.P))
                mean, ll = model.score(W, X, y)
                for label, got, want in (
                        ("mean", mean, model.predictive(W, X).mean(axis=0)),
                        ("loglik", ll, _one_shot_log_likelihoods(model, W, X, y)),
                        ("data_log_likelihoods", ll,
                         model.data_log_likelihoods(W, X, y))):
                    if got.shape != want.shape or not same(got, want):
                        bad.append((name, n_test, n_draws, label))
    return bad


def test_score_matches_one_shot_pass():
    # any BLAS threading: equal up to round-off
    assert _score_mismatches(exact=False, draw_counts=(1, 289, 1001)) == []


def test_score_matches_one_shot_pass_bit_for_bit():
    # A fresh interpreter with BLAS pinned to one thread, as in the
    # benchmark: a multi-threaded OpenBLAS splits a product by its size, so a
    # block's rows may then round apart from the one-shot product's.
    pinned = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
    env = dict(os.environ, **pinned, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "[]"


if __name__ == "__main__":
    print(_score_mismatches(exact=True))
