import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from scipy.stats import multivariate_normal

from mvipkg.errors import DataError, NumericalError
from mvipkg.models import (_SCORE_BLOCK, BinaryLogistic, CauchyRegression, MixtureTarget2D,
                           _ModelBase, SoftmaxRegression, expit, kmeans, squared_distances)

from makers import (ALL_MODEL_MAKERS, GaussianLinearModel, finite_difference_gradient,
                    finite_difference_jacobian, make_conjugate, rbf_reference)


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
    # a model's features: exp(-d^2 / (2 width^2)) per centre, then a bias column
    X = np.array([[0.0], [2.0]])
    C = np.array([[0.0], [1.0]])
    phi = CauchyRegression(X, np.zeros(2), C, gamma=1.0, alpha=1.0, width=2.0).phi
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


@pytest.mark.parametrize("n_centers", [0, 7])   # 1 <= n_centers <= N = 6
def test_kmeans_rejects_a_center_count_outside_one_to_n(n_centers):
    X = np.random.default_rng(4).standard_normal((6, 2))
    with pytest.raises(DataError, match=f"need 1 <= n_centers <= 6, got {n_centers}"):
        kmeans(X, n_centers, seed=0)


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


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_with_theta_overflow_raises_without_a_warning(name):
    # exp(800) overflows to inf, which the finite-square check refuses
    model = RBF_CLASSES[name](*_rbf_args(name)[:3], **_rbf_args(name)[3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(model.theta.size):
            with pytest.raises(NumericalError, match="finite square"):
                model.with_theta(np.where(np.arange(model.theta.size) == i, 800.0, model.theta))


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_values_rejects_a_batch_one_column_too_wide(name):
    model = RBF_CLASSES[name](*_rbf_args(name)[:3], **_rbf_args(name)[3])
    with pytest.raises(ValueError, match=f"parameter dimension {model.P}, got {model.P + 1}"):
        model.values(np.zeros((2, model.P + 1)))


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
    hyper = {name.removeprefix("log_"): v for name, v in zip(cls.theta_names, np.exp(theta))}
    for got, want in zip(moved.evaluate(W), cls(X, labels, centers, **hyper).evaluate(W)):
        np.testing.assert_array_equal(got, want)
    for i in range(theta.size):
        for bad in (-np.inf, -800.0, np.nan, 470.0):
            with pytest.raises(NumericalError, match="positive"):
                model.with_theta(np.where(np.arange(theta.size) == i, bad, theta))


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_features_and_width_derivative_are_one_array_bit_for_bit(name):
    # phi is the leading block of [phi | d phi / d log width], at every theta
    X, labels, centers, hyper = _rbf_args(name)
    model = RBF_CLASSES[name](X, labels, centers, **hyper)
    k = model.theta_names.index("log_width")
    for log_width in (-2.5, -0.3, 0.0, 0.7, 3.0):
        moved = model.with_theta(np.where(np.arange(model.theta.size) == k, log_width,
                                          model.theta))
        phi = rbf_reference(X, centers, moved.width)
        np.testing.assert_array_equal(moved.phi, phi)
        np.testing.assert_array_equal(
            moved._phi_stack, np.hstack([phi, phi[:, :-1] * moved._d2 / moved.width**2]))
        assert np.shares_memory(moved.phi, moved._phi_stack)
        assert moved.phi.shape == (X.shape[0], model.D)


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_with_rows_on_own_rows_rebuilds_the_model_bit_for_bit(name):
    model = ALL_MODEL_MAKERS[name]()
    again = model.with_rows(model.X, model.y)
    assert type(again) is type(model)
    for attr in ("phi", "_phi_stack", "y", "theta", "centers"):
        np.testing.assert_array_equal(getattr(again, attr), getattr(model, attr), err_msg=attr)
    W = np.random.default_rng(20).standard_normal((6, model.P))
    np.testing.assert_array_equal(again.values(W), model.values(W))
    for got, want in zip(again.evaluate(W), model.evaluate(W)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(again.hessian(W[0]), model.hessian(W[0]))


@pytest.mark.parametrize("name", sorted(RBF_CLASSES))
def test_with_rows_keeps_the_hyperparameters_with_theta_set(name):
    # each exp(theta) here changes in a round trip through its log, so a
    # with_rows that rebuilt the model from theta would not keep it
    X, labels, centers, hyper = _rbf_args(name)
    model = RBF_CLASSES[name](X, labels, centers, **hyper)
    theta = np.array([-0.736, 0.638, 0.663])[-model.theta.size:]
    assert (np.exp(np.log(np.exp(theta))) != np.exp(theta)).all()
    moved = model.with_theta(theta)
    X_new, labels_new = X[::-1][:5], labels[::-1][:5]
    held_out = moved.with_rows(X_new, labels_new)
    for hyper_name in model._hyper_names():
        assert getattr(held_out, hyper_name) == getattr(moved, hyper_name), hyper_name
    np.testing.assert_array_equal(held_out.theta, moved.theta)
    np.testing.assert_array_equal(held_out.X, X_new)
    np.testing.assert_array_equal(held_out.phi, rbf_reference(X_new, centers, moved.width))


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


def _curvature_blocks(model, phi_n, y_n, w):
    """-d^2 loglik / df_k df_l at one data point, from the closed forms."""
    f = [math.fsum(a * b for a, b in zip(phi_n, wk)) for wk in w.reshape(model.K, -1)]
    if isinstance(model, CauchyRegression):
        r2, g2 = (f[0] - y_n) ** 2, model.gamma ** 2
        return [[2.0 * (g2 - r2) / (g2 + r2) ** 2]]
    if isinstance(model, BinaryLogistic):
        s = 1.0 / (1.0 + math.exp(-f[0]))
        return [[s * (1.0 - s)]]
    if isinstance(model, SoftmaxRegression):   # p_k (delta_kl - p_l)
        top = max(f)
        e = [math.exp(v - top) for v in f]
        p = [v / math.fsum(e) for v in e]
        return [[p[k] * ((k == l) - p[l]) for l in range(model.K)] for k in range(model.K)]
    return [[model.beta]]


@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
def test_hessian_matches_per_point_curvature_loop(name):
    # H = -sum_n phi_n phi_n' (x) c_n - alpha I, one data point at a time, with
    # c_n the K x K curvature block (softmax) or scalar (K = 1) in closed form
    model = ALL_MODEL_MAKERS[name]()
    rng = np.random.default_rng(19)
    K, D = model.K, model.phi.shape[1]
    for scale in (0.3, 3.0):
        w = scale * rng.standard_normal(model.P)
        want = -model.alpha * np.eye(model.P)
        for phi_n, y_n in zip(model.phi, model.y):
            c = _curvature_blocks(model, phi_n, y_n, w)
            outer = np.outer(phi_n, phi_n)
            for k in range(K):
                for l in range(K):
                    want[k * D:(k + 1) * D, l * D:(l + 1) * D] -= c[k][l] * outer
        np.testing.assert_allclose(model.hessian(w), want, rtol=1.0e-12)


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
    phi = rbf_reference(X, centers, width=1.0)
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
    phi = rbf_reference(model.X, model.centers, model.width)
    signs = np.where(np.arange(model.N) % 2 == 0, 1.0, -1.0)
    y = phi @ W[0] + signs * model.gamma * np.logspace(-6.0, 6.0, model.N)
    model = CauchyRegression(model.X, y, model.centers, gamma=model.gamma,
                             alpha=model.alpha, width=model.width)
    loglik = np.array([math.fsum(-math.log(math.pi * model.gamma * (1.0 + (r / model.gamma) ** 2))
                                 for r in y - phi @ w) for w in W])
    prior = -0.5 * model.alpha * np.einsum("bp,bp->b", W, W) \
        + 0.5 * model.P * (np.log(model.alpha) - np.log(2 * np.pi))
    np.testing.assert_allclose(model.values(W), loglik + prior, rtol=1.0e-12)
    # the draws w = 0 + I z, z = W, through the scoring pass
    scored = model.score(np.zeros(model.P), np.eye(model.P), W)[1]
    np.testing.assert_allclose(scored, loglik, rtol=1.0e-12)


def test_cauchy_gradient_pass_direct_formula():
    # residuals from 1e-6 to 1e6 widths at the first draw, either sign: Q
    # becomes r / d and the lead row sum_n (r_n^2 - gamma^2) / d_n, d = gamma^2 + r^2
    model = ALL_MODEL_MAKERS["cauchy"]()
    rng = np.random.default_rng(13)
    W = rng.standard_normal((4, model.P))
    signs = np.where(np.arange(model.N) % 2 == 0, 1.0, -1.0)
    y = model.phi @ W[0] + signs * model.gamma * np.logspace(-6.0, 6.0, model.N)
    model = CauchyRegression(model.X, y, model.centers, gamma=model.gamma,
                             alpha=model.alpha, width=model.width)
    g2 = model.gamma ** 2
    r = [[float(f) - float(t) for f, t in zip(row, y)] for row in W @ model.phi.T]
    Q = model._projections(W)
    rows, scale, (lead,) = model._pass(Q, None, True)
    assert scale == -2.0
    np.testing.assert_allclose(Q, [[v / (g2 + v * v) for v in row] for row in r], rtol=1.0e-12)
    # the first draw's terms cancel to a sum near 0: an absolute floor of
    # 1e-12 of sum_n |term_n| = N, as the rounding of either form allows
    np.testing.assert_allclose(lead, [math.fsum((v * v - g2) / (g2 + v * v) for v in row)
                                      for row in r], rtol=1.0e-12, atol=1.0e-12 * model.N)
    np.testing.assert_allclose(rows, model.values(W) - model._prior(W)[0], rtol=1.0e-12)


def test_expit_matches_scipy_and_never_overflows():
    x = np.linspace(-700.0, 700.0, 14_001)
    np.testing.assert_allclose(expit(x), scipy_expit(x), rtol=1.0e-12)
    with np.errstate(over="raise", invalid="raise"):
        far = expit(np.array([-800.0, 800.0]))
        inplace = x.copy()
        assert expit(inplace, out=inplace) is inplace
    assert np.isfinite(far).all() and ((far >= 0.0) & (far <= 1.0)).all()
    assert far[0] < 1.3e-308 and far[1] == 1.0
    np.testing.assert_array_equal(inplace, expit(x))


def test_logistic_value_direct_formula():
    model = ALL_MODEL_MAKERS["logistic"]()
    rng = np.random.default_rng(13)
    w = rng.standard_normal(model.P)
    phi = rbf_reference(model.X, model.centers, model.width)
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
    # class k's block of the gradient is (Y[:, k] - P[:, k])' phi - alpha w_k,
    # P the per-point class probabilities: the class-major layout of W
    for w, g in zip(W, model.grads(W)):
        Wk = w.reshape(model.K, model.D)
        F = model.phi @ Wk.T
        Pr = np.exp(F - F.max(axis=1, keepdims=True))
        Pr /= Pr.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(g.reshape(model.K, model.D),
                                   (model.y - Pr).T @ model.phi - model.alpha * Wk,
                                   rtol=1.0e-12)

    X_test = rng.standard_normal((9, 2))
    Y_test = np.eye(3)[rng.integers(0, 3, size=9)]
    phi_test = rbf_reference(X_test, model.centers, model.width)
    mean, ll = model.with_rows(X_test, Y_test).score(np.zeros(model.P), np.eye(model.P), W)
    np.testing.assert_allclose(ll, _softmax_loglik_direct(W, phi_test, Y_test), rtol=1.0e-12)
    # the mean over the draws of the softmax of each test row's class scores
    want = np.array([[[math.exp(f_k - math.log(sum(math.exp(v) for v in f))) for f_k in f]
                      for f in phi_test @ w.reshape(model.K, -1).T] for w in W])
    np.testing.assert_allclose(mean, want.mean(axis=0), rtol=1.0e-12)


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
        probs, ll = model.score(np.zeros(model.P), np.eye(model.P), W)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(ll))
    assert probs.shape == (model.N, model.K)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1.0e-12)


def test_mixture_normalises_like_a_max_shift_softmax():
    # the log density and the responsibilities, written out with the shift by
    # each point's larger weighted component log density; the last two points
    # lie so deep in one component's tail that the other's responsibility
    # underflows to 0, once each way
    target = MixtureTarget2D()
    pts = np.array([[0.0, 0.0], [-1.0, -2.0], [0.5, -1.5], [3.0, 1.0], [0.0, 40.0],
                    [60.0, -2.0]])
    lp = np.empty((len(pts), 2))
    for i in range(2):
        dev = pts - target.means[i][None, :]
        quad = np.einsum("gj,jk,gk->g", dev, np.linalg.inv(target.covs[i]), dev)
        lp[:, i] = (-np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(target.covs[i])[1]
                    - 0.5 * quad)
    lp += np.log(target.weights)[None, :]
    m = lp.max(axis=1, keepdims=True)
    e = np.exp(lp - m)
    total = e.sum(axis=1, keepdims=True)
    values, resp, _, _ = target._components(pts)
    np.testing.assert_array_equal(values, (m + np.log(total)).ravel())
    np.testing.assert_array_equal(target.values(pts), values)
    np.testing.assert_array_equal(resp, e / total)
    np.testing.assert_array_equal(resp[-2:], [[1.0, 0.0], [0.0, 1.0]])


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
    # and the mixture: both targets without hyperparameters share with_theta
    for model in (make_conjugate(), MixtureTarget2D()):
        assert model.with_theta(np.zeros(0)) is model
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

FIVE_MODEL_MAKERS = {**ALL_MODEL_MAKERS, "mixture2d": MixtureTarget2D}


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
    # __dict__; an inherited method would silently escape `run.py --trace 1`.
    # The kernels and the Hessian are the shared ones, softmax's too: one
    # likelihood pass, one per-point curvature
    for cls in (CauchyRegression, BinaryLogistic, SoftmaxRegression):
        for method in ("values", "grads", "theta_grads", "hessian"):
            assert method in vars(cls), (cls.__name__, method)
            assert vars(cls)[method] is getattr(_ModelBase, method), (cls.__name__, method)


def test_binary_predictions_are_class_one_probabilities():
    # the binary link: score's mean goes through expit(W phi'), where the
    # regression models average the projections themselves
    model = ALL_MODEL_MAKERS["logistic"]()
    W = np.random.default_rng(18).standard_normal((4, model.P))
    want = 1.0 / (1.0 + np.exp(-(W @ model.phi.T)))
    np.testing.assert_allclose(model.score(np.zeros(model.P), np.eye(model.P), W)[0],
                               want.mean(axis=0), rtol=1.0e-12)


def _reference_features(model, X):
    """The features of the rows X: the RBF formula at the model's centres and
    width, or X itself, a design matrix, for the conjugate oracle."""
    if isinstance(model, GaussianLinearModel):
        return X
    return rbf_reference(X, model.centers, model.width)


def _one_shot_predictions(model, mu, R, z, X):
    """Per-draw predictions at the rows X from W phi' for all draws at once,
    W = mu + z R': phi'w (regression) or expit (binary), shape (S, N), or
    the class softmax, shape (S, N, K)."""
    W = mu[None, :] + z @ R.T
    F = W.reshape(-1, model.D) @ _reference_features(model, X).T
    if isinstance(model, BinaryLogistic):
        return scipy_expit(F)
    if isinstance(model, SoftmaxRegression):
        F = F.reshape(z.shape[0], model.K, -1)
        F = np.exp(F - F.max(axis=1, keepdims=True))
        return (F / F.sum(axis=1, keepdims=True)).transpose(0, 2, 1)
    return F


def _one_shot_residuals(model, mu, R, z, X, y):
    """Z1 A' for all draws at once: the residuals F - y of the draws
    mu + R z_s (their scores F, for binary), Z1 = [1 | z], A = [phi mu - y | phi R]."""
    phi = _reference_features(model, X)
    A = phi @ np.column_stack([mu, R])
    if not isinstance(model, BinaryLogistic):
        A[:, 0] -= y
    return np.hstack([np.ones((z.shape[0], 1)), z]) @ A.T


def _one_shot_log_likelihoods(model, mu, R, z, X, y):
    """Per-draw test log likelihood from the whole projection at once."""
    if isinstance(model, SoftmaxRegression):
        W = mu[None, :] + z @ R.T
        phi = _reference_features(model, X)
        B, K = W.shape[0], model.K
        F = (W.reshape(B * K, model.D) @ phi.T).reshape(B, K, -1)
        labels = F.reshape(B, -1) @ y.T.ravel()
        m = F.max(axis=1, keepdims=True)
        lse = np.log(np.exp(F - m).sum(axis=1)) + m[:, 0, :]
        return labels - lse.sum(axis=1)
    Q = _one_shot_residuals(model, mu, R, z, X, y)
    if isinstance(model, CauchyRegression):
        d = model.gamma**2 + Q**2
        return y.size * np.log(model.gamma / np.pi) - np.log(d) @ np.ones(y.size)
    if isinstance(model, BinaryLogistic):
        return (y[None, :] * Q - np.logaddexp(0.0, Q)).sum(axis=1)
    return (0.5 * y.size * (np.log(model.beta) - np.log(2.0 * np.pi))
            - 0.5 * model.beta * np.einsum("bn,bn->b", Q, Q))


def _score_mismatches(exact: bool, draw_counts=(1, 289, 1001, 10_000)) -> list:
    """Compare ``score`` over the draws mu + R z_s, on each model built over
    test rows by ``with_rows``, with one-shot oracles for Cauchy, binary,
    softmax and conjugate models.

    The per-draw log likelihoods must equal the one-shot pass over Z1 A'
    (over W phi', W = mu + z R', for softmax), and the Cauchy and conjugate
    means phi (mu + R z-bar). The softmax mean, summed block by block, must
    equal the per-draw mean of the same one-shot predictions up to round-off
    in either mode. The binary, Cauchy and conjugate means must equal the
    per-draw mean of the one-shot predictions W phi' (their scipy expit, for
    binary) at rtol 1e-12, with an absolute floor of 1e-12 of the mean
    |prediction| where a mean cancels to near zero, in either mode. The
    features are the formula's (``rbf_reference``). ``exact`` asks for
    bit-for-bit equality of the rest, else equality up to round-off.

    The models have 10 centres (D = 11), the benchmark's smallest basis.
    Draw counts (``_SCORE_BLOCK`` = 96): one; 289 = 3 x 96 + 1, one past a
    block (the lone draw joins its block); 1,001, not a multiple of the
    block; and the 10,000 of held-out scoring. Test sets
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
        "conjugate": GaussianLinearModel(rng.standard_normal((50, 11)),
                                         rng.standard_normal(50), beta=2.0, alpha=0.5),
    }
    roundoff = lambda a, b: np.allclose(a, b, rtol=1.0e-12, atol=1.0e-14)  # noqa: E731
    same = np.array_equal if exact else roundoff
    bad = []
    for name, model in models.items():
        mu = rng.standard_normal(model.P)
        R = 0.3 * np.tril(rng.standard_normal((model.P, model.P)))
        for n_test in (1000, 300, 190):
            if name == "conjugate":
                X = rng.standard_normal((n_test, model.P))
            else:
                X = rng.uniform(-3.0, 3.0, size=(n_test, model.X.shape[1]))
            if name == "cauchy":
                y = np.sin(X[:, 0]) + rng.standard_cauchy(n_test)
            elif name == "logistic":
                y = (X[:, 0] > 0).astype(float)
            elif name == "softmax":
                y = np.eye(model.K)[rng.integers(0, model.K, size=n_test)]
            else:
                y = X @ mu + rng.standard_normal(n_test)
            for n_draws in draw_counts:
                z = rng.standard_normal((n_draws, model.P))
                per_draw = _one_shot_predictions(model, mu, R, z, X)
                # rtol 1e-12, and where a mean cancels to near zero (rounding
                # like its terms, not its result) 1e-12 of the mean |prediction|
                close = lambda a, b: np.allclose(  # noqa: E731
                    a, b, rtol=1.0e-12, atol=1.0e-12 * np.abs(per_draw).mean())
                mean, ll = model.with_rows(X, y).score(mu, R, z)
                checks = [(same, "loglik", ll, _one_shot_log_likelihoods(model, mu, R, z, X, y))]
                if name == "softmax":
                    checks.append((roundoff, "mean", mean, per_draw.mean(axis=0)))
                elif name == "logistic":
                    checks.append((close, "per-draw mean", mean, per_draw.mean(axis=0)))
                else:
                    checks += [(same, "mean", mean,
                                _reference_features(model, X) @ (mu + R @ z.mean(axis=0))),
                               (close, "per-draw mean", mean, per_draw.mean(axis=0))]
                for equal, label, got, want in checks:
                    if got.shape != want.shape or not equal(got, want):
                        bad.append((name, n_test, n_draws, label))
    return bad


def test_score_matches_one_shot_pass():
    # any BLAS threading: equal up to round-off
    assert 289 % _SCORE_BLOCK == 1 and 1001 % _SCORE_BLOCK > 1
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
