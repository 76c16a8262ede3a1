import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from mvipkg.errors import ConfigError, NumericalError
from mvipkg.evaluate import (classification_metrics, kl_to_target_2d,
                             log_mean_exp, posterior_draws,
                             predictive_curve, regression_metrics)
from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.models import (BinaryLogistic, CauchyRegression, SoftmaxRegression,
                           rbf_features)
from mvipkg.variational import PosteriorGaussian

from makers import log_mean_exp_se, make_cauchy, make_conjugate, make_logistic, make_softmax


def _posterior_for(model):
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    return PosteriorGaussian(mean=lap.mean, root=lap.chol)


# ---------------------------------------------------------------------------
# log-mean-exp
# ---------------------------------------------------------------------------

def test_log_mean_exp_against_direct_computation():
    rng = np.random.default_rng(0)
    vals = rng.normal(-3.0, 0.5, size=400)
    lme = log_mean_exp(vals)
    assert lme == pytest.approx(math.log(np.mean(np.exp(vals))), rel=1.0e-12)


def test_log_mean_exp_constant_input():
    lme = log_mean_exp(np.full(50, -7.3))
    assert lme == pytest.approx(-7.3)


def test_log_mean_exp_handles_large_magnitudes():
    # naive exp would overflow; the shifted form must not
    lme = log_mean_exp(np.array([1000.0, 1000.0 + math.log(3.0)]))
    assert lme == pytest.approx(1000.0 + math.log(2.0), rel=1.0e-12)


def test_log_mean_exp_all_minus_inf():
    assert log_mean_exp(np.array([-np.inf, -np.inf])) == -np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_mean_exp_rejects_nan_and_plus_inf(bad):
    # no likelihood is NaN or +inf; averaging one in would report -inf or
    # skew which method wins, so it is a typed error
    for values in ([bad, -1.0, -2.0], [-1.0, bad], [-np.inf, bad]):
        with pytest.raises(NumericalError, match="held-out log likelihood"):
            log_mean_exp(np.array(values))


def test_log_mean_exp_single_value():
    assert log_mean_exp(np.array([-2.0])) == -2.0


# ---------------------------------------------------------------------------
# posterior draws and lpd
# ---------------------------------------------------------------------------

def test_posterior_draws_moments():
    mean = np.array([1.0, -2.0])
    root = np.array([[2.0, 0.0], [0.5, 1.0]])
    post = PosteriorGaussian(mean=mean, root=root)
    draws = posterior_draws(post, 200_000, seed=1)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), root @ root.T, atol=0.05)


def _joint_lpd(posterior, model, X, y, n_samples, seed):
    """(lpd, its standard error) of log_mean_exp over one ``score`` pass on
    fresh base draws."""
    z = np.random.default_rng(seed).standard_normal((n_samples, posterior.dim))
    ll = model.score(posterior.mean, posterior.root, z, X, y)[1]
    return log_mean_exp(ll), log_mean_exp_se(ll)


def test_zero_root_lpd_is_loglik_at_mean():
    model = make_logistic(seed=1)
    post = _posterior_for(model)
    collapsed = PosteriorGaussian(mean=post.mean,
                                  root=np.zeros((model.P, model.P)))
    value = classification_metrics(collapsed, model, model.X, model.y,
                                   n_samples=17, seed=5).lpd
    f = model.phi @ post.mean
    direct = math.fsum(model.y * f - np.logaddexp(0.0, f))
    assert value == pytest.approx(direct, rel=1.0e-12)


def test_lpd_matches_manual_average():
    # the held-out pass scores the draws mean + R z_s of the seed's z, and
    # the metric is the log-mean-exp of their per-draw log likelihoods
    model = make_cauchy(seed=2)
    post = _posterior_for(model)
    score = regression_metrics(post, model, model.X, model.y, n_samples=256, seed=9)
    z = np.random.default_rng(9).standard_normal((256, model.P))
    ll = model.score(post.mean, post.root, z, model.X, model.y)[1]
    expected = log_mean_exp(ll)
    assert score.lpd == expected / model.y.size
    assert np.isfinite(expected)
    W = posterior_draws(post, 256, seed=9)
    r = model.y[None, :] - W @ model.phi.T
    manual = -np.log(np.pi * model.gamma * (1.0 + (r / model.gamma) ** 2)).sum(axis=1)
    np.testing.assert_allclose(ll, manual, rtol=1.0e-12)


def test_lpd_exact_on_conjugate_model():
    # closed-form check: the Gaussian posterior predictive is available
    # exactly, and a posterior with many draws must approach it
    model = make_conjugate(seed=3, n=20, p=3)
    mean, cov = model.exact_posterior()
    post = PosteriorGaussian(mean=mean, root=np.linalg.cholesky(cov))
    rng = np.random.default_rng(4)
    phi_t = rng.standard_normal((5, 3))
    y_t = phi_t @ mean + 0.3 * rng.standard_normal(5)
    value, se = _joint_lpd(post, model, phi_t, y_t, n_samples=40_000, seed=11)
    exact = model.test_log_marginal(phi_t, y_t)
    assert abs(value - exact) < 4.0 * se


def test_non_finite_draw_is_a_numerical_error(monkeypatch):
    model = make_cauchy(seed=7)
    post = _posterior_for(model)

    def nan_draw(mu, R, z, X, y):
        ll = np.full(z.shape[0], -3.0)
        ll[1] = np.nan
        return np.zeros(len(y)), ll

    monkeypatch.setattr(model, "score", nan_draw)
    with pytest.raises(NumericalError):
        regression_metrics(post, model, model.X, model.y, n_samples=4, seed=0)


def test_scoring_memory_is_one_block():
    # 10,000 draws on 1,000 test points: Z1 A' for all draws at once would
    # take 80 MB; the blocked pass holds one block of it
    rng = np.random.default_rng(21)
    X = rng.uniform(-3.0, 3.0, size=(50, 1))
    model = CauchyRegression(X, np.sin(X[:, 0]), X[:30], gamma=0.4, alpha=0.8, width=1.2)
    post = PosteriorGaussian(mean=rng.standard_normal(model.P),
                             root=0.1 * np.tril(rng.standard_normal((model.P, model.P))))
    X_test = rng.uniform(-3.0, 3.0, size=(1000, 1))
    y_test = np.sin(X_test[:, 0])
    tracemalloc.start()
    try:
        score = regression_metrics(post, model, X_test, y_test, n_samples=10_000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(score.lpd)
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# task metrics
# ---------------------------------------------------------------------------

def test_regression_metrics_per_point_convention():
    model = make_cauchy(seed=4)
    post = _posterior_for(model)
    score = regression_metrics(post, model, model.X, model.y, n_samples=128,
                               seed=3)
    joint, _ = _joint_lpd(post, model, model.X, model.y, n_samples=128, seed=3)
    assert score.lpd == pytest.approx(joint / model.y.size, rel=1.0e-12)
    assert score.error_rate is None
    draws = posterior_draws(post, 128, seed=3)
    preds = model.predictive(draws, model.X).mean(axis=0)
    assert score.mse == pytest.approx(float(np.mean((model.y - preds) ** 2)),
                                      rel=1.0e-12)


def test_classification_metrics_joint_convention():
    model = make_logistic(seed=6)
    post = _posterior_for(model)
    score = classification_metrics(post, model, model.X, model.y,
                                   n_samples=128, seed=3)
    joint, _ = _joint_lpd(post, model, model.X, model.y, n_samples=128, seed=3)
    assert score.lpd == pytest.approx(joint, rel=1.0e-12)
    assert score.mse is None
    assert 0.0 <= score.error_rate <= 1.0


def test_binary_error_rate_hand_case():
    # 3 points; collapse the posterior so predictions are deterministic
    X = np.array([[-2.0], [0.0], [2.0]])
    y = np.array([0.0, 1.0, 1.0])
    centers = np.array([[0.0]])
    model = BinaryLogistic(X, y, centers, alpha=1.0, width=1.0)
    w = np.array([0.0, 2.0])  # constant logit +2: predicts class 1 everywhere
    post = PosteriorGaussian(mean=w, root=np.zeros((2, 2)))
    score = classification_metrics(post, model, X, y, n_samples=8, seed=0)
    assert score.error_rate == pytest.approx(1.0 / 3.0)


def test_multiclass_error_rate_hand_case():
    X = np.array([[0.0], [1.0]])
    Y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    centers = np.array([[0.0]])
    model = SoftmaxRegression(X, Y, centers, alpha=1.0, width=1.0)
    # weights favouring class 0 at every input: one of two test points wrong
    w = np.zeros(model.P)
    w[0] = w[1] = 3.0  # class-0 block
    post = PosteriorGaussian(mean=w, root=np.zeros((model.P, model.P)))
    score = classification_metrics(post, model, X, Y, n_samples=8, seed=0)
    assert score.error_rate == pytest.approx(0.5)


def test_predictive_curve_zero_width_posterior():
    model = make_cauchy(seed=6)
    post = _posterior_for(model)
    collapsed = PosteriorGaussian(mean=post.mean,
                                  root=np.zeros((model.P, model.P)))
    grid = np.linspace(-2.0, 2.0, 9)
    mean, sd = predictive_curve(collapsed, model, grid, n_samples=12, seed=1)
    phi = rbf_features(grid.reshape(-1, 1), model.centers, model.width)
    np.testing.assert_allclose(mean, phi @ post.mean, rtol=1.0e-12)
    np.testing.assert_allclose(sd, 0.0, atol=1.0e-12)


def test_predictive_curve_accepts_2d_grid():
    model = make_softmax(seed=8)
    post = _posterior_for(model)
    X = model.X[:4]
    mean, sd = predictive_curve(post, model, X, n_samples=32, seed=2)
    assert mean.shape == (4, 3) and sd.shape == (4, 3)
    np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1.0e-12)


# ---------------------------------------------------------------------------
# quadrature KL
# ---------------------------------------------------------------------------

class _GaussTarget:
    """Standard 2-D normal with the grid attributes the quadrature reads."""

    bounds = (-10.0, 10.0)
    resolution = 801

    def log_density(self, pts):
        return multivariate_normal(mean=[0.0, 0.0], cov=np.eye(2)).logpdf(pts)


def test_kl_quadrature_matches_gaussian_closed_form():
    # KL(N(0, s^2 I) || N(0, I)) = 0.5 [2 s^2 - 2 - ln s^4] with s = 1.5
    s = 1.5
    post = PosteriorGaussian(mean=np.zeros(2), root=s * np.eye(2))
    expected = 0.5 * (2 * s * s - 2.0 - math.log(s ** 4))
    val = kl_to_target_2d(post, _GaussTarget())
    assert val == pytest.approx(expected, abs=1.0e-6)


def test_kl_quadrature_zero_for_identical_gaussian():
    post = PosteriorGaussian(mean=np.zeros(2), root=np.eye(2))
    assert abs(kl_to_target_2d(post, _GaussTarget())) < 1.0e-8


def test_kl_quadrature_resolution_doubling_stable():
    post = PosteriorGaussian(mean=np.array([0.5, -0.3]),
                             root=np.array([[1.2, 0.0], [0.4, 0.9]]))
    target = _GaussTarget()
    a = kl_to_target_2d(post, target, resolution=801)
    b = kl_to_target_2d(post, target, resolution=1601)
    assert abs(a - b) < 1.0e-4


def test_kl_quadrature_correlated_case_closed_form():
    root = np.array([[1.0, 0.0], [0.7, 0.8]])
    post = PosteriorGaussian(mean=np.array([0.3, 0.1]), root=root)
    cov = root @ root.T
    # KL(N(m, S) || N(0, I)) = 0.5 [tr S + m'm - 2 - ln det S]
    _, logdet = np.linalg.slogdet(cov)
    expected = 0.5 * (np.trace(cov) + 0.1 * 0.1 + 0.3 * 0.3 - 2.0 - logdet)
    assert kl_to_target_2d(post, _GaussTarget()) == \
        pytest.approx(expected, abs=1.0e-6)


def test_kl_quadrature_rejects_wrong_dimension():
    post = PosteriorGaussian(mean=np.zeros(3), root=np.eye(3))
    with pytest.raises(ConfigError, match="2-D"):
        kl_to_target_2d(post, _GaussTarget())


def test_kl_quadrature_rejects_grid_too_small():
    post = PosteriorGaussian(mean=np.array([8.0, 0.0]), root=np.eye(2))
    with pytest.raises(ConfigError, match="widen"):
        kl_to_target_2d(post, _GaussTarget())


def test_kl_quadrature_rejects_mass_leak():
    target = SimpleNamespace(bounds=(-10.0, 10.0), resolution=11,
                             log_density=_GaussTarget().log_density)
    # grid spacing 2.0, q centred between nodes with sd 0.05: every node is
    # tens of standard deviations out, so the Riemann mass collapses
    post = PosteriorGaussian(mean=np.array([1.0, 1.0]),
                             root=0.05 * np.eye(2))
    with pytest.raises(ConfigError, match="mass"):
        kl_to_target_2d(post, target)
