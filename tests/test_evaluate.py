import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from mvipkg import bench
from mvipkg.errors import ConfigError, NumericalError
from mvipkg.evaluate import (classification_metrics, kl_to_target_2d,
                             log_mean_exp, predictive_curve, regression_metrics)
from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.models import (BinaryLogistic, CauchyRegression, MixtureTarget2D,
                           SoftmaxRegression)
from mvipkg.variational import (PosteriorGaussian, covariance_root, draw_fixed_samples,
                                fit_family)

from makers import log_mean_exp_se, make_cauchy, make_conjugate, make_logistic, rbf_reference


def _posterior_for(model):
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    return PosteriorGaussian(mean=lap.mean, root=lap.chol)


def _base(n_samples, dim, seed):
    """Raw standard normal base draws z under ``seed``, as ``bench.run_split``
    draws them."""
    return np.random.default_rng(seed).standard_normal((n_samples, dim))


def _draws(posterior, n_samples, seed):
    """Weight draws mean + R z_s from fresh standard normals under ``seed``."""
    return posterior.mean + _base(n_samples, posterior.dim, seed) @ posterior.root.T


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
# lpd
# ---------------------------------------------------------------------------

def _joint_lpd(posterior, model, X, y, n_samples, seed):
    """(lpd, its standard error) of log_mean_exp over one ``score`` pass of
    the model over the rows X, y on fresh base draws."""
    z = _base(n_samples, posterior.dim, seed)
    ll = model.with_rows(X, y).score(posterior.mean, posterior.root, z)[1]
    return log_mean_exp(ll), log_mean_exp_se(ll)


def test_zero_root_lpd_is_loglik_at_mean():
    model = make_logistic(seed=1)
    post = _posterior_for(model)
    collapsed = PosteriorGaussian(mean=post.mean,
                                  root=np.zeros((model.P, model.P)))
    value = classification_metrics(collapsed, model, model.X, model.y,
                                   _base(17, collapsed.dim, 5))["lpd"]
    f = model.phi @ post.mean
    direct = math.fsum(model.y * f - np.logaddexp(0.0, f))
    assert value == pytest.approx(direct, rel=1.0e-12)


def test_lpd_matches_manual_average():
    # the held-out pass scores the draws mean + R z_s of the caller's z, and
    # the metric is the log-mean-exp of their per-draw log likelihoods
    model = make_cauchy(seed=2)
    post = _posterior_for(model)
    z = _base(256, model.P, 9)
    score = regression_metrics(post, model, model.X, model.y, z)
    ll = model.with_rows(model.X, model.y).score(post.mean, post.root, z)[1]
    expected = log_mean_exp(ll)
    assert score["lpd"] == expected / model.y.size
    assert np.isfinite(expected)
    W = _draws(post, 256, seed=9)
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

    held_out = model.with_rows(model.X, model.y)

    def nan_draw(mu, R, z):
        ll = np.full(z.shape[0], -3.0)
        ll[1] = np.nan
        return np.zeros(held_out.N), ll

    monkeypatch.setattr(held_out, "score", nan_draw)
    monkeypatch.setattr(model, "with_rows", lambda X, y: held_out)
    with pytest.raises(NumericalError):
        regression_metrics(post, model, model.X, model.y, _base(4, post.dim, 0))


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
        score = regression_metrics(post, model, X_test, y_test, _base(10_000, post.dim, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(score["lpd"])
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# task metrics
# ---------------------------------------------------------------------------

def test_regression_metrics_per_point_convention():
    model = make_cauchy(seed=4)
    post = _posterior_for(model)
    score = regression_metrics(post, model, model.X, model.y, _base(128, post.dim, 3))
    joint, _ = _joint_lpd(post, model, model.X, model.y, n_samples=128, seed=3)
    assert set(score) == {"lpd", "mse"}
    assert score["lpd"] == pytest.approx(joint / model.y.size, rel=1.0e-12)
    preds = (_draws(post, 128, seed=3) @ model.phi.T).mean(axis=0)
    assert score["mse"] == pytest.approx(float(np.mean((model.y - preds) ** 2)),
                                      rel=1.0e-12)


def test_classification_metrics_joint_convention():
    model = make_logistic(seed=6)
    post = _posterior_for(model)
    score = classification_metrics(post, model, model.X, model.y,
                                   _base(128, post.dim, 3))
    joint, _ = _joint_lpd(post, model, model.X, model.y, n_samples=128, seed=3)
    assert set(score) == {"lpd", "error_rate"}
    assert score["lpd"] == pytest.approx(joint, rel=1.0e-12)
    assert 0.0 <= score["error_rate"] <= 1.0


def test_binary_error_rate_hand_case():
    # 3 points; collapse the posterior so predictions are deterministic
    X = np.array([[-2.0], [0.0], [2.0]])
    y = np.array([0.0, 1.0, 1.0])
    centers = np.array([[0.0]])
    model = BinaryLogistic(X, y, centers, alpha=1.0, width=1.0)
    w = np.array([0.0, 2.0])  # constant logit +2: predicts class 1 everywhere
    post = PosteriorGaussian(mean=w, root=np.zeros((2, 2)))
    score = classification_metrics(post, model, X, y, _base(8, post.dim, 0))
    assert score["error_rate"] == pytest.approx(1.0 / 3.0)


def test_multiclass_error_rate_hand_case():
    X = np.array([[0.0], [1.0]])
    Y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    centers = np.array([[0.0]])
    model = SoftmaxRegression(X, Y, centers, alpha=1.0, width=1.0)
    # weights favouring class 0 at every input: one of two test points wrong
    w = np.zeros(model.P)
    w[0] = w[1] = 3.0  # class-0 block
    post = PosteriorGaussian(mean=w, root=np.zeros((model.P, model.P)))
    score = classification_metrics(post, model, X, Y, _base(8, post.dim, 0))
    assert score["error_rate"] == pytest.approx(0.5)


def test_predictive_curve_zero_width_posterior():
    model = make_cauchy(seed=6)
    post = _posterior_for(model)
    collapsed = PosteriorGaussian(mean=post.mean,
                                  root=np.zeros((model.P, model.P)))
    grid = np.linspace(-2.0, 2.0, 9)
    mean, sd = predictive_curve(collapsed, model, grid)
    phi = rbf_reference(grid.reshape(-1, 1), model.centers, model.width)
    np.testing.assert_allclose(mean, phi @ post.mean, rtol=1.0e-12)
    assert (sd == 0.0).all()


def _curve_cases():
    """(posterior, model, grid, features on the grid) for the Cauchy model
    and the conjugate oracle, whose grid is its own design matrix."""
    cauchy = make_cauchy(seed=2)
    grid = np.linspace(-3.0, 3.0, 13)
    yield (_posterior_for(cauchy), cauchy, grid,
           rbf_reference(grid.reshape(-1, 1), cauchy.centers, cauchy.width))
    conjugate = make_conjugate(seed=3, n=20, p=3)
    mean, cov = conjugate.exact_posterior()
    design = np.random.default_rng(5).standard_normal((7, 3))
    yield (PosteriorGaussian(mean=mean, root=np.linalg.cholesky(cov)), conjugate,
           design, design)


def test_predictive_curve_is_the_closed_form():
    # f = phi'w under w ~ N(mean, R R') is N(phi'mean, ||R'phi||^2)
    for post, model, grid, phi in _curve_cases():
        mean, sd = predictive_curve(post, model, grid)
        np.testing.assert_allclose(mean, phi @ post.mean, rtol=1.0e-12)
        np.testing.assert_allclose(sd, np.linalg.norm(phi @ post.root, axis=1),
                                   rtol=1.0e-12)


def test_predictive_curve_agrees_with_draws():
    # the mean and sd of f over 10,000 posterior draws lie within 4 Monte
    # Carlo standard errors of the exact values
    n = 10_000
    for post, model, grid, phi in _curve_cases():
        mean, sd = predictive_curve(post, model, grid)
        f = _draws(post, n, seed=0) @ phi.T   # f = phi'w at each draw
        assert (np.abs(f.mean(axis=0) - mean) <= 4.0 * sd / math.sqrt(n)).all()
        assert (np.abs(f.std(axis=0) - sd) <= 4.0 * sd / math.sqrt(2.0 * n)).all()


# ---------------------------------------------------------------------------
# Gauss-Hermite KL
# ---------------------------------------------------------------------------

class _GaussTarget:
    """Standard 2-D normal with a batch log density."""

    def log_density(self, pts):
        return multivariate_normal(mean=[0.0, 0.0], cov=np.eye(2)).logpdf(pts)


def _kl_to_standard_normal(mean, root):
    """KL(N(m, S) || N(0, I)) = 0.5 [tr S + m'm - 2 - ln det S] in 2-D."""
    cov = root @ root.T
    return 0.5 * (np.trace(cov) + mean @ mean - 2.0 - np.linalg.slogdet(cov)[1])


def test_kl_quadrature_matches_gaussian_closed_form():
    # KL(N(0, s^2 I) || N(0, I)) = 0.5 [2 s^2 - 2 - ln s^4] with s = 1.5
    s = 1.5
    post = PosteriorGaussian(mean=np.zeros(2), root=s * np.eye(2))
    expected = 0.5 * (2 * s * s - 2.0 - math.log(s ** 4))
    val = kl_to_target_2d(post, _GaussTarget())
    assert val == pytest.approx(expected, abs=1.0e-12)


def test_kl_quadrature_zero_for_identical_gaussian():
    post = PosteriorGaussian(mean=np.zeros(2), root=np.eye(2))
    assert abs(kl_to_target_2d(post, _GaussTarget())) < 1.0e-12


def test_kl_quadrature_correlated_case_closed_form():
    mean = np.array([0.3, 0.1])
    root = np.array([[1.0, 0.0], [0.7, 0.8]])
    post = PosteriorGaussian(mean=mean, root=root)
    assert kl_to_target_2d(post, _GaussTarget()) == \
        pytest.approx(_kl_to_standard_normal(mean, root), abs=1.0e-12)


@pytest.mark.parametrize("mean, root", [
    ([8.0, 0.0], np.eye(2)),
    ([1.0, 1.0], 0.05 * np.eye(2)),
    ([0.5, -0.3], [[1.2, 0.0], [0.4, 0.9]]),
], ids=["off-centre", "narrow", "correlated"])
def test_kl_quadrature_exact_for_gaussian_target(mean, root):
    # the sum runs in q's own frame, so no q is too far out or too narrow
    mean, root = np.array(mean), np.array(root)
    post = PosteriorGaussian(mean=mean, root=root)
    assert kl_to_target_2d(post, _GaussTarget()) == \
        pytest.approx(_kl_to_standard_normal(mean, root), abs=1.0e-12)


def _riemann_kl(posterior, target, lo=-10.0, hi=10.0, n=1601, rows=200):
    """KL(q || target) as a Riemann sum of q (ln q - ln target) over an n x n
    grid on [lo, hi]^2, ``rows`` grid rows at a time."""
    xs = np.linspace(lo, hi, n)
    cell = (xs[1] - xs[0]) ** 2
    cov = posterior.root @ posterior.root.T
    prec = np.linalg.inv(cov)
    log_norm = -math.log(2.0 * math.pi) - 0.5 * np.linalg.slogdet(cov)[1]
    total = 0.0
    for start in range(0, n, rows):
        gx, gy = np.meshgrid(xs[start:start + rows], xs, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dev = pts - posterior.mean
        log_q = log_norm - 0.5 * np.einsum("gi,ij,gj->g", dev, prec, dev)
        total += float(np.exp(log_q) @ (log_q - target.log_density(pts)))
    return total * cell


def test_kl_quadrature_matches_a_fine_grid_on_the_demo():
    # the demo's four posteriors on its mixture target, against an
    # independent Riemann sum on a 1601 x 1601 grid
    target = MixtureTarget2D()
    lap = laplace_approximation(target, find_mode(target, np.zeros(2)).x)
    samples = draw_fixed_samples(1000, 2, bench.SALT_SAMPLES)
    posteriors = [lap] + [
        covariance_root(fit_family(target, lap, samples, family,
                                   seed=bench.SALT_INIT).params, lap)
        for family in bench.DEMO_FAMILIES]
    for post in posteriors:
        assert abs(kl_to_target_2d(post, target) - _riemann_kl(post, target)) <= 1.0e-9


def test_kl_quadrature_rejects_wrong_dimension():
    post = PosteriorGaussian(mean=np.zeros(3), root=np.eye(3))
    with pytest.raises(ConfigError, match="2-D"):
        kl_to_target_2d(post, _GaussTarget())
