import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import wofz
from scipy.stats import multivariate_normal

from mvipkg import bench
from mvipkg.errors import ConfigError, NumericalError
from mvipkg.evaluate import (classification_metrics, kl_to_target_2d, log_mean_exp,
                             pointwise_lpd, predictive_curve, predictive_moments,
                             regression_metrics)
from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.models import (BinaryLogistic, CauchyRegression, MixtureTarget2D,
                           SoftmaxRegression)
from mvipkg.variational import draw_fixed_samples, fit_family, initialise

from makers import (gaussian, log_mean_exp_se, make_cauchy, make_conjugate, make_logistic,
                    rbf_reference)


def _posterior_for(model):
    mode = find_mode(model, np.zeros(model.P))
    lap = laplace_approximation(model, mode.x)
    return gaussian(mean=lap.mean, root=lap.chol)


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
    collapsed = gaussian(mean=post.mean, root=np.zeros((model.P, model.P)))
    value = classification_metrics(collapsed, model, model.X, model.y,
                                   _base(17, collapsed.dim, 5))["lpd"]
    f = model.phi @ post.mean
    direct = math.fsum(model.y * f - np.logaddexp(0.0, f))
    assert value == pytest.approx(direct, rel=1.0e-12)


def _hermite_lpd(post, model, X, y, n_nodes):
    """Mean over the rows X, y of ln sum_k w_k p(y_n | m_n + s_n x_k) / sqrt(2 pi)
    with the Cauchy density written out, m_n and s_n from the features."""
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    phi = rbf_reference(X, model.centers, model.width)
    m, s = phi @ post.mean, np.linalg.norm(phi @ post.root, axis=1)
    r = (y - m)[:, None] - s[:, None] * x[None, :]
    density = 1.0 / (np.pi * model.gamma * (1.0 + (r / model.gamma) ** 2))
    return float(np.mean(np.log(density @ w / math.sqrt(2.0 * math.pi))))


def test_lpd_matches_manual_average():
    # the regression lpd is the mean over test points of a 200-node
    # Gauss-Hermite sum of the Cauchy density over f ~ N(m_n, s_n^2)
    model = make_cauchy(seed=2)
    post = _posterior_for(model)
    score = regression_metrics(post, model, model.X, model.y)
    assert score["lpd"] == pytest.approx(_hermite_lpd(post, model, model.X, model.y, 200),
                                         rel=1.0e-12)
    assert score["lpd"] != pytest.approx(_hermite_lpd(post, model, model.X, model.y, 20),
                                         rel=1.0e-12)


def test_lpd_exact_on_conjugate_model():
    # closed-form check: the Gaussian posterior predictive is available
    # exactly, and a posterior with many draws must approach it
    model = make_conjugate(seed=3, n=20, p=3)
    mean, cov = model.exact_posterior()
    post = gaussian(mean=mean, root=np.linalg.cholesky(cov))
    rng = np.random.default_rng(4)
    phi_t = rng.standard_normal((5, 3))
    y_t = phi_t @ mean + 0.3 * rng.standard_normal(5)
    value, se = _joint_lpd(post, model, phi_t, y_t, n_samples=40_000, seed=11)
    exact = model.test_log_marginal(phi_t, y_t)
    assert abs(value - exact) < 4.0 * se


def test_non_finite_draw_is_a_numerical_error(monkeypatch):
    # a NaN or +inf log likelihood at one node of one test point
    model = make_cauchy(seed=7)
    post = _posterior_for(model)

    held_out = model.with_rows(model.X, model.y)
    real = held_out.pointwise_loglik
    monkeypatch.setattr(model, "with_rows", lambda X, y: held_out)
    for bad in (np.nan, np.inf):
        def spoiled(Q, out=None):
            ll = real(Q, out)
            ll[1, 7] = bad
            return ll

        monkeypatch.setattr(held_out, "pointwise_loglik", spoiled)
        with pytest.raises(NumericalError, match=f"held-out log likelihood is {bad}"):
            regression_metrics(post, model, model.X, model.y)


def test_scoring_memory_is_one_block():
    # 1,000 test points: the quadrature holds a few 1,000 x 200 arrays of
    # residuals and log likelihoods (1.6 MB each), never one per draw
    rng = np.random.default_rng(21)
    X = rng.uniform(-3.0, 3.0, size=(50, 1))
    model = CauchyRegression(X, np.sin(X[:, 0]), X[:30], gamma=0.4, alpha=0.8, width=1.2)
    post = gaussian(mean=rng.standard_normal(model.P),
                    root=0.1 * np.tril(rng.standard_normal((model.P, model.P))))
    X_test = rng.uniform(-3.0, 3.0, size=(1000, 1))
    y_test = np.sin(X_test[:, 0])
    tracemalloc.start()
    try:
        score = regression_metrics(post, model, X_test, y_test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(score["lpd"])
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# Gauss-Hermite lpd
# ---------------------------------------------------------------------------

def _log_voigt(y, m, s, gamma):
    """ln of the exact Cauchy predictive, integral Cauchy(y; f, gamma) N(f; m, s^2) df,
    the Voigt profile Re w(zeta) / (s sqrt(2 pi)), zeta = (y - m + i gamma) / (s sqrt 2)."""
    zeta = (y - m + 1j * gamma) / (s * math.sqrt(2.0))
    return np.log(wofz(zeta).real / (s * math.sqrt(2.0 * math.pi)))


@pytest.mark.parametrize("ratio, point_bound, mean_bound", [
    (0.5, 1.0e-13, 1.0e-14),
    (1.0, 1.0e-11, 1.0e-13),
    (2.0, 5.0e-6, 1.0e-7),
    (4.0, 3.0e-3, 3.0e-4),
    (8.0, 0.1, 0.01),
], ids=["s/gamma=0.5", "s/gamma=1", "s/gamma=2", "s/gamma=4", "s/gamma=8"])
def test_cauchy_quadrature_matches_the_voigt_profile(ratio, point_bound, mean_bound):
    # the heavy-tail suite's fits reach s/gamma 3.7; the error grows with the
    # ratio, as the Cauchy peak narrows against the nodes' spacing (measured
    # at 200 nodes: 1e-14, 3e-12, 2.3e-6, 2.1e-3 and 6.5e-2 at a point)
    y_minus_m = np.linspace(-1.0, 1.0, 401)
    m = np.full(y_minus_m.size, 0.3)
    for gamma in (0.05, 0.1, 0.2, 0.5):
        s = np.full(m.size, ratio * gamma)
        held_out = CauchyRegression(np.zeros((m.size, 1)), m + y_minus_m, np.zeros((1, 1)),
                                    gamma=gamma, alpha=1.0, width=1.0)
        got = pointwise_lpd(held_out, m, s)
        exact = _log_voigt(held_out.y, m, s, gamma)
        assert np.abs(got - exact).max() <= point_bound
        assert abs(got.mean() - exact.mean()) <= mean_bound


# ---------------------------------------------------------------------------
# task metrics
# ---------------------------------------------------------------------------

def test_regression_metrics_per_point_convention():
    # lpd is the pointwise mean, mean_n ln p(y_n | D), not the joint lpd over
    # N; mse is that of the exact predictive mean phi'mean
    model = make_cauchy(seed=4)
    post = _posterior_for(model)
    score = regression_metrics(post, model, model.X, model.y)
    assert set(score) == {"lpd", "mse"}
    held_out = model.with_rows(model.X, model.y)
    m, s = predictive_moments(post, held_out)
    per_point = pointwise_lpd(held_out, m, s)
    assert per_point.shape == (model.N,)
    assert score["lpd"] == float(np.mean(per_point))
    joint, se = _joint_lpd(post, model, model.X, model.y, n_samples=20_000, seed=3)
    assert abs(joint - model.N * score["lpd"]) > 4.0 * se   # the two differ in general
    preds = model.phi @ post.mean
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
    post = gaussian(mean=w, root=np.zeros((2, 2)))
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
    post = gaussian(mean=w, root=np.zeros((model.P, model.P)))
    score = classification_metrics(post, model, X, Y, _base(8, post.dim, 0))
    assert score["error_rate"] == pytest.approx(0.5)


def test_predictive_curve_zero_width_posterior():
    model = make_cauchy(seed=6)
    post = _posterior_for(model)
    collapsed = gaussian(mean=post.mean, root=np.zeros((model.P, model.P)))
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
    yield gaussian(mean=mean, root=np.linalg.cholesky(cov)), conjugate, design, design


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
    """Standard 2-D normal with a batch log density, ``values``."""

    def values(self, pts):
        return multivariate_normal(mean=[0.0, 0.0], cov=np.eye(2)).logpdf(pts)


def _kl_to_standard_normal(mean, root):
    """KL(N(m, S) || N(0, I)) = 0.5 [tr S + m'm - 2 - ln det S] in 2-D."""
    cov = root @ root.T
    return 0.5 * (np.trace(cov) + mean @ mean - 2.0 - np.linalg.slogdet(cov)[1])


def test_kl_quadrature_matches_gaussian_closed_form():
    # KL(N(0, s^2 I) || N(0, I)) = 0.5 [2 s^2 - 2 - ln s^4] with s = 1.5
    s = 1.5
    post = gaussian(mean=np.zeros(2), root=s * np.eye(2))
    expected = 0.5 * (2 * s * s - 2.0 - math.log(s ** 4))
    val = kl_to_target_2d(post, _GaussTarget())
    assert val == pytest.approx(expected, abs=1.0e-12)


def test_kl_quadrature_zero_for_identical_gaussian():
    post = gaussian(mean=np.zeros(2), root=np.eye(2))
    assert abs(kl_to_target_2d(post, _GaussTarget())) < 1.0e-12


def test_kl_quadrature_correlated_case_closed_form():
    mean = np.array([0.3, 0.1])
    root = np.array([[1.0, 0.0], [0.7, 0.8]])
    post = gaussian(mean=mean, root=root)
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
    post = gaussian(mean=mean, root=root)
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
        total += float(np.exp(log_q) @ (log_q - target.values(pts)))
    return total * cell


def test_kl_quadrature_matches_a_fine_grid_on_the_demo():
    # the demo's four posteriors on its mixture target, against an
    # independent Riemann sum on a 1601 x 1601 grid
    target = MixtureTarget2D()
    lap = laplace_approximation(target, find_mode(target, np.zeros(2)).x)
    samples = draw_fixed_samples(1000, 2, bench.SALT_SAMPLES)
    posteriors = [lap] + [
        fit_family(target, lap, samples, initialise(family, lap, bench.SALT_INIT))
        for family in bench.DEMO_FAMILIES]
    for post in posteriors:
        assert abs(kl_to_target_2d(post, target) - _riemann_kl(post, target)) <= 1.0e-9


def test_kl_quadrature_rejects_wrong_dimension():
    post = gaussian(mean=np.zeros(3), root=np.eye(3))
    with pytest.raises(ConfigError, match="2-D"):
        kl_to_target_2d(post, _GaussTarget())
