import copy
import math
import pickle

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mvipkg import variational
from mvipkg.errors import NumericalError
from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.models import FixedDraws, MixtureTarget2D, standardize_draws
from mvipkg.optimize import OptimConfig, minimize
from mvipkg.variational import (FAMILIES, FAMILY_SPECS, VariationalParams, _theta_scales,
                                _Whitened, draw_fixed_samples, elbo_and_gradient, entropy,
                                fit_family, initialise)

from makers import (ALL_MODEL_MAKERS, finite_difference_gradient, make_cauchy, make_conjugate,
                    make_logistic, make_softmax, warm_start)

HALF_LOG_2PIE = 0.5 * (math.log(2 * math.pi) + 1.0)


def _lap(model, seed=0):
    mode = find_mode(model, np.zeros(model.P))
    return laplace_approximation(model, mode.x)


# ---------------------------------------------------------------------------
# fixed sample sets
# ---------------------------------------------------------------------------

def test_draw_fixed_samples_deterministic():
    a = draw_fixed_samples(64, 3, seed=5)
    b = draw_fixed_samples(64, 3, seed=5)
    np.testing.assert_array_equal(a.z, b.z)
    assert isinstance(a, FixedDraws)
    assert a.z.flags.writeable is False


def test_standardized_moments():
    s = draw_fixed_samples(200, 4, seed=1)
    np.testing.assert_allclose(s.z.mean(axis=0), 0.0, atol=1.0e-13)
    np.testing.assert_allclose(s.z.T @ s.z / 200, np.eye(4), atol=1.0e-12)


def test_standardize_skips_whitening_when_underdetermined():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((3, 5))
    z = standardize_draws(raw)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1.0e-14)
    np.testing.assert_allclose(z, raw - raw.mean(axis=0), atol=1.0e-14)


@pytest.mark.parametrize("p", (11, 31, 93))
def test_standardized_draws_whitened_to_identity(p):
    # the sizes the suites draw: P = 11 to 93 coordinates, 1000 rows
    raw = np.random.default_rng(p).standard_normal((1000, p)) * np.linspace(0.5, 3.0, p) + 2.0
    z = standardize_draws(raw)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1.0e-12)
    np.testing.assert_allclose(z.T @ z / 1000, np.eye(p), atol=1.0e-12)


def test_single_draw_centres_to_zero():
    z = standardize_draws(np.array([[1.7, -0.3]]))
    np.testing.assert_array_equal(z, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# parameter layout
# ---------------------------------------------------------------------------

def test_params_field_validation():
    with pytest.raises(ValueError):
        VariationalParams.of("mvi_mu", np.zeros(2), np.zeros(1),
                             log_r=np.zeros(2))
    with pytest.raises(ValueError):
        VariationalParams.of("mvi_eig", np.zeros(2), np.zeros(1))
    with pytest.raises(ValueError):
        VariationalParams.of("mvi_lr", np.zeros(2), np.zeros(1), t=np.zeros(3),
                             v=np.zeros(2))
    with pytest.raises(ValueError):
        VariationalParams.of("nope", np.zeros(2), np.zeros(1))
    with pytest.raises(TypeError):   # the constructor takes keywords only
        VariationalParams("mvi_mu", np.zeros(3), 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_params_layout(family, cauchy_model):
    # x is mu, then the spec's fields in order, then theta; every name is a
    # view of x
    lap = _lap(cauchy_model)
    params = initialise(family, lap, seed=4)
    p, t = params.dim, params.theta.size
    expected = {"mvi_mu": p + t, "mvi_eig": 2 * p + t,
                "mvi_lr": 3 * p + t, "vi_diag": 2 * p + t}[family]
    assert params.x.shape == (expected,)
    names = ("mu", *FAMILY_SPECS[family].fields, "theta")
    np.testing.assert_array_equal(np.concatenate([getattr(params, n) for n in names]),
                                  params.x)
    for name in names:
        assert getattr(params, name).base is params.x


@pytest.mark.parametrize("family", FAMILIES)
def test_pack_unpack_round_trip(family, cauchy_model):
    # ``of`` packs the blocks into x; the constructor unpacks the
    # optimiser's point into the same blocks, without a copy
    params = initialise(family, _lap(cauchy_model), seed=4)
    fields = {n: getattr(params, n) for n in FAMILY_SPECS[family].fields}
    packed = VariationalParams.of(family, params.mu, params.theta, **fields)
    np.testing.assert_array_equal(packed.x, params.x)
    x = params.x.copy()
    back = VariationalParams(family=family, x=x, dim=params.dim)
    assert back.x is x and back.family == family and back.dim == params.dim
    for name in ("mu", *fields, "theta"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))


def test_unpack_rejects_wrong_length(cauchy_model):
    # the constructor checks nothing, so a point of the wrong length is caught
    # where the blocks are packed: each field must be the size of mu
    lap = _lap(cauchy_model)
    params = initialise("mvi_eig", lap)
    with pytest.raises(ValueError):
        VariationalParams.of("mvi_eig", params.mu, params.theta,
                             log_r=np.append(params.log_r, 0.0))
    with pytest.raises(ValueError):
        VariationalParams.of("mvi_mu", params.mu, params.theta, log_r=params.log_r)


@pytest.mark.parametrize("name", ("mu", "theta", "t", "v", "x", "family"))
def test_params_cannot_be_rebound(name, cauchy_model):
    params = initialise("mvi_lr", _lap(cauchy_model), seed=4)
    before = params.x.copy()
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(params, name, np.zeros(params.dim))
    np.testing.assert_array_equal(params.x, before)
    params.t[:] = 7.0   # a move is made in place, through the view
    np.testing.assert_array_equal(params.x[params.dim:2 * params.dim], 7.0)
    with pytest.raises(AttributeError, match="no field 'log_r'"):
        params.log_r


def test_params_keyword_constructor_copies():
    mu, t = np.zeros(2), np.ones(2)
    params = VariationalParams.of("mvi_lr", mu, [0.5], t=t, v=[2.0, 3.0])
    assert not np.shares_memory(params.x, mu) and not np.shares_memory(params.x, t)
    np.testing.assert_array_equal(params.x, [0.0, 0.0, 1.0, 1.0, 2.0, 3.0, 0.5])


@pytest.mark.parametrize("how", ("pickle", "deepcopy"))
@pytest.mark.parametrize("family", FAMILIES)
def test_params_pickle_and_deepcopy_without_a_hook(family, how, cauchy_model):
    # the frozen record round-trips as it is; only __getattr__'s refusal of
    # dunder names keeps unpickling from recursing
    assert not {"__reduce__", "__reduce_ex__", "__setstate__"} & set(vars(VariationalParams))
    params = initialise(family, _lap(cauchy_model), seed=4)
    back = pickle.loads(pickle.dumps(params)) if how == "pickle" else copy.deepcopy(params)
    assert type(back) is VariationalParams and back.x is not params.x
    assert (back.family, back.dim, back.x.tobytes()) == (params.family, params.dim,
                                                         params.x.tobytes())
    for name in ("mu", *FAMILY_SPECS[family].fields, "theta"):
        np.testing.assert_array_equal(getattr(back, name), getattr(params, name))
        assert getattr(back, name).base is back.x


# ---------------------------------------------------------------------------
# covariance roots and entropies
# ---------------------------------------------------------------------------

def test_initial_roots_all_reproduce_laplace_covariance(cauchy_model):
    # every mvi family starts exactly at the curvature Gaussian
    lap = _lap(cauchy_model)
    target = lap.cov
    for family in ("mvi_mu", "mvi_eig"):
        root = FAMILY_SPECS[family].root(initialise(family, lap), lap)
        np.testing.assert_allclose(root @ root.T, target, rtol=1.0e-12)
    diag = FAMILY_SPECS["vi_diag"].root(initialise("vi_diag", lap), lap)
    np.testing.assert_allclose(np.diag(diag @ diag.T), np.diag(target), rtol=1.0e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_entropy_matches_slogdet(family, cauchy_model):
    rng = np.random.default_rng(8)
    lap = _lap(cauchy_model)
    params = initialise(family, lap, seed=1)
    # move off the initial point so the test is not about initialisation
    if family == "mvi_eig":
        params.log_r[:] += 0.3 * rng.standard_normal(params.dim)
    elif family == "mvi_lr":
        params.t[:] = rng.standard_normal(params.dim)
        params.v[:] = 0.5 * rng.standard_normal(params.dim)
    elif family == "vi_diag":
        params.log_sigma[:] += 0.4 * rng.standard_normal(params.dim)
    root = FAMILY_SPECS[family].root(params, lap)
    _, logdet = np.linalg.slogdet(root @ root.T)
    expected = params.dim * HALF_LOG_2PIE + 0.5 * logdet
    assert entropy(params, lap) == pytest.approx(expected, rel=1.0e-12)


def test_rank_one_entropy_uses_determinant_lemma_safely(cauchy_model):
    lap = _lap(cauchy_model)
    params = initialise("mvi_lr", lap, seed=2)
    # choose t = -q / (v' q) so that 1 + v' t = 0 exactly
    q = np.ones(params.dim)
    params.v[:] = 1.0
    params.t[:] = -q / float(params.v @ q)
    with pytest.raises(NumericalError, match="singular"):
        entropy(params, lap)


def test_mvi_mu_reads_the_laplace_factor_and_its_log_det(cauchy_model):
    # no copy of C per evaluation, and the entropy adds the Laplace fit's
    # log_det to P (1/2) ln(2 pi e), bit for bit
    lap = _lap(cauchy_model)
    params = initialise("mvi_mu", lap)
    assert FAMILY_SPECS["mvi_mu"].root(params, lap) is lap.chol
    assert entropy(params, lap) == params.dim * variational._HALF_LOG_2PIE + lap.log_det


# ---------------------------------------------------------------------------
# the eigen family's root in the Laplace frame
# ---------------------------------------------------------------------------

def test_eigen_remap_is_orthogonal(cauchy_model):
    # A = diag(1/r0) Q' C in mvi_eig's root Q diag(r) A: orthogonal, so the
    # root keeps the covariance Q diag(r^2) Q' and |det A| = 1
    lap = _lap(cauchy_model)
    a = variational._eig_frame(lap)
    np.testing.assert_allclose(a @ a.T, np.eye(lap.dim), atol=1.0e-10)
    params = initialise("mvi_eig", lap)
    params.log_r[:] += 0.3
    root = FAMILY_SPECS["mvi_eig"].root(params, lap)
    np.testing.assert_allclose(root @ root.T, (lap.eigvecs * np.exp(2.0 * params.log_r))
                               @ lap.eigvecs.T, atol=1.0e-10)


def test_eigen_family_shares_sample_paths_at_laplace_scales(cauchy_model):
    # Q diag(r0) A z = C z: the eigen family at its start visits exactly
    # the points the Cholesky families visit on the same draws
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(50, lap.dim, seed=9)
    paths = {family: samples.z @ FAMILY_SPECS[family].root(initialise(family, lap, seed=1), lap).T
             for family in ("mvi_mu", "mvi_eig")}
    np.testing.assert_allclose(paths["mvi_eig"], paths["mvi_mu"], atol=1.0e-10)


@pytest.mark.parametrize("maker", [make_cauchy, make_logistic, make_softmax, make_conjugate])
def test_eigen_root_is_the_cholesky_factor_at_its_start(maker):
    # R = C at the Laplace scales
    lap = _lap(maker())
    root = FAMILY_SPECS["mvi_eig"].root(initialise("mvi_eig", lap), lap)
    np.testing.assert_allclose(root, lap.chol, rtol=0.0, atol=1.0e-12)


def test_initial_elbos_agree_across_mvi_families(cauchy_model):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(100, lap.dim, seed=10)
    vals = [elbo_and_gradient(initialise(f, lap), samples, cauchy_model, lap)[0]
            for f in ("mvi_mu", "mvi_eig")]
    assert vals[0] == pytest.approx(vals[1], abs=1.0e-9)


# ---------------------------------------------------------------------------
# bound values and gradients
# ---------------------------------------------------------------------------

def test_single_sample_bound_is_value_at_mean_plus_entropy(cauchy_model):
    # S = 1 centres the draw to zero, so the sample term collapses to the
    # log posterior at mu
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(1, lap.dim, seed=0)
    params = initialise("mvi_mu", lap)
    expected = cauchy_model.value(params.mu) + entropy(params, lap)
    assert elbo_and_gradient(params, samples, cauchy_model, lap)[0] == \
        pytest.approx(expected, rel=1.0e-12)


def test_elbo_exact_for_conjugate_model():
    # whitened draws make the quadratic sample average exact, so the bound
    # at the true posterior equals the true log evidence
    model = make_conjugate(seed=5, n=12, p=3)
    mean, _ = model.exact_posterior()
    lap = laplace_approximation(model, mean)
    samples = draw_fixed_samples(50, 3, seed=3)
    params = initialise("mvi_mu", lap)
    assert elbo_and_gradient(params, samples, model, lap)[0] == \
        pytest.approx(model.log_evidence(), abs=1.0e-9)


def _perturbed(family, lap, rng):
    """A family's start moved off the Laplace fit in every block of x, theta too."""
    params = initialise(family, lap, seed=3)
    params.mu[:] += 0.2 * rng.standard_normal(params.dim)
    params.theta[:] += 0.1 * rng.standard_normal(params.theta.size)
    if family == "mvi_eig":
        params.log_r[:] += 0.2 * rng.standard_normal(params.dim)
    elif family == "mvi_lr":
        params.t[:] = 0.3 * rng.standard_normal(params.dim)
        params.v[:] = 0.3 * rng.standard_normal(params.dim)
    elif family == "vi_diag":
        params.log_sigma[:] += 0.2 * rng.standard_normal(params.dim)
    return params


@pytest.mark.parametrize("family", FAMILIES)
def test_elbo_gradient_matches_finite_differences(family, cauchy_model):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(40, lap.dim, seed=11)
    # perturb away from the stationary start
    params = _perturbed(family, lap, np.random.default_rng(12))

    _, grad = elbo_and_gradient(params, samples, cauchy_model, lap)

    def f(x):
        return elbo_and_gradient(VariationalParams(family=family, x=x, dim=params.dim),
                                 samples, cauchy_model, lap)[0]

    fd = finite_difference_gradient(f, params.x)
    np.testing.assert_allclose(grad, fd, rtol=5.0e-6, atol=1.0e-7)


def _per_draw_bound(params, samples, model, lap):
    """The bound and its gradient from per-draw gradients: W = mu + z R',
    ``model.evaluate``, sample means, and each family's contraction of g
    with its draws z written out, plus the entropy's terms."""
    z = samples.z
    n = z.shape[0]
    R = FAMILY_SPECS[params.family].root(params, lap)
    moved = model.with_theta(params.theta) if params.theta.size else model
    vals, g, theta_g = moved.evaluate(params.mu[None, :] + z @ R.T)
    value = vals.mean() + entropy(params, lap)
    blocks = [g.mean(axis=0)]
    if params.family == "mvi_eig":   # R = Q diag(r) A
        r = np.exp(params.log_r)
        a = variational._eig_frame(lap)
        blocks.append(((g @ lap.eigvecs) * (z @ a.T)).mean(axis=0) * r + 1.0)
    elif params.family == "vi_diag":
        sigma = np.exp(params.log_sigma)
        blocks.append((g * z).mean(axis=0) * sigma + 1.0)
    elif params.family == "mvi_lr":   # R = C + u v', u = C t
        t, v = params.t, params.v
        s = 1.0 + v @ t
        blocks.append(lap.chol.T @ np.einsum("s,sp->p", z @ v, g) / n + v / s)
        blocks.append(np.einsum("s,sp->p", g @ (lap.chol @ t), z) / n + t / s)
    blocks.append(theta_g.mean(axis=0))
    return value, np.concatenate(blocks)


ORACLE_MODELS = {"cauchy": make_cauchy, "binary": make_logistic,
                 "conjugate": make_conjugate, "softmax": make_softmax,
                 "mixture2d": MixtureTarget2D}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", ORACLE_MODELS)
def test_elbo_and_gradient_match_per_draw_oracle(name, family):
    # the projected pass (Cauchy, binary, conjugate) and the sampled route
    # (softmax, the mixture) against the per-draw computation, theta moved
    model = ORACLE_MODELS[name]()
    lap = _lap(model)
    # raw draws: their mean and second moment are not 0 and I, so the
    # prior's terms in z-bar and z'z / S are checked too
    samples = FixedDraws(np.random.default_rng(17).standard_normal((60, lap.dim)))
    params = _perturbed(family, lap, np.random.default_rng(18))
    if name in ("cauchy", "binary", "softmax"):
        assert not np.array_equal(params.theta, lap.theta)
    at_mode = model.value(lap.mean)
    want_value, want_grad = _per_draw_bound(params, samples, model, lap)
    value, grad = elbo_and_gradient(params, samples, model, lap)
    assert value == pytest.approx(want_value, rel=1.0e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1.0e-12)
    assert model.value(lap.mean) == at_mode   # the caller's model never moves


def test_elbo_raises_on_nonfinite_values(cauchy_model):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(10, lap.dim, seed=0)
    params = initialise("mvi_mu", lap)
    params.theta[:] = [800.0, 0.0, 0.0]   # exp overflows
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError):
            elbo_and_gradient(params, samples, cauchy_model, lap)


# ---------------------------------------------------------------------------
# initialisation and warm starts
# ---------------------------------------------------------------------------

def test_diag_starts_at_the_laplace_diagonal(cauchy_model):
    lap = _lap(cauchy_model)
    a = initialise("vi_diag", lap)
    np.testing.assert_allclose(np.exp(2 * a.log_sigma), np.diag(lap.cov),
                               rtol=1.0e-12)


def _lr_noise(dim, seed):
    """u and v of the rank-one start C + u v', as ``initialise`` draws them."""
    rng = np.random.default_rng(seed)
    return 0.1 * rng.standard_normal(dim), 0.1 * rng.standard_normal(dim)


def test_lr_initialisation_scale(cauchy_model):
    # the start C + u v' with u, v small noise, balanced on its gauge:
    # (C t) v' = u v' and |t| = |v|
    lap = _lap(cauchy_model)
    params = initialise("mvi_lr", lap, seed=21)
    u, v = _lr_noise(lap.dim, seed=21)
    np.testing.assert_allclose(np.outer(lap.chol @ params.t, params.v), np.outer(u, v),
                               rtol=1.0e-12)
    np.testing.assert_allclose(np.linalg.norm(params.t), np.linalg.norm(params.v),
                               rtol=1.0e-12)


@pytest.mark.parametrize("name", ("cauchy", "binary", "softmax", "conjugate"))
def test_lr_start_solve_matches_solve_triangular(name):
    # t v' = C^-1 u v' by a general solve, against triangular substitution
    # on C, and the start balanced at |t| = |v|
    lap = _lap(ORACLE_MODELS[name]())
    params = initialise("mvi_lr", lap, seed=6)
    u, v = _lr_noise(lap.dim, seed=6)
    np.testing.assert_allclose(np.outer(params.t, params.v),
                               np.outer(solve_triangular(lap.chol, u, lower=True), v),
                               rtol=1.0e-12)
    np.testing.assert_allclose(np.linalg.norm(params.t), np.linalg.norm(params.v),
                               rtol=1.0e-12)


def test_lr_start_on_a_singular_factor_is_a_numerical_error(cauchy_model):
    lap = _lap(cauchy_model)
    lap.chol[1, 1] = 1.0e-320   # C^-1 u overflows
    with pytest.raises(NumericalError, match="not finite"):
        initialise("mvi_lr", lap)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_improves_on_initial_bound(cauchy_model):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(80, lap.dim, seed=14)
    for family in FAMILIES:
        start = initialise(family, lap, seed=0)
        init_val = elbo_and_gradient(start, samples, cauchy_model, lap)[0]
        fit = fit_family(cauchy_model, lap, samples, start, OptimConfig(max_iters=300))
        assert fit.elbo >= init_val - 1.0e-10
        assert fit.family == family
        assert fit.elbo == pytest.approx(
            elbo_and_gradient(fit.params, samples, cauchy_model, lap)[0],
            rel=1.0e-12)


@pytest.mark.parametrize("name", sorted(ALL_MODEL_MAKERS))
@pytest.mark.parametrize("family", FAMILIES)
def test_fit_elbo_is_the_bound_at_its_params(name, family):
    # a fit's reported bound needs no recompute: it is the bound at its params, to the bit
    model = ALL_MODEL_MAKERS[name]()
    lap = _lap(model)
    samples = draw_fixed_samples(60, lap.dim, seed=8)
    fit = fit_family(model, lap, samples, initialise(family, lap, seed=1),
                     OptimConfig(max_iters=100))
    assert fit.elbo == elbo_and_gradient(fit.params, samples, model, lap)[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_result_is_the_fitted_gaussian(family, cauchy_model):
    # mean a copy of the fitted mu, root the spec's root of the fitted
    # parameters, bit for bit; mvi_mu's is the Laplace factor itself
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(40, lap.dim, seed=3)
    fit = fit_family(cauchy_model, lap, samples, initialise(family, lap, seed=1),
                     OptimConfig(max_iters=20))
    root = FAMILY_SPECS[family].root(fit.params, lap)
    assert fit.root.shape == root.shape and fit.root.tobytes() == root.tobytes()
    assert fit.mean.tobytes() == fit.params.mu.tobytes()
    assert not np.shares_memory(fit.mean, fit.params.x)
    assert fit.dim == fit.params.dim == lap.dim
    if family == "mvi_mu":
        assert fit.root is lap.chol


def test_fits_share_the_callers_draws(cauchy_model):
    # every family reads the caller's FixedDraws itself: its moments and
    # work buffers are formed by the first fit and kept by the other three
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(40, lap.dim, seed=3)
    cfg = OptimConfig(max_iters=5)
    phi, theta = cauchy_model.phi, cauchy_model.theta
    assert "moments" not in samples.__dict__
    fit_family(cauchy_model, lap, samples, initialise("mvi_eig", lap), cfg)
    moments, work = samples.__dict__["moments"], samples.work(cauchy_model.N)
    for family in ("mvi_mu", "mvi_lr", "vi_diag"):
        fit_family(cauchy_model, lap, samples, initialise(family, lap), cfg)
    assert samples.moments is moments
    assert samples.work(cauchy_model.N) is work
    # the fits moved theta on copies: the caller's model keeps its features
    assert cauchy_model.phi is phi
    np.testing.assert_array_equal(cauchy_model.theta, theta)


def test_fit_deterministic(cauchy_model):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(50, lap.dim, seed=15)
    cfg = OptimConfig(max_iters=100)
    a = fit_family(cauchy_model, lap, samples, initialise("mvi_lr", lap, seed=7), cfg)
    b = fit_family(cauchy_model, lap, samples, initialise("mvi_lr", lap, seed=7), cfg)
    np.testing.assert_array_equal(a.params.x, b.params.x)
    assert a.elbo == b.elbo


def test_richer_families_dominate_at_optimum(cauchy_model):
    # nesting: with shared samples the eigen fit can only improve on the
    # free-mean fit it is warm-started from, and rank-one likewise
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(100, lap.dim, seed=16)
    cfg = OptimConfig(max_iters=500)
    fit_mu = fit_family(cauchy_model, lap, samples, initialise("mvi_mu", lap), cfg)
    for family in ("mvi_eig", "mvi_lr"):
        fit = fit_family(cauchy_model, lap, samples,
                         warm_start(family, fit_mu.params, lap, seed=2), cfg)
        assert fit.elbo >= fit_mu.elbo - 1.0e-8


# ---------------------------------------------------------------------------
# whitened coordinates
# ---------------------------------------------------------------------------

def _negated_bound(params, samples, model, lap):
    def fun(x):
        value, grad = elbo_and_gradient(
            VariationalParams(family=params.family, x=x, dim=params.dim), samples, model, lap)
        return -value, -grad
    return fun


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_fits_whitened(family, cauchy_model):
    # one fitting path: the fit is the whitened minimiser of the negated bound
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(60, lap.dim, seed=7)
    cfg = OptimConfig(max_iters=40)
    params = initialise(family, lap, seed=3)
    fit = fit_family(cauchy_model, lap, samples, params, cfg)
    fun, x0 = _negated_bound(params, samples, cauchy_model, lap), params.x
    direct = _Whitened(fun, x0, fun(x0), lap.chol, params.theta.size).minimize(cfg)
    np.testing.assert_array_equal(fit.opt.x, direct.x)
    np.testing.assert_array_equal(fit.params.x, direct.x)
    assert fit.elbo == -direct.f
    assert (fit.opt.n_evals, fit.opt.grad_norm) == (direct.n_evals, direct.grad_norm)


def test_a_non_finite_start_is_an_error_before_any_probe(cauchy_model, monkeypatch):
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(10, lap.dim, seed=0)
    params = initialise("mvi_lr", lap)
    params.theta[:] = [800.0, 0.0, 0.0]   # exp overflows
    calls = []
    real = elbo_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(variational, "elbo_and_gradient", counted)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="not finite at the initial point"):
            fit_family(cauchy_model, lap, samples, params)
    assert len(calls) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_whitened_gradient_matches_finite_differences(family, cauchy_model):
    # the gradient T' g the minimiser sees, against differences of the bound in y
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(40, lap.dim, seed=11)
    params = _perturbed(family, lap, np.random.default_rng(19))
    fun = _negated_bound(params, samples, cauchy_model, lap)
    x0 = params.x
    whitened = _Whitened(fun, x0, fun(x0), lap.chol, params.theta.size)
    assert whitened.scales.size == 3 and not np.array_equal(whitened.scales, np.ones(3))
    whitened(np.zeros(x0.size))   # the start, taken from ``fun(x0)``
    y = 0.05 * np.random.default_rng(20).standard_normal(x0.size)
    _, grad = whitened(y)
    fd = finite_difference_gradient(lambda v: fun(whitened.x(v))[0], y)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1.0e-5


@pytest.mark.parametrize("family", FAMILIES)
def test_whitened_fits_reach_the_raw_fits_bound_on_the_conjugate_oracle(family):
    # the raw reference: L-BFGS on the bound over x itself, from the same start
    model = make_conjugate(seed=5, n=12, p=3)
    lap = _lap(model)
    samples = draw_fixed_samples(200, lap.dim, seed=6)
    tight = OptimConfig(max_iters=5000, grad_tol=1.0e-10)
    params = initialise(family, lap)
    whitened = fit_family(model, lap, samples, params, tight)
    raw = minimize(_negated_bound(params, samples, model, lap), params.x, tight)
    assert abs(whitened.elbo + raw.f) < 1.0e-8
    if family != "vi_diag":   # the exact posterior is in these families
        assert abs(whitened.elbo - model.log_evidence()) < 1.0e-8


@pytest.mark.parametrize("name", ("cauchy", "softmax", "conjugate"))
@pytest.mark.parametrize("family", FAMILIES)
def test_reported_grad_norm_is_the_raw_gradient_at_the_fit(name, family):
    model = ORACLE_MODELS[name]()
    lap = _lap(model)
    samples = draw_fixed_samples(60, lap.dim, seed=8)
    fit = fit_family(model, lap, samples, initialise(family, lap, seed=1),
                     OptimConfig(max_iters=60))
    _, grad = elbo_and_gradient(fit.params, samples, model, lap)
    assert fit.opt.grad_norm == float(np.max(np.abs(grad)))
    # the fit's parameters are the minimiser's point itself, every name a view of it
    assert fit.params.x is fit.opt.x
    for name in ("mu", *FAMILY_SPECS[family].fields, "theta"):
        assert getattr(fit.params, name).base is fit.opt.x


def test_whitened_fit_counts_the_curvature_probes(cauchy_model, monkeypatch):
    # n_evals counts every evaluation of the bound: the start once, each probe, each trial
    lap = _lap(cauchy_model)
    samples = draw_fixed_samples(60, lap.dim, seed=8)
    calls = []
    real = elbo_and_gradient

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(variational, "elbo_and_gradient", counted)
    fit = fit_family(cauchy_model, lap, samples, initialise("mvi_mu", lap),
                     OptimConfig(max_iters=20))
    assert fit.opt.n_evals == len(calls)


def test_theta_scales_come_from_the_curvature():
    # f = sum c_j x_j^2 / 2 over the last three coordinates: s_j = 1 / sqrt(c_j)
    # where c_j > 0, and 1 where the curvature is zero, negative or not finite
    def fun(x):
        c = np.array([4.0, 0.25, -1.0])
        g = np.concatenate([[x[0]], c * x[1:]])
        return 0.5 * float(x @ g), g

    x0 = np.array([1.0, 0.5, -2.0, 3.0])
    scales = _theta_scales(fun, x0, fun(x0)[1], 3)
    np.testing.assert_allclose(scales, [0.5, 2.0, 1.0], rtol=1.0e-9)
    assert _theta_scales(fun, x0, fun(x0)[1], 0).size == 0

    def flat_then_broken(x):
        if x[1] != x0[1]:
            return np.inf, np.full(x.size, np.nan)   # a probe outside the usable region
        return 0.0, np.zeros(x.size)

    np.testing.assert_array_equal(_theta_scales(flat_then_broken, x0, np.zeros(4), 3),
                                  np.ones(3))
