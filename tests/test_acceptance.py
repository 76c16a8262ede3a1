"""Release gate: nine end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Each check states its measured numbers, so a failure documents itself.
Bounds are fixed numbers except criterion 4's lpd ceiling, which is derived
from the data generator: the best expected lpd any Cauchy predictive can
reach on the generator's uniform noise, even with the true curve.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq

from mvipkg import bench, cli
from mvipkg import data as data_mod
from mvipkg.laplace import find_mode, laplace_approximation
from mvipkg.models import CauchyRegression
from mvipkg.optimize import OptimConfig
from mvipkg.stats import bootstrap_median_diff_ci, sign_test
from mvipkg.variational import (FAMILIES, VariationalParams, draw_fixed_samples,
                                elbo_and_gradient, entropy,
                                fit_family, initialise)
from mvipkg.evaluate import log_mean_exp
from mvipkg.variational import PosteriorGaussian

from makers import (ALL_MODEL_MAKERS, finite_difference_gradient, log_mean_exp_se,
                    make_conjugate, warm_start)


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float = None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f} s]" if elapsed is not None else ""
    print(f"\ncriterion {num} ({label}): {status}; {detail}{timing}")
    return ok


# ---------------------------------------------------------------------------
# 1. conjugate exactness
# ---------------------------------------------------------------------------

def test_criterion_1_conjugate_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    tight = OptimConfig(max_iters=5000, grad_tol=1.0e-11)
    worst_mean = worst_cov = worst_elbo = 0.0
    for trial in range(10):
        n = int(rng.integers(10, 51))
        p = int(rng.integers(2, 11))
        model = make_conjugate(seed=int(rng.integers(1 << 30)), n=n, p=p,
                               beta=float(rng.uniform(0.5, 3.0)),
                               alpha=float(rng.uniform(0.2, 2.0)))
        mean, cov = model.exact_posterior()

        mode = find_mode(model, np.zeros(p), tight)
        lap = laplace_approximation(model, mode.x)
        err_mean = np.linalg.norm(lap.mean - mean) / np.linalg.norm(mean)
        err_cov = np.linalg.norm(lap.cov - cov) / np.linalg.norm(cov)
        worst_mean = max(worst_mean, err_mean)
        worst_cov = max(worst_cov, err_cov)

        samples = draw_fixed_samples(200, p, seed=trial)
        fit = fit_family(model, lap, samples, "mvi_lr", seed=trial)
        worst_elbo = max(worst_elbo, abs(fit.elbo - model.log_evidence()))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1.0e-8 and worst_cov < 1.0e-8 and worst_elbo < 1.0e-3 \
        and elapsed < 10.0
    detail = (f"max rel err mean {worst_mean:.2e}, cov {worst_cov:.2e} "
              f"(need < 1e-8); max |elbo - ln Z| {worst_elbo:.2e} (need < 1e-3)")
    assert _verdict(1, "conjugate exactness", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 2. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    worst_at = ""
    for model_name, maker in sorted(ALL_MODEL_MAKERS.items()):
        model = maker()
        mode = find_mode(model, np.zeros(model.P))
        lap = laplace_approximation(model, mode.x)
        samples = draw_fixed_samples(50, model.P, seed=2)
        for family in FAMILIES:
            for point in range(5):
                params = initialise(family, lap, seed=3)
                params.mu[:] += 0.2 * rng.standard_normal(params.dim)
                if params.theta.size:
                    params.theta[:] += 0.1 * rng.standard_normal(params.theta.size)
                if family == "mvi_eig":
                    params.log_r[:] += 0.2 * rng.standard_normal(params.dim)
                elif family == "mvi_lr":
                    params.t[:] = 0.3 * rng.standard_normal(params.dim)
                    params.v[:] = 0.3 * rng.standard_normal(params.dim)
                elif family == "vi_diag":
                    params.log_sigma[:] += 0.2 * rng.standard_normal(params.dim)

                _, grad = elbo_and_gradient(params, samples, model, lap)
                fd = finite_difference_gradient(
                    lambda x: elbo_and_gradient(VariationalParams.wrap(family, x, params.dim),
                                                samples, model, lap)[0],
                    params.x)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd),
                                                      1.0e-6)
                if rel > worst:
                    worst = rel
                    worst_at = f"{model_name}/{family}/point {point}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0e-5 and elapsed < 30.0
    detail = f"max rel gradient err {worst:.2e} at {worst_at} (need < 1e-5)"
    assert _verdict(2, "gradient suite", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 3. 2-D demonstration ordering
# ---------------------------------------------------------------------------

def test_criterion_3_demo_ordering():
    t0 = time.perf_counter()
    report = bench.run_demo2d(seed=0, n_samples=1000)
    kl = report["kl"]
    elapsed = time.perf_counter() - t0
    chain = ("mvi_lr", "mvi_eig", "mvi_mu", "laplace")
    gaps = [kl[chain[i + 1]] - kl[chain[i]] for i in range(3)]
    ok = all(g >= -1.0e-3 for g in gaps) and elapsed < 120.0
    detail = ("KL " + " <= ".join(f"{name} {kl[name]:.4f}" for name in chain)
              + f"; min gap {min(gaps):.2e} (need >= -1e-3)")
    assert _verdict(3, "2-D demo ordering", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 4. heavy-tail regression desk-scale medians
# ---------------------------------------------------------------------------

def _cauchy_oracle_lpd(half_width: float) -> tuple[float, float]:
    """Best expected test lpd of a Cauchy predictive on uniform noise.

    For noise uniform on [-a, a] around the true curve, a Cauchy(gamma)
    density centred on that curve has expected log density

        -ln(pi gamma) - ln(1 + r^2) + 2 - 2 atan(r) / r,   r = a / gamma.

    Its derivative in r vanishes where atan(r) = r / 2, so the best scale is
    gamma* = a / r* and the maximum is -ln(pi gamma*) - ln(1 + r*^2) + 1.
    Returns (maximum, gamma*). A draw whose curve misses the true one only
    lowers the expectation, so no posterior draw beats this value on
    average; nor does the regression lpd, the joint test-set lpd over the
    number of test points, which is at most the best draw's average.
    """
    r = brentq(lambda t: math.atan(t) - 0.5 * t, 1.0, 10.0, xtol=1.0e-14)
    gamma = half_width / r
    return -math.log(math.pi * gamma) - math.log1p(r * r) + 1.0, gamma


def test_criterion_4_cauchy_desk_scale():
    """Medians over 20 generated runs reproduce the paper's two claims.

    mvi_eig beats the Laplace baseline by at least 0.03 and matches or beats
    factorised VI (vi_diag); mvi_lr predicts no worse than Laplace in MSE.
    The mvi_eig median lpd must lie between a -0.90 floor and the ceiling
    that the generator's own noise sets (:func:`_cauchy_oracle_lpd`); a median
    above that ceiling would mean the scoring is inflated.
    """
    t0 = time.perf_counter()
    report = bench.run_cauchy(n_runs=20, seed=0)
    med = report["medians"]
    elapsed = time.perf_counter() - t0
    half_width = data_mod.CAUCHY_NOISE_HALF_WIDTH
    ceiling, gamma_oracle = _cauchy_oracle_lpd(half_width)
    k_gamma = CauchyRegression.theta_names.index("log_gamma")
    gamma_la = float(np.median([math.exp(r["search"]["theta_la"][k_gamma])
                                for r in report["records"]]))
    gap = med["mvi_eig"]["lpd"] - med["laplace"]["lpd"]
    eig_lpd = med["mvi_eig"]["lpd"]
    diag_lpd = med["vi_diag"]["lpd"]
    clause_gap = gap >= 0.03
    clause_window = -0.90 <= eig_lpd <= ceiling
    clause_diag = eig_lpd >= diag_lpd
    clause_mse = med["mvi_lr"]["mse"] <= med["laplace"]["mse"]
    ok = clause_gap and clause_window and clause_diag and clause_mse \
        and elapsed < 900.0

    def state(clause):
        return "ok" if clause else "violated"

    detail = (
        f"eig-la lpd gap {gap:.3f} (need >= 0.03, {state(clause_gap)}); "
        f"eig median lpd {eig_lpd:.3f} (need in [-0.90, {ceiling:.3f}], "
        f"{state(clause_window)}); ceiling is the Cauchy oracle for noise "
        f"half-width {half_width}, peaking at gamma {gamma_oracle:.3f}; "
        f"median laplace gamma {gamma_la:.3f}; "
        f"eig vs diag lpd {eig_lpd:.3f} vs {diag_lpd:.3f} "
        f"(need eig >= diag, {state(clause_diag)}); "
        f"lr mse {med['mvi_lr']['mse']:.4f} vs la mse "
        f"{med['laplace']['mse']:.4f} ({state(clause_mse)}); "
        f"all lpd medians: " + ", ".join(
            f"{m} {med[m]['lpd']:.3f}" for m in bench.METHODS))
    assert _verdict(4, "heavy-tail desk scale", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 5. family-nesting monotonicity
# ---------------------------------------------------------------------------

def test_criterion_5_nesting_monotonicity():
    t0 = time.perf_counter()
    worst_drop = -np.inf
    worst_at = ""
    for model_name in ("cauchy", "logistic", "conjugate"):
        model = ALL_MODEL_MAKERS[model_name]()
        mode = find_mode(model, np.zeros(model.P))
        lap = laplace_approximation(model, mode.x)
        samples = draw_fixed_samples(200, model.P, seed=4)
        fit_mu = fit_family(model, lap, samples, "mvi_mu", seed=0)
        for family in ("mvi_eig", "mvi_lr"):
            warm = warm_start(family, fit_mu.params, lap, seed=1)
            at_start = elbo_and_gradient(warm, samples, model, lap)[0]
            refit = fit_family(model, lap, samples, family, init=warm)
            for stage, value in (("warm start", at_start),
                                 ("after refit", refit.elbo)):
                drop = fit_mu.elbo - value
                if drop > worst_drop:
                    worst_drop = drop
                    worst_at = f"{model_name}/{family}/{stage}"
    elapsed = time.perf_counter() - t0
    ok = worst_drop <= 1.0e-6
    detail = (f"worst elbo drop vs mvi_mu optimum {worst_drop:.2e} at "
              f"{worst_at} (need <= 1e-6)")
    assert _verdict(5, "family nesting", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 6. determinant lemma entropy
# ---------------------------------------------------------------------------

def test_criterion_6_determinant_lemma():
    rng = np.random.default_rng(5)
    half_log_2pie = 0.5 * (math.log(2.0 * math.pi) + 1.0)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        a = rng.standard_normal((p, p))
        chol = np.linalg.cholesky(a @ a.T + p * np.eye(p))
        u = 0.5 * rng.standard_normal(p)
        v = 0.5 * rng.standard_normal(p)
        params = VariationalParams("mvi_lr", np.zeros(p), np.zeros(0),
                                   t=np.linalg.solve(chol, u), v=v)   # C t = u
        fit = SimpleNamespace(chol=chol, log_det=float(np.sum(np.log(np.diag(chol)))))
        via_lemma = entropy(params, fit)   # C of a fit and its (1/2) ln det C C'
        sign, logdet = np.linalg.slogdet(chol + np.outer(u, v))
        direct = p * half_log_2pie + logdet
        worst = max(worst, abs(via_lemma - direct) / abs(direct))
    ok = worst < 1.0e-10
    detail = f"max rel entropy err {worst:.2e} over 100 draws (need < 1e-10)"
    assert _verdict(6, "determinant lemma", ok, detail), detail


# ---------------------------------------------------------------------------
# 7. statistics oracle
# ---------------------------------------------------------------------------

def test_criterion_7_statistics_oracle():
    worst = 0.0
    for n in range(1, 13):
        pmf = [math.comb(n, i) * 0.5 ** n for i in range(n + 1)]
        for k in range(n + 1):
            expected = min(1.0, 2.0 * min(sum(pmf[: k + 1]), sum(pmf[k:])))
            d = np.array([1.0] * k + [-1.0] * (n - k))
            got = sign_test(d)
            worst = max(worst, abs(got - expected))
    # exactly representable shift so a = b + c holds without rounding
    rng = np.random.default_rng(6)
    b = rng.integers(-50, 50, size=25).astype(float)
    c = 0.5
    lo, hi = bootstrap_median_diff_ci(b + c, b, n_boot=2000, seed=7)
    shift_exact = lo == c and hi == c
    ok = worst < 1.0e-12 and shift_exact
    detail = (f"max sign-test p deviation {worst:.2e} over all n <= 12; "
              f"constant-shift CI [{lo}, {hi}] vs [{c}, {c}]")
    assert _verdict(7, "statistics oracle", ok, detail), detail


# ---------------------------------------------------------------------------
# 8. Monte Carlo predictive-density estimator
# ---------------------------------------------------------------------------

def test_criterion_8_lpd_estimator():
    t0 = time.perf_counter()
    model = make_conjugate(seed=8, n=30, p=4)
    mean, cov = model.exact_posterior()
    post = PosteriorGaussian(mean=mean, root=np.linalg.cholesky(cov))
    rng = np.random.default_rng(9)
    phi_t = rng.standard_normal((8, 4))
    y_t = phi_t @ mean + 0.4 * rng.standard_normal(8)
    exact = model.test_log_marginal(phi_t, y_t)
    held_out = model.with_rows(phi_t, y_t)
    hits = 0
    for trial in range(100):
        z = np.random.default_rng(trial).standard_normal((10_000, 4))
        ll = held_out.score(post.mean, post.root, z)[1]
        value, se = log_mean_exp(ll), log_mean_exp_se(ll)
        if abs(value - exact) <= 3.0 * se:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = hits >= 95
    detail = f"{hits}/100 trials within 3 SE of the exact value (need >= 95)"
    assert _verdict(8, "lpd estimator", ok, detail, elapsed), detail


# ---------------------------------------------------------------------------
# 9. byte-for-byte CLI reruns
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    small = ["--config", "grid.basis_sizes=[5]", "--config", "grid.n_pairs=4",
             "--config", "grid.search_iters=5",
             "--config", "optim.max_iters=150", "--config", "n_boot=200",
             "--samples", "100"]
    scored = ["--eval-samples", "200"]   # the suites' held-out draws
    rng = np.random.default_rng(10)
    x = rng.uniform(-2.0, 2.0, size=25)
    y = np.sin(2.0 * x) + 0.1 * rng.standard_normal(25)
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(
        f"{repr(float(a))},{repr(float(b))}" for a, b in zip(x, y)) + "\n")

    jobs = {
        "demo2d": (["demo2d", "--samples", "200",
                    "--config", "contour_resolution=41",
                    "--config", "optim.max_iters=300"], "report.json"),
        "cauchy": (["cauchy", "--splits", "2", "--methods", "all",
                    "--config", "n_train=20", "--config", "n_test=40"] + small + scored,
                   "report.json"),
        "benchmark": (["benchmark", "--data", str(csv_path), "--splits", "2",
                       "--train-fraction", "0.6",
                       "--methods", "laplace,mvi_lr"] + small + scored, "report.json"),
        "fit": (["fit", "--data", str(csv_path), "--method", "mvi_eig",
                 "--config", "curve_points=11"] + small, "fit.json"),
    }
    mismatches = []
    checked = 0
    for name, (args, config_file) in jobs.items():
        first = tmp_path / name / "first"
        second = tmp_path / name / "second"
        assert cli.main(args + ["--out", str(first)]) == 0, name
        assert cli.main([args[0], "--config", str(first / config_file),
                         "--out", str(second)]) == 0, name
        for artifact in sorted(first.iterdir()):
            if artifact.name == "timing.json":
                continue  # wall-clock times, the one non-reproducible file
            checked += 1
            if artifact.read_bytes() != (second / artifact.name).read_bytes():
                mismatches.append(f"{name}/{artifact.name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and checked >= 10
    detail = (f"{checked} artifacts byte-identical across reruns of "
              f"{len(jobs)} commands" if ok else
              f"mismatched artifacts: {', '.join(mismatches)}")
    assert _verdict(9, "determinism", ok, detail, elapsed), detail
