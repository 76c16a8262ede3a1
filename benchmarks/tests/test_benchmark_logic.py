"""Tests of the benchmark's own logic: spans, oracle, checks and smoke runs.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# self time of nested spans
# ---------------------------------------------------------------------------

def test_self_times_subtract_children_once():
    spans = [["bench.root", 0.0, 10.0, -1],
             ["laplace.a", 1.0, 4.0, 0],
             ["models.b", 2.0, 3.0, 1],
             ["evaluate.c", 5.0, 9.0, 0]]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_as_their_union():
    spans = [["bench.root", 0.0, 10.0, -1],
             ["models.a", 1.0, 4.0, 0],
             ["models.b", 3.0, 6.0, 0],
             ["models.c", 8.0, 12.0, 0]]  # runs past its parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_links_parents_and_self_times_add_up():
    tracer = tracing.Tracer()
    inner = tracer.span("models.inner", lambda: sum(range(1000)))
    outer = tracer.span("laplace.outer", lambda: [inner() for _ in range(3)])
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["laplace.outer"] + ["models.inner"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 0]
    root = tracer.spans[0]
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root[2] - root[1])


# ---------------------------------------------------------------------------
# the Cauchy oracle
# ---------------------------------------------------------------------------

def test_expected_cauchy_lpd_matches_quadrature():
    a, gamma = 0.5, 0.3
    e = np.linspace(-a, a, 400_001)
    log_density = -np.log(np.pi * gamma) - np.log1p((e / gamma) ** 2)
    mean = np.trapezoid(log_density, e) / (2 * a)
    assert checks.expected_cauchy_lpd(gamma, a) == pytest.approx(mean, abs=1e-9)


def test_oracle_is_the_maximum_of_the_closed_form():
    best, gamma = checks.cauchy_oracle_lpd(0.5)
    assert best == pytest.approx(-0.467, abs=5e-4)
    assert gamma == pytest.approx(0.214, abs=5e-4)
    r = 0.5 / gamma
    assert math.atan(r) == pytest.approx(r / 2, abs=1e-12)
    grid = np.linspace(0.05, 2.0, 4000)
    assert max(checks.expected_cauchy_lpd(g, 0.5) for g in grid) <= best + 1e-12


# ---------------------------------------------------------------------------
# checks reject wrong reports
# ---------------------------------------------------------------------------

def _cauchy_methods(lpd, mse=0.12):
    return {m: {"lpd": lpd + d, "mse": mse}
            for m, d in zip(("laplace", "mvi_mu", "mvi_eig", "mvi_lr", "vi_diag"),
                            (-0.45, -0.04, -0.03, 0.0, -0.06))}


def test_cauchy_checks_pass_a_plausible_report_and_fail_raised_lpds():
    y = inputs.cauchy_test_targets(7, 50, 1000)
    splits = [_cauchy_methods(v) for v in (-0.55, -0.51, -0.50, -0.58)]
    assert not checks.check_cauchy_medians(splits, 0.5)
    assert not any(checks.check_cauchy_split(s, y, 0.5) for s in splits)

    raised = [{m: {**r, "lpd": r["lpd"] + 0.2} for m, r in s.items()} for s in splits]
    assert checks.check_cauchy_medians(raised, 0.5)


def test_cauchy_checks_fail_impossible_mse_and_non_finite_lpd():
    y = inputs.cauchy_test_targets(7, 50, 1000)
    assert checks.check_cauchy_split(_cauchy_methods(-0.5, mse=0.05), y, 0.5)
    assert checks.check_cauchy_split(_cauchy_methods(-0.5, mse=10.0), y, 0.5)
    assert checks.check_cauchy_split(_cauchy_methods(-math.inf), y, 0.5)


def test_classification_checks():
    labels = np.array([0] * 60 + [1] * 40)
    good = {"laplace": {"lpd": -45.0, "error_rate": 0.2}}
    assert not checks.check_classification_split(good, labels, 2)
    for bad in ({"lpd": -45.0, "error_rate": 0.4},   # no better than majority
                {"lpd": -70.0, "error_rate": 0.2},   # below 100 ln(1/2)
                {"lpd": 0.2, "error_rate": 0.2},     # a log probability above 0
                {"lpd": math.nan, "error_rate": 0.2}):
        assert checks.check_classification_split({"laplace": bad}, labels, 2)


def test_split_rows_follow_the_package_protocol(tmp_path):
    from mvipkg import data

    X, y = inputs.multiclass_table(3, 60)
    path = tmp_path / "m.csv"
    inputs.write_csv(path, X, y)
    dataset = data.load_csv_dataset(path)
    splits = data.make_splits(dataset, data.SplitPlan(n_splits=2, train_fraction=0.25, seed=5))
    for i, (_, test, _) in enumerate(splits):
        rows = inputs.split_test_rows(60, 0.25, 5 + i)
        np.testing.assert_array_equal(test.y.argmax(axis=1), y[rows])


def test_cauchy_targets_follow_the_package_generator():
    from mvipkg import data

    _, test = data.generate_cauchy_task(seed=11, n_train=50, n_test=1000)
    np.testing.assert_array_equal(test.y, inputs.cauchy_test_targets(11, 50, 1000))


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

TINY = {
    "cauchy": replace(workloads.SPECS["cauchy"], n_splits=1, n_samples=64, n_eval=256),
    "multiclass_laplace": replace(workloads.SPECS["multiclass_laplace"], n_splits=1,
                                  n_rows=120, train_fraction=0.5, n_samples=64,
                                  n_eval=256),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_traced(name, tmp_path):
    wl = workloads.Workload(name, 1, tmp_path, spec=TINY[name])
    result = worker.measure(wl, 0.0, True, tmp_path / "trace.json")
    assert result["correct"] and result["attempted"] == 2, result
    assert result["failed"] == 0, result["problems"]
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == declared - {"setup.import_s", "setup.inputs_s"}
    layers = sum(result["metrics"][f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(result["metrics"]["trace.wall_s"], rel=0.01)
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_untraced(name, tmp_path):
    wl = workloads.Workload(name, 2, tmp_path, spec=TINY[name])
    result = worker.measure(wl, 0.0, False, tmp_path / "unused.json")
    assert result["correct"] and result["rounds"] == 1, result
    assert result["failed"] == 0, result["problems"]
    m = result["metrics"]
    assert m["wall_s"] > 0 and m["peak_rss_mb"] > 0
    assert 0 < m["nlpd_best"] <= m["nlpd_laplace"]


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cauchy",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
