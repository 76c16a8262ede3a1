import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mvipkg import cli
from mvipkg.errors import ConfigError

SMALL = [
    "--config", "grid.basis_sizes=[5]", "--config", "grid.n_pairs=4",
    "--config", "grid.search_iters=5", "--config", "optim.max_iters=150",
    "--config", "n_boot=200", "--samples", "100",
]
# benchmark also scores a classification split with fewer posterior draws
SMALL_SCORED = SMALL + ["--eval-samples", "200"]
# a fit's required flags; the file is never read when a setting is bad
FIT = ["--data", "missing.csv", "--method", "laplace"]


def _write_regression_csv(tmp_path, n=25, seed=0, name="toy.csv"):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=n)
    y = np.sin(2.0 * x) + 0.1 * rng.standard_normal(n)
    path = tmp_path / name
    lines = ["x,y"] + [f"{repr(float(a))},{repr(float(b))}"
                       for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_fmt_round_trippable():
    assert cli._fmt(None) == ""
    assert cli._fmt(0.1) == "0.1"
    assert float(cli._fmt(1.0 / 3.0)) == 1.0 / 3.0
    assert cli._fmt(7) == "7"
    assert cli._fmt("vi") == "vi"


def test_dump_json_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.dump_json(a, {"z": 1, "a": [2.5, None]})
    cli.dump_json(b, {"a": [2.5, None], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_parse_methods():
    assert cli._parse_methods("all") == list(cli.bench.METHODS)
    assert cli._parse_methods("laplace, mvi_mu") == ["laplace", "mvi_mu"]
    assert cli._parse_methods("mvi_lr,") == ["mvi_lr"]


def test_load_config_args_layering(tmp_path):
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"seed": 3, "optim": {"max_iters": 10}}))
    merged = cli.load_config_args([str(f), "seed=9", "optim.grad_tol=0.5"])
    assert merged == {"seed": 9, "optim": {"max_iters": 10, "grad_tol": 0.5}}


def test_load_config_args_unwraps_reports(tmp_path):
    f = tmp_path / "report.json"
    f.write_text(json.dumps({"config": {"seed": 4}, "records": []}))
    assert cli.load_config_args([str(f)]) == {"seed": 4}


def test_load_config_args_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config_args(["/missing/conf.json"])
    with pytest.raises(ConfigError, match="not found"):   # a directory
        cli.load_config_args([str(tmp_path)])
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        cli.load_config_args([str(bad)])
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42")
    with pytest.raises(ConfigError, match="object"):
        cli.load_config_args([str(scalar)])


def test_effective_config_precedence():
    cfg = cli.effective_config("cauchy", {"seed": 5}, {"seed": 9})
    assert cfg["seed"] == 9 and cfg["n_runs"] == 100
    cfg = cli.effective_config("cauchy", {"seed": 5}, {"seed": None})
    assert cfg["seed"] == 5
    # only the settings the command reads, without the command itself
    cfg = cli.effective_config("demo2d", {"n_runs": 3, "command": "demo2d"}, {})
    assert set(cfg) == {"seed", "n_samples", "optim", "contour_resolution",
                        "ellipse_mass"}
    with pytest.raises(ConfigError, match="command"):
        cli.effective_config("demo2d", {"command": "cauchy"}, {})
    # a report's own keys pass; any other unknown key is refused by name,
    # the ones reports carried before the CLI wrote their config included
    cli.effective_config("cauchy", {"command": "cauchy", "out": "o"}, {})
    for key in ("n_sample", "dataset", "indices_path"):
        with pytest.raises(ConfigError, match=key):
            cli.effective_config("cauchy", {key: 5}, {})


def test_grid_and_optim_from_config_errors():
    with pytest.raises(ConfigError, match=r"grid\.basis_sizes"):
        cli._grid_from({"basis_sizes": ["many"]}, "grid")
    with pytest.raises(ConfigError, match=r"optim\.max_iters"):
        cli._optim_from({"max_iters": "lots"}, "optim")
    with pytest.raises(ConfigError, match=r"optim\.step"):
        cli._optim_from({"step": 1.0}, "optim")


# ---------------------------------------------------------------------------
# demo2d
# ---------------------------------------------------------------------------

def test_demo2d_outputs(tmp_path, capsys):
    out = tmp_path / "demo"
    code = cli.main(["demo2d", "--samples", "200", "--seed", "0",
                     "--config", "contour_resolution=41",
                     "--config", "optim.max_iters=300",
                     "--out", str(out)])
    assert code == 0
    for name in ("report.json", "timing.json", "kl.json", "contours.csv",
                 "ellipses.csv"):
        assert (out / name).exists(), name
    kl = json.loads((out / "kl.json").read_text())
    assert set(kl) == {"laplace", "mvi_mu", "mvi_eig", "mvi_lr"}
    assert all(np.isfinite(v) and v >= 0.0 for v in kl.values())
    report = json.loads((out / "report.json").read_text())
    assert "arrays" not in report
    assert "timing" not in report
    assert report["config"]["command"] == "demo2d"
    contours = (out / "contours.csv").read_text().splitlines()
    assert contours[0] == "x,y,log_density"
    assert len(contours) == 1 + 41 * 41
    ellipses = (out / "ellipses.csv").read_text().splitlines()
    assert ellipses[0] == "method,kind,x,y"
    kinds = {line.split(",")[1] for line in ellipses[1:]}
    assert kinds == {"mean", "ellipse"}
    assert "demo2d" in capsys.readouterr().out


def test_demo2d_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["demo2d", "--samples", "200",
            "--config", "contour_resolution=41",
            "--config", "optim.max_iters=300"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(["demo2d", "--config", str(out1 / "report.json"),
                     "--out", str(out2)]) == 0
    for name in ("report.json", "kl.json", "contours.csv", "ellipses.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# cauchy
# ---------------------------------------------------------------------------

def test_cauchy_single_run(tmp_path, capsys):
    out = tmp_path / "c"
    code = cli.main(["cauchy", "--splits", "1", "--methods", "laplace",
                     "--config", "n_train=20", "--config", "n_test=40",
                     "--out", str(out)] + SMALL)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["n_runs"] == 1
    assert report["config"]["methods"] == ["laplace"]
    assert report["n_completed"] == 1
    rec = report["records"][0]["methods"]["laplace"]
    assert set(rec) == {"lpd", "mse", "elbo", "n_iters", "n_evals",
                        "stop_reason", "grad_norm"}
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "metric,laplace"
    assert table[1].startswith("lpd,") and table[2].startswith("mse,")
    assert float(table[1].split(",")[1]) == report["medians"]["laplace"]["lpd"]
    out_text = capsys.readouterr().out
    assert "cauchy: 1 runs completed" in out_text
    search = report["records"][0]["search"]
    assert (f"cauchy: mode converged in {int(search['mode_converged'])}/1 splits; "
            f"{search['grid_failed']} grid candidates failed") in out_text.splitlines()


def test_cauchy_rerun_from_report_byte_identical(tmp_path):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    args = ["cauchy", "--splits", "2", "--methods", "laplace,mvi_mu",
            "--config", "n_train=20", "--config", "n_test=40",
            "--seed", "1", "--out", str(out1)] + SMALL
    assert cli.main(args) == 0
    assert cli.main(["cauchy", "--config", str(out1 / "report.json"),
                     "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


def test_cauchy_accepts_an_older_report_with_n_eval(tmp_path):
    # a regression suite draws nothing to score, so cauchy does not read
    # n_eval, and a report that carries it reruns to the same files
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert cli.main(["cauchy", "--splits", "1", "--methods", "laplace",
                     "--config", "n_train=20", "--config", "n_test=40",
                     "--out", str(out1)] + SMALL) == 0
    old = json.loads((out1 / "report.json").read_text())
    assert "n_eval" not in old["config"]
    old["config"]["n_eval"] = 200
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert cli.main(["cauchy", "--config", str(tmp_path / "old.json"),
                     "--out", str(out2)]) == 0
    for name in ("report.json", "table.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_on_csv(tmp_path, capsys):
    data = _write_regression_csv(tmp_path)
    out = tmp_path / "b"
    code = cli.main(["benchmark", "--data", str(data), "--splits", "2",
                     "--train-fraction", "0.6", "--methods", "laplace,vi_diag",
                     "--out", str(out)] + SMALL_SCORED)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["task"] == "regression" and report["config"]["task"] is None
    assert report["config"]["data"] == [str(data)]
    assert report["n_completed"] == 2
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "metric,laplace,vi_diag"
    converged = sum(r["search"]["mode_converged"] for r in report["records"])
    failed = sum(r["search"]["grid_failed"] for r in report["records"])
    assert (f"benchmark[{data}]: mode converged in {converged}/2 splits; "
            f"{failed} grid candidates failed") in capsys.readouterr().out.splitlines()


def test_benchmark_rerun_byte_identical(tmp_path):
    data = _write_regression_csv(tmp_path)
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    args = ["benchmark", "--data", str(data), "--splits", "1",
            "--train-fraction", "0.6", "--methods", "laplace",
            "--out", str(out1)] + SMALL_SCORED
    assert cli.main(args) == 0
    assert cli.main(["benchmark", "--config", str(out1 / "report.json"),
                     "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()


def test_benchmark_multiple_datasets_use_subdirs(tmp_path):
    d1 = _write_regression_csv(tmp_path, seed=1, name="one.csv")
    d2 = _write_regression_csv(tmp_path, seed=2, name="two.csv")
    out = tmp_path / "multi"
    code = cli.main(["benchmark", "--data", str(d1), "--data", str(d2),
                     "--splits", "1", "--train-fraction", "0.6",
                     "--methods", "laplace", "--out", str(out)] + SMALL_SCORED)
    assert code == 0
    assert (out / "one" / "report.json").exists()
    assert (out / "two" / "report.json").exists()


def test_benchmark_with_split_file(tmp_path):
    data = _write_regression_csv(tmp_path, n=10)
    splits = tmp_path / "splits.txt"
    splits.write_text("1 2 3 4 5 6 7\n2 3 4 5 6 7 8\n")
    out = tmp_path / "bs"
    code = cli.main(["benchmark", "--data", str(data),
                     "--splits-file", str(splits), "--methods", "laplace",
                     "--out", str(out)] + SMALL_SCORED)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # the file sets the splits, so the random splits' settings are null
    assert report["n_completed"] + report["n_skipped"] == 2
    assert report["config"]["n_splits"] is None
    assert report["config"]["train_fraction"] is None
    assert report["config"]["splits_file"] == str(splits)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_writes_artifacts_and_curve(tmp_path, capsys):
    data = _write_regression_csv(tmp_path)
    out = tmp_path / "f"
    code = cli.main(["fit", "--data", str(data), "--method", "mvi_eig",
                     "--config", "curve_points=11", "--out", str(out)] + SMALL)
    assert code == 0
    meta = json.loads((out / "fit.json").read_text())
    assert meta["config"]["method"] == "mvi_eig"
    assert np.isfinite(meta["elbo_estimate"])
    arrays = np.load(out / "fit_arrays.npz")
    assert {"la_mean", "la_chol", "centers", "mu", "log_r"} <= set(arrays.files)
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "x,mean,sd"
    assert len(curve) == 12
    sds = [float(line.split(",")[2]) for line in curve[1:]]
    assert all(s > 0 for s in sds)
    assert "fit[mvi_eig]" in capsys.readouterr().out


@pytest.mark.parametrize("method", ["laplace", "vi_diag"])
def test_fit_rerun_byte_identical(tmp_path, method):
    data = _write_regression_csv(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    args = ["fit", "--data", str(data), "--method", method,
            "--config", "curve_points=11", "--out", str(out1)] + SMALL
    assert cli.main(args) == 0
    assert cli.main(["fit", "--config", str(out1 / "fit.json"),
                     "--out", str(out2)]) == 0
    for name in ("fit.json", "fit_arrays.npz", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_fit_accepts_an_older_report_with_n_eval(tmp_path):
    # n_eval is a known setting that fit does not read, so a fit.json that
    # carries it reruns to the same files
    data = _write_regression_csv(tmp_path)
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert cli.main(["fit", "--data", str(data), "--method", "laplace",
                     "--config", "curve_points=11", "--out", str(out1)] + SMALL) == 0
    old = json.loads((out1 / "fit.json").read_text())
    assert "n_eval" not in old["config"]
    old["config"]["n_eval"] = 200
    (tmp_path / "old.json").write_text(json.dumps(old))
    assert cli.main(["fit", "--config", str(tmp_path / "old.json"),
                     "--out", str(out2)]) == 0
    for name in ("fit.json", "fit_arrays.npz", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_fit_classification_skips_curve(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(24)
    y = (x > 0).astype(int)
    data = tmp_path / "bin.csv"
    data.write_text("\n".join(f"{repr(float(a))},{int(b)}"
                              for a, b in zip(x, y)) + "\n")
    out = tmp_path / "fb"
    code = cli.main(["fit", "--data", str(data), "--method", "laplace",
                     "--out", str(out)] + SMALL)
    assert code == 0
    assert (out / "fit.json").exists()
    assert not (out / "curve.csv").exists()
    meta = json.loads((out / "fit.json").read_text())
    assert meta["task"] == "binary"


# ---------------------------------------------------------------------------
# what a report says of its settings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["demo2d", "cauchy", "benchmark", "fit"])
def test_report_config_holds_the_settings_once(tmp_path, command):
    # the CLI writes every setting the command read, and only those, under
    # "config"; the rest of the report holds outputs
    data = str(_write_regression_csv(tmp_path))
    argv = {
        "demo2d": ["--samples", "200", "--config", "contour_resolution=41",
                   "--config", "optim.max_iters=300"],
        "cauchy": ["--splits", "1", "--methods", "laplace", "--workers", "2",
                   "--config", "n_train=20", "--config", "n_test=40"] + SMALL,
        "benchmark": ["--data", data, "--splits", "1", "--train-fraction", "0.6",
                      "--methods", "laplace"] + SMALL_SCORED,
        "fit": ["--data", data, "--method", "laplace",
                "--config", "curve_points=11"] + SMALL,
    }[command]
    out = tmp_path / "o"
    assert cli.main([command, *argv, "--out", str(out)]) == 0
    report = json.loads((out / ("fit.json" if command == "fit" else "report.json"))
                        .read_text())
    config = report["config"]
    assert set(config) == set(cli._COMMANDS[command][2]) | {"command"}
    assert config["command"] == command
    if command in ("benchmark", "fit"):
        # the inferred task kind is an output; the setting stays null
        assert report["task"] == "regression" and config["task"] is None
        assert config["data"] == [data]
    # no other key of the report repeats a setting
    assert set(report) & set(config) <= {"task"}
    if command == "cauchy":
        # the requested worker count, not the one used (capped at one split)
        assert config["n_workers"] == 2
        assert json.loads((out / "timing.json").read_text())["n_workers"] == 1
    if command == "benchmark":
        assert config["n_workers"] is None


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_error(tmp_path):
    out = tmp_path / "x"
    code = cli.main(["cauchy", "--splits", "1", "--methods", "bogus",
                     "--out", str(out)] + SMALL)
    assert code == 2


@pytest.mark.parametrize("argv, key", [
    (["--samples", "0"], "n_samples"),
    (["--samples", "-5"], "n_samples"),
    (["--eval-samples", "0"], "n_eval"),
    (["--workers", "0"], "n_workers"),
    (["--workers", "-2"], "n_workers"),
    (["--config", "n_samples=0"], "n_samples"),
    (["--config", "n_eval=-1"], "n_eval"),
    (["--config", "n_workers=0"], "n_workers"),
    (["--splits", "0"], "n_runs"),
    (["--splits", "-3"], "n_runs"),
    (["--config", "n_boot=0"], "n_boot"),
    (["--config", "grid.n_pairs=0"], "grid.n_pairs"),
    (["--config", "grid.basis_sizes=[]"], "grid.basis_sizes"),
    (["--config", "grid.basis_sizes=[10, 0]"], "grid.basis_sizes"),
    (["--config", "grid.search_iters=-1"], "grid.search_iters"),
    (["--config", "grid.final_iters=2.5"], "grid.final_iters"),
    (["--config", "optim.max_iters=0"], "optim.max_iters"),
    (["--config", "optim.grad_tol=-1"], "optim.grad_tol"),
    (["--config", "grid=5"], "grid"),
    (["--seed", "-1"], "seed"),
    (["--config", "seed=1.5"], "seed"),
    (["--config", 'seed="abc"'], "seed"),
    (["--config", "alpha=2"], "alpha"),
    (["--config", "alpha=0"], "alpha"),
    (["--config", "n_train=0"], "n_train"),
    (["--config", "n_test=0"], "n_test"),
    (["--config", "methods=5"], "methods"),
    (["--config", 'methods="laplace"'], "methods"),
    (["--config", "n_sample=5"], "n_sample"),
    (["--config", "grid.n_pair=3"], "grid.n_pair"),
    (["--config", "optim.gradtol=1e-3"], "optim.gradtol"),
], ids=["samples-0", "samples-neg", "eval-samples-0", "workers-0", "workers-neg",
        "config-samples", "config-eval", "config-workers", "splits-0", "splits-neg",
        "config-boot", "grid-pairs-0", "grid-sizes-empty", "grid-sizes-0",
        "grid-search-neg", "grid-final-float", "optim-iters-0", "optim-grad-tol-neg",
        "grid-not-object", "seed-neg",
        "config-seed-float", "config-seed-string", "config-alpha-2", "config-alpha-0",
        "config-train-0", "config-test-0", "config-methods-number",
        "config-methods-string", "config-unknown-key", "config-unknown-grid-key",
        "config-unknown-optim-key"])
def test_exit_code_bad_count(tmp_path, capsys, argv, key):
    # n_eval is benchmark's alone, and is checked before the data are read
    command = ["benchmark", "--data", "missing.csv"] if key == "n_eval" else ["cauchy"]
    code = cli.main(command + ["--splits", "1", "--out", str(tmp_path / "x")] + argv)
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("source", ["1e-9", "NaN", "Infinity", "report"])
def test_optim_f_tol_is_refused(tmp_path, capsys, source):
    # fits stop on their gradient test alone: optim.f_tol is an unknown key,
    # set by hand or carried by the config of a report written while it was
    # a setting
    if source == "report":
        path = tmp_path / "report.json"
        config = dict(cli.effective_config("cauchy", {}, {}), command="cauchy")
        cli.dump_json(path, {"config": config, "records": []})
        payload = json.loads(path.read_text())
        payload["config"]["optim"]["f_tol"] = 1.0e-9
        path.write_text(json.dumps(payload))
        argv = ["--config", str(path)]
    else:
        argv = ["--config", f"optim.f_tol={source}"]
    code = cli.main(["cauchy", "--splits", "1", "--out", str(tmp_path / "x")] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "optim.f_tol" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("source", ["100", "report"])
def test_grid_final_iters_is_refused(tmp_path, capsys, source):
    # the final mode search runs under optim: grid.final_iters is an unknown
    # key, set by hand or carried by the config of an older report
    if source == "report":
        path = tmp_path / "report.json"
        config = dict(cli.effective_config("cauchy", {}, {}), command="cauchy")
        cli.dump_json(path, {"config": config, "records": []})
        payload = json.loads(path.read_text())
        payload["config"]["grid"]["final_iters"] = 1000
        path.write_text(json.dumps(payload))
        argv = ["--config", str(path)]
    else:
        argv = ["--config", f"grid.final_iters={source}"]
    code = cli.main(["cauchy", "--splits", "1", "--out", str(tmp_path / "x")] + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "unknown config key(s) grid.final_iters" in err
    assert not (tmp_path / "x").exists()


def test_exit_code_bad_count_in_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_workers": -3}))
    assert cli.main(["cauchy", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "n_workers" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv, key", [
    ("benchmark", ["--splits", "0"], "n_splits"),
    ("benchmark", ["--splits", "-3"], "n_splits"),
    ("benchmark", ["--config", "n_splits=0"], "n_splits"),
    ("benchmark", ["--config", "n_boot=0"], "n_boot"),
    ("cauchy", ["--config", "n_runs=0"], "n_runs"),
    ("cauchy", {"n_runs": 0}, "n_runs"),
    ("cauchy", {"n_runs": -3}, "n_runs"),
    ("cauchy", {"n_boot": 0}, "n_boot"),
    ("benchmark", {"n_splits": 0}, "n_splits"),
    ("benchmark", {"n_splits": -3}, "n_splits"),
    ("benchmark", {"n_boot": 0}, "n_boot"),
    ("benchmark", ["--config", "grid.n_pairs=0"], "grid.n_pairs"),
    ("benchmark", {"grid": {"basis_sizes": []}}, "grid.basis_sizes"),
    ("cauchy", {"optim": {"max_iters": 0}}, "optim.max_iters"),
    ("demo2d", ["--config", "optim.grad_tol=-1"], "optim.grad_tol"),
    ("demo2d", ["--config", "ellipse_mass=1.5"], "ellipse_mass"),
    ("demo2d", ["--config", "ellipse_mass=0"], "ellipse_mass"),
    ("demo2d", {"ellipse_mass": 1}, "ellipse_mass"),
    ("demo2d", {"optim": [1]}, "optim"),
    ("benchmark", ["--config", "train_fraction=1.5"], "train_fraction"),
    ("benchmark", ["--config", 'train_fraction="abc"'], "train_fraction"),
    ("benchmark", {"data": 5}, "data"),
    ("fit", FIT + ["--config", "seed=-2"], "seed"),
    ("fit", FIT + ["--config", "curve_points=0"], "curve_points"),
    ("fit", FIT + ["--config", 'curve_points="abc"'], "curve_points"),
    ("fit", FIT + ["--data", "b.csv"], "data"),
    ("fit", {"data": ["a.csv", "b.csv"], "method": "laplace"}, "data"),
    ("demo2d", ["--config", 'contour_resolution="abc"'], "contour_resolution"),
    ("benchmark", ["--data", "a/x.csv", "--data", "b/x.csv"], "stem(s) ['x']"),
    ("benchmark", ["--data", "a/x.csv", "--data", "a/x.csv"], "stem(s) ['x']"),
    ("benchmark", {"command": "benchmark", "dataset": "x.csv", "indices_path": None},
     "dataset"),
    ("benchmark", ["--splits-file", "s.txt", "--splits", "5"], "n_splits"),
    ("benchmark", {"splits_file": "s.txt", "train_fraction": 0.7}, "train_fraction"),
    ("benchmark", {"n_splits": None}, "n_splits"),
], ids=["bench-splits-0", "bench-splits-neg", "bench-config-splits", "bench-config-boot",
        "config-runs", "file-runs-0", "file-runs-neg", "file-boot", "bench-file-splits-0",
        "bench-file-splits-neg", "bench-file-boot", "bench-grid-pairs-0",
        "bench-file-grid-sizes", "file-optim-iters", "demo-grad-tol-neg",
        "demo-ellipse-mass-high", "demo-ellipse-mass-0", "demo-file-ellipse-mass-1",
        "demo-file-optim-not-object", "bench-train-fraction-high",
        "bench-train-fraction-string", "bench-file-data-number", "fit-seed-neg",
        "fit-curve-points-0", "fit-curve-points-string", "fit-two-data",
        "fit-file-two-data", "demo-contour-string", "bench-data-same-stem",
        "bench-data-same-path", "bench-file-old-report-key", "bench-splits-beside-file",
        "bench-file-fraction-beside-file", "bench-file-splits-null"])
def test_exit_code_bad_run_count(tmp_path, capsys, command, argv, key):
    # every setting a command reads (counts, seed, fractions, methods, paths,
    # the grid and optim settings) is checked before any data is read or any
    # split is fitted, from flags, --config and files; two datasets of one
    # file stem would write to the same output subdirectory
    data = (["--data", str(tmp_path / "missing.csv")]
            if command == "benchmark" and "data" not in argv else [])
    if isinstance(argv, dict):   # a config file
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv))
        argv = ["--config", str(path)]
    code = cli.main([command, "--out", str(tmp_path / "x")] + data + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "x").exists()


def test_exit_code_command_mismatch(tmp_path):
    out1 = tmp_path / "a"
    assert cli.main(["demo2d", "--samples", "200",
                     "--config", "contour_resolution=41",
                     "--out", str(out1)]) == 0
    code = cli.main(["cauchy", "--config", str(out1 / "report.json"),
                     "--out", str(tmp_path / "b")])
    assert code == 2


def test_exit_code_data_error(tmp_path):
    code = cli.main(["benchmark", "--data", "/missing/file.csv",
                     "--out", str(tmp_path / "x")] + SMALL_SCORED)
    assert code == 3


@pytest.mark.parametrize("command, flag, content, code", [
    ("fit", "--data", b"x,y\xe9\n1,2\n3,4\n", 3),
    ("benchmark", "--splits-file", b"1 2\xe9\n", 3),
    ("cauchy", "--config", b'{"seed": "\xe9"}', 2),
], ids=["fit-data", "benchmark-splits-file", "cauchy-config"])
def test_exit_code_file_not_utf8(tmp_path, capsys, command, flag, content, code):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(content)
    argv = {"fit": ["--method", "laplace"],
            "benchmark": ["--data", str(_write_regression_csv(tmp_path)), "--methods", "laplace"],
            "cauchy": []}[command]
    assert cli.main([command, flag, str(bad), *argv, "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert "UTF-8" in err and str(bad) in err


@pytest.mark.parametrize("content, message", [
    (b"x,y\n1,2\n3,abc\n", "non-numeric field"),
    (b"x,y\xe9\n1,2\n3,4\n", "not UTF-8"),
    (b"x,y\n1,2\n3,inf\n", "non-finite number"),
], ids=["non-numeric", "not-utf8", "non-finite"])
def test_data_error_leaves_no_output_directory(tmp_path, capsys, content, message):
    # the output directory is made with the first artefact, so a command
    # that fails on its input leaves nothing behind
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    out = tmp_path / "p1"
    assert cli.main(["fit", "--data", str(bad), "--method", "laplace", "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_missing_required(tmp_path):
    assert cli.main(["fit", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["benchmark", "--out", str(tmp_path / "y")]) == 2


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["demo2d", "--workers", "2"],
    ["demo2d", "--eval-samples", "10"],
    ["fit", "--workers", "2"],
    ["fit", "--eval-samples", "10"],
    ["cauchy", "--eval-samples", "10"],
], ids=["demo-workers", "demo-eval-samples", "fit-workers", "fit-eval-samples",
        "cauchy-eval-samples"])
def test_subcommands_take_only_their_own_flags(tmp_path, argv):
    # a flag for a setting the command does not read is a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_seed_override_changes_results(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["cauchy", "--splits", "1", "--methods", "laplace",
            "--config", "n_train=20", "--config", "n_test=40"] + SMALL
    assert cli.main(base + ["--seed", "0", "--out", str(out1)]) == 0
    assert cli.main(base + ["--seed", "1", "--out", str(out2)]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1["config"]["seed"] == 0 and r2["config"]["seed"] == 1
    assert r1["records"] != r2["records"]


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_pool_reports_do_not_depend_on_the_parent_blas_threads(tmp_path):
    # the pool's processes pin BLAS to one thread before numpy loads, so
    # parents started at different BLAS thread counts write the same report
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        argv = ["cauchy", "--splits", "2", "--workers", "2", "--methods", "laplace,mvi_mu",
                "--config", "n_train=20", "--config", "n_test=40", "--out", str(out)]
        run = subprocess.run([sys.executable, "-m", "mvipkg.cli", *argv, *SMALL], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert json.loads((out / "timing.json").read_text())["n_workers"] == 2
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_cli_import_loads_no_pool_and_no_scipy():
    # every `mvi` process and every pool process imports the CLI: the pool's
    # machinery loads only when a suite starts one, scipy and logging never,
    # and numpy.polynomial only when a quadrature (the regression lpd, the
    # demo's KL) first needs its nodes
    code = ("import sys, mvipkg.cli; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'multiprocessing', 'concurrent', 'scipy', 'logging'}"
            " | {m for m in sys.modules if m.startswith('numpy.polynomial')}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_import_leaves_out_heavy_scipy_modules():
    # every `mvi` process and every pool process pays for what it imports, and
    # any scipy submodule loads scipy._lib._array_api, which brings in
    # numpy.testing, unittest, numpy.f2py and numpy.ma. No scipy module may
    # load, neither on import nor during one split of every method: the split
    # catches an import deferred into the fitting or scoring code
    code = "\n".join([
        "import sys, mvipkg.cli",
        "from mvipkg import bench, data, laplace, optimize",
        "def scipy_modules():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "print(scipy_modules())",
        "train, test = data.generate_cauchy_task(0, n_train=20, n_test=40)",
        "grid = laplace.GridConfig(basis_sizes=(5,), n_pairs=2, search_iters=5)",
        "bench.run_split(train, test, n_samples=50, n_eval=100, grid=grid,",
        "                optim=optimize.OptimConfig(max_iters=30))",
        "print(scipy_modules())",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:2] == ["[]", "[]"]
