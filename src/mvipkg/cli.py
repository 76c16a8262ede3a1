"""Command-line harness: demo2d | cauchy | benchmark | fit.

Every setting is one entry of ``_SETTINGS``: its default, its check and, if
it has one, its flag. ``_COMMANDS`` names the settings each command reads; a
subcommand takes ``--out``, ``--config`` and the flags of its own settings.
A setting comes from its default, then the config files, then its flag, and
every setting a command reads is checked before its output directory exists.

Reports go to --out as JSON plus CSV tables; ``write_report`` alone puts the
command and its full effective config under "config". Pointing --config at a
previous report.json reruns it and reproduces all emitted numbers (wall-clock
times live in timing.json, the one file that never reproduces).

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import bench, evaluate
from . import data as data_mod
from .errors import ConfigError, DataError, NumericalError
from .laplace import GridConfig
from .optimize import OptimConfig

_DEFAULT_OUT = "mvi-out"


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    """Full-precision, round-trippable CSV cell text."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def dump_json(path, payload):
    """Sorted, indented JSON; dataclasses (grid, optim) become objects."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=asdict)
        handle.write("\n")


def write_report(out_dir: Path, command: str, report: dict, config: dict):
    """``report`` with ``command`` and its effective ``config`` under "config",
    in fit.json for ``fit`` and report.json otherwise; "timing" goes to
    timing.json, the one file that does not reproduce."""
    report = dict(report, config={"command": command, **config})
    timing = report.pop("timing", None)
    dump_json(out_dir / ("fit.json" if command == "fit" else "report.json"), report)
    if timing is not None:
        dump_json(out_dir / "timing.json", timing)


def write_median_table(path, report, methods, metrics):
    rows = [[metric] + [report["medians"].get(m, {}).get(metric)
                        for m in methods]
            for metric in metrics]
    write_csv(path, ["metric"] + list(methods), rows)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _parse_literal(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _set_dotted(target: dict, dotted: str, value):
    parts = dotted.split(".")
    for part in parts[:-1]:
        nxt = target.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"config key {dotted!r} descends into a non-object")
        target = nxt
    target[parts[-1]] = value


def _deep_update(dst: dict, src: dict):
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_update(dst[key], value)
        else:
            dst[key] = value


def load_config_args(entries) -> dict:
    """Merge --config arguments: JSON files, prior reports, or key=value."""
    merged: dict = {}
    for entry in entries or []:
        path = Path(entry)
        if "=" in entry and not path.exists():
            key, _, raw = entry.partition("=")
            _set_dotted(merged, key.strip(), _parse_literal(raw))
            continue
        if not path.is_file():
            raise ConfigError(f"config file not found: {entry}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"{entry}: not valid JSON ({err})")
        if isinstance(payload, dict) and isinstance(payload.get("config"), dict):
            payload = payload["config"]
        if not isinstance(payload, dict):
            raise ConfigError(f"{entry}: config must be a JSON object")
        _deep_update(merged, payload)
    return merged


def _count(value, key: str) -> int:
    if type(value) is not int or value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _seed(value, key: str) -> int:
    if type(value) is not int or value < 0:
        raise ConfigError(f"{key} must be an integer >= 0, got {value!r}")
    return value


def _tolerance(value, key: str) -> float:
    if type(value) not in (int, float) or not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")
    return float(value)


def _fraction(value, key: str) -> float:
    if type(value) not in (int, float) or not 0.0 < value < 1.0:
        raise ConfigError(f"{key} must be a number in (0, 1), got {value!r}")
    return float(value)


def _path(value, key: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return value


def _paths(value, key: str) -> list:
    paths = [value] if isinstance(value, str) else value
    if not isinstance(paths, list) or not paths:
        raise ConfigError(f"{key} must be a path or a list of paths, got {value!r}")
    stems = [Path(_path(path, key)).stem for path in paths]
    shared = sorted({stem for stem in stems if stems.count(stem) > 1})
    if shared:   # a dataset's file stem names its output directory
        raise ConfigError(f"{key} paths share the file stem(s) {shared}; each "
                          "names one dataset's output directory")
    return paths


def _names(value, key: str) -> list:
    if not isinstance(value, list) or not value or not all(isinstance(m, str) for m in value):
        raise ConfigError(f"{key} must be a non-empty list of names, got {value!r}")
    return list(bench._check_methods(value))


def _one_of(choices):
    def check(value, key: str):
        if value not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {value!r}")
        return value
    return check


def _or_null(check):
    return lambda value, key: None if value is None else check(value, key)


def _object(value, known, key: str = "") -> dict:
    """``value``, an object whose keys all are in ``known``; ``key`` names it."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    unknown = [f"{key}.{k}" if key else k for k in value if k not in known]
    if unknown:
        raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
    return value


def _grid_from(value, key: str) -> GridConfig:
    g = _object(value, GridConfig.__dataclass_fields__, key)
    sizes = g.get("basis_sizes", GridConfig.basis_sizes)
    if not isinstance(sizes, (list, tuple)) or not sizes:
        raise ConfigError(f"{key}.basis_sizes must be a non-empty list, got {sizes!r}")
    return GridConfig(
        basis_sizes=tuple(_count(m, f"{key}.basis_sizes") for m in sizes),
        **{k: _count(g.get(k, getattr(GridConfig, k)), f"{key}.{k}")
           for k in ("n_pairs", "search_iters", "final_iters")})


def _optim_from(value, key: str) -> OptimConfig:
    o = _object(value, OptimConfig.__dataclass_fields__, key)
    return OptimConfig(
        max_iters=_count(o.get("max_iters", OptimConfig.max_iters), f"{key}.max_iters"),
        **{k: _tolerance(o.get(k, getattr(OptimConfig, k)), f"{key}.{k}")
           for k in ("grad_tol", "f_tol")})


def _parse_methods(raw: str) -> list:
    """The --methods flag: comma-separated names, or "all"."""
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    return list(bench.METHODS) if names == ["all"] else names


# setting: (default, check[, (flag, argparse keywords)]). A check takes the
# value and the key, raises ConfigError naming the key, and returns the value
# the command passes on.
_SETTINGS = {
    "seed": (0, _seed, ("--seed", dict(type=int, help="base seed (default 0)"))),
    "n_samples": (1000, _count, ("--samples", dict(
        type=int, metavar="S",
        help="fixed draws for the variational objectives (default 1000)"))),
    "n_eval": (10_000, _count, ("--eval-samples", dict(
        type=int, metavar="SP",
        help="posterior draws for predictive evaluation (default 10000)"))),
    "n_workers": (None, _or_null(_count), ("--workers", dict(
        type=int, help="worker processes for independent splits (default one "
                       "per usable core; 1 runs them in this process)"))),
    "methods": (list(bench.METHODS), _names, ("--methods", dict(
        type=_parse_methods,
        help="comma-separated subset of " + ",".join(bench.METHODS) + ", or all"))),
    "n_runs": (100, _count, ("--splits", dict(
        type=int, help="number of seeded runs (default 100)"))),
    "n_train": (50, _count),
    "n_test": (1000, _count),
    "n_splits": (100, _or_null(_count), ("--splits", dict(
        type=int, help="number of random splits (default 100; none with --splits-file)"))),
    "train_fraction": (0.7, _or_null(_fraction), ("--train-fraction", dict(
        type=float, help="training fraction (default 0.7; none with --splits-file)"))),
    "data": (None, _paths, ("--data", dict(
        action="append", metavar="PATH",
        help="dataset CSV (last column is the target); benchmark takes several"))),
    "splits_file": (None, _or_null(_path), ("--splits-file", dict(
        metavar="PATH", help="file of 1-based training indices, one split per line"))),
    "task": (None, _or_null(_one_of(data_mod.TASKS)), ("--task", dict(
        choices=data_mod.TASKS, help="override the inferred task kind"))),
    "method": (None, _one_of(bench.METHODS), ("--method", dict(
        choices=bench.METHODS, help="method to fit"))),
    "alpha": (0.05, _fraction),
    "n_boot": (10_000, _count),
    "grid": ({}, _grid_from),
    "optim": ({}, _optim_from),
    "curve_points": (201, _count),
    "contour_resolution": (201, _count),
    "ellipse_mass": (0.70, _fraction),
}
_REPORT_KEYS = ("command", "out")   # beside the settings
_RANDOM_SPLITS = ("n_splits", "train_fraction")   # null when a splits file sets the splits


def effective_config(command: str, file_config: dict, overrides: dict) -> dict:
    """The settings ``command`` reads, each checked: defaults < config files <
    flags (an override of None is no flag). Other settings are dropped; a key
    that is neither a setting nor a report's is refused. A splits file sets
    the splits, so benchmark's ``_RANDOM_SPLITS`` are then null, and stating
    either beside it is refused; without a splits file neither may be null."""
    _object(file_config, (*_SETTINGS, *_REPORT_KEYS))
    stated = file_config.get("command")
    if stated is not None and stated != command:
        raise ConfigError(
            f"config is for command {stated!r} but {command!r} was invoked")
    config = {}
    for key in _COMMANDS[command][2]:
        default, check = _SETTINGS[key][:2]
        flag = overrides.get(key)
        config[key] = check(file_config.get(key, default) if flag is None else flag, key)
    if command == "fit" and len(config["data"]) != 1:
        raise ConfigError(f"fit takes one data path, got {config['data']!r}")
    for key in _RANDOM_SPLITS if command == "benchmark" else ():
        if config["splits_file"] is None:
            if config[key] is None:
                raise ConfigError(f"{key} must be set unless a splits_file is")
        elif overrides.get(key) is not None or file_config.get(key) is not None:
            raise ConfigError(f"{key} must be null beside a splits_file, which sets the splits")
        else:
            config[key] = None
    return config


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_suite(out_dir: Path, command: str, report: dict, config: dict, kind: str,
                 label: str, unit: str):
    """A suite's report, timing and median table, and its two summary lines;
    the task ``kind`` picks the table's error metric."""
    write_report(out_dir, command, report, config)
    write_median_table(out_dir / "table.csv", report, config["methods"],
                       ("lpd", bench.error_metric(kind)))
    print(f"{label}: {report['n_completed']} {unit} completed, {report['n_skipped']} "
          f"skipped; medians in {out_dir / 'table.csv'}")
    searches = [r["search"] for r in report["records"]]
    print(f"{label}: mode converged in {sum(s['mode_converged'] for s in searches)}/"
          f"{len(searches)} splits; {sum(s['grid_failed'] for s in searches)} "
          "grid candidates failed")


def cmd_demo2d(config: dict, out_dir: Path) -> int:
    report = bench.run_demo2d(**config)
    arrays = report.pop("arrays")
    dump_json(out_dir / "kl.json", report["kl"])
    write_csv(out_dir / "contours.csv", ["x", "y", "log_density"],
              arrays["contours"].tolist())
    rows = []
    for method in ("laplace",) + bench.DEMO_FAMILIES:
        mx, my = arrays["means"][method]
        rows.append([method, "mean", float(mx), float(my)])
        rows.extend([method, "ellipse", float(x), float(y)]
                    for x, y in arrays["ellipses"][method])
    write_csv(out_dir / "ellipses.csv", ["method", "kind", "x", "y"], rows)
    write_report(out_dir, "demo2d", report, config)
    print(f"demo2d: KL " + ", ".join(f"{k}={v:.4f}" for k, v in report["kl"].items()))
    return 0


def cmd_cauchy(config: dict, out_dir: Path) -> int:
    _write_suite(out_dir, "cauchy", bench.run_cauchy(**config), config, "regression",
                 "cauchy", "runs")
    return 0


def cmd_benchmark(config: dict, out_dir: Path) -> int:
    plan = data_mod.SplitPlan(
        n_splits=config["n_splits"], train_fraction=config["train_fraction"],
        seed=config["seed"], indices_path=config["splits_file"])
    multi = len(config["data"]) > 1
    for path in config["data"]:
        dataset = data_mod.load_csv_dataset(path, task=config["task"], name=path)
        report = bench.run_benchmark(
            dataset, plan=plan, **{key: config[key] for key in _SUITE if key != "seed"})
        target = out_dir / Path(path).stem if multi else out_dir
        target.mkdir(parents=True, exist_ok=True)
        _write_suite(target, "benchmark", report, dict(config, data=[path]),
                     report["task"], f"benchmark[{dataset.name}]", "splits")
    return 0


def cmd_fit(config: dict, out_dir: Path) -> int:
    path = config["data"][0]
    dataset = data_mod.load_csv_dataset(path, task=config["task"], name=path)
    meta, arrays, posterior, model = bench.run_fit(
        dataset, config["method"], seed=config["seed"], n_samples=config["n_samples"],
        grid=config["grid"], optim=config["optim"])
    np.savez(out_dir / "fit_arrays.npz", **arrays)
    write_report(out_dir, "fit", meta, config)
    made = ["fit.json", "fit_arrays.npz"]
    if dataset.kind == "regression" and dataset.n_features == 1:
        x = np.linspace(dataset.X.min(), dataset.X.max(), config["curve_points"])
        mean, sd = evaluate.predictive_curve(
            posterior, model, x, n_samples=config["n_eval"],
            seed=config["seed"] + bench.SALT_EVAL)
        write_csv(out_dir / "curve.csv", ["x", "mean", "sd"],
                  zip(x.tolist(), mean.tolist(), sd.tolist()))
        made.append("curve.csv")
    print(f"fit[{config['method']}]: elbo {meta['elbo_estimate']:.6f}; "
          f"wrote {', '.join(made)} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# the settings of the two split suites
_SUITE = ("methods", "seed", "n_samples", "n_eval", "grid", "optim", "alpha",
          "n_boot", "n_workers")

# command: (runner, help, the settings it reads)
_COMMANDS = {
    "demo2d": (cmd_demo2d, "fit the 2-D mixture target and export contours, "
                           "ellipses, and numeric KLs",
               ("seed", "n_samples", "optim", "contour_resolution", "ellipse_mass")),
    "cauchy": (cmd_cauchy, "synthetic heavy-tail regression suite",
               _SUITE + ("n_runs", "n_train", "n_test")),
    "benchmark": (cmd_benchmark, "split-resampling benchmark on CSV datasets",
                  _SUITE + ("data", "task", "n_splits", "train_fraction", "splits_file")),
    "fit": (cmd_fit, "fit one method once and serialise it",
            ("data", "task", "method", "seed", "n_samples", "n_eval", "grid", "optim",
             "curve_points")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvi",
        description="Laplace-seeded Gaussian variational inference experiments")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, settings) in _COMMANDS.items():
        sub = commands.add_parser(command, help=help_text)
        sub.add_argument("--out", help=f"output directory (default {_DEFAULT_OUT})")
        sub.add_argument("--config", action="append", metavar="FILE|key=value",
                         help="JSON config file, a previous report.json, or a "
                              "dotted key=value override; repeatable")
        for key in settings:
            for flag, keywords in _SETTINGS[key][2:]:   # settings with a flag
                sub.add_argument(flag, dest=key, **keywords)
    return parser


def _dispatch(args) -> int:
    file_config = load_config_args(args.config)
    config = effective_config(args.command, file_config, vars(args))
    out_dir = Path(args.out or _path(file_config.get("out") or _DEFAULT_OUT, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[args.command][0](config, out_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
