"""Command-line harness: demo2d | cauchy | benchmark | fit.

Reports go to --out as JSON plus CSV tables. Every report embeds its full
effective config; pointing --config at a previous report.json reruns it and
reproduces all emitted numbers (wall-clock times live in timing.json, the
one file that never reproduces).

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

import argparse
import csv
import json
import math
import sys
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
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_report(out_dir: Path, report: dict):
    """report.json holds everything reproducible; timing.json the rest."""
    report = dict(report)
    timing = report.pop("timing", None)
    dump_json(out_dir / "report.json", report)
    if timing is not None:
        dump_json(out_dir / "timing.json", timing)


def write_median_table(path, report, metrics):
    methods = report["config"]["methods"]
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
        if not path.exists():
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


def _tolerance(value, key: str) -> float:
    if type(value) not in (int, float) or not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{key} must be a finite number >= 0, got {value!r}")
    return float(value)


def effective_config(command: str, defaults: dict, file_config: dict,
                     overrides: dict) -> dict:
    """defaults < config file < explicit flags; checks the command, the
    counts, the grid and optim settings and the ellipse mass."""
    config = json.loads(json.dumps(defaults))
    stated = file_config.get("command")
    if stated is not None and stated != command:
        raise ConfigError(
            f"config is for command {stated!r} but {command!r} was invoked")
    _deep_update(config, {k: v for k, v in file_config.items() if k != "command"})
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    for key in ("n_samples", "n_eval", "n_workers", "n_runs", "n_splits", "n_boot"):
        if key in config:
            _count(config[key], key)
    if "grid" in config:
        _grid_from(config)
    if "optim" in config:
        _optim_from(config)
    mass = config.get("ellipse_mass", 0.5)   # only demo2d has one
    if type(mass) not in (int, float) or not 0.0 < mass < 1.0:
        raise ConfigError(f"ellipse_mass must lie in (0, 1), got {mass!r}")
    config["command"] = command
    return config


def _grid_from(config: dict) -> GridConfig:
    g = config.get("grid", {})
    if not isinstance(g, dict):
        raise ConfigError(f"grid must be an object, got {g!r}")
    sizes = g.get("basis_sizes", GridConfig.basis_sizes)
    if not isinstance(sizes, (list, tuple)) or not sizes:
        raise ConfigError(f"grid.basis_sizes must be a non-empty list, got {sizes!r}")
    return GridConfig(
        basis_sizes=tuple(_count(m, "grid.basis_sizes") for m in sizes),
        **{k: _count(g.get(k, getattr(GridConfig, k)), f"grid.{k}")
           for k in ("n_pairs", "search_iters", "final_iters")})


def _optim_from(config: dict) -> OptimConfig:
    o = config.get("optim", {})
    if not isinstance(o, dict):
        raise ConfigError(f"optim must be an object, got {o!r}")
    return OptimConfig(
        max_iters=_count(o.get("max_iters", OptimConfig.max_iters), "optim.max_iters"),
        **{k: _tolerance(o.get(k, getattr(OptimConfig, k)), f"optim.{k}")
           for k in ("grad_tol", "f_tol")})


def _parse_methods(raw):
    if raw is None:
        return None
    if isinstance(raw, (list, tuple)):
        return list(raw)
    names = [tok.strip() for tok in raw.split(",") if tok.strip()]
    return list(bench.METHODS) if names == ["all"] else names


def _common_defaults() -> dict:
    return {
        "methods": list(bench.METHODS),
        "n_samples": 1000,
        "n_eval": 10_000,
        "seed": 0,
        "alpha": 0.05,
        "n_boot": 10_000,
        "n_workers": 1,
        "grid": bench._grid_dict(GridConfig()),
        "optim": bench._optim_dict(OptimConfig()),
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_demo2d(config: dict, out_dir: Path) -> int:
    report = bench.run_demo2d(
        seed=int(config["seed"]), n_samples=int(config["n_samples"]),
        optim=_optim_from(config),
        contour_resolution=int(config["contour_resolution"]),
        ellipse_mass=float(config["ellipse_mass"]))
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
    write_report(out_dir, report)
    print(f"demo2d: KL " + ", ".join(f"{k}={v:.4f}" for k, v in report["kl"].items()))
    return 0


def cmd_cauchy(config: dict, out_dir: Path) -> int:
    report = bench.run_cauchy(
        n_runs=int(config["n_runs"]), methods=tuple(config["methods"]),
        seed=int(config["seed"]), n_samples=int(config["n_samples"]),
        n_eval=int(config["n_eval"]), n_train=int(config["n_train"]),
        n_test=int(config["n_test"]), grid=_grid_from(config),
        optim=_optim_from(config), alpha=float(config["alpha"]),
        n_boot=int(config["n_boot"]), n_workers=int(config["n_workers"]))
    write_report(out_dir, report)
    write_median_table(out_dir / "table.csv", report, ("lpd", "mse"))
    done, skip = report["n_completed"], report["n_skipped"]
    print(f"cauchy: {done} runs completed, {skip} skipped; "
          f"medians in {out_dir / 'table.csv'}")
    return 0


def cmd_benchmark(config: dict, out_dir: Path) -> int:
    paths = config.get("data") or ([config["dataset"]] if config.get("dataset")
                                   else [])
    if not paths:
        raise ConfigError("benchmark needs --data PATH (or a config with one)")
    if isinstance(paths, str):
        paths = [paths]
    multi = len(paths) > 1
    for path in paths:
        dataset = data_mod.load_csv_dataset(path, task=config.get("task"),
                                            name=str(path))
        plan = data_mod.SplitPlan(
            n_splits=int(config["n_splits"]),
            train_fraction=float(config["train_fraction"]),
            seed=int(config["seed"]),
            indices_path=config.get("splits_file"))
        report = bench.run_benchmark(
            dataset, methods=tuple(config["methods"]), plan=plan,
            n_samples=int(config["n_samples"]), n_eval=int(config["n_eval"]),
            grid=_grid_from(config), optim=_optim_from(config),
            alpha=float(config["alpha"]), n_boot=int(config["n_boot"]),
            n_workers=int(config["n_workers"]))
        # carry the CLI-level keys a rerun needs but run_benchmark doesn't
        report["config"]["data"] = [str(path)]
        report["config"]["splits_file"] = config.get("splits_file")
        target = out_dir / Path(path).stem if multi else out_dir
        target.mkdir(parents=True, exist_ok=True)
        write_report(target, report)
        metric = "mse" if dataset.kind == "regression" else "error_rate"
        write_median_table(target / "table.csv", report, ("lpd", metric))
        done, skip = report["n_completed"], report["n_skipped"]
        print(f"benchmark[{dataset.name}]: {done} splits completed, "
              f"{skip} skipped; medians in {target / 'table.csv'}")
    return 0


def cmd_fit(config: dict, out_dir: Path) -> int:
    if not config.get("data"):
        raise ConfigError("fit needs --data PATH")
    if not config.get("method"):
        raise ConfigError("fit needs --method NAME")
    dataset = data_mod.load_csv_dataset(config["data"], task=config.get("task"),
                                        name=str(config["data"]))
    meta, arrays = bench.run_fit(
        dataset, config["method"], seed=int(config["seed"]),
        n_samples=int(config["n_samples"]), grid=_grid_from(config),
        optim=_optim_from(config))
    meta["config"] = config
    np.savez(out_dir / "fit_arrays.npz", **arrays)
    dump_json(out_dir / "fit.json", meta)
    made = ["fit.json", "fit_arrays.npz"]
    if dataset.kind == "regression" and dataset.n_features == 1:
        model, lap, posterior, params, samples = bench.load_fit(
            meta, arrays, dataset)
        x = np.linspace(dataset.X.min(), dataset.X.max(),
                        int(config["curve_points"]))
        mean, sd = evaluate.predictive_curve(
            posterior, model, x, n_samples=int(config["n_eval"]),
            seed=bench.derive_seed(int(config["seed"]), bench.SALT_EVAL))
        write_csv(out_dir / "curve.csv", ["x", "mean", "sd"],
                  zip(x.tolist(), mean.tolist(), sd.tolist()))
        made.append("curve.csv")
    print(f"fit[{config['method']}]: elbo {meta['elbo_estimate']:.6f}; "
          f"wrote {', '.join(made)} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub, methods=True, splits=None):
    sub.add_argument("--samples", type=int, metavar="S",
                     help="fixed draws for the variational objectives (default 1000)")
    sub.add_argument("--eval-samples", type=int, metavar="SP",
                     help="posterior draws for predictive evaluation (default 10000)")
    sub.add_argument("--seed", type=int, help="base seed (default 0)")
    sub.add_argument("--out", help=f"output directory (default {_DEFAULT_OUT})")
    sub.add_argument("--config", action="append", metavar="FILE|key=value",
                     help="JSON config file, a previous report.json, or a "
                          "dotted key=value override; repeatable")
    sub.add_argument("--workers", type=int,
                     help="worker threads for independent splits (default 1)")
    if methods:
        sub.add_argument("--methods",
                         help="comma-separated subset of " + ",".join(bench.METHODS))
    if splits:
        sub.add_argument("--splits", type=int, help=splits)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvi",
        description="Laplace-seeded Gaussian variational inference experiments")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("demo2d",
                            help="fit the 2-D mixture target and export contours, "
                                 "ellipses, and numeric KLs")
    _add_common(p, methods=False)

    p = commands.add_parser("cauchy",
                            help="synthetic heavy-tail regression suite")
    _add_common(p, splits="number of seeded runs (default 100)")

    p = commands.add_parser("benchmark",
                            help="split-resampling benchmark on CSV datasets")
    _add_common(p, splits="number of random splits (default 100)")
    p.add_argument("--data", action="append", metavar="PATH",
                   help="dataset CSV (last column is the target); repeatable")
    p.add_argument("--splits-file", metavar="PATH",
                   help="file of 1-based training indices, one split per line")
    p.add_argument("--task", choices=data_mod.TASKS,
                   help="override the inferred task kind")
    p.add_argument("--train-fraction", type=float,
                   help="training fraction for random splits (default 0.7)")

    p = commands.add_parser("fit", help="fit one method once and serialise it")
    _add_common(p, methods=False)
    p.add_argument("--data", metavar="PATH", help="dataset CSV")
    p.add_argument("--task", choices=data_mod.TASKS,
                   help="override the inferred task kind")
    p.add_argument("--method", choices=bench.METHODS, help="method to fit")
    return parser


def _dispatch(args) -> int:
    file_config = load_config_args(args.config)
    overrides = {
        "n_samples": args.samples,
        "n_eval": getattr(args, "eval_samples", None),
        "seed": args.seed,
        "n_workers": args.workers,
    }
    defaults = _common_defaults()

    if args.command == "demo2d":
        defaults.update({"contour_resolution": 201, "ellipse_mass": 0.70})
        for key in ("methods", "alpha", "n_boot", "grid"):
            defaults.pop(key, None)
        config = effective_config("demo2d", defaults, file_config, overrides)
        runner = cmd_demo2d
    elif args.command == "cauchy":
        defaults.update({"n_runs": 100, "n_train": 50, "n_test": 1000})
        overrides["methods"] = _parse_methods(args.methods)
        overrides["n_runs"] = args.splits
        config = effective_config("cauchy", defaults, file_config, overrides)
        runner = cmd_cauchy
    elif args.command == "benchmark":
        defaults.update({"n_splits": 100, "train_fraction": 0.7,
                         "splits_file": None, "task": None, "data": None})
        overrides.update({
            "methods": _parse_methods(args.methods),
            "n_splits": args.splits,
            "data": args.data,
            "splits_file": args.splits_file,
            "task": args.task,
            "train_fraction": args.train_fraction,
        })
        config = effective_config("benchmark", defaults, file_config, overrides)
        runner = cmd_benchmark
    else:  # fit
        defaults.update({"data": None, "task": None, "method": None,
                         "curve_points": 201})
        for key in ("methods", "alpha", "n_boot", "n_workers"):
            defaults.pop(key, None)
        overrides.pop("n_workers", None)
        overrides.update({"data": args.data, "task": args.task,
                          "method": args.method})
        config = effective_config("fit", defaults, file_config, overrides)
        runner = cmd_fit

    out_dir = Path(args.out or config.get("out") or _DEFAULT_OUT)
    out_dir.mkdir(parents=True, exist_ok=True)
    return runner(config, out_dir)


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
