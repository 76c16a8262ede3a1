"""Run one workload of the mvipkg benchmark and print its metrics.

    python3 benchmarks/run.py --workload cauchy --seed 0 --seconds 10 --trace 0

Run from the repository root. The package is imported from ``src/`` as it
is; nothing is installed. Every measuring process is a fresh interpreter with
BLAS threads pinned to one through the environment, set before numpy loads.

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh processes), wall time of the workload call, peak resident
memory and held-out quality. ``--trace 1`` prints the per-layer metrics of a
traced round and writes its spans under ``benchmarks/out/``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cauchy", "multiclass_laplace")
N_PROBES = 2          # set-up probes besides the measuring process itself
TIMEOUT_S = 170.0     # the whole run, probes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return (seconds from start to its ready line, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    watchdog.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            if line.strip():
                last = line
        proc.stdout.close()
        code = proc.wait()
    finally:
        watchdog.cancel()
    if code != 0 or ready is None:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {code}")
    return ready, json.loads(last)


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one mvipkg benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mvipkg" / "__init__.py").is_file():
        print(f"run.py: no mvipkg sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    deadline = time.perf_counter() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(N_PROBES):
            setups.append(spawn(common + ["--probe"], deadline)[0])
    ready, result = spawn(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], deadline)
    setups.append(ready)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics["setup.import_s"] = result["setup"]["import_s"]
        metrics["setup.inputs_s"] = result["setup"]["inputs_s"]
    else:
        metrics["setup_s"] = statistics.median(setups)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                           "not the ones BENCHMARK.json declares")

    result["setup_samples_s"] = setups
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if result["problems"]:
        print("problems " + json.dumps(result["problems"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
