"""One fresh process of a benchmark run; ``run.py`` starts it.

It imports mvipkg, prepares the workload's inputs and prints ``ready``; the
parent times the process from its start to that line (set-up). A probe
(``--probe``) stops there. Otherwise the process measures rounds and prints
its result as one JSON line.

Untraced (``--trace 0``): whole rounds until ``--seconds`` have passed, at
least one. Traced (``--trace 1``): one untraced round, then one round with
spans installed around mvipkg's public functions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from run import OUT, ROOT, THREAD_VARS  # noqa: E402


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        **{v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs, all of them."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def measure(wl, seconds: float, trace: bool, trace_path: Path) -> dict:
    import tracing
    import workloads

    diagnostics = []  # per round: CPU seconds of this process, machine steal

    def one_round(tracer=None):
        undo = tracing.install(tracer) if tracer else []
        try:
            t, cpu, steal = time.perf_counter(), time.process_time(), steal_s()
            report, split_s = wl.call()
            wall = time.perf_counter() - t
            diagnostics.append({"cpu_s": time.process_time() - cpu,
                                "steal_s": steal_s() - steal})
            return wall, report, split_s
        finally:
            tracing.uninstall(undo)

    rounds = [one_round()]
    if trace:
        tracer = tracing.Tracer()
        rounds.append(one_round(tracer))
        tracer.write(trace_path)
    else:
        start = time.perf_counter() - rounds[0][0]
        while time.perf_counter() - start < seconds:
            rounds.append(one_round())

    report = rounds[0][1]
    problems = wl.check(report)
    n_ops = len(report["records"]) + len(report["skipped"])
    same = len({workloads.canonical(r[1]) for r in rounds}) == 1
    result = {
        "rounds": len(rounds),
        "attempted": n_ops * len(rounds),
        "failed": len(problems) * len(rounds),
        "correct": same,
        "problems": {str(k): v for k, v in sorted(problems.items())},
    }
    walls = [r[0] for r in rounds]
    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["bench.split_s_p50"] = statistics.median(rounds[0][2])
        metrics["trace.wall_s"] = walls[1]
        metrics["trace.spans"] = float(len(tracer.spans))
        metrics["trace.overhead_s"] = walls[1] - walls[0]
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   **workloads.quality(report)}
    result["metrics"] = metrics
    result["round_walls_s"] = walls
    result["round_diagnostics"] = diagnostics
    result["split_s"] = rounds[0][2]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import mvipkg.cli  # noqa: F401  (pulls in every mvipkg module)

    t_import = time.perf_counter()
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl = workloads.Workload(args.workload, args.seed, workdir)
        t_ready = time.perf_counter()
        print("ready", flush=True)
        result = {"setup": {"import_s": t_import - T0, "inputs_s": t_ready - t_import}}
        if not args.probe:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            result.update(measure(wl, args.seconds, bool(args.trace), trace_path))
            result["env"] = environment(args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
