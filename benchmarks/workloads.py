"""The workloads: their inputs, the call into mvipkg, and the checks of its report.

An operation is one train/test split taken through all of a workload's
methods. A round is one call of the workload on the seed's inputs, so every
round attempts the same operations and, mvipkg being deterministic, returns
the same report.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs

CAUCHY_N_TRAIN = 50
CAUCHY_N_TEST = 1000
# The heavy-tail runs come from the criterion-4 suite, run_cauchy(n_runs=20,
# seed=0): seed s takes the n consecutive runs starting at s mod (21 - n).
# Fresh run seeds would not do: on some (run seed 5001 is one) every grid
# candidate fails and the suite skips the run, so the share of failed
# operations would depend on the seed.
CAUCHY_SUITE_RUNS = 20


@dataclass(frozen=True)
class Spec:
    n_splits: int               # operations per round
    n_rows: int = 0             # rows of the generated CSV; 0 for the suite
    train_fraction: float = 0.7
    methods: str = "all"
    n_samples: int = 1000       # fixed draws of the variational objectives
    n_eval: int = 10_000        # posterior draws for held-out scoring


SPECS = {
    "cauchy": Spec(n_splits=10),
    "multiclass_laplace": Spec(n_splits=10, n_rows=400, train_fraction=0.525,
                               methods="laplace"),
}


class Workload:
    """One workload on one seed: prepares its inputs, calls mvipkg, checks."""

    def __init__(self, name: str, seed: int, workdir: Path, spec: Spec | None = None):
        self.name = name
        self.seed = int(seed)
        self.spec = spec or SPECS[name]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        if name == "cauchy":
            self.labels = None
            return
        X, self.labels = inputs.multiclass_table(self.seed, self.spec.n_rows)
        self.csv = self.workdir / f"{name}.csv"
        inputs.write_csv(self.csv, X, self.labels)

    # -- the call -----------------------------------------------------------

    def call(self) -> tuple[dict, list[float]]:
        """Run one round. Returns (report without times, seconds per split)."""
        from mvipkg import bench, cli

        s = self.spec
        if self.name == "cauchy":
            first = self.seed % (CAUCHY_SUITE_RUNS - s.n_splits + 1)
            report = bench.run_cauchy(
                n_runs=s.n_splits, seed=first,
                n_samples=s.n_samples, n_eval=s.n_eval,
                n_train=CAUCHY_N_TRAIN, n_test=CAUCHY_N_TEST)
            timing = report.pop("timing")
        else:
            out = self.workdir / "report"
            argv = ["benchmark", "--data", str(self.csv), "--methods", s.methods,
                    "--splits", str(s.n_splits), "--seed", str(self.seed),
                    "--train-fraction", repr(s.train_fraction),
                    "--samples", str(s.n_samples), "--eval-samples", str(s.n_eval),
                    "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"mvi benchmark exited with code {code}")
            report = json.loads((out / "report.json").read_text())
            timing = json.loads((out / "timing.json").read_text())
        split_s = [sum(v for k, v in t.items() if k != "index")
                   for t in timing["splits"]]
        return report, split_s

    # -- the checks ---------------------------------------------------------

    def check(self, report: dict) -> dict[int, list[str]]:
        """Problems found per split index; a split with problems failed."""
        problems = {}
        for skipped in report["skipped"]:
            problems[skipped["index"]] = [f"skipped: {skipped['error']}"]
        records = report["records"]
        a = inputs.CAUCHY_HALF_WIDTH
        for rec in records:
            if self.name == "cauchy":
                y_test = inputs.cauchy_test_targets(rec["seed"], CAUCHY_N_TRAIN,
                                                    CAUCHY_N_TEST)
                found = checks.check_cauchy_split(rec["methods"], y_test, a)
            else:
                rows = inputs.split_test_rows(self.spec.n_rows,
                                              self.spec.train_fraction, rec["seed"])
                found = checks.check_classification_split(
                    rec["methods"], self.labels[rows], int(self.labels.max()) + 1)
            if found:
                problems[rec["index"]] = found
        if self.name == "cauchy":
            # the median speaks for every split of the round
            found = checks.check_cauchy_medians([r["methods"] for r in records], a)
            if found:
                for rec in records:
                    problems.setdefault(rec["index"], []).extend(found)
        return problems


def quality(report: dict) -> dict:
    """Negated median held-out lpd of laplace and of the best method."""
    records = [r["methods"] for r in report["records"]]
    medians = {m: float(np.median([r[m]["lpd"] for r in records]))
               for m in (records[0] if records else ())}
    if not medians or not all(math.isfinite(v) for v in medians.values()):
        return {}
    return {"nlpd_laplace": -medians["laplace"], "nlpd_best": -max(medians.values())}


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True)
