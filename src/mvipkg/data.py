"""Datasets, synthetic tasks, and split management.

CSV conventions: numeric, comma-separated, optional header row, the target
in the last column. Binary targets may arrive as {0, 1} or {-1, +1}
(mapped to {0, 1}); multiclass targets must be integers and are one-hot
encoded against the sorted distinct values; anything else is regression.

Splits follow a subsample-with-seed protocol: split i shuffles the rows with
seed ``base_seed + i`` and takes the first round(fraction * N) as training
data. Alternatively an index file fixes the training rows explicitly: one
whitespace-separated list of 1-based indices per line, one line per split,
test rows being the complement. Feature standardisation is always fit on the
training portion only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .models import Target, sampled_expectation

TASKS = ("regression", "binary", "multiclass")

# the heavy-tail task: inputs uniform on the range, noise uniform on +-half width
CAUCHY_X_RANGE = (-10.0, 10.0)
CAUCHY_NOISE_HALF_WIDTH = 0.5


@dataclass
class Dataset:
    """Feature matrix plus task-coded targets.

    Targets: float vector for regression, 0/1 int vector for binary, one-hot
    (N, K) floats for multiclass. ``mean`` and ``sd`` record standardisation
    statistics once applied (always learned from a training portion).
    """

    X: np.ndarray
    y: np.ndarray
    kind: str
    name: str = ""
    mean: Optional[np.ndarray] = None
    sd: Optional[np.ndarray] = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        if self.kind not in TASKS:
            raise DataError(f"unknown task kind {self.kind!r}")
        if self.kind == "multiclass":
            self.y = np.atleast_2d(np.asarray(self.y, dtype=float))
        elif self.kind == "binary":
            self.y = np.asarray(self.y).astype(int).ravel()
        else:
            self.y = np.asarray(self.y, dtype=float).ravel()
        if self.X.shape[0] != (self.y.shape[0] if self.y.ndim else 0):
            raise DataError("X and y disagree on the number of rows")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


# ---------------------------------------------------------------------------
# synthetic regression task
# ---------------------------------------------------------------------------

def cauchy_curve(x: np.ndarray) -> np.ndarray:
    """The latent regression function 0.3 x sin(0.7 x) - 0.03 x^2."""
    x = np.asarray(x, dtype=float)
    return 0.3 * x * np.sin(0.7 * x) - 0.03 * x**2


def generate_cauchy_task(seed: int, n_train: int = 50,
                         n_test: int = 1000) -> tuple[Dataset, Dataset]:
    """Sample one train/test instance of the heavy-tail regression benchmark.

    Inputs are uniform on ``CAUCHY_X_RANGE``; observations add uniform noise
    on +-``CAUCHY_NOISE_HALF_WIDTH`` to the latent curve. The draw order
    (train inputs, train noise, test inputs, test noise) is fixed, so a seed
    pins the whole instance.
    """
    rng = np.random.default_rng(seed)
    a = CAUCHY_NOISE_HALF_WIDTH
    x_train = rng.uniform(*CAUCHY_X_RANGE, size=n_train)
    y_train = cauchy_curve(x_train) + rng.uniform(-a, a, size=n_train)
    x_test = rng.uniform(*CAUCHY_X_RANGE, size=n_test)
    y_test = cauchy_curve(x_test) + rng.uniform(-a, a, size=n_test)
    train = Dataset(x_train.reshape(-1, 1), y_train, "regression", name="cauchy-train")
    test = Dataset(x_test.reshape(-1, 1), y_test, "regression", name="cauchy-test")
    return train, test


# ---------------------------------------------------------------------------
# 2-D mixture target
# ---------------------------------------------------------------------------

class MixtureTarget2D(Target):
    """A fixed two-component Gaussian mixture density on the plane.

    Normalised, with analytic gradient and Hessian of the log density, so it
    doubles as a log-posterior model for the 2-D demonstration: mode finding
    and the curvature fit run directly on it. ``theta`` is empty (nothing to
    tune), and ``bounds`` is the square the demo draws its contours on.
    """

    bounds = (-10.0, 10.0)
    P = 2

    def __init__(self):
        self.weights = np.array([2.0 / 3.0, 1.0 / 3.0])
        self.means = np.array([[0.0, 0.0], [-1.0, -2.0]])
        self.covs = np.stack([np.eye(2), np.diag([3.5, 0.3])])
        self._precs = np.stack([np.linalg.inv(c) for c in self.covs])
        self._log_norm = np.array([
            -np.log(2.0 * np.pi) - 0.5 * np.linalg.slogdet(c)[1] for c in self.covs
        ])

    def _component_logpdfs(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((pts.shape[0], 2))
        for i in range(2):
            dev = pts - self.means[i][None, :]
            quad = np.einsum("gj,jk,gk->g", dev, self._precs[i], dev)
            out[:, i] = self._log_norm[i] - 0.5 * quad
        return out

    def _log_density_terms(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log density, and the unnormalised responsibilities with their row sums."""
        lp = self._component_logpdfs(pts) + np.log(self.weights)[None, :]
        m = lp.max(axis=1, keepdims=True)
        resp = np.exp(lp - m)
        total = resp.sum(axis=1, keepdims=True)
        return (m + np.log(total)).ravel(), resp, total

    def log_density(self, pts: np.ndarray) -> np.ndarray:
        return self._log_density_terms(pts)[0]

    # -- log-posterior model surface (``Target`` adds the rest) ---------------

    def values(self, W: np.ndarray) -> np.ndarray:
        return self.log_density(W)

    def evaluate(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, grads, theta_grads) from one pass over the components."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        values, resp, total = self._log_density_terms(W)
        resp /= total
        grad = np.zeros_like(W)
        for i in range(2):
            gi = -(W - self.means[i][None, :]) @ self._precs[i]
            grad += resp[:, i:i + 1] * gi
        return values, grad, np.zeros((W.shape[0], 0))

    expectation = sampled_expectation   # from ``evaluate`` at the points mu + R z

    def hessian(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float).ravel()
        lp = self._component_logpdfs(w[None, :])[0] + np.log(self.weights)
        m = lp.max()
        resp = np.exp(lp - m)
        resp /= resp.sum()
        g_total = np.zeros(2)
        h = np.zeros((2, 2))
        comp_grads = []
        for i in range(2):
            gi = -self._precs[i] @ (w - self.means[i])
            comp_grads.append(gi)
            g_total += resp[i] * gi
        for i in range(2):
            gi = comp_grads[i]
            h += resp[i] * (np.outer(gi, gi) - self._precs[i])
        return h - np.outer(g_total, g_total)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def load_csv_dataset(path, task: Optional[str] = None,
                     name: Optional[str] = None) -> Dataset:
    """Read a numeric CSV into a Dataset, the last column the target.

    Raises DataError with the offending 1-based line number for ragged rows,
    non-numeric fields or non-finite numbers, and on a file not in UTF-8.
    The first non-blank row is a header, and skipped, when none of its fields
    is a number; a UTF-8 byte-order mark is dropped.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    rows: list[list[float]] = []
    seen = False   # a non-blank row came before
    with open(path, newline="", encoding="utf-8-sig") as handle:
        for line_no, row in enumerate(_utf8_lines(csv.reader(handle), path), start=1):
            if all(not c.strip() for c in row):
                continue
            first, seen = not seen, True
            values = [_number(c) for c in row]
            if None in values:
                if first and values.count(None) == len(values):
                    continue  # header
                raise DataError(f"{path}:{line_no}: non-numeric field in {row!r}")
            if not np.isfinite(values).all():
                raise DataError(f"{path}:{line_no}: non-finite number in {row!r}")
            if rows and len(values) != len(rows[0]):
                raise DataError(
                    f"{path}:{line_no}: expected {len(rows[0])} columns, got {len(values)}")
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    if table.shape[1] < 2:
        raise DataError(f"{path}: need at least one feature column plus a target")

    y_raw = table[:, -1]
    kind = task or _infer_task(y_raw)
    y = _code_targets(y_raw, kind, path)
    return Dataset(np.delete(table, -1, axis=1), y, kind, name=name or path.stem)


def _utf8_lines(lines, path):
    """Yield ``lines``; one that does not decode is a DataError naming ``path``."""
    try:
        yield from lines
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text ({err})") from None


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _infer_task(y: np.ndarray) -> str:
    distinct = np.unique(y)
    if distinct.size <= 2 and (set(distinct) <= {0.0, 1.0} or set(distinct) <= {-1.0, 1.0}):
        return "binary"
    if np.all(y == np.round(y)) and distinct.size <= 20:
        return "multiclass"
    return "regression"


def _code_targets(y: np.ndarray, kind: str, path) -> np.ndarray:
    if kind == "regression":
        return y.astype(float)
    if kind == "binary":
        vals = set(np.unique(y))
        if vals <= {0.0, 1.0}:
            return y.astype(int)
        if vals <= {-1.0, 1.0}:
            return ((y + 1) / 2).astype(int)
        raise DataError(f"{path}: binary targets must be 0/1 or -1/+1, saw {sorted(vals)}")
    if not np.all(y == np.round(y)):
        raise DataError(f"{path}: multiclass targets must be integers")
    classes = np.unique(y)
    one_hot = (y[:, None] == classes[None, :]).astype(float)
    return one_hot


# ---------------------------------------------------------------------------
# splits and standardisation
# ---------------------------------------------------------------------------

@dataclass
class SplitPlan:
    n_splits: int = 100
    train_fraction: float = 0.7
    seed: int = 0
    indices_path: Optional[str] = None


def load_split_indices(path, n_rows: int) -> list[np.ndarray]:
    """Read a split-index file: 1-based training indices, one split per line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"split-index file not found: {path}")
    splits = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(_utf8_lines(handle, path), start=1):
            if not line.strip():
                continue
            try:
                idx = np.array([int(tok) for tok in line.split()])
            except ValueError:
                raise DataError(f"{path}:{line_no}: non-integer split index")
            if idx.min() < 1 or idx.max() > n_rows:
                raise DataError(
                    f"{path}:{line_no}: indices must lie in 1..{n_rows}")
            if np.unique(idx).size != idx.size:
                raise DataError(f"{path}:{line_no}: duplicate training index")
            if idx.size == n_rows:
                raise DataError(f"{path}:{line_no}: split leaves no test rows")
            splits.append(idx - 1)
    if not splits:
        raise DataError(f"{path}: no splits found")
    return splits


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Column-standardise features using training statistics only.

    Constant columns (sd = 0) are left centred but unscaled. Targets are
    never touched.
    """
    mean = train.X.mean(axis=0)
    sd = train.X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    train_out = replace(train, X=(train.X - mean) / sd, mean=mean, sd=sd)
    test_out = replace(test, X=(test.X - mean) / sd, mean=mean, sd=sd)
    return train_out, test_out


def _take(dataset: Dataset, idx: np.ndarray, suffix: str) -> Dataset:
    return Dataset(dataset.X[idx], dataset.y[idx], dataset.kind,
                   name=f"{dataset.name}{suffix}")


def make_splits(dataset: Dataset, plan: SplitPlan) -> list[tuple[Dataset, Dataset, int]]:
    """Materialise (train, test, split_seed) triples, standardised per split."""
    n = dataset.n
    out = []
    if plan.indices_path:
        for i, train_idx in enumerate(load_split_indices(plan.indices_path, n)):
            mask = np.ones(n, dtype=bool)
            mask[train_idx] = False
            test_idx = np.flatnonzero(mask)
            tr, te = standardize(_take(dataset, train_idx, "-train"),
                                 _take(dataset, test_idx, "-test"))
            out.append((tr, te, plan.seed + i))
        return out
    n_train = int(round(plan.train_fraction * n))
    if not 1 <= n_train < n:
        raise DataError(
            f"train fraction {plan.train_fraction} leaves an empty train or test set")
    for i in range(plan.n_splits):
        split_seed = plan.seed + i
        perm = np.random.default_rng(split_seed).permutation(n)
        tr, te = standardize(_take(dataset, perm[:n_train], "-train"),
                             _take(dataset, perm[n_train:], "-test"))
        out.append((tr, te, split_seed))
    return out
