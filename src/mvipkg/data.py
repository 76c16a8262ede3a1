"""Datasets: synthetic tasks, CSV loading and split plans.

CSV conventions: numeric, comma-separated, optional header row, the target
in the last column. Binary targets may arrive as {0, 1} or {-1, +1}
(mapped to {0, 1}); multiclass targets must be integers and are one-hot
encoded against the sorted distinct values; anything else is regression.

Splits follow a subsample-with-seed protocol: split i shuffles the rows with
seed ``base_seed + i`` and takes the first round(fraction * N) as training
data. Alternatively an index file fixes the training rows explicitly: one
whitespace-separated list of 1-based indices per line, one line per split,
test rows being the complement in ascending order. Feature standardisation is always fit on the
training portion only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError

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
    """``n_splits`` shuffles (None: 100) each training on ``train_fraction``
    of the rows (None: 0.7), or the splits of the index file at
    ``indices_path``, which sets both and so refuses either beside it."""
    n_splits: Optional[int] = None
    train_fraction: Optional[float] = None
    seed: int = 0
    indices_path: Optional[str] = None


def load_split_indices(path, n_rows: int) -> list[np.ndarray]:
    """Read a split-index file: 1-based training indices, one split per line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"split-index file not found: {path}")
    splits = []
    with open(path, encoding="utf-8-sig") as handle:
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
    if plan.indices_path:
        for key in ("n_splits", "train_fraction"):
            if getattr(plan, key) is not None:
                raise ConfigError(f"{key} must be null beside a splits_file, which sets "
                                  "the splits")
        pairs = [(idx, np.setdiff1d(np.arange(n), idx))
                 for idx in load_split_indices(plan.indices_path, n)]
    else:
        fraction = 0.7 if plan.train_fraction is None else plan.train_fraction
        n_train = int(round(fraction * n))
        if not 1 <= n_train < n:
            raise DataError(f"train fraction {fraction} leaves an empty train or test set")
        perms = [np.random.default_rng(plan.seed + i).permutation(n)
                 for i in range(100 if plan.n_splits is None else plan.n_splits)]
        pairs = [(perm[:n_train], perm[n_train:]) for perm in perms]
    return [(*standardize(_take(dataset, train_idx, "-train"),
                          _take(dataset, test_idx, "-test")), plan.seed + i)
            for i, (train_idx, test_idx) in enumerate(pairs)]
