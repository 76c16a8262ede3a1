"""Seeded inputs for the workloads, generated without mvipkg.

``cauchy_test_targets`` and ``split_test_rows`` restate the documented
protocols of ``mvipkg.data`` (the draw order of the heavy-tail task, and the
shuffle-with-seed split plan) so that the checks can see the test targets
the program scored against.
"""

import numpy as np

CAUCHY_HALF_WIDTH = 0.5  # noise half-width a of the heavy-tail task
CAUCHY_X_RANGE = (-10.0, 10.0)


def cauchy_curve(x: np.ndarray) -> np.ndarray:
    return 0.3 * x * np.sin(0.7 * x) - 0.03 * x**2


def cauchy_test_targets(run_seed: int, n_train: int, n_test: int) -> np.ndarray:
    """Test targets of one heavy-tail run: draws are train x, train noise,
    test x, test noise, all uniform, from one generator seeded with the run
    seed."""
    rng = np.random.default_rng(run_seed)
    lo, hi = CAUCHY_X_RANGE
    a = CAUCHY_HALF_WIDTH
    rng.uniform(lo, hi, size=n_train)
    rng.uniform(-a, a, size=n_train)
    x_test = rng.uniform(lo, hi, size=n_test)
    return cauchy_curve(x_test) + rng.uniform(-a, a, size=n_test)


def multiclass_table(seed: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """2-D inputs uniform on [-2, 2]^2 and three classes drawn from a
    softmax over logits 1.5 r cos(angle - 2 pi k / 3 - r / 2): spiral sectors
    whose labels grow noisier towards the origin."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n_rows, 2))
    angle = np.arctan2(X[:, 1], X[:, 0])[:, None]
    r = np.hypot(X[:, 0], X[:, 1])[:, None]
    k = np.arange(3)[None, :]
    logits = 1.5 * r * np.cos(angle - 2.0 * np.pi * k / 3.0 - 0.5 * r)
    prob = np.exp(logits - logits.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    u = rng.uniform(size=n_rows)
    y = (u[:, None] > np.cumsum(prob, axis=1)).sum(axis=1)
    return X, np.minimum(y, 2)


def write_csv(path, X: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("x1,x2,label\n")
        for (x1, x2), label in zip(X.tolist(), y.tolist()):
            handle.write(f"{x1!r},{x2!r},{label}\n")


def split_test_rows(n_rows: int, train_fraction: float, split_seed: int) -> np.ndarray:
    """Test rows of one random split: rows shuffled with the split's seed,
    the first round(fraction * n) train, the rest test."""
    perm = np.random.default_rng(split_seed).permutation(n_rows)
    return perm[int(round(train_fraction * n_rows)):]
