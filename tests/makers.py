"""Small models shared by the test modules: ``from makers import ...``."""

import numpy as np

from mvipkg.models import (BinaryLogistic, CauchyRegression,
                           GaussianLinearModel, SoftmaxRegression)


def make_cauchy(seed=0, n=12):
    """Tiny heavy-tail regression model, P = 3 (two centres plus bias)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3.0, 3.0, size=(n, 1))
    y = np.sin(X[:, 0]) + rng.uniform(-0.2, 0.2, size=n)
    centers = np.array([[-1.5], [1.5]])
    return CauchyRegression(X, y, centers, gamma=0.4, alpha=0.8, width=1.2)


def make_logistic(seed=0, n=14):
    """Tiny binary model, P = 3."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    centers = X[:2].copy()
    return BinaryLogistic(X, y, centers, alpha=0.6, width=1.5)


def make_softmax(seed=0, n=15):
    """Tiny 3-class model, P = 6 (one centre plus bias, three classes)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    labels = rng.integers(0, 3, size=n)
    y = np.eye(3)[labels]
    centers = X[:1].copy()
    return SoftmaxRegression(X, y, centers, alpha=0.7, width=1.0)


def make_conjugate(seed=0, n=10, p=4, beta=2.0, alpha=0.5):
    """Linear-Gaussian oracle with closed-form posterior and evidence."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, p))
    w_true = rng.standard_normal(p)
    y = phi @ w_true + rng.standard_normal(n) / np.sqrt(beta)
    return GaussianLinearModel(phi, y, beta=beta, alpha=alpha)


ALL_MODEL_MAKERS = {
    "cauchy": make_cauchy,
    "logistic": make_logistic,
    "softmax": make_softmax,
    "conjugate": make_conjugate,
}
