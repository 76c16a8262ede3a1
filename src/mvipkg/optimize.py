"""Deterministic batch minimisation.

The workhorse here is limited-memory BFGS (Liu & Nocedal 1989): a
quasi-Newton step from the last few gradient differences, found by a
backtracking line search, so the whole trajectory is deterministic. That
determinism is load-bearing: the variational objectives in this package are
deterministic functions of their parameters (fixed sample sets), and the
reproducibility guarantees of the CLI rest on the optimiser introducing no
randomness of its own.

Objectives are callables ``fun(x) -> (value, gradient)``; values and gradients
are usually produced by one shared forward pass, which is why the interface
asks for both at once.

The memory, the number of curvature pairs kept (``_MEMORY``), is the constant
to tune (Nocedal & Wright 2006, ch. 7). It is 60, well above the usual 3-20,
because the variational fits stop on ``f_tol`` and a longer memory takes them
nearer the optimum in fewer evaluations. On the 20-run heavy-tail suite
(``bench.run_cauchy(n_runs=20, seed=0)``, one worker) a sweep over 10, 20,
30, 40, 60 and 100 pairs gave 15,666, 12,091, 10,105, 8,936, 8,208 and 7,912
fit evaluations, 1,631, 1,205, 1,002, 875, 822 and 822 final mode search
iterations, and a largest final max|g| over the fits of 2.3e-2, 3.1e-2,
1.1e-2, 1.4e-2, 4.7e-3 and 2.3e-3. A search of k steps stores at most k pairs,
so while the grid's ``search_iters <= _MEMORY`` no pair of a grid candidate's
search is dropped: its steps, its score and the grid's winner are the same
at every such memory, and only the long searches move. The sweep's fit
counts come from fits in the raw coordinates; the fits now run in whitened
ones (see :mod:`.variational`) and take fewer.

The pairs are held in the compact form of Byrd, Nocedal & Schnabel (1994), ``_Memory``:
a direction is seven matrix-vector products, 25 us at 60 pairs against 320-460 us for the
two-loop recursion (2-core Xeon, one BLAS thread), and the same H g up to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

# Curvature pairs (s, y) kept by ``_Memory``. 60 from the sweep in the module
# docstring; keep it at least the grid's search_iters (10), so the grid's
# short searches do not depend on it.
_MEMORY = 60
# Armijo sufficient-decrease constant, and halvings per line search: enough to
# take a unit step below the spacing of doubles, so a search stalled at the
# edge of the finite region ends on a finite trial.
_ARMIJO = 1.0e-4
_MAX_HALVINGS = 60


@dataclass
class OptimConfig:
    """Termination settings for :func:`minimize`.

    ``f_tol`` is measured relative to the total descent achieved so far
    (plus one), which keeps the iterate sequence invariant under adding a
    constant to the objective.
    """

    max_iters: int = 2000
    grad_tol: float = 1.0e-6
    f_tol: float = 1.0e-9


@dataclass
class MinimizeResult:
    x: np.ndarray
    f: float
    grad_norm: float
    n_iters: int  # accepted steps
    converged: bool  # max-norm gradient <= grad_tol
    reason: str  # "grad_tol" | "f_tol" | "max_iters"
    n_evals: int  # calls of the objective, the initial point and rejected trials included


class _Memory:
    """The newest ``_MEMORY`` curvature pairs: rows of S and Y, Y'Y,
    D = diag(s'y) and R^-1, R the upper triangle of S'Y. A new pair fills one
    column of R^-1; dropping the oldest keeps its trailing block."""

    def __init__(self, n: int):
        self.m, self.D = 0, np.empty(_MEMORY)
        self.S, self.Y = np.empty((_MEMORY, n)), np.empty((_MEMORY, n))
        self.YY, self.Rinv = np.empty((_MEMORY, _MEMORY)), np.zeros((_MEMORY, _MEMORY))

    def add(self, s: np.ndarray, y: np.ndarray, sy: float) -> None:
        if self.m == _MEMORY:   # drop the oldest pair
            for a in (self.S, self.Y, self.D):
                a[:-1] = a[1:]
            for a in (self.YY, self.Rinv):
                a[:-1, :-1] = a[1:, 1:]
            self.m -= 1
        m = self.m
        self.S[m], self.Y[m], self.D[m] = s, y, sy
        self.YY[m, :m + 1] = self.YY[:m + 1, m] = self.Y[:m + 1] @ y
        self.Rinv[:m, m] = -(self.Rinv[:m, :m] @ (self.S[:m] @ y)) / sy
        self.Rinv[m, m] = 1.0 / sy
        self.gamma, self.m = sy / self.YY[m, m], m + 1

    def direction(self, g: np.ndarray) -> np.ndarray:
        """H g = gamma g + S'u - gamma Y'v, v = R^-1 S g, u = R^-T ((D + gamma Y'Y) v
        - gamma Y g), gamma = s'y / y'y of the newest pair; g / max(1, ||g||) if empty."""
        m = self.m
        if not m:
            return g / max(1.0, float(np.linalg.norm(g)))
        S, Y, Rinv = self.S[:m], self.Y[:m], self.Rinv[:m, :m]
        v = Rinv @ (S @ g)
        u = Rinv.T @ (self.D[:m] * v + self.gamma * (self.YY[:m, :m] @ v - Y @ g))
        return self.gamma * (g - v @ Y) + u @ S


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float] | np.ndarray,
    config: OptimConfig | None = None,
) -> MinimizeResult:
    """Minimise ``fun`` from ``x0`` with L-BFGS.

    ``fun`` must return ``(value, gradient)``. The line search halves the
    quasi-Newton step until the Armijo test holds, passing over trial points
    with a non-finite value or gradient, so every accepted step lowers the
    objective. Stops on ``grad_tol`` (max-norm gradient), on ``f_tol``
    (see :class:`OptimConfig`, or no finite trial lowers the value), or after
    ``max_iters`` accepted steps.

    Raises:
        NumericalError: if the objective is non-finite at ``x0``, or every
            trial point of one line search is non-finite.
    """
    cfg = config or OptimConfig()
    n_evals = 0

    def evaluate(x):
        nonlocal n_evals
        n_evals += 1
        f, g = fun(x)
        f, g = float(f), np.asarray(g, dtype=float)
        return f, g, bool(np.isfinite(f) and np.all(np.isfinite(g)))

    x = np.array(x0, dtype=float).ravel()
    f, g, finite = evaluate(x)
    if not finite:
        raise NumericalError("objective is not finite at the initial point")

    memory, f0, n_iters = _Memory(x.size), f, 0
    reason = "grad_tol"
    while float(np.max(np.abs(g))) > cfg.grad_tol:
        if n_iters >= cfg.max_iters:
            reason = "max_iters"
            break
        d = -memory.direction(g)
        if not float(g @ d) < 0.0:
            # The direction lost its descent property: forget the curvature.
            memory.m = 0
            d = -memory.direction(g)
        slope = float(g @ d)

        step, any_finite = 1.0, False
        for _ in range(_MAX_HALVINGS):
            f_new, g_new, finite = evaluate(x + step * d)
            any_finite |= finite
            if finite and f_new - f <= _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            if not any_finite:
                raise NumericalError(
                    "line search could not recover from a non-finite objective "
                    f"({_MAX_HALVINGS} halvings after {n_iters} steps)")
            reason = "f_tol"   # no trial lowers the value: numerically stationary
            break

        s, y = step * d, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            memory.add(s, y, sy)
        improvement = f - f_new
        x, f, g = x + s, f_new, g_new
        n_iters += 1
        if improvement <= cfg.f_tol * (1.0 + max(f0 - f, 0.0)):
            reason = "f_tol"
            break

    grad_norm = float(np.max(np.abs(g)))
    return MinimizeResult(x=x, f=f, grad_norm=grad_norm, n_iters=n_iters,
                          converged=grad_norm <= cfg.grad_tol, reason=reason,
                          n_evals=n_evals)
