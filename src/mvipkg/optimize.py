"""Deterministic batch minimisation.

The workhorse here is scaled conjugate gradients (SCG): a conjugate-gradient
method that replaces the line search with a one-sided curvature probe and a
Levenberg-style scale parameter, so each iteration costs a small fixed number
of objective/gradient evaluations and the whole trajectory is deterministic.
That determinism is load-bearing: the variational objectives in this package
are deterministic functions of their parameters (fixed sample sets), and the
reproducibility guarantees of the CLI rest on the optimiser introducing no
randomness of its own.

Objectives are callables ``fun(x) -> (value, gradient)``; values and gradients
are usually produced by one shared forward pass, which is why the interface
asks for both at once.

Also provides central finite differences, used throughout the test suite as an
independent oracle for analytic gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

# Curvature probe offset and initial/ceiling values of the Levenberg scale.
_SIGMA0 = 1.0e-4
_LAMBDA0 = 1.0e-6
_LAMBDA_MAX = 1.0e25


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
    n_iters: int
    reason: str  # "grad_tol" | "f_tol" | "max_iters"
    n_evals: int  # calls of the objective, the initial point and probes included
    trace: list[float] = field(default_factory=list)


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: Sequence[float] | np.ndarray,
    config: OptimConfig | None = None,
) -> MinimizeResult:
    """Minimise ``fun`` from ``x0`` with scaled conjugate gradients.

    ``fun`` must return ``(value, gradient)``. The trace records the objective
    at the start point and after every accepted step; it is monotone
    non-increasing because a step is only accepted when it lowers the value.

    Raises:
        NumericalError: if the objective is non-finite at ``x0``, or a
            non-finite excursion cannot be recovered by shrinking the step.
    """
    cfg = config or OptimConfig()
    n_evals = 0

    def fun_counted(x):
        nonlocal n_evals
        n_evals += 1
        return fun(x)

    x = np.array(x0, dtype=float).ravel()
    n = x.size
    f, g = fun_counted(x)
    f = float(f)
    g = np.asarray(g, dtype=float)
    if not np.isfinite(f) or not np.all(np.isfinite(g)):
        raise NumericalError("objective is not finite at the initial point")

    r = -g
    p = r.copy()
    success = True
    lam = _LAMBDA0
    lam_bar = 0.0
    delta_raw = 0.0
    since_restart = 0
    nonfinite_streak = False
    trace = [f]
    reason = "max_iters"
    grad_norm = float(np.max(np.abs(r))) if n else 0.0
    k = 0

    while k < cfg.max_iters:
        grad_norm = float(np.max(np.abs(r)))
        if grad_norm <= cfg.grad_tol:
            reason = "grad_tol"
            break
        p_sq = float(p @ p)
        if p_sq == 0.0:
            # Degenerate direction with a gradient still above tolerance:
            # restart along steepest descent.
            p = r.copy()
            p_sq = float(p @ p)
            success = True
        mu = float(p @ r)
        if mu <= 0.0:
            # Conjugacy has drifted into a non-descent direction; restart.
            p = r.copy()
            p_sq = float(p @ p)
            mu = p_sq
            since_restart = 0
            success = True

        if success:
            # Second-order information: one gradient probe along p gives the
            # curvature p'Hp by finite differences.
            sigma = _SIGMA0 / np.sqrt(p_sq)
            _, g_probe = fun_counted(x + sigma * p)
            g_probe = np.asarray(g_probe, dtype=float)
            if np.all(np.isfinite(g_probe)):
                delta_raw = float(p @ (g_probe - g)) / sigma
            else:
                # Probe left the finite region; fall back on the scale term
                # alone so the step shrinks as lam grows.
                delta_raw = 0.0
                nonfinite_streak = True

        delta = delta_raw + (lam - lam_bar) * p_sq
        if delta <= 0.0:
            # Indefinite curvature: raise the scale until the model is convex.
            lam_bar = 2.0 * (lam - delta / p_sq)
            delta = -delta + lam * p_sq
            lam = lam_bar

        alpha = mu / delta
        f_trial, g_trial = fun_counted(x + alpha * p)
        f_trial = float(f_trial)
        g_trial = np.asarray(g_trial, dtype=float)
        trial_finite = np.isfinite(f_trial) and np.all(np.isfinite(g_trial))
        # Comparison of actual to predicted reduction.
        comp = 2.0 * delta * (f - f_trial) / mu**2 if trial_finite else -np.inf

        if comp >= 0.0:
            improvement = f - f_trial
            x = x + alpha * p
            f = f_trial
            g = g_trial
            r_new = -g_trial
            lam_bar = 0.0
            success = True
            nonfinite_streak = False
            since_restart += 1
            if since_restart >= n:
                p = r_new.copy()
                since_restart = 0
            else:
                beta = (float(r_new @ r_new) - float(r_new @ r)) / mu
                p = r_new + beta * p
            r = r_new
            trace.append(f)
            if comp >= 0.75:
                lam *= 0.25
            if comp < 0.25:
                lam += delta * (1.0 - comp) / p_sq
            k += 1
            total_descent = trace[0] - f
            if improvement <= cfg.f_tol * (1.0 + max(total_descent, 0.0)):
                reason = "f_tol"
                break
            continue

        # Rejected step: keep the iterate, grow the scale, retry.
        lam_bar = lam
        success = False
        if trial_finite:
            lam += delta * (1.0 - comp) / p_sq
        else:
            lam *= 4.0
            nonfinite_streak = True
        k += 1
        if lam > _LAMBDA_MAX:
            if nonfinite_streak:
                raise NumericalError(
                    "line search could not recover from a non-finite objective "
                    f"(scale exhausted at iteration {k})"
                )
            # No descent achievable at any scale: numerically stationary.
            reason = "f_tol"
            break

    grad_norm = float(np.max(np.abs(r))) if n else 0.0
    return MinimizeResult(x=x, f=f, grad_norm=grad_norm, n_iters=k, reason=reason,
                          n_evals=n_evals, trace=trace)


def finite_difference_gradient(
    f: Callable[[np.ndarray], float],
    x: Sequence[float] | np.ndarray,
    h: float = 1.0e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Used as the independent oracle against which every analytic gradient in
    this package is checked. O(h^2) accurate.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        f_plus = float(f(x + step))
        f_minus = float(f(x - step))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericalError(f"function not finite near x along coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_difference_jacobian(
    g: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float] | np.ndarray,
    h: float = 1.0e-5,
) -> np.ndarray:
    """Central-difference Jacobian of a vector function (e.g. a gradient,
    giving a Hessian oracle). Column i holds d g / d x_i."""
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g_plus = np.asarray(g(x + step), dtype=float)
        g_minus = np.asarray(g(x - step), dtype=float)
        if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
            raise NumericalError(f"gradient not finite near x along coordinate {i}")
        cols.append((g_plus - g_minus) / (2.0 * h))
    return np.stack(cols, axis=1)
