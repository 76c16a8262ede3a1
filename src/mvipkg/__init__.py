"""Gaussian variational posteriors seeded by a Laplace fit.

The package builds a Laplace approximation of a differentiable unnormalised
log posterior, then refines it inside Gaussian families whose covariance
roots reuse the Laplace decompositions (fixed Cholesky root, rescaled
eigenbasis, rank-one updated root, or a free diagonal baseline). The
variational objectives average the log posterior over a frozen set of
standard-normal draws, so every fit is a deterministic optimisation problem.

Submodules:
    models       differentiable log-posterior models on RBF features (Cauchy
                 regression, binary logistic, softmax)
    optimize     deterministic L-BFGS minimiser
    laplace      mode finding, curvature fit, hyperparameter grid search
    variational  families, entropies, fixed-sample ELBO and gradients
    evaluate     Monte Carlo LPD, error metrics, exact fit curve, 2-D KL
    stats        sign test, bootstrap intervals, significance decisions
    data         synthetic tasks, CSV loading, split plans
    bench        per-split orchestration and report assembly
    cli          command-line entry point
"""

__version__ = "0.1.0"

__all__ = [
    "bench",
    "cli",
    "data",
    "errors",
    "evaluate",
    "laplace",
    "models",
    "optimize",
    "stats",
    "variational",
]
