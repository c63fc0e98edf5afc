"""Regularized least squares and cross-sectional statistics shared by the solvers.

Everything here works on the normal equations: the solvers assemble
either a design/target pair or a precomputed Gram matrix and right-hand
side, and both are solved through the same symmetric positive-definite
solver.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default relative ridge weight; the absolute value used in a solve is
# relative * trace(gram) / n_coefficients.
DEFAULT_RIDGE_REL = 1e-9


class RankDeficientError(np.linalg.LinAlgError):
    """Raised when an unregularized system has no unique solution."""


@dataclass(frozen=True)
class RidgeProblem:
    """Least squares with an optional absolute ridge penalty."""

    design: np.ndarray
    target: np.ndarray
    regularizer: float = 0.0

    def __post_init__(self):
        design = np.asarray(self.design, dtype=float)
        target = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "target", target)
        if design.ndim != 2 or target.ndim != 1:
            raise ValueError("design must be 2-D and target 1-D")
        if design.shape[0] != target.shape[0]:
            raise ValueError("design and target row counts differ")
        if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
            raise ValueError("design and target must be finite")
        if self.regularizer < 0:
            raise ValueError("regularizer must be nonnegative")


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray,
                           regularizer: float = 0.0) -> np.ndarray:
    """Solve (G + reg*I) x = rhs, checked positive definite by Cholesky.

    G is expected symmetric positive semidefinite (a Gram matrix). A
    singular system with reg = 0 raises RankDeficientError. numpy has no
    triangular solve, so the checked system is solved directly.
    """
    gram = np.asarray(gram, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if regularizer < 0:
        raise ValueError("regularizer must be nonnegative")
    system = gram if regularizer == 0 else gram + regularizer * np.eye(gram.shape[0])
    # Symmetrize: callers may pass a numerically (or textually) asymmetric matrix.
    system = 0.5 * (system + system.T)
    try:
        np.linalg.cholesky(system)
    except np.linalg.LinAlgError as err:
        if regularizer == 0:
            raise RankDeficientError(
                "normal equations are singular; supply a positive regularizer"
            ) from err
        raise
    return np.linalg.solve(system, rhs)


def ridge_solve(problem: RidgeProblem) -> np.ndarray:
    """Solve a RidgeProblem through its normal equations.

    With regularizer 0 and a full-rank design this is ordinary least
    squares.
    """
    gram = problem.design.T @ problem.design
    rhs = problem.design.T @ problem.target
    return solve_normal_equations(gram, rhs, problem.regularizer)


def scaled_regularizer(gram: np.ndarray, relative: float = DEFAULT_RIDGE_REL) -> float:
    """Absolute ridge weight: relative * trace(G) / M.

    Scaling by the mean diagonal entry makes one relative setting usable
    across problems of very different magnitudes.
    """
    gram = np.asarray(gram)
    trace = float(np.trace(gram))
    if trace <= 0:
        return relative
    return relative * trace / gram.shape[0]


def cross_sectional_stats(values) -> tuple[float, float]:
    """Arithmetic mean and population variance (divide by K) of a sample."""
    values = np.asarray(values, dtype=float)
    if values.size < 1:
        raise ValueError("need at least one value")
    return float(values.mean()), float(values.var())
