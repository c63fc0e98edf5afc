"""Regularized least squares shared by the solvers.

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


def effective_ridge(gram: np.ndarray, regularizer: float | None) -> float:
    """Absolute ridge weight: an explicit value wins, else the scaled default."""
    if regularizer is not None:
        return regularizer
    return scaled_regularizer(gram)


@dataclass(frozen=True)
class RowBand:
    """The nonzeros of a (K, N) matrix, held as one band of w columns per row.

    Row k keeps columns ``columns[:, k]``, w consecutive ones, and their
    entries ``values[:, k]``; every entry outside its row's band is zero.
    Both arrays are (w, K), so each band position is contiguous over rows.
    """

    columns: np.ndarray
    values: np.ndarray
    n_cols: int

    @property
    def width(self) -> int:
        return self.values.shape[0]

    def gram(self, root_weights: np.ndarray | None = None) -> np.ndarray:
        """sum_k r_k^2 f_k f_k^T for rows f_k, one bincount per diagonal.

        Diagonal d of the Gram sums the products of band positions i and
        i + d over rows, binned by the column of position i; diagonals at
        or beyond the width are zero.
        """
        width, n = self.width, self.n_cols
        values = self.values if root_weights is None else self.values * root_weights
        gram = np.zeros((n, n))
        for d in range(width):
            sums = np.bincount(self.columns[:width - d].ravel(),
                               (values[:width - d] * values[d:]).ravel(), n - d)
            i = np.arange(n - d)
            gram[i, i + d] = sums
            gram[i + d, i] = sums
        return gram

    def rhs(self, targets: np.ndarray) -> np.ndarray:
        """targets @ M: one bincount over the band per row of targets.

        (K,) targets give (n_cols,), (C, K) targets give (C, n_cols).
        """
        targets = np.asarray(targets)
        columns = self.columns.ravel()
        sums = [np.bincount(columns, (self.values * row).ravel(), self.n_cols)
                for row in targets.reshape(-1, targets.shape[-1])]
        return np.reshape(sums, targets.shape[:-1] + (self.n_cols,))

    def fitted(self, coefficients: np.ndarray) -> np.ndarray:
        """coefficients @ M^T, summed over the band positions.

        (n_cols,) coefficients give (K,), (C, n_cols) give (C, K).
        """
        coefficients = np.asarray(coefficients)
        out = coefficients[..., self.columns[0]] * self.values[0]
        for p in range(1, self.width):
            out += coefficients[..., self.columns[p]] * self.values[p]
        return out

    def dense(self) -> np.ndarray:
        """The (K, n_cols) matrix the band holds."""
        n_rows = self.values.shape[1]
        out = np.zeros((n_rows, self.n_cols))
        np.put(out, self.columns + np.arange(0, n_rows * self.n_cols, self.n_cols),
               self.values)
        return out


def row_band(matrix: np.ndarray) -> RowBand:
    """The narrowest common band that holds every nonzero of each row.

    w is the largest last - first + 1 over the rows' nonzero columns (NaN
    and inf count as nonzero), so the band is exact for any matrix. A row
    starts at its first nonzero column, moved left where the band would
    pass the last column; an all-zero row keeps a band of zeros.
    """
    n_rows, n_cols = matrix.shape
    nonzero = matrix != 0
    first = nonzero.argmax(axis=1)
    end = n_cols - nonzero[:, ::-1].argmax(axis=1)
    width = int(np.max((end - first) * nonzero.any(axis=1), initial=1))
    columns = np.minimum(first, n_cols - width) + np.arange(width)[:, np.newaxis]
    values = np.take(matrix, columns + np.arange(0, n_rows * n_cols, n_cols))
    return RowBand(columns=columns, values=values, n_cols=n_cols)

