"""Clamped B-spline basis used as features by both solvers.

The basis is built once over the global range of the chosen state
variable across all paths and time steps; sharing one knot vector keeps
the regression coefficients comparable across time. Evaluation clamps
out-of-domain points to the domain edge, so feature rows always form a
partition of unity.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import RowBand, row_band

DEFAULT_N_BASIS = 12
DEFAULT_ORDER = 4

# Relative padding applied to the data range before placing knots.
_DOMAIN_PAD = 1e-6


@dataclass(frozen=True)
class BasisSpec:
    """A clamped knot vector for ``n_basis`` splines of a given order.

    ``order`` counts coefficients per polynomial piece (order = degree + 1,
    so order 1 is piecewise constant and order 4 cubic). The knot vector
    has length ``n_basis + order`` with the first and last knot repeated
    ``order`` times.
    """

    knots: np.ndarray
    n_basis: int
    order: int

    def __post_init__(self):
        knots = np.array(self.knots, dtype=float)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.n_basis < self.order:
            raise ValueError("n_basis must be at least the spline order")
        if knots.size != self.n_basis + self.order:
            raise ValueError("knot vector must have n_basis + order entries")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if knots[self.n_basis - 1] == knots[self.n_basis]:
            raise ValueError("the last knot span [knots[n_basis-1], "
                             "knots[n_basis]] must be nonempty")

    @property
    def degree(self) -> int:
        return self.order - 1

    @property
    def lo(self) -> float:
        return float(self.knots[self.order - 1])

    @property
    def hi(self) -> float:
        return float(self.knots[self.n_basis])


@dataclass(frozen=True)
class FeatureMatrix:
    """Basis values for the paths at one time step, shape (K, n_basis)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature matrix must be finite")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_basis(self) -> int:
        return self.values.shape[1]


# Banded Gram assembly pays only when the basis is large and each row's
# band narrow. Both Grams of a step on 10k rows (2 cores, numpy 2.4 with
# OpenBLAS), band extraction included, as a share of the dense BLAS time:
#   N = 12: width 1 2.00, width 4 4.18 (dense 0.6 ms)
#   N = 40: width 1 0.67, width 4 0.97, width 5 1.08 (dense 3.7 ms)
#   N = 50: width 3 0.69, width 5 0.85, width 6 1.03 (dense 4.9 ms)
#   N = 64: width 6 0.70, width 8 0.86, width 10 1.16
#   N = 100: width 3 0.37, width 10 0.70, width 12 0.89, width 14 1.13
#            (dense 13 ms)
#   N = 150: width 10 0.52, width 16 0.82, width 20 1.21
# The extraction alone, wasted when the band turns out too wide, costs
# 0.6-0.7 of the dense time at N = 40-50 and a third at N = 100. So a
# band is extracted only from 50 columns on and used when its width is
# at most a tenth of the columns.
_BANDED_MIN_BASIS = 50
_BANDED_MAX_WIDTH_SHARE = 10


class StepFeatures:
    """One time step's (K, n_basis) slab of a feature cube, unchecked.

    The backward passes pass one per step where a FeatureMatrix would go,
    so no slab is copied or scanned. A nonfinite feature is caught by
    :meth:`gram` instead: the diagonal entry sum_k r_k^2 f_kj^2 is
    nonfinite exactly when column j holds one (or a square overflows).
    Both Grams of a step share the row band, extracted on first use.
    """

    def __init__(self, values: np.ndarray):
        self.values = values

    @functools.cached_property
    def band(self) -> RowBand | None:
        """The slab's row band when banded Gram assembly is cheaper, else None."""
        n_basis = self.values.shape[1]
        if n_basis < _BANDED_MIN_BASIS:
            return None
        band = row_band(self.values)
        return band if _BANDED_MAX_WIDTH_SHARE * band.width <= n_basis else None

    def gram(self, root_weights: np.ndarray | None = None) -> np.ndarray:
        """sum_k r_k^2 f_k f_k^T over the rows f_k, by band or by BLAS."""
        if self.band is not None:
            gram = self.band.gram(root_weights)
        else:
            weighted = (self.values if root_weights is None
                        else self.values * root_weights[:, np.newaxis])
            gram = weighted.T @ weighted
        if not np.all(np.isfinite(np.diagonal(gram))):
            raise ValueError("feature matrix must be finite")
        return gram


def make_spec(data_lo: float, data_hi: float, n_basis: int = DEFAULT_N_BASIS,
              order: int = DEFAULT_ORDER) -> BasisSpec:
    """Build a clamped, uniformly spaced knot vector covering the data range.

    The domain is padded by 1e-6 of its width on each side so that
    observed extremes sit strictly inside it.
    """
    if not (np.isfinite(data_lo) and np.isfinite(data_hi)):
        raise ValueError("data range must be finite")
    if data_lo >= data_hi:
        raise ValueError("data_lo must be strictly below data_hi")
    if order < 1 or n_basis < order:
        raise ValueError("need n_basis >= order >= 1")
    pad = _DOMAIN_PAD * (data_hi - data_lo)
    lo, hi = data_lo - pad, data_hi + pad
    # n_basis - order interior knots; breakpoints are uniform in [lo, hi].
    breaks = np.linspace(lo, hi, n_basis - order + 2)
    knots = np.concatenate([np.full(order - 1, lo), breaks, np.full(order - 1, hi)])
    return BasisSpec(knots=knots, n_basis=n_basis, order=order)


def basis_values(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate all basis functions at many points, vectorized.

    Points are clamped to [lo, hi] first. Returns shape (len(points),
    n_basis); each row is nonnegative, sums to one, and has at most
    ``order`` consecutive nonzero entries.
    """
    x = np.clip(np.asarray(points, dtype=float).ravel(), spec.lo, spec.hi)
    t = spec.knots
    p = spec.degree
    n = spec.n_basis
    span = np.searchsorted(t, x, side="right") - 1
    span = np.clip(span, p, n - 1)

    # Triangular Cox-de Boor scheme over the order nonzero functions. Every
    # denominator right[i+1] + left[j-i] is at least t[span+1] - t[span],
    # which is positive: the search puts x in a nonempty span and
    # BasisSpec guarantees the last span, used at x == hi, is nonempty.
    m = x.size
    values = np.empty((p + 1, m))
    values[0] = 1.0
    left = np.empty((p + 1, m))
    right = np.empty((p + 1, m))
    for j in range(1, p + 1):
        left[j] = x - t[span + 1 - j]
        right[j] = t[span + j] - x
        saved = 0.0
        for i in range(j):
            ratio = values[i] / (right[i + 1] + left[j - i])
            values[i] = saved + right[i + 1] * ratio
            saved = left[j - i] * ratio
        values[j] = saved

    out = np.zeros((m, n))
    rows = np.arange(m)[:, np.newaxis]
    cols = span[:, np.newaxis] - p + np.arange(p + 1)[np.newaxis, :]
    out[rows, cols] = values.T
    return out


def eval_basis(spec: BasisSpec, x: float) -> np.ndarray:
    """Basis vector (length n_basis) at a single point."""
    return basis_values(spec, [x])[0]


def feature_matrix(spec: BasisSpec, states_at_t) -> FeatureMatrix:
    """Feature matrix for one time step: row k = basis at state k."""
    return FeatureMatrix(values=basis_values(spec, states_at_t))


def feature_cube(spec: BasisSpec, state_values: np.ndarray) -> np.ndarray:
    """Stack feature matrices for every time step.

    ``state_values`` has shape (K, T+1); the result has shape
    (T+1, K, n_basis).
    """
    state_values = np.asarray(state_values, dtype=float)
    n_paths, n_times = state_values.shape
    flat = basis_values(spec, state_values.T.ravel())
    return flat.reshape(n_times, n_paths, spec.n_basis)


def spec_for_states(state_values: np.ndarray, n_basis: int = DEFAULT_N_BASIS,
                    order: int = DEFAULT_ORDER) -> BasisSpec:
    """Spec spanning the global min/max of a state matrix."""
    return make_spec(float(np.min(state_values)), float(np.max(state_values)),
                     n_basis=n_basis, order=order)
