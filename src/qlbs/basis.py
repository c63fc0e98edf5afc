"""Clamped B-spline basis used as features by both solvers.

The basis is built once over the global range of the chosen state
variable across all paths and time steps; sharing one knot vector keeps
the regression coefficients comparable across time. Evaluation clamps
out-of-domain points to the domain edge, so feature rows always form a
partition of unity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RowBand, row_band, scatter_band

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
    """Basis values for the paths at one time step, shape (K, n_basis), with
    their dense products. ``FeatureMatrix(values)`` reads the values as
    float64 and checks them finite; :meth:`_unchecked` does neither."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if not np.all(np.isfinite(values)):
            raise ValueError("feature matrix must be finite")

    @classmethod
    def _unchecked(cls, values: np.ndarray) -> "FeatureMatrix":
        """A (K, n_basis) float64 slab held as it is, without the checks."""
        step = object.__new__(cls)
        object.__setattr__(step, "values", values)
        return step

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_basis(self) -> int:
        return self.values.shape[1]

    def gram(self, root_weights: np.ndarray | None = None) -> np.ndarray:
        """sum_k r_k^2 f_k f_k^T over the rows f_k.

        A nonfinite feature makes its diagonal entry nonfinite, without a
        numpy warning: the solvers' check reports it.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            weighted = (self.values if root_weights is None
                        else self.values * root_weights[:, np.newaxis])
            return weighted.T @ weighted

    def rhs(self, targets: np.ndarray) -> np.ndarray:
        """targets @ F: (K,) targets give (n_basis,), (C, K) give (C, n_basis)."""
        return targets @ self.values

    def fitted(self, coefficients: np.ndarray) -> np.ndarray:
        """coefficients @ F^T: (n_basis,) give (K,), (C, n_basis) give (C, K)."""
        return coefficients @ self.values.T


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


def _band_pays(n_basis: int, width: int) -> bool:
    return n_basis >= _BANDED_MIN_BASIS and _BANDED_MAX_WIDTH_SHARE * width <= n_basis


@dataclass(frozen=True)
class SplineFeatures:
    """A feature cube held by its nonzeros: ``order`` splines per point.

    The point of path k at time t has its nonzero features in columns
    ``first[t, k]`` .. ``first[t, k] + order - 1``, with entries
    ``values[t, :, k]``; every other column is zero. ``first`` is
    (T+1, K) and ``values`` (T+1, order, K), so the cube takes order / N
    of the dense (T+1, K, N) cube's memory, plus ``first``.
    """

    first: np.ndarray
    values: np.ndarray
    n_basis: int

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the dense cube, (T+1, K, n_basis)."""
        n_times, _, n_paths = self.values.shape
        return n_times, n_paths, self.n_basis

    def band(self, t: int) -> RowBand:
        """Time step t as a row band of width ``order``."""
        order = self.values.shape[1]
        return RowBand(columns=self.first[t] + np.arange(order)[:, np.newaxis],
                       values=self.values[t], n_cols=self.n_basis)


@dataclass(frozen=True)
class SplineSteps:
    """The spline features of a (K, T+1) state matrix, evaluated one time
    step at a time as a pass reads it.

    Holds the spec and the states, not the features: ``band(t)`` runs the
    Cox-de Boor recursion on the states of step t each time it is called,
    with the same call on the same column as :func:`spline_features`, so
    every step equals that of the stored cube bit for bit. It suits a
    pass that is the features' only reader; a caller whose features are
    read more than once stores them with :func:`spline_features`.
    """

    spec: BasisSpec
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))

    @property
    def shape(self) -> tuple[int, int, int]:
        """Shape of the dense cube, (T+1, K, n_basis)."""
        n_paths, n_times = self.states.shape
        return n_times, n_paths, self.spec.n_basis

    def band(self, t: int) -> RowBand:
        """Time step t as a row band of width ``order``, evaluated now."""
        first, values = _cox_de_boor(self.spec, self.states[:, t])
        return RowBand(columns=first + np.arange(self.spec.order)[:, np.newaxis],
                       values=values, n_cols=self.spec.n_basis)


def step_features(features, t: int) -> FeatureMatrix | RowBand:
    """Time step t of a dense (T+1, K, N) cube, of SplineFeatures or of
    SplineSteps, in the one form all its products take: its row band when
    banded assembly pays, else its dense slab, read as float64, as an
    unchecked FeatureMatrix.

    A dense slab is scanned for its band only from ``_BANDED_MIN_BASIS``
    columns on. Its band equals that of SplineFeatures of the same
    numbers, and so do all the sums, unless every row of the step has
    fewer than ``order`` nonzeros (every point exactly on a knot), which
    narrows the scanned band.
    """
    if isinstance(features, (SplineFeatures, SplineSteps)):
        band = features.band(t)
        if _band_pays(band.n_cols, band.width):
            return band
        return FeatureMatrix._unchecked(band.dense())
    slab = np.asarray(features[t], dtype=float)
    if slab.shape[1] >= _BANDED_MIN_BASIS:
        band = row_band(slab)
        if _band_pays(band.n_cols, band.width):
            return band
    return FeatureMatrix._unchecked(slab)


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


def _cox_de_boor(spec: BasisSpec, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, values) of the points: point i is clamped to [lo, hi], its
    nonzero splines are columns first[i] .. first[i] + order - 1 and
    their values are values[:, i], so ``values`` is (order, len(points))."""
    x = np.clip(points, spec.lo, spec.hi)
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
    return span - p, values


def basis_values(spec: BasisSpec, points) -> np.ndarray:
    """Evaluate all basis functions at many points, vectorized.

    Points are clamped to [lo, hi] first. Returns shape (len(points),
    n_basis); each row is nonnegative, sums to one, and has at most
    ``order`` consecutive nonzero entries. All points are evaluated in
    one pass, with scratch of about 5 * order doubles per point.
    """
    x = np.asarray(points, dtype=float).ravel()
    return scatter_band(np.zeros((x.size, spec.n_basis)), *_cox_de_boor(spec, x))


def feature_cube(spec: BasisSpec, state_values: np.ndarray) -> np.ndarray:
    """Stack feature matrices for every time step: a dense densifier for
    callers that want the whole cube.

    ``state_values`` has shape (K, T+1); the result has shape
    (T+1, K, n_basis), evaluated one time step at a time. The solvers
    read :class:`SplineSteps` or :func:`spline_features` instead, which
    hold the same numbers in the states' memory or in order / n_basis of
    the cube's.
    """
    state_values = np.asarray(state_values, dtype=float)
    n_paths, n_times = state_values.shape
    out = np.zeros((n_times, n_paths, spec.n_basis))
    for t in range(n_times):
        scatter_band(out[t], *_cox_de_boor(spec, state_values[:, t]))
    return out


def spline_features(spec: BasisSpec, state_values: np.ndarray) -> SplineFeatures:
    """The feature cube of a (K, T+1) state matrix in compact form, stored.

    Holds the same numbers as :func:`feature_cube` without the zeros.
    Each time step is evaluated on its own K states, so a build needs
    scratch of about 5 * order * K doubles beside its output. Callers
    store it only when more than one pass reads the features (a fitted-Q
    run or the DP's hedges after the DP itself); for a single pass,
    :class:`SplineSteps` evaluates each step as the pass reaches it.
    """
    state_values = np.asarray(state_values, dtype=float)
    n_paths, n_times = state_values.shape
    first = np.empty((n_times, n_paths), dtype=np.int64)
    values = np.empty((n_times, spec.order, n_paths))
    for t in range(n_times):
        first[t], values[t] = _cox_de_boor(spec, state_values[:, t])
    return SplineFeatures(first=first, values=values, n_basis=spec.n_basis)


def spec_for_states(state_values: np.ndarray, n_basis: int = DEFAULT_N_BASIS,
                    order: int = DEFAULT_ORDER) -> BasisSpec:
    """Spec spanning the global min/max of a state matrix."""
    return make_spec(float(np.min(state_values)), float(np.max(state_values)),
                     n_basis=n_basis, order=order)
