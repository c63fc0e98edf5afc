import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlbs import basis, dp, fqi
from qlbs.basis import (
    BasisSpec,
    FeatureMatrix,
    SplineFeatures,
    StepFeatures,
    basis_values,
    feature_cube,
    make_spec,
    spline_features,
    step_features,
)
from qlbs.numerics import RowBand

from conftest import GOLDEN_DOMAIN, GOLDEN_PHI2, GOLDEN_PRICES


def naive_cox_de_boor(knots, degree, i, x, right_edge):
    """Textbook recursive B-spline definition, used as an oracle."""
    if degree == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # Closed right end of the last nonempty interval.
        if x == right_edge and knots[i] < knots[i + 1] == right_edge:
            return 1.0
        return 0.0
    value = 0.0
    left_den = knots[i + degree] - knots[i]
    if left_den > 0:
        value += (x - knots[i]) / left_den * naive_cox_de_boor(
            knots, degree - 1, i, x, right_edge)
    right_den = knots[i + degree + 1] - knots[i + 1]
    if right_den > 0:
        value += (knots[i + degree + 1] - x) / right_den * naive_cox_de_boor(
            knots, degree - 1, i + 1, x, right_edge)
    return value


def naive_basis_row(spec, x):
    return np.array([
        naive_cox_de_boor(spec.knots, spec.degree, i, x, spec.hi)
        for i in range(spec.n_basis)
    ])


def guarded_basis_values(spec, points):
    """The original Cox-de Boor scheme, which zeroed every ratio whose
    denominator was not positive."""
    x = np.clip(np.asarray(points, dtype=float).ravel(), spec.lo, spec.hi)
    t, p, n = spec.knots, spec.degree, spec.n_basis
    span = np.clip(np.searchsorted(t, x, side="right") - 1, p, n - 1)
    m = x.size
    values = np.zeros((m, p + 1))
    values[:, 0] = 1.0
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = x - t[span + 1 - j]
        right[:, j] = t[span + j] - x
        saved = np.zeros(m)
        for i in range(j):
            denom = right[:, i + 1] + left[:, j - i]
            ratio = np.where(denom > 0, values[:, i] / np.where(denom > 0, denom, 1.0), 0.0)
            values[:, i] = saved + right[:, i + 1] * ratio
            saved = left[:, j - i] * ratio
        values[:, j] = saved
    out = np.zeros((m, n))
    cols = span[:, np.newaxis] - p + np.arange(p + 1)[np.newaxis, :]
    out[np.arange(m)[:, np.newaxis], cols] = values
    return out


def whole_array_basis_values(spec, points):
    """Cox-de Boor over all points at once with one 2-D scatter: the
    evaluation before it was split into blocks of bounded scratch."""
    x = np.clip(np.asarray(points, dtype=float).ravel(), spec.lo, spec.hi)
    t = spec.knots
    p = spec.degree
    n = spec.n_basis
    span = np.searchsorted(t, x, side="right") - 1
    span = np.clip(span, p, n - 1)
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


def dense_cube(features: SplineFeatures) -> np.ndarray:
    """The dense (T+1, K, n_basis) cube that compact features hold."""
    return np.array([features.band(t).dense() for t in range(features.shape[0])])


def probe_points(spec, rng, n_draws=200):
    """Every knot, lo and hi, points beyond both ends, then uniform draws."""
    width = spec.hi - spec.lo
    return np.concatenate([
        spec.knots, [spec.lo, spec.hi],
        [spec.lo - 1.0, spec.hi + 1.0, spec.lo - 10 * width, spec.hi + 10 * width],
        rng.uniform(spec.lo, spec.hi, n_draws),
    ])


class TestBlockedEvaluation:
    # 13 paths x 5 times = 65 points in blocks of 16: blocks end inside a
    # time step, and the last block holds the single point 64.
    N_PATHS, N_TIMES, BLOCK = 13, 5, 16

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        def set_order(order):
            monkeypatch.setattr(basis, "_BLOCK_DOUBLES", self.BLOCK * order)
        return set_order

    @pytest.mark.parametrize("order", range(1, 11))
    def test_blocks_match_whole_array_evaluation(self, order, small_blocks):
        spec = make_spec(-1.5, 2.5, n_basis=order + 9, order=order)
        rng = np.random.default_rng(order)
        # The knots and edge points take n_basis + order + 6 of the 65.
        points = probe_points(spec, rng, 65 - (spec.n_basis + order + 6))
        states = rng.permutation(points).reshape(self.N_PATHS, self.N_TIMES)
        want = whole_array_basis_values(spec, states.T.ravel())
        small_blocks(order)
        sizes = [b.size for _, b, _ in basis._spline_blocks(spec, states.T.ravel())]
        assert sizes == [16, 16, 16, 16, 1]
        assert np.array_equal(basis_values(spec, states.T.ravel()), want)
        cube = want.reshape(self.N_TIMES, self.N_PATHS, spec.n_basis)
        assert np.array_equal(feature_cube(spec, states), cube)
        compact = spline_features(spec, states)
        assert compact.first.shape == (self.N_TIMES, self.N_PATHS)
        assert compact.values.shape == (self.N_TIMES, order, self.N_PATHS)
        assert compact.shape == cube.shape
        assert np.array_equal(dense_cube(compact), cube)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_default_budget_matches_whole_array_evaluation(self, order):
        spec = make_spec(-1.5, 2.5, n_basis=order + 9, order=order)
        x = probe_points(spec, np.random.default_rng(order))
        assert np.array_equal(basis_values(spec, x), whole_array_basis_values(spec, x))

    @pytest.mark.parametrize("n_basis, order", [(12, 4), (100, 1), (100, 10)])
    def test_compact_densifies_to_the_feature_cube(self, n_basis, order):
        states = np.random.default_rng(order).normal(size=(300, 7)).cumsum(axis=1)
        spec = make_spec(states.min(), states.max(), n_basis, order)
        compact = spline_features(spec, states)
        cube = feature_cube(spec, states)
        assert np.array_equal(dense_cube(compact), cube)
        for t in range(7):
            assert np.array_equal(compact.band(t).dense(), cube[t])

    # Blocked evaluation bounds the scratch of a build: besides its output
    # and one flat copy of the states, no more than eight arrays of the
    # default budget, 2**16 doubles (4 MiB in all).
    SCRATCH_BYTES = 8 * 8 * 2**16

    def test_feature_cube_peak_is_its_output_plus_bounded_scratch(self):
        # 40k points at N = 100, order 10: a 32 MB cube. Whole-array
        # scratch would add about 13 MB.
        states = np.random.default_rng(9).normal(size=(4000, 10))
        spec = make_spec(states.min(), states.max(), n_basis=100, order=10)
        tracemalloc.start()
        try:
            cube = feature_cube(spec, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = cube.nbytes + states.nbytes + self.SCRATCH_BYTES
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB above {bound / 1e6:.1f} MB"

    def test_spline_features_peak_is_its_output_plus_bounded_scratch(self):
        # The desk shape: 10k paths x 25 times, 12 cubic splines, a 10 MB
        # result from 2 MB of states; it peaks near 15 MB. With blocks of
        # 2**20 doubles the whole build is one block and peaks near 48 MB.
        states = np.random.default_rng(10).normal(size=(10_000, 25)).cumsum(axis=1)
        spec = make_spec(states.min(), states.max(), n_basis=12, order=4)
        tracemalloc.start()
        try:
            compact = spline_features(spec, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = compact.first.nbytes + compact.values.nbytes
        bound = output + states.nbytes + self.SCRATCH_BYTES
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB above {bound / 1e6:.1f} MB"


class TestMatchesGuardedRecursion:
    @pytest.mark.parametrize("order", range(1, 11))
    def test_uniform_knots(self, order):
        rng = np.random.default_rng(order)
        for n_basis in (order, order + 1, order + 9):
            spec = make_spec(-1.5, 2.5, n_basis=n_basis, order=order)
            x = probe_points(spec, rng)
            assert np.array_equal(basis_values(spec, x), guarded_basis_values(spec, x))

    @pytest.mark.parametrize("order", range(1, 11))
    def test_nonuniform_knots_with_repeated_interior_knot(self, order):
        # Interior breaks 0.1, 0.35, 0.35 (repeated) and 0.9 on [0, 1].
        interior = [0.1, 0.35, 0.35, 0.9]
        knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
        spec = BasisSpec(knots=knots, n_basis=len(interior) + order, order=order)
        x = probe_points(spec, np.random.default_rng(100 + order))
        values = basis_values(spec, x)
        assert np.array_equal(values, guarded_basis_values(spec, x))
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-12)


class TestMakeSpec:
    def test_knot_structure(self):
        spec = make_spec(0.0, 1.0, n_basis=4, order=4)
        assert spec.knots.size == 8
        # Clamped: order-fold end knots, one interior break.
        assert np.allclose(spec.knots[:4], spec.knots[0])
        assert np.allclose(spec.knots[-4:], spec.knots[-1])
        interior = spec.knots[4:-4]
        assert interior.size == 0
        mid = spec.knots[3:5]
        assert spec.knots[0] < np.median(spec.knots) < spec.knots[-1]
        assert mid[0] <= mid[1]

    def test_interior_knots_uniform(self):
        spec = make_spec(0.0, 10.0, n_basis=8, order=3)
        breaks = np.unique(spec.knots)
        assert np.allclose(np.diff(breaks), np.diff(breaks)[0])

    def test_domain_padding(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=2)
        assert spec.lo < 0.0 < 1.0 < spec.hi
        assert spec.hi - 1.0 == pytest.approx(1e-6, rel=0.01)

    def test_three_linear_splines_use_five_knots(self):
        spec = make_spec(85.25, 128.43, n_basis=3, order=2)
        assert spec.knots.size == 5
        # Ends doubled, one interior knot at the midpoint.
        assert spec.knots[0] == spec.knots[1]
        assert spec.knots[3] == spec.knots[4]
        assert spec.knots[2] == pytest.approx(0.5 * (spec.lo + spec.hi))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(0.0, 1.0, n_basis=2, order=3)
        with pytest.raises(ValueError):
            make_spec(1.0, 1.0, n_basis=4, order=2)
        with pytest.raises(ValueError):
            make_spec(0.0, 1.0, n_basis=3, order=0)

    def test_bernstein_case_rows_sum_to_one(self):
        # n_basis == order: no interior knots, global support.
        spec = make_spec(-1.0, 1.0, n_basis=4, order=4)
        rows = basis_values(spec, np.linspace(-1, 1, 9))
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(rows > -1e-15)

    def test_golden_feature_matrix(self):
        spec = make_spec(*GOLDEN_DOMAIN, n_basis=3, order=3)
        values = basis_values(spec, GOLDEN_PRICES[:, 2])
        assert np.max(np.abs(values - GOLDEN_PHI2)) <= 0.01
        # The published matrix is this basis rounded to two decimals.
        assert np.array_equal(np.round(values, 2), GOLDEN_PHI2)


class TestBasisValues:
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.floats(-50, 50),
        width=st.floats(0.5, 100),
        n_extra=st.integers(0, 6),
        order=st.integers(1, 6),
        u=st.floats(0, 1),
    )
    def test_partition_of_unity(self, lo, width, n_extra, order, u):
        spec = make_spec(lo, lo + width, n_basis=order + n_extra, order=order)
        row = basis_values(spec, [lo + u * width])[0]
        assert abs(row.sum() - 1.0) <= 1e-12
        assert np.all(row >= 0.0)

    def test_left_endpoint_interpolation(self):
        spec = make_spec(2.0, 5.0, n_basis=6, order=4)
        row = basis_values(spec, [spec.lo])[0]
        assert row[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(row[1:], 0.0, atol=1e-12)

    def test_right_endpoint_interpolation(self):
        spec = make_spec(2.0, 5.0, n_basis=6, order=4)
        row = basis_values(spec, [spec.hi])[0]
        assert row[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(row[:-1], 0.0, atol=1e-12)

    def test_clamping_beyond_domain(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=3)
        values = basis_values(spec, [-10.0, spec.lo, 10.0, spec.hi])
        assert np.array_equal(values[0], values[1])
        assert np.array_equal(values[2], values[3])

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(42)
        for order in (1, 2, 3, 4, 6):
            for n_basis in (order, order + 1, order + 5):
                spec = make_spec(-3.0, 7.0, n_basis=n_basis, order=order)
                for x in rng.uniform(spec.lo, spec.hi, size=20):
                    mine = basis_values(spec, [float(x)])[0]
                    oracle = naive_basis_row(spec, float(x))
                    assert np.allclose(mine, oracle, atol=1e-12)

    def test_against_scipy(self):
        scipy_interp = pytest.importorskip("scipy.interpolate")
        spec = make_spec(0.0, 4.0, n_basis=9, order=4)
        xs = np.linspace(spec.lo, spec.hi, 31)
        design = scipy_interp.BSpline.design_matrix(xs, spec.knots, spec.degree)
        assert np.allclose(basis_values(spec, xs), design.toarray(), atol=1e-12)

    def test_local_support(self):
        spec = make_spec(0.0, 1.0, n_basis=10, order=3)
        for x in np.linspace(0.01, 0.99, 17):
            row = basis_values(spec, [float(x)])[0]
            nonzero = np.flatnonzero(row > 1e-14)
            assert nonzero.size <= spec.order
            assert np.all(np.diff(nonzero) == 1)

    def test_continuity_at_interior_knots(self):
        # Order p is C^(p-2) at simple interior knots: values match for
        # p >= 2 and first derivatives for p >= 3.
        eps = 1e-9
        for order in (2, 3, 4):
            spec = make_spec(0.0, 1.0, n_basis=order + 4, order=order)
            interior = np.unique(spec.knots)[1:-1]
            for knot in interior:
                left = basis_values(spec, [knot - eps])[0]
                right = basis_values(spec, [knot + eps])[0]
                assert np.allclose(left, right, atol=1e-6)
                if order >= 3:
                    dleft = (basis_values(spec, [knot - eps])[0]
                             - basis_values(spec, [knot - 2 * eps])[0]) / eps
                    dright = (basis_values(spec, [knot + 2 * eps])[0]
                              - basis_values(spec, [knot + eps])[0]) / eps
                    assert np.allclose(dleft, dright, atol=1e-4)

    def test_order_one_is_piecewise_constant(self):
        spec = make_spec(0.0, 1.0, n_basis=4, order=1)
        assert np.allclose(basis_values(spec, [0.1])[0], [1, 0, 0, 0])
        assert np.allclose(basis_values(spec, [0.99])[0], [0, 0, 0, 1])
        assert np.allclose(basis_values(spec, [spec.hi])[0], [0, 0, 0, 1])


class TestFeatureCube:
    def test_constant_states_give_identical_rows(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=3)
        values = basis_values(spec, np.full(7, 0.4))
        assert np.array_equal(values, np.broadcast_to(values[0], values.shape))

    def test_rows_sum_to_one(self):
        spec = make_spec(-2.0, 2.0, n_basis=8, order=4)
        values = basis_values(spec, np.linspace(-3, 3, 50))
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-12)

    def test_feature_cube_layout(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=2)
        states = np.random.default_rng(0).uniform(0, 1, size=(6, 4))
        cube = feature_cube(spec, states)
        assert cube.shape == (4, 6, 5)
        for t in range(4):
            assert np.allclose(cube[t], basis_values(spec, states[:, t]))

    def test_spec_requires_nondecreasing_knots(self):
        with pytest.raises(ValueError):
            BasisSpec(knots=np.array([0.0, 1.0, 0.5, 2.0, 3.0]), n_basis=3, order=2)

    @pytest.mark.parametrize("knots, n_basis, order", [
        ([0, 0, 1, 1, 1, 1], 4, 2),   # knots[3] == knots[4] == 1
        ([0, 0, 0, 0], 2, 2),         # lo == hi
        ([0, 0, 0, 0], 3, 1),
    ])
    def test_spec_requires_nonempty_last_span(self, knots, n_basis, order):
        with pytest.raises(ValueError, match="last knot span"):
            BasisSpec(knots=knots, n_basis=n_basis, order=order)

    def test_spec_requires_finite_knots(self):
        with pytest.raises(ValueError, match="finite"):
            BasisSpec(knots=[0, 0, 0.5, np.inf, np.inf], n_basis=3, order=2)


class TestStepFeatures:
    """One rule picks each step's form, whichever form the caller holds."""

    @pytest.mark.parametrize("n_basis, order, banded", [
        (12, 4, False),   # desk scale stays on the dense products
        (49, 1, False),   # too few columns to look for a band
        (50, 3, True),
        (50, 5, True),
        (50, 6, False),   # the band is wider than a tenth of the columns
        (50, 10, False),
        (100, 1, True),
        (100, 10, True),
        (100, 11, False),
    ])
    def test_assembly_rule(self, n_basis, order, banded):
        rng = np.random.default_rng(n_basis + order)
        states = rng.normal(size=(2000, 3))
        spec = make_spec(states.min(), states.max(), n_basis, order)
        cube = feature_cube(spec, states)
        dense = cube[1]
        # Step 1 from a dense cube, from SplineFeatures, and as the per-step
        # solver functions read a FeatureMatrix.
        steps = {"cube": step_features(cube, 1),
                 "compact": step_features(spline_features(spec, states), 1),
                 "matrix": dp._step(FeatureMatrix(dense))}
        weights, targets = rng.normal(size=2000), rng.normal(size=(3, 2000))
        coefficients = rng.normal(size=(3, n_basis))
        weighted = dense * weights[:, np.newaxis]
        want = [weighted.T @ weighted, targets @ dense, targets[0] @ dense,
                coefficients @ dense.T, coefficients[0] @ dense.T]
        # A band sums in another order than BLAS; a dense slab is BLAS.
        tol = 1e-13 if banded else 0.0
        products = {}
        for name, step in steps.items():
            if banded:
                assert isinstance(step, RowBand) and step.width == order, name
            else:
                assert isinstance(step, StepFeatures), name
                assert step.values.dtype == np.float64
                assert np.array_equal(step.values, dense), name
            products[name] = [step.gram(weights), step.rhs(targets), step.rhs(targets[0]),
                              step.fitted(coefficients), step.fitted(coefficients[0])]
            for got, ref in zip(products[name], want):
                assert got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref)), name
        for name in ("compact", "matrix"):
            for got, ref in zip(products[name], products["cube"]):
                assert np.array_equal(got, ref), name

    def test_full_matrix_takes_the_dense_product(self):
        values = np.random.default_rng(5).normal(size=(300, 60))
        step = step_features(values[np.newaxis], 0)
        assert isinstance(step, StepFeatures)
        assert np.array_equal(step.gram(), values.T @ values)

    # The solvers read features unchecked; the normal equations of the DP
    # and of fitted Q catch a nonfinite one on the Gram diagonal, from a
    # dense slab at N = 12 and from a row band at N = 100, whichever form
    # held it.
    @pytest.mark.parametrize("n_basis", [12, 100])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_nonfinite_feature_rejected(self, n_basis, bad):
        rng = np.random.default_rng(6)
        states = rng.normal(size=(1000, 3))
        spec = make_spec(states.min(), states.max(), n_basis, 3)
        cube = feature_cube(spec, states)
        compact = spline_features(spec, states)
        cube[2, 17, compact.first[2, 17]] = bad
        compact.values[2, 0, 17] = bad
        risk = dp.RiskParams(risk_aversion=1e-3, gamma=0.99)
        targets = rng.normal(size=(3, 1000))
        for features in (cube, compact):
            step = step_features(features, 2)
            assert isinstance(step, StepFeatures if n_basis == 12 else RowBand)
            with pytest.raises(ValueError, match="feature matrix must be finite"):
                dp.fit_hedge_coefficients(step, targets[0], targets[1], targets[2], risk)
            with pytest.raises(ValueError, match="feature matrix must be finite"):
                dp.fit_q_coefficients(step, targets[0], targets[1], risk.gamma)
            with pytest.raises(ValueError, match="feature matrix must be finite"):
                fqi.fqi_backward_step(targets[0], targets[1], step, targets[2],
                                      risk.gamma)
