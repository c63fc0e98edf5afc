import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlbs.basis import (
    BasisSpec,
    StepFeatures,
    basis_values,
    eval_basis,
    feature_cube,
    feature_matrix,
    make_spec,
)

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


class TestMatchesGuardedRecursion:
    @staticmethod
    def probe_points(spec, rng):
        width = spec.hi - spec.lo
        return np.concatenate([
            spec.knots, [spec.lo, spec.hi],
            [spec.lo - 1.0, spec.hi + 1.0, spec.lo - 10 * width, spec.hi + 10 * width],
            rng.uniform(spec.lo, spec.hi, 200),
        ])

    @pytest.mark.parametrize("order", range(1, 11))
    def test_uniform_knots(self, order):
        rng = np.random.default_rng(order)
        for n_basis in (order, order + 1, order + 9):
            spec = make_spec(-1.5, 2.5, n_basis=n_basis, order=order)
            x = self.probe_points(spec, rng)
            assert np.array_equal(basis_values(spec, x), guarded_basis_values(spec, x))

    @pytest.mark.parametrize("order", range(1, 11))
    def test_nonuniform_knots_with_repeated_interior_knot(self, order):
        # Interior breaks 0.1, 0.35, 0.35 (repeated) and 0.9 on [0, 1].
        interior = [0.1, 0.35, 0.35, 0.9]
        knots = np.concatenate([np.zeros(order), interior, np.ones(order)])
        spec = BasisSpec(knots=knots, n_basis=len(interior) + order, order=order)
        x = self.probe_points(spec, np.random.default_rng(100 + order))
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


class TestEvalBasis:
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
        row = eval_basis(spec, lo + u * width)
        assert abs(row.sum() - 1.0) <= 1e-12
        assert np.all(row >= 0.0)

    def test_left_endpoint_interpolation(self):
        spec = make_spec(2.0, 5.0, n_basis=6, order=4)
        row = eval_basis(spec, spec.lo)
        assert row[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(row[1:], 0.0, atol=1e-12)

    def test_right_endpoint_interpolation(self):
        spec = make_spec(2.0, 5.0, n_basis=6, order=4)
        row = eval_basis(spec, spec.hi)
        assert row[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(row[:-1], 0.0, atol=1e-12)

    def test_clamping_beyond_domain(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=3)
        assert np.array_equal(eval_basis(spec, -10.0), eval_basis(spec, spec.lo))
        assert np.array_equal(eval_basis(spec, 10.0), eval_basis(spec, spec.hi))

    def test_against_recursive_oracle(self):
        rng = np.random.default_rng(42)
        for order in (1, 2, 3, 4, 6):
            for n_basis in (order, order + 1, order + 5):
                spec = make_spec(-3.0, 7.0, n_basis=n_basis, order=order)
                for x in rng.uniform(spec.lo, spec.hi, size=20):
                    mine = eval_basis(spec, float(x))
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
            row = eval_basis(spec, float(x))
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
        assert np.allclose(eval_basis(spec, 0.1), [1, 0, 0, 0])
        assert np.allclose(eval_basis(spec, 0.99), [0, 0, 0, 1])
        assert np.allclose(eval_basis(spec, spec.hi), [0, 0, 0, 1])


class TestFeatureMatrix:
    def test_constant_states_give_identical_rows(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=3)
        fm = feature_matrix(spec, np.full(7, 0.4))
        assert np.allclose(fm.values, fm.values[0])

    def test_rows_sum_to_one(self):
        spec = make_spec(-2.0, 2.0, n_basis=8, order=4)
        fm = feature_matrix(spec, np.linspace(-3, 3, 50))
        assert np.allclose(fm.values.sum(axis=1), 1.0, atol=1e-12)

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
    @pytest.mark.parametrize("n_basis, order, banded", [
        (12, 4, False),   # desk scale stays on the dense product
        (49, 1, False),   # too few columns to look for a band
        (50, 3, True),
        (50, 6, False),   # the band is wider than a tenth of the columns
        (50, 10, False),
        (100, 1, True),
        (100, 10, True),
    ])
    def test_assembly_rule(self, n_basis, order, banded):
        rng = np.random.default_rng(order)
        values = basis_values(make_spec(-3.0, 3.0, n_basis, order), rng.normal(size=2000))
        step = StepFeatures(values)
        assert (step.band is not None) == banded
        weights = rng.normal(size=2000)
        want = (values * (weights**2)[:, np.newaxis]).T @ values
        got = step.gram(weights)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_full_matrix_takes_the_dense_product(self):
        values = np.random.default_rng(5).normal(size=(300, 60))
        step = StepFeatures(values)
        assert step.band is None
        assert np.array_equal(step.gram(), values.T @ values)

    @pytest.mark.parametrize("n_basis", [12, 100])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_feature_rejected(self, n_basis, bad):
        values = basis_values(make_spec(-3.0, 3.0, n_basis, 3),
                              np.random.default_rng(6).normal(size=1000))
        values[17, np.flatnonzero(values[17])[0]] = bad
        with pytest.raises(ValueError, match="feature matrix must be finite"):
            StepFeatures(values).gram(np.ones(1000))
