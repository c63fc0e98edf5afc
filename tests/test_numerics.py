import numpy as np
import pytest

from qlbs.numerics import (
    RankDeficientError,
    RidgeProblem,
    ridge_solve,
    row_band,
    scaled_regularizer,
    solve_normal_equations,
)

from conftest import (
    GOLDEN_PHI2,
    GOLDEN_PRICES,
    GOLDEN_Q_T,
    GOLDEN_REWARDS_2,
    GOLDEN_RIDGE,
    GOLDEN_VALUE_COEFFS_2,
)


class TestRidgeSolve:
    def test_identity_design(self):
        x = ridge_solve(RidgeProblem(np.eye(3), np.array([1.0, 2.0, 3.0])))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_golden_value_system(self):
        # The published value-coefficient solve at the third step: the
        # published feature matrix against reward + discounted next value,
        # with the reference ridge weight.
        gamma = np.exp(-0.01)
        target = GOLDEN_REWARDS_2 + gamma * GOLDEN_Q_T
        coeffs = ridge_solve(RidgeProblem(GOLDEN_PHI2, target, GOLDEN_RIDGE))
        assert np.allclose(coeffs, GOLDEN_VALUE_COEFFS_2, atol=0.05)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(7)
        design = rng.normal(size=(50, 6))
        target = rng.normal(size=50)
        x = ridge_solve(RidgeProblem(design, target, 0.0))
        oracle = np.linalg.inv(design.T @ design) @ design.T @ target
        assert np.max(np.abs(x - oracle)) <= 1e-8

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        design = rng.normal(size=(40, 5))
        target = rng.normal(size=40)
        for reg in (0.0, 1e-4, 1e-1):
            x = ridge_solve(RidgeProblem(design, target, reg))
            gradient = design.T @ (target - design @ x) - reg * x
            assert np.max(np.abs(gradient)) <= 1e-8 * np.linalg.norm(target)

    def test_shrinkage_monotone(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(30, 4))
        target = rng.normal(size=30)
        norms = [
            np.linalg.norm(ridge_solve(RidgeProblem(design, target, reg)))
            for reg in (0.0, 1e-3, 1e-1, 1.0, 10.0)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_rank_deficiency(self):
        design = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        target = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RankDeficientError):
            ridge_solve(RidgeProblem(design, target, 0.0))
        x = ridge_solve(RidgeProblem(design, target, 1e-8))
        assert np.all(np.isfinite(x))

    def test_validation(self):
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.array([1.0, 2.0]), -1.0)
        with pytest.raises(ValueError):
            RidgeProblem(np.eye(2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            RidgeProblem(np.array([[1.0, np.nan]]), np.array([1.0]))

    def test_asymmetric_input_is_symmetrized(self):
        gram = np.array([[2.0, 0.41], [0.42, 1.0]])
        rhs = np.array([1.0, 1.0])
        x = solve_normal_equations(gram, rhs)
        sym = 0.5 * (gram + gram.T)
        assert np.allclose(sym @ x, rhs, atol=1e-12)

    def test_scaled_regularizer(self):
        gram = np.diag([1.0, 2.0, 3.0])
        assert scaled_regularizer(gram, 1e-6) == pytest.approx(2e-6)


class TestGoldenHedgeSystem:
    def test_weighted_normal_equations(self, golden_paths):
        # Hedge-coefficient system at the third step, built from the
        # published feature matrix and exact increments.
        growth = np.exp(0.03 / 3.0)
        delta_s = GOLDEN_PRICES[:, 3] - growth * GOLDEN_PRICES[:, 2]
        delta_s_hat = delta_s - delta_s.mean()
        payoff = np.maximum(100.0 - GOLDEN_PRICES[:, 3], 0.0)
        pi_hat = payoff - payoff.mean()

        weighted = GOLDEN_PHI2 * delta_s_hat[:, np.newaxis]
        gram = weighted.T @ weighted
        rhs = GOLDEN_PHI2.T @ (pi_hat * delta_s_hat)
        coeffs = solve_normal_equations(gram, rhs, GOLDEN_RIDGE)
        assert np.allclose(coeffs, [-3.05, 11.37, 8.2], atol=0.05)


def dense_gram(matrix, weights):
    """The reference: sum_k w_k f_k f_k^T as one dense product."""
    return (matrix * weights[:, np.newaxis]).T @ matrix


def banded_matrix(rng, n_rows, n_cols, width):
    """Random rows with nonzeros in ``width`` consecutive columns; some
    entries inside a band are zero, and the first row spans the full width."""
    matrix = np.zeros((n_rows, n_cols))
    starts = rng.integers(0, n_cols - width + 1, size=n_rows)
    for k, start in enumerate(starts):
        matrix[k, start:start + width] = rng.normal(size=width)
    matrix[rng.random(matrix.shape) < 0.05] = 0.0
    matrix[0, starts[0]] = matrix[0, starts[0] + width - 1] = 1.5
    return matrix


def assert_gram_matches(matrix, root_weights):
    band = row_band(matrix)
    got = band.gram(root_weights)
    want = dense_gram(matrix, root_weights**2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    return band


class TestRowBandGram:
    @pytest.mark.parametrize("n_cols, width", [
        (n_cols, width) for n_cols in (1, 7, 40, 100)
        for width in (1, 2, 3, 5, 8, 10) if width <= n_cols])
    def test_random_banded_matrices(self, n_cols, width):
        rng = np.random.default_rng(100 * n_cols + width)
        matrix = banded_matrix(rng, 500, n_cols, width)
        band = assert_gram_matches(matrix, rng.normal(size=500))
        assert band.width == width
        assert_gram_matches(matrix, np.ones(500))

    def test_zero_weights(self):
        rng = np.random.default_rng(1)
        matrix = banded_matrix(rng, 300, 60, 4)
        assert np.array_equal(row_band(matrix).gram(np.zeros(300)), np.zeros((60, 60)))
        weights = rng.normal(size=300)
        weights[::3] = 0.0
        assert_gram_matches(matrix, weights)

    def test_all_zero_rows(self):
        rng = np.random.default_rng(2)
        matrix = banded_matrix(rng, 300, 50, 3)
        matrix[[5, 64, 299]] = 0.0
        band = assert_gram_matches(matrix, rng.normal(size=300))
        assert band.width == 3
        assert row_band(np.zeros((10, 6))).gram().sum() == 0.0

    def test_one_wide_row_sets_the_width(self):
        rng = np.random.default_rng(3)
        matrix = banded_matrix(rng, 300, 80, 2)
        matrix[77] = 0.0
        matrix[77, 10:19] = 1.0
        band = assert_gram_matches(matrix, rng.normal(size=300))
        assert band.width == 9

    def test_full_matrix(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(200, 30))
        band = assert_gram_matches(matrix, rng.normal(size=200))
        assert band.width == 30

    @pytest.mark.filterwarnings("error")  # no numpy warning from the Gram
    def test_nonfinite_entries_count_as_nonzero(self):
        matrix = np.zeros((4, 20))
        matrix[:, 3] = 1.0
        matrix[1, 9] = np.nan
        matrix[2, 15] = np.inf
        band = row_band(matrix)
        assert band.width == 13
        assert np.isnan(band.gram()[9, 9]) and np.isinf(band.gram()[15, 15])


class TestRowBandProducts:
    @pytest.mark.parametrize("n_cols, width", [(1, 1), (40, 3), (100, 10)])
    def test_rhs_fitted_and_dense(self, n_cols, width):
        rng = np.random.default_rng(10 * n_cols + width)
        matrix = banded_matrix(rng, 400, n_cols, width)
        band = row_band(matrix)
        assert np.array_equal(band.dense(), matrix)
        targets = rng.normal(size=(3, 400))
        coefficients = rng.normal(size=(3, n_cols))
        for got, want in [(band.rhs(targets), targets @ matrix),
                          (band.rhs(targets[1]), targets[1] @ matrix),
                          (band.fitted(coefficients), coefficients @ matrix.T),
                          (band.fitted(coefficients[1]), coefficients[1] @ matrix.T)]:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
