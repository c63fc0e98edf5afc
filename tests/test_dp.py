import math

import numpy as np
import pytest

from qlbs.basis import FeatureMatrix, basis_values, feature_cube, make_spec, spec_for_states
from qlbs.dp import (
    RiskParams,
    compute_rewards,
    fit_hedge_coefficients,
    fit_q_coefficients,
    rollback_portfolio,
    run_model_based,
    run_model_based_batch,
    terminal_conditions,
)
from qlbs.market import MarketParams, StateKind, compute_states, simulate_gbm

from conftest import (
    GOLDEN_DT,
    GOLDEN_HEDGE_COEFFS_2,
    GOLDEN_HEDGE_T0,
    GOLDEN_HEDGES_2,
    GOLDEN_PHI2,
    GOLDEN_PI_HAT_T,
    GOLDEN_PI_T,
    GOLDEN_PORTFOLIO_2,
    GOLDEN_PRICE,
    GOLDEN_PRICES,
    GOLDEN_Q_2,
    GOLDEN_Q_T,
    GOLDEN_RATE,
    GOLDEN_REWARDS_2,
    GOLDEN_RIDGE,
    GOLDEN_STRIKE,
    GOLDEN_VALUE_COEFFS_2,
    PRICE_TOL,
    STAGE_TOL,
    TABLE_TOL,
    spoil,
)

GAMMA = math.exp(-GOLDEN_RATE * GOLDEN_DT)


def golden_increments():
    growth = math.exp(GOLDEN_RATE * GOLDEN_DT)
    delta_s = GOLDEN_PRICES[:, 3] - growth * GOLDEN_PRICES[:, 2]
    return delta_s, delta_s - delta_s.mean()


class TestRiskParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RiskParams(risk_aversion=-1e-4, gamma=0.99)
        with pytest.raises(ValueError):
            RiskParams(risk_aversion=1e-4, gamma=0.0)
        with pytest.raises(ValueError):
            RiskParams(risk_aversion=1e-4, gamma=1.5)

    def test_from_rate(self):
        risk = RiskParams.from_rate(1e-3, r=0.03, dt=1.0 / 3.0)
        assert risk.gamma == pytest.approx(math.exp(-0.01))

    def test_nan_risk_aversion_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RiskParams(risk_aversion=math.nan, gamma=0.99)
        with pytest.raises(ValueError, match="nonnegative"):
            RiskParams.from_rate(math.nan, r=0.03, dt=1.0 / 3.0)

    def test_infinite_risk_aversion_rejected(self):
        with pytest.raises(ValueError, match="risk_aversion must be finite"):
            RiskParams(risk_aversion=math.inf, gamma=0.99)

    def test_zero_risk_aversion_accepted(self):
        # The pure-risk hedge never divides by the risk aversion.
        assert RiskParams(risk_aversion=0.0, gamma=0.99).risk_aversion == 0.0
        assert RiskParams.from_rate(0.0, r=0.03, dt=1.0 / 3.0).risk_aversion == 0.0


class TestTerminalConditions:
    def test_golden_values(self, golden_paths, golden_risk):
        pi, pi_hat, hedge, reward, q = terminal_conditions(
            golden_paths, GOLDEN_STRIKE, golden_risk)
        assert np.allclose(pi, GOLDEN_PI_T, atol=TABLE_TOL)
        assert np.allclose(pi_hat, GOLDEN_PI_HAT_T, atol=TABLE_TOL)
        assert np.all(hedge == 0.0)
        assert np.allclose(q, GOLDEN_Q_T, atol=TABLE_TOL)
        assert np.allclose(reward, reward[0])
        assert reward[0] == pytest.approx(q[0] + pi[0], abs=1e-12)

    def test_all_paths_out_of_the_money(self, golden_paths, golden_risk):
        pi, _, _, reward, q = terminal_conditions(golden_paths, 50.0, golden_risk)
        assert np.all(pi == 0.0)
        assert np.all(q == 0.0)
        assert np.all(reward == 0.0)

    def test_strike_validation(self, golden_paths, golden_risk):
        with pytest.raises(ValueError):
            terminal_conditions(golden_paths, 0.0, golden_risk)

    @pytest.mark.parametrize("strike", [np.nan, np.inf, [100.0, np.nan]])
    def test_nonfinite_strike_rejected(self, golden_paths, golden_risk, strike):
        risk = golden_risk if np.ndim(strike) == 0 else [golden_risk] * 2
        with pytest.raises(ValueError, match="strike must be positive and finite"):
            terminal_conditions(golden_paths, strike, risk)
        with pytest.raises(ValueError, match="strike must be positive and finite"):
            run_model_based_batch(golden_paths, StateKind.PRICE,
                                  list(zip(np.atleast_1d(strike), np.atleast_1d(risk))))


class TestHedgeFit:
    def test_golden_coefficients(self, golden_risk):
        delta_s, delta_s_hat = golden_increments()
        payoff = np.maximum(GOLDEN_STRIKE - GOLDEN_PRICES[:, 3], 0.0)
        coeffs = fit_hedge_coefficients(
            FeatureMatrix(GOLDEN_PHI2), delta_s, delta_s_hat,
            payoff - payoff.mean(), golden_risk, regularizer=GOLDEN_RIDGE)
        assert np.allclose(coeffs, GOLDEN_HEDGE_COEFFS_2, atol=STAGE_TOL)

    def test_zero_target_gives_zero_coefficients(self, golden_risk):
        delta_s, delta_s_hat = golden_increments()
        coeffs = fit_hedge_coefficients(
            FeatureMatrix(GOLDEN_PHI2), delta_s, delta_s_hat,
            np.zeros(5), golden_risk, regularizer=GOLDEN_RIDGE)
        assert np.allclose(coeffs, 0.0, atol=1e-12)

    def test_delta_s_and_risk_do_not_enter_the_fit(self, golden_risk):
        delta_s, delta_s_hat = golden_increments()
        payoff = np.maximum(GOLDEN_STRIKE - GOLDEN_PRICES[:, 3], 0.0)
        pi_hat = payoff - payoff.mean()
        want = fit_hedge_coefficients(FeatureMatrix(GOLDEN_PHI2), delta_s,
                                      delta_s_hat, pi_hat, golden_risk)
        for risk in (RiskParams(0.0, golden_risk.gamma), RiskParams(1.0, 0.5)):
            got = fit_hedge_coefficients(FeatureMatrix(GOLDEN_PHI2), 10.0 * delta_s,
                                         delta_s_hat, pi_hat, risk)
            assert np.array_equal(got, want)

    def test_hedge_maximizes_step_objective(self):
        # Oracle: the per-step objective the hedge fit optimizes, compared
        # against 200 random coefficient perturbations.
        rng = np.random.default_rng(99)
        n_paths, n_basis = 50, 4
        spec = make_spec(-1.0, 1.0, n_basis=n_basis, order=3)
        states = rng.uniform(-1, 1, n_paths)
        features = basis_values(spec, states)
        delta_s = rng.normal(0.0, 1.0, n_paths)
        delta_s_hat = delta_s - delta_s.mean()
        pi_hat_next = rng.normal(0.0, 2.0, n_paths)
        risk = RiskParams(risk_aversion=0.001, gamma=0.99)

        coeffs = fit_hedge_coefficients(FeatureMatrix(features), delta_s,
                                        delta_s_hat, pi_hat_next, risk,
                                        regularizer=0.0)

        def step_cost(c):
            hedge = features @ c
            lam_gamma = risk.risk_aversion * risk.gamma
            return np.sum(lam_gamma * (pi_hat_next - hedge * delta_s_hat) ** 2)

        best = step_cost(coeffs)
        for _ in range(200):
            perturbed = coeffs + rng.normal(0.0, 0.05, n_basis)
            assert step_cost(perturbed) >= best - 1e-9


class TestHedgeValues:
    def test_golden_hedges(self):
        values = FeatureMatrix(GOLDEN_PHI2).fitted(GOLDEN_HEDGE_COEFFS_2)
        assert np.allclose(values, GOLDEN_HEDGES_2, atol=STAGE_TOL)

    def test_zero_coefficients(self):
        values = FeatureMatrix(GOLDEN_PHI2).fitted(np.zeros(3))
        assert np.all(values == 0.0)

    def test_benchmark_initial_hedge(self, bench):
        # Price-state hedge at time zero, averaged over the seed set.
        hedges = [bench.dp_summary(StateKind.PRICE, seed=s)[1]
                  for s in bench.SEEDS]
        assert np.mean(hedges) == pytest.approx(-0.36, abs=0.03)


class TestRollbackAndRewards:
    def test_golden_portfolio(self):
        delta_s, _ = golden_increments()
        pi_2 = rollback_portfolio(GOLDEN_PI_T, GOLDEN_HEDGES_2, delta_s, GAMMA)
        assert np.allclose(pi_2, GOLDEN_PORTFOLIO_2, atol=STAGE_TOL)

    def test_zero_hedge_is_discounting(self):
        pi_next = np.array([1.0, 2.0, 3.0])
        assert np.allclose(rollback_portfolio(pi_next, np.zeros(3), np.ones(3), 0.9),
                           0.9 * pi_next)

    def test_exact_cancellation(self):
        pi_next = np.array([2.0, -4.0])
        delta_s = np.array([0.5, 2.0])
        hedge = pi_next / delta_s
        assert np.allclose(rollback_portfolio(pi_next, hedge, delta_s, 1.0), 0.0)

    def test_golden_rewards(self):
        rewards = compute_rewards(GOLDEN_PI_T, GOLDEN_PORTFOLIO_2, GAMMA, 1e-3)
        assert np.allclose(rewards, GOLDEN_REWARDS_2, atol=STAGE_TOL)

    def test_zero_hedge_zero_risk_aversion_gives_zero_reward(self):
        pi_next = np.array([3.0, -1.0, 0.5])
        pi_t = rollback_portfolio(pi_next, np.zeros(3), np.ones(3), 0.97)
        rewards = compute_rewards(pi_next, pi_t, 0.97, 0.0)
        assert np.allclose(rewards, 0.0, atol=1e-12)

    def test_reward_two_form_identity(self):
        # gamma*Pi' - Pi - lam*Var(Pi) == gamma*a*dS - lam*Var(Pi) whenever
        # Pi is the rollback of Pi' under action a.
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = rng.integers(3, 40)
            gamma = rng.uniform(0.9, 1.0)
            lam = rng.uniform(0.0, 0.01)
            pi_next = rng.normal(0, 5, n)
            hedge = rng.normal(0, 2, n)
            delta_s = rng.normal(0, 3, n)
            pi_t = rollback_portfolio(pi_next, hedge, delta_s, gamma)
            lhs = compute_rewards(pi_next, pi_t, gamma, lam)
            rhs = gamma * hedge * delta_s - lam * np.var(pi_t)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8


class TestValueFit:
    def test_golden_coefficients(self):
        coeffs = fit_q_coefficients(FeatureMatrix(GOLDEN_PHI2), GOLDEN_REWARDS_2,
                                    GOLDEN_Q_T, GAMMA, regularizer=GOLDEN_RIDGE)
        assert np.allclose(coeffs, GOLDEN_VALUE_COEFFS_2, atol=STAGE_TOL)
        values = GOLDEN_PHI2 @ coeffs
        assert np.allclose(values, GOLDEN_Q_2, atol=STAGE_TOL)

    def test_constant_target_reproduced(self):
        spec = make_spec(0.0, 1.0, n_basis=5, order=3)
        features = basis_values(spec, np.linspace(0, 1, 40))
        coeffs = fit_q_coefficients(FeatureMatrix(features), np.full(40, 2.5),
                                    np.zeros(40), 1.0)
        assert np.allclose(features @ coeffs, 2.5, atol=1e-6)

    def test_square_system_interpolates(self):
        rng = np.random.default_rng(17)
        features = rng.uniform(0.1, 1.0, size=(4, 4)) + np.eye(4)
        target = rng.normal(size=4)
        coeffs = fit_q_coefficients(FeatureMatrix(features), target,
                                    np.zeros(4), 1.0, regularizer=0.0)
        oracle = np.linalg.solve(features, target)
        assert np.allclose(coeffs, oracle, atol=1e-8)
        assert np.allclose(features @ coeffs, target, atol=1e-8)


class TestRunModelBased:
    def test_golden_price(self, golden_solution):
        assert golden_solution.price_t0 == pytest.approx(GOLDEN_PRICE, abs=PRICE_TOL)
        assert golden_solution.hedge_t0 == pytest.approx(GOLDEN_HEDGE_T0, abs=0.02)

    def test_golden_intermediates(self, golden_solution):
        assert np.allclose(golden_solution.phi[2], GOLDEN_HEDGE_COEFFS_2, atol=STAGE_TOL)
        assert np.allclose(golden_solution.hedges[:, 2], GOLDEN_HEDGES_2, atol=STAGE_TOL)
        assert np.allclose(golden_solution.portfolio[:, 2], GOLDEN_PORTFOLIO_2, atol=STAGE_TOL)
        assert np.allclose(golden_solution.rewards[:, 2], GOLDEN_REWARDS_2, atol=STAGE_TOL)
        assert np.allclose(golden_solution.omega[2], GOLDEN_VALUE_COEFFS_2, atol=STAGE_TOL)
        assert np.allclose(golden_solution.q_values[:, 2], GOLDEN_Q_2, atol=STAGE_TOL)

    def test_terminal_hedge_closed_and_cash_identity(self, golden_solution, golden_paths):
        assert np.all(golden_solution.hedges[:, -1] == 0.0)
        cash = golden_solution.portfolio - golden_solution.hedges * golden_paths.prices
        assert np.allclose(golden_solution.cash, cash, atol=1e-12)

    def test_initial_values_constant_across_paths(self, golden_solution):
        assert np.ptp(golden_solution.q_values[:, 0]) <= 1e-9
        assert np.ptp(golden_solution.hedges[:, 0]) <= 1e-9

    def test_uniform_hedge_shift_is_concave(self):
        # Second difference of the step objective under a uniform shift of
        # the hedge is -2*lam*gamma^2*sum(dShat^2) < 0.
        params = MarketParams(s0=100, mu=0.05, sigma=0.2, r=0.03, maturity=0.5,
                              n_steps=4, n_paths=300, seed=21)
        paths = simulate_gbm(params)
        risk = RiskParams.from_rate(1e-3, params.r, params.dt)
        solution = run_model_based(paths, StateKind.PRICE, strike=100.0, risk=risk)
        growth = math.exp(params.r * params.dt)
        delta_s = paths.prices[:, 1] - growth * paths.prices[:, 0]
        delta_s_hat = delta_s - delta_s.mean()
        pi_hat_next = solution.portfolio[:, 1] - solution.portfolio[:, 1].mean()

        def objective(shift):
            hedge = solution.hedges[:, 0] + shift
            lam_gamma = risk.risk_aversion * risk.gamma
            return -np.sum(lam_gamma * (pi_hat_next - hedge * delta_s_hat) ** 2)

        eps = 0.05
        second_diff = objective(eps) - 2 * objective(0.0) + objective(-eps)
        expected = -2 * risk.risk_aversion * risk.gamma * eps**2 * np.sum(delta_s_hat**2)
        assert second_diff < 0
        assert second_diff == pytest.approx(expected, rel=1e-6)

    def test_vanishing_risk_aversion_recovers_discounted_payoff(self):
        # With drift equal to the risk-free rate the hedge gains have zero
        # mean, so the limit price is the discounted expected payoff.
        params = MarketParams(s0=100, mu=0.03, sigma=0.15, r=0.03, maturity=1.0,
                              n_steps=12, n_paths=20_000, seed=31)
        paths = simulate_gbm(params)
        risk = RiskParams.from_rate(1e-9, params.r, params.dt)
        solution = run_model_based(paths, StateKind.DRIFT_ADJUSTED, strike=100.0,
                                   risk=risk)
        payoff = np.maximum(100.0 - paths.prices[:, -1], 0.0)
        target = math.exp(-0.03) * payoff.mean()
        se = math.exp(-0.03) * payoff.std() / math.sqrt(payoff.size)
        assert abs(solution.price_t0 - target) <= 3 * se + 0.02

    def test_price_monotone_in_risk_aversion(self):
        params = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                              n_steps=12, n_paths=5000, seed=13)
        paths = simulate_gbm(params)
        prices = []
        for lam in (0.0, 1e-4, 1e-3, 2e-3):
            risk = RiskParams.from_rate(lam, params.r, params.dt)
            prices.append(run_model_based(paths, StateKind.DRIFT_ADJUSTED,
                                          strike=100.0, risk=risk).price_t0)
        assert all(b >= a - 1e-12 for a, b in zip(prices, prices[1:]))
        assert prices[-1] > prices[0]


def cube_run(n_basis):
    params = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                          n_steps=6, n_paths=500, seed=3)
    paths = simulate_gbm(params)
    states = compute_states(paths, StateKind.PRICE).values
    spec = spec_for_states(states, n_basis=n_basis, order=3)
    risk = RiskParams.from_rate(1e-3, params.r, params.dt)
    return paths, spec, feature_cube(spec, states), risk


class TestNonfiniteFeatures:
    # N = 100 puts every step on banded Gram assembly, N = 12 on the dense one.
    @pytest.mark.parametrize("n_basis", [12, 100])
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_run_model_based_rejects_nonfinite_cube(self, n_basis):
        paths, spec, cube, risk = cube_run(n_basis)
        with pytest.raises(ValueError, match="feature matrix must be finite"):
            run_model_based(paths, StateKind.PRICE, 100.0, risk, basis_spec=spec,
                            features=spoil(cube))


class TestFloat32Cube:
    @pytest.mark.parametrize("n_basis", [12, 100])
    def test_solved_in_float64(self, n_basis):
        paths, spec, cube, risk = cube_run(n_basis)
        single = cube.astype(np.float32)
        got = run_model_based(paths, StateKind.PRICE, 100.0, risk, basis_spec=spec,
                              features=single)
        want = run_model_based(paths, StateKind.PRICE, 100.0, risk, basis_spec=spec,
                               features=single.astype(float))
        assert got.price_t0 == want.price_t0 and got.hedge_t0 == want.hedge_t0
        assert np.array_equal(got.q_values, want.q_values)
