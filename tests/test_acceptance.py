"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible in captured output) and then
asserts, so a plain pytest run both reports and enforces the criteria.
"""
import math
import time

import numpy as np
import pytest

from qlbs.basis import FeatureMatrix, basis_values, make_spec
from qlbs.bsm import bsm_put_delta, bsm_put_price
from qlbs.dp import (
    RiskParams,
    compute_rewards,
    fit_hedge_coefficients,
    rollback_portfolio,
    run_model_based,
)
from qlbs.experiments import Scenario, ScenarioConfig, run_scenario, terminal_wealth
from qlbs.fqi import WMatrix, greedy_action
from qlbs.market import (
    BENCHMARK_STATE_KINDS,
    MarketParams,
    StateKind,
    compute_states,
    simulate_gbm,
)
from qlbs.numerics import RidgeProblem, ridge_solve

from conftest import (
    GOLDEN_DELTA_S_2,
    GOLDEN_DELTA_S_HAT_2,
    GOLDEN_HEDGE_COEFFS_2,
    GOLDEN_HEDGES_2,
    GOLDEN_PI_HAT_T,
    GOLDEN_PI_T,
    GOLDEN_PORTFOLIO_2,
    GOLDEN_PRICE,
    GOLDEN_Q_2,
    GOLDEN_Q_T,
    GOLDEN_RATE,
    GOLDEN_REWARDS_2,
    GOLDEN_RIDGE,
    GOLDEN_STRIKE,
    GOLDEN_VALUE_COEFFS_2,
)

SEEDS = (0, 1, 2, 3, 4)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if passed else 'FAIL'} - {detail}")


def seed_mean(values) -> float:
    return float(np.mean(values))


def sweep(scenario, market, **fields):
    """Report table of one scenario over SEEDS, through the scenario runner."""
    return run_scenario(ScenarioConfig(scenario=scenario, market=market,
                                       seeds=SEEDS, **fields))


def prices(table, **filters) -> list:
    return table.select(**filters).column("price")


class TestCriterion1Analytic:
    def test_benchmark_prices_and_deltas(self):
        price_cases = [(0.15, 4.53), (0.25, 8.39), (0.40, 14.18)]
        delta_cases = [(0.15, -0.39), (0.25, -0.40), (0.40, -0.39)]
        price_errs = [abs(bsm_put_price(100, 100, 0.03, s, 1.0) - v)
                      for s, v in price_cases]
        delta_errs = [abs(bsm_put_delta(100, 100, 0.03, s, 1.0) - v)
                      for s, v in delta_cases]
        ok = max(price_errs) <= 0.005 and max(delta_errs) <= 0.005
        report(1, ok, f"price errs {['%.4f' % e for e in price_errs]}, "
                      f"delta errs {['%.4f' % e for e in delta_errs]}")
        assert ok


class TestCriterion2GoldenFixture:
    def test_worked_example_reproduction(self, golden_paths, golden_risk,
                                         golden_spec, golden_features):
        from qlbs.market import price_increments

        started = time.perf_counter()
        solution = run_model_based(golden_paths, StateKind.PRICE,
                                   strike=GOLDEN_STRIKE, risk=golden_risk,
                                   basis_spec=golden_spec,
                                   features=golden_features,
                                   regularizer=GOLDEN_RIDGE)
        elapsed = time.perf_counter() - started

        inc = price_increments(golden_paths, GOLDEN_RATE)
        payoff = solution.portfolio[:, -1]
        checks = {
            "Pi_T": (payoff, GOLDEN_PI_T, 0.01),
            "PiHat_T": (payoff - payoff.mean(), GOLDEN_PI_HAT_T, 0.01),
            "Q_T": (solution.q_values[:, -1], GOLDEN_Q_T, 0.01),
            "dS_2": (inc.delta_s[:, 2], GOLDEN_DELTA_S_2, 0.01),
            "dShat_2": (inc.delta_s_hat[:, 2], GOLDEN_DELTA_S_HAT_2, 0.01),
            "phi_2": (solution.phi[2], GOLDEN_HEDGE_COEFFS_2, 0.05),
            "a_2": (solution.hedges[:, 2], GOLDEN_HEDGES_2, 0.05),
            "Pi_2": (solution.portfolio[:, 2], GOLDEN_PORTFOLIO_2, 0.05),
            "R_2": (solution.rewards[:, 2], GOLDEN_REWARDS_2, 0.05),
            "omega_2": (solution.omega[2], GOLDEN_VALUE_COEFFS_2, 0.05),
            "Q_2": (solution.q_values[:, 2], GOLDEN_Q_2, 0.05),
        }
        failures = [
            f"{name} ({np.max(np.abs(np.asarray(got) - want)):.4f} > {tol})"
            for name, (got, want, tol) in checks.items()
            if np.max(np.abs(np.asarray(got) - want)) > tol
        ]
        price_err = abs(solution.price_t0 - GOLDEN_PRICE)
        if price_err > 0.02:
            failures.append(f"price ({price_err:.4f} > 0.02)")
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        report(2, not failures,
               f"price {solution.price_t0:.4f} vs {GOLDEN_PRICE}, "
               f"runtime {elapsed * 1000:.0f}ms"
               + (f"; failures: {failures}" if failures else ""))
        assert not failures


class TestCriterion3ModelBasedPricing:
    @pytest.mark.parametrize("sigma,target,tol",
                             [(0.15, 4.53, 0.10), (0.25, 8.39, 0.25),
                              (0.40, 14.18, 0.70)])
    def test_volatility_band(self, bench, sigma, target, tol):
        details = []
        ok = True
        for kind in BENCHMARK_STATE_KINDS:
            started = time.perf_counter()
            prices = [bench.dp_summary(kind, sigma=sigma, seed=s)[0]
                      for s in SEEDS]
            elapsed = time.perf_counter() - started
            mean = seed_mean(prices)
            cell_ok = abs(mean - target) <= tol and elapsed <= 120 * len(SEEDS)
            ok &= cell_ok
            details.append(f"{kind.value}={mean:.3f}")
        report(3, ok, f"sigma={sigma}: " + ", ".join(details)
                      + f" vs {target}+-{tol}")
        assert ok


class TestCriterion4MethodAgreement:
    def test_model_free_matches_model_based(self, bench):
        gaps = {}
        for noise in (0.2, 0.0):
            table = sweep(Scenario.SINGLE, bench.market(), noise=noise,
                          state_kinds=(StateKind.DRIFT_ADJUSTED,))
            gaps[noise] = max(abs(f - d) for d, f in zip(
                prices(table, method="dp"), prices(table, method="fqi")))
        ok = gaps[0.2] <= 0.05 and gaps[0.0] <= 0.05
        report(4, ok, f"max |model-free - model-based|: eta=0.2 -> {gaps[0.2]:.4f}, "
                      f"eta=0 -> {gaps[0.0]:.4f} (limit 0.05)")
        assert ok


class TestCriterion5NoiseRobustness:
    def test_high_noise_small_sample(self, bench):
        bsm = bsm_put_price(100, 100, 0.03, 0.2, 1.0)
        errors = {}
        means = {}
        table = sweep(Scenario.NOISE_GRID, bench.market(sigma=0.2),
                      state_kinds=(StateKind.DRIFT_ADJUSTED,),
                      sweep={"path_counts": (100, 5000), "noise_levels": (0.8,)})
        for n_paths in (100, 5000):
            per_seed = prices(table, n_paths=n_paths)
            means[n_paths] = seed_mean(per_seed)
            errors[n_paths] = float(np.mean([abs(p - bsm) for p in per_seed]))
        rel = abs(means[5000] - bsm) / bsm
        ok = rel <= 0.05 and errors[5000] <= errors[100]
        report(5, ok, f"K=5000 price {means[5000]:.3f} vs benchmark {bsm:.3f} "
                      f"({rel:.2%}); errors K=5000 {errors[5000]:.3f} <= "
                      f"K=100 {errors[100]:.3f}")
        assert ok


@pytest.mark.slow
class TestCriterion6HedgingFrequency:
    def test_all_frequencies_in_band(self, bench):
        lo, hi = 4.40, 4.65
        out_of_band = []
        values = []
        table = sweep(Scenario.HEDGE_FREQUENCY, bench.market(), noise=0.2,
                      sweep={"step_counts": (52, 26, 12, 2)})
        for n_steps in (52, 26, 12, 2):
            for kind in BENCHMARK_STATE_KINDS:
                cell = table.select(n_steps=n_steps, state=kind.value)
                dp_mean = seed_mean(prices(cell, method="dp"))
                fqi_mean = seed_mean(prices(cell, method="fqi"))
                values += [dp_mean, fqi_mean]
                for label, value in (("dp", dp_mean), ("fqi", fqi_mean)):
                    if not lo <= value <= hi:
                        out_of_band.append(
                            f"{label}/{kind.value}/n={n_steps}: {value:.3f}")
        ok = not out_of_band
        report(6, ok, f"{len(values)} seed-averaged prices in "
                      f"[{min(values):.3f}, {max(values):.3f}] vs [{lo}, {hi}]"
                      + (f"; outliers {out_of_band}" if out_of_band else ""))
        assert ok


@pytest.mark.slow
class TestCriterion7Moneyness:
    def test_strike_sweep(self, bench):
        started = time.perf_counter()
        strikes = [float(z) for z in range(60, 141, 5)]
        table = sweep(Scenario.MONEYNESS, bench.market(),
                      sweep={"strikes": strikes, "risk_aversions": (1e-4, 1e-3)})
        rel_devs = []
        itm_violations = []
        for lam in (1e-4, 1e-3):
            for strike in strikes:
                bsm = bsm_put_price(100, strike, 0.03, 0.15, 1.0)
                for kind in BENCHMARK_STATE_KINDS:
                    mean = seed_mean(prices(table, risk_aversion=lam,
                                            strike=strike, state=kind.value))
                    if lam == 1e-4 and bsm > 0.5:
                        rel_devs.append(abs(mean - bsm) / bsm)
                    if lam == 1e-3 and strike >= 120 and mean < bsm:
                        itm_violations.append(f"{kind.value}@{strike}")
        elapsed = time.perf_counter() - started
        mean_rel = float(np.mean(rel_devs))
        ok = mean_rel <= 0.05 and not itm_violations and elapsed <= 300
        report(7, ok, f"mean relative deviation {mean_rel:.2%} (limit 5%); "
                      f"deep ITM violations {itm_violations or 'none'}; "
                      f"runtime {elapsed:.0f}s (limit 300)")
        assert ok


class TestCriterion8TransactionCosts:
    def test_terminal_wealth_pattern(self, bench):
        stats = {}
        for kind in BENCHMARK_STATE_KINDS:
            samples = []
            for seed in SEEDS:
                paths = bench.paths(seed=seed)
                solution = bench.dp_run(kind, risk_aversion=2e-3, seed=seed)
                samples.append(terminal_wealth(paths, solution.hedges,
                                               100.0, 0.01, solution.price_t0))
            pooled = np.concatenate(samples)
            stats[kind] = (float(pooled.mean()), float(np.median(pooled)))

        ret_mean, ret_median = stats[StateKind.LOG_RETURN]
        x_mean, x_median = stats[StateKind.DRIFT_ADJUSTED]
        s_mean, s_median = stats[StateKind.PRICE]

        paths = bench.paths(seed=0)
        solution = bench.dp_run(StateKind.LOG_RETURN, risk_aversion=2e-3, seed=0)
        cost_means = [
            terminal_wealth(paths, solution.hedges, 100.0, c,
                            solution.price_t0).mean()
            for c in (0.0, 0.005, 0.01, 0.02)
        ]

        clauses = {
            "return state has highest mean": ret_mean > max(x_mean, s_mean),
            "return state has highest median": ret_median > max(x_median, s_median),
            "drift/price medians negative": x_median < 0 and s_median < 0,
            "return median positive": ret_median > 0,
            "mean strictly decreasing in cost": all(
                a > b for a, b in zip(cost_means, cost_means[1:])),
        }
        failed = [name for name, passed in clauses.items() if not passed]
        detail = (f"means X={x_mean:.3f} S={s_mean:.3f} ret={ret_mean:.3f}; "
                  f"medians X={x_median:.3f} S={s_median:.3f} ret={ret_median:.3f}")
        report(8, not failed, detail + (f"; failed: {failed}" if failed else ""))
        assert not failed, f"failed clauses: {failed} ({detail})"


class TestCriterion9PropertySuite:
    def test_property_bundle(self, bench):
        rng = np.random.default_rng(2024)
        failures = []

        # B-spline partition of unity.
        spec = make_spec(-2.0, 3.0, n_basis=11, order=4)
        sums = basis_values(spec, rng.uniform(-2, 3, 200)).sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-12:
            failures.append("partition of unity")

        # Terminal hedge is flat zero.
        solution = bench.dp_run(StateKind.DRIFT_ADJUSTED, seed=0)
        if not np.all(solution.hedges[:, -1] == 0.0):
            failures.append("terminal hedge")

        # Reward two-form identity on random instances.
        for _ in range(20):
            n = int(rng.integers(3, 30))
            gamma = float(rng.uniform(0.9, 1.0))
            lam = float(rng.uniform(0, 0.01))
            pi_next = rng.normal(0, 5, n)
            hedge = rng.normal(0, 2, n)
            delta_s = rng.normal(0, 3, n)
            pi_t = rollback_portfolio(pi_next, hedge, delta_s, gamma)
            lhs = compute_rewards(pi_next, pi_t, gamma, lam)
            rhs = gamma * hedge * delta_s - lam * np.var(pi_t)
            if np.max(np.abs(lhs - rhs)) > 1e-8:
                failures.append("reward identity")
                break

        # Ridge solver against the dense-inverse oracle.
        design = rng.normal(size=(60, 7))
        target = rng.normal(size=60)
        solved = ridge_solve(RidgeProblem(design, target, 0.0))
        oracle = np.linalg.inv(design.T @ design) @ design.T @ target
        if np.max(np.abs(solved - oracle)) > 1e-8:
            failures.append("ridge vs dense inverse")

        # Greedy maximizer against a grid search.
        for _ in range(10):
            w = rng.normal(size=(3, 4))
            w[2] = -np.abs(w[2]) - 0.1
            phi = np.abs(rng.normal(size=4)) + 0.05
            a_star = greedy_action(WMatrix(w), phi)
            u = w @ phi
            grid = np.arange(a_star - 1, a_star + 1 + 1e-9, 1e-3)
            q = u[0] + grid * u[1] + 0.5 * grid**2 * u[2]
            if u[0] + a_star * u[1] + 0.5 * a_star**2 * u[2] < q.max() - 1e-12:
                failures.append("greedy vs grid")
                break

        # Fitted hedge beats 200 random perturbations of its coefficients.
        spec = make_spec(-1.0, 1.0, n_basis=4, order=3)
        states = rng.uniform(-1, 1, 60)
        features = basis_values(spec, states)
        delta_s = rng.normal(0, 1, 60)
        delta_s_hat = delta_s - delta_s.mean()
        pi_hat_next = rng.normal(0, 2, 60)
        risk = RiskParams(risk_aversion=1e-3, gamma=0.99)
        coeffs = fit_hedge_coefficients(FeatureMatrix(features), delta_s,
                                        delta_s_hat, pi_hat_next, risk,
                                        regularizer=0.0)

        def hedge_cost(c):
            return np.sum((pi_hat_next - (features @ c) * delta_s_hat) ** 2)

        base_cost = hedge_cost(coeffs)
        for _ in range(200):
            if hedge_cost(coeffs + rng.normal(0, 0.05, 4)) < base_cost - 1e-9:
                failures.append("hedge perturbation optimality")
                break

        # Martingale state has centered increments.
        paths = bench.paths(seed=0)
        increments = np.diff(
            compute_states(paths, StateKind.DRIFT_ADJUSTED).values, axis=1)
        k = increments.shape[0]
        for t in range(increments.shape[1]):
            col = increments[:, t]
            if abs(col.mean()) > 3 * col.std() / math.sqrt(k):
                failures.append("martingale increments")
                break

        # Price is monotone in the risk aversion.
        params = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                              n_steps=12, n_paths=5000, seed=4)
        paths = simulate_gbm(params)
        prices = []
        for lam in (0.0, 1e-4, 1e-3, 2e-3):
            risk = RiskParams.from_rate(lam, params.r, params.dt)
            prices.append(run_model_based(paths, StateKind.DRIFT_ADJUSTED,
                                          strike=100.0, risk=risk).price_t0)
        if not all(b >= a - 1e-12 for a, b in zip(prices, prices[1:])):
            failures.append("price monotone in risk aversion")

        report(9, not failures, "all property checks"
               + (f"; failed: {failures}" if failures else " passed"))
        assert not failures


@pytest.mark.slow
class TestCriterion10BasisSensitivity:
    def test_sweep_completes_and_return_state_is_stable(self, bench):
        bsm = bsm_put_price(100, 100, 0.03, 0.15, 1.0)
        deviations = {StateKind.LOG_RETURN: [], StateKind.DRIFT_ADJUSTED: []}
        table = sweep(Scenario.BASIS_SENSITIVITY, bench.market(),
                      sweep={"basis_sizes": (15, 20, 50, 100), "orders": (1, 3, 10)})
        failures = [f"{state}/N={n_basis}/p={order}/seed={seed}: {error}"
                    for state, n_basis, order, seed, error in zip(
                        *(table.column(name) for name in
                          ("state", "n_basis", "order", "seed", "error")))
                    if error]
        for order in (1, 3, 10):
            for kind in deviations:
                per_seed = prices(table, n_basis=100, order=order,
                                  state=kind.value, error="")
                if len(per_seed) == len(SEEDS):
                    deviations[kind].append(abs(seed_mean(per_seed) - bsm))
        return_dev = float(np.mean(deviations[StateKind.LOG_RETURN]))
        drift_dev = float(np.mean(deviations[StateKind.DRIFT_ADJUSTED]))
        ok = not failures and return_dev <= drift_dev
        report(10, ok, f"N=100 deviation: return-state {return_dev:.3f} <= "
                       f"drift-state {drift_dev:.3f}; failures {failures or 'none'}")
        assert ok
