"""Batched contracts: one backward pass for many (strike, risk) pairs on shared paths.

The reference is the one-contract solver, called once per contract, and
the per-cell sweep loop the scenario runner used before it batched.
"""
import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlbs import basis
from qlbs.basis import (SplineSteps, feature_cube, spec_for_states, spline_features,
                        step_features)
from qlbs.dp import (
    RiskParams,
    compute_rewards,
    fit_hedge_coefficients,
    fit_q_coefficients,
    portfolio_and_rewards,
    rollback_portfolio,
    run_model_based,
    run_model_based_batch,
    terminal_conditions,
)
from qlbs.experiments import Scenario, ScenarioConfig, run_scenario
from qlbs.fqi import build_offline_dataset, perturb_actions, run_fqi
from qlbs.market import (
    BENCHMARK_STATE_KINDS,
    MarketParams,
    StateKind,
    compute_states,
    price_increments,
    simulate_gbm,
)
from qlbs.numerics import DEFAULT_RIDGE_REL, scaled_regularizer, solve_normal_equations

MARKET = MarketParams(s0=100.0, mu=0.05, sigma=0.2, r=0.03, maturity=0.5,
                      n_steps=6, n_paths=400, seed=11)
MATRICES = ("hedges", "portfolio", "rewards", "q_values", "cash")
TOL = 1e-10
# The three forms of one basis's features, each built from (spec, states).
FORMS = {"dense": feature_cube, "compact": spline_features, "stepwise": SplineSteps}

# Deep out of the money (no path ends below 40), at the money, in the money.
strike_sets = st.lists(
    st.one_of(st.sampled_from([40.0, 60.0, 100.0, 160.0]),
              st.floats(min_value=40.0, max_value=170.0)),
    min_size=1, max_size=6,
).map(lambda strikes: strikes + strikes[:1])  # always one duplicate


@functools.cache
def shared_inputs(kind_index):
    """Paths, basis and feature cube of one state kind, built once."""
    kind = BENCHMARK_STATE_KINDS[kind_index]
    paths = simulate_gbm(MARKET)
    states = compute_states(paths, kind).values
    spec = spec_for_states(states, n_basis=6, order=3)
    return kind, paths, spec, feature_cube(spec, states)


def assert_batch_matches_singles(kind_index, contracts, regularizer=None):
    kind, paths, spec, cube = shared_inputs(kind_index)
    batch = run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                  regularizer=regularizer, features=cube)
    assert len(batch) == len(contracts)
    for (strike, risk), got in zip(contracts, batch):
        want = run_model_based(paths, kind, strike, risk, basis_spec=spec,
                               regularizer=regularizer, features=cube)
        assert abs(got.price_t0 - want.price_t0) <= TOL
        assert abs(got.hedge_t0 - want.hedge_t0) <= TOL
        for name in MATRICES:
            got_m, want_m = getattr(got, name), getattr(want, name)
            assert got_m.shape == want_m.shape == paths.prices.shape
            assert np.max(np.abs(got_m - want_m)) <= TOL, name


class TestBatchEqualsSingles:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(strikes=strike_sets, kind_index=st.integers(0, 2),
           lambdas=st.lists(st.sampled_from([0.0, 1e-4, 1e-3]), min_size=1))
    def test_pure_risk_including_zero_risk_aversion(self, strikes, kind_index,
                                                    lambdas):
        contracts = [(z, RiskParams.from_rate(lambdas[i % len(lambdas)],
                                              MARKET.r, MARKET.dt))
                     for i, z in enumerate(strikes)]
        assert_batch_matches_singles(kind_index, contracts)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(strikes=strike_sets, kind_index=st.integers(0, 2),
           ridge=st.sampled_from([1e-6, 1e-3, 1.0]))
    def test_explicit_regularizer(self, strikes, kind_index, ridge):
        contracts = [(z, RiskParams.from_rate(1e-3, MARKET.r, MARKET.dt))
                     for z in strikes]
        assert_batch_matches_singles(kind_index, contracts, regularizer=ridge)


def order1_reference(paths, bins, n_bins, contracts, regularizer=None):
    """Hedges and values at t = 0..T-1, each (C, K), with bin-indicator features.

    Order-1 splines give each path the indicator of its bin, so both normal
    equations of a step are diagonal: the hedge is a per-bin ratio
    sum(pi_hat * dShat) / sum(dShat^2) and the value a per-bin mean of
    reward + gamma * next value, each denominator carrying the solver's ridge.
    """
    strikes = np.array([[strike] for strike, _ in contracts])
    lam = np.array([[risk.risk_aversion] for _, risk in contracts])
    gamma = contracts[0][1].gamma
    inc = price_increments(paths, paths.params.r)

    def per_bin(b, rows, counts, default_ridge):
        ridge = default_ridge if regularizer is None else regularizer
        sums = np.array([np.bincount(b, row, n_bins) for row in rows])
        return (sums / (counts + ridge))[:, b]

    pi = np.maximum(strikes - paths.prices[:, -1], 0.0)
    q = -pi - lam * pi.var(axis=1, keepdims=True)
    hedges, values = [], []
    for t in range(paths.n_steps - 1, -1, -1):
        b, ds, ds_hat = bins[t], inc.delta_s[:, t], inc.delta_s_hat[:, t]
        target = (pi - pi.mean(axis=1, keepdims=True)) * ds_hat
        hedge = per_bin(b, target, np.bincount(b, ds_hat**2, n_bins),
                        DEFAULT_RIDGE_REL * np.sum(ds_hat**2) / n_bins)
        pi_t = gamma * (pi - hedge * ds)
        reward = gamma * pi - pi_t - lam * pi_t.var(axis=1, keepdims=True)
        q = per_bin(b, reward + gamma * q, np.bincount(b, minlength=n_bins),
                    DEFAULT_RIDGE_REL * b.size / n_bins)
        pi = pi_t
        hedges.insert(0, hedge)
        values.insert(0, q)
    return hedges, values


class TestOrderOneReference:
    # 100 bins put the pass on banded Gram assembly and leave some bins
    # empty. lambda in {0.01, 0.05} lets the variance penalty dominate the
    # rewards, so the values are checked where they lie far from the price.
    @pytest.mark.parametrize("n_bins", [8, 100])
    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("lambdas,regularizer", [
        ((0.0, 1e-4, 1e-3), None),
        ((1e-3,), 1e-2),
        ((1e-2, 5e-2), None),
    ])
    def test_batch_matches_bincount_solution(self, kind, lambdas, regularizer, n_bins):
        paths = simulate_gbm(MARKET)
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=n_bins, order=1)
        cube = feature_cube(spec, states)
        assert np.all((cube == 0.0) | (cube == 1.0)) and np.all(cube.sum(axis=2) == 1.0)
        contracts = [(strike, RiskParams.from_rate(lam, MARKET.r, MARKET.dt))
                     for lam in lambdas for strike in (60.0, 90.0, 100.0, 125.0)]
        batch = run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                      regularizer=regularizer, features=cube)
        hedges, values = order1_reference(paths, cube.argmax(axis=2), n_bins,
                                          contracts, regularizer)
        for c, got in enumerate(batch):
            assert abs(got.price_t0 + values[0][c].mean()) <= TOL
            assert abs(got.hedge_t0 - hedges[0][c].mean()) <= TOL
            for t in range(MARKET.n_steps):
                assert np.max(np.abs(got.hedges[:, t] - hedges[t][c])) <= TOL
                assert np.max(np.abs(got.q_values[:, t] - values[t][c])) <= TOL


def dense_gram_reference(paths, cube, strike, risk):
    """(price_t0, hedge_t0) of one pure-risk contract, each step's Grams
    formed as dense (K, N)^T (K, N) products at the default ridge."""
    gamma = risk.gamma
    inc = price_increments(paths, -np.log(gamma) / paths.dt)
    pi = np.maximum(strike - paths.prices[:, -1], 0.0)
    q = -pi - risk.risk_aversion * pi.var()

    def solve(features, weights, target):
        gram = (features * weights[:, np.newaxis]).T @ features
        return solve_normal_equations(gram, features.T @ target,
                                      scaled_regularizer(gram, DEFAULT_RIDGE_REL))

    for t in range(paths.n_steps - 1, -1, -1):
        features, ds, ds_hat = cube[t], inc.delta_s[:, t], inc.delta_s_hat[:, t]
        hedge = features @ solve(features, ds_hat**2, (pi - pi.mean()) * ds_hat)
        pi_t = gamma * (pi - hedge * ds)
        reward = gamma * pi - pi_t - risk.risk_aversion * pi_t.var()
        q = features @ solve(features, np.ones(paths.n_paths), reward + gamma * q)
        pi = pi_t
    return -q.mean(), hedge.mean()


class TestLargeBasisMatchesDenseGrams:
    # N = 100 reads every step of either form as its row band, at every
    # one of these orders: Grams, right-hand sides and fitted values.
    @pytest.mark.parametrize("compact", [False, True], ids=["dense", "compact"])
    @pytest.mark.parametrize("order", [1, 3, 10])
    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_price_and_hedge(self, kind, order, compact):
        market = replace(MARKET, n_paths=3000, seed=7)
        paths = simulate_gbm(market)
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=100, order=order)
        cube = feature_cube(spec, states)
        risk = RiskParams.from_rate(1e-3, market.r, market.dt)
        got = run_model_based(paths, kind, 100.0, risk, basis_spec=spec,
                              features=spline_features(spec, states) if compact else cube)
        price, hedge = dense_gram_reference(paths, cube, 100.0, risk)
        assert abs(got.price_t0 - price) <= TOL
        assert abs(got.hedge_t0 - hedge) <= TOL


class TestSplineFeatures:
    """The solvers on SplineFeatures against the same features as a dense cube."""

    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_small_basis_is_bit_identical(self, kind):
        paths = simulate_gbm(replace(MARKET, n_paths=2000))
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values, n_basis=12, order=4)
        cube = feature_cube(spec, states.values)
        compact = spline_features(spec, states.values)
        contracts = [(z, RiskParams.from_rate(lam, MARKET.r, MARKET.dt))
                     for z in (60.0, 100.0) for lam in (1e-4, 1e-3)]
        runs = [run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                      features=features)
                for features in (cube, compact)]
        for want, got in zip(*runs):
            assert got.price_t0 == want.price_t0
            assert got.hedge_t0 == want.hedge_t0
            for name in ("hedges", "q_values", "phi", "omega"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        noisy = perturb_actions(runs[0][0].hedges, 0.2, seed=5)
        noisy[:, -1] = 0.0
        dataset = build_offline_dataset(paths, states, noisy, 60.0, contracts[0][1])
        want, got = (run_fqi(dataset, spec, features=f) for f in (cube, compact))
        assert got.price_t0 == want.price_t0
        assert np.array_equal(got.q_values, want.q_values)
        for got_w, want_w in zip(got.w, want.w):
            assert np.array_equal(got_w.values, want_w.values)

    # From 50 functions on, where the band pays, both forms give each step
    # the same row band, so a pass forms the same sums from either.
    @pytest.mark.parametrize("n_basis, order", [(50, 5), (60, 4), (100, 1),
                                                (100, 3), (100, 10)])
    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_large_basis_is_bit_identical(self, kind, n_basis, order):
        paths = simulate_gbm(replace(MARKET, n_paths=2000))
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=n_basis, order=order)
        contracts = [(z, RiskParams.from_rate(1e-3, MARKET.r, MARKET.dt))
                     for z in (60.0, 90.0, 100.0, 125.0)]
        runs = [run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                      features=features)
                for features in (feature_cube(spec, states), spline_features(spec, states))]
        for want, got in zip(*runs):
            assert got.price_t0 == want.price_t0
            assert got.hedge_t0 == want.hedge_t0
            for name in MATRICES + ("phi", "omega"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestDefaultFeatures:
    """Without ``features`` the solvers evaluate the splines step by step
    (SplineSteps); against runs on stored SplineFeatures and on a dense
    cube of the same basis."""

    @staticmethod
    def solve(kind, n_basis, order):
        """{form: (DP, fitted Q)} on 2000 paths, the stepwise runs given no
        features; every fitted-Q run reads one dataset."""
        paths = simulate_gbm(replace(MARKET, n_paths=2000))
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values, n_basis=n_basis, order=order)
        stored = {form: FORMS[form](spec, states.values) for form in ("dense", "compact")}
        risk = RiskParams.from_rate(1e-3, MARKET.r, MARKET.dt)
        dp = {form: run_model_based(paths, kind, 100.0, risk, basis_spec=spec,
                                    features=stored.get(form))
              for form in ("stepwise", "compact", "dense")}
        noisy = perturb_actions(dp["dense"].hedges, 0.2, seed=5)
        noisy[:, -1] = 0.0
        dataset = build_offline_dataset(paths, states, noisy, 100.0, risk)
        return {form: (dp[form], run_fqi(dataset, spec, features=stored.get(form)))
                for form in dp}

    def assert_bit_identical(self, kind, n_basis, order):
        runs = self.solve(kind, n_basis, order)
        dp_cube, fqi_cube = runs.pop("dense")
        assert isinstance(runs["stepwise"][0].features, SplineSteps)
        for form, (dp, fqi) in runs.items():
            assert dp.price_t0 == dp_cube.price_t0, form
            assert dp.hedge_t0 == dp_cube.hedge_t0, form
            # The first reads of hedges and q_values are among these.
            for name in MATRICES + ("phi", "omega"):
                assert np.array_equal(getattr(dp, name), getattr(dp_cube, name)), \
                    (form, name)
            assert fqi.price_t0 == fqi_cube.price_t0, form
            assert np.array_equal(fqi.q_values, fqi_cube.q_values), form
            for w, w_cube in zip(fqi.w, fqi_cube.w):
                assert np.array_equal(w.values, w_cube.values), form

    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_small_basis_is_bit_identical(self, kind):
        self.assert_bit_identical(kind, 12, 4)

    # At N = 100 the DP and fitted Q read each step of every form as the
    # same row band.
    @pytest.mark.parametrize("order", [1, 3, 10])
    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_large_basis_matches_dense_cube(self, kind, order):
        self.assert_bit_identical(kind, 100, order)


def eager_pass(paths, contracts, features):
    """(hedges, q_values, phi, omega) of a backward pass that keeps every
    step's (C, K) hedge and value slabs in (T+1, C, K) arrays as it forms
    them; phi and omega are (T, C, N)."""
    strikes = np.array([strike for strike, _ in contracts])
    risks = [risk for _, risk in contracts]
    gamma = risks[0].gamma
    aversions = np.array([risk.risk_aversion for risk in risks])[:, np.newaxis]
    inc = price_increments(paths, -np.log(gamma) / paths.dt)
    shape = (paths.n_steps + 1, len(contracts), paths.n_paths)
    hedges, q_values = np.zeros(shape), np.zeros(shape)
    phi = np.zeros((paths.n_steps, len(contracts), features.shape[2]))
    omega = np.zeros_like(phi)
    pi_next, pi_hat_next, _, _, q_values[-1] = terminal_conditions(paths, strikes, risks)
    for t in range(paths.n_steps - 1, -1, -1):
        phi_t = step_features(features, t)
        ds, ds_hat = inc.delta_s[:, t], inc.delta_s_hat[:, t]
        phi[t] = fit_hedge_coefficients(phi_t, ds, ds_hat, pi_hat_next, risks)
        hedges[t] = phi_t.fitted(phi[t])
        pi_t = rollback_portfolio(pi_next, hedges[t], ds, gamma)
        rewards = compute_rewards(pi_next, pi_t, gamma, aversions)
        omega[t] = fit_q_coefficients(phi_t, rewards, q_values[t + 1], gamma)
        q_values[t] = phi_t.fitted(omega[t])
        pi_hat_next = pi_t - pi_t.mean(axis=-1, keepdims=True)
        pi_next = pi_t
    return hedges, q_values, phi, omega


class TestDerivedMatrices:
    """Solutions store coefficients; hedges and action values are evaluated
    for the whole batch when first read, and portfolio, rewards and cash
    are rolled back from the payoff under the hedges."""

    @staticmethod
    def inputs(n_steps=6, n_paths=400, n_basis=12, order=4, form="compact"):
        """Paths, spec and features of drift-adjusted states."""
        paths = simulate_gbm(replace(MARKET, n_paths=n_paths, n_steps=n_steps))
        states = compute_states(paths, StateKind.DRIFT_ADJUSTED).values
        spec = spec_for_states(states, n_basis=n_basis, order=order)
        return paths, spec, FORMS[form](spec, states)

    @staticmethod
    def solve(paths, spec, features, n_contracts):
        """Contracts struck from 70 to 130 and their solutions; one
        contract is solved by run_model_based."""
        contracts = [(z, RiskParams.from_rate(1e-3 * (1 + c % 3), MARKET.r, paths.dt))
                     for c, z in enumerate(np.linspace(70.0, 130.0, n_contracts))]
        if n_contracts == 1:
            return contracts, [run_model_based(paths, StateKind.DRIFT_ADJUSTED,
                                               *contracts[0], basis_spec=spec,
                                               features=features)]
        return contracts, run_model_based_batch(paths, StateKind.DRIFT_ADJUSTED,
                                                contracts, basis_spec=spec,
                                                features=features)

    def test_solutions_hold_coefficients_only(self):
        paths, spec, features = self.inputs(n_steps=12, n_paths=2000)
        n_contracts = 10
        coefficients = 2 * paths.n_steps * n_contracts * spec.n_basis * 8
        tracemalloc.start()
        try:
            _, solutions = self.solve(paths, spec, features, n_contracts)
            held = tracemalloc.get_traced_memory()[0]
            solutions[0].portfolio
            after_read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # One (K,) vector of slack covers the solution objects; one stored
        # (C, K) slab would not fit in it.
        assert held <= coefficients + 8 * paths.n_paths
        # The batch's hedges, then this contract's portfolio and rewards.
        assert after_read - held >= (n_contracts + 2) * paths.prices.nbytes

    @pytest.mark.parametrize("n_basis, order", [(12, 4), (12, 10), (100, 10)])
    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("n_contracts", [1, 10])
    def test_matrices_match_an_eager_pass(self, n_contracts, form, n_basis, order):
        paths, spec, features = self.inputs(n_basis=n_basis, order=order, form=form)
        contracts, solutions = self.solve(paths, spec, features, n_contracts)
        hedges, q_values, phi, omega = eager_pass(paths, contracts, features)
        for c, ((strike, risk), got) in enumerate(zip(contracts, solutions)):
            portfolio, rewards = portfolio_and_rewards(paths, strike, hedges[:, c].T, risk)
            want = {"hedges": hedges[:, c].T, "q_values": q_values[:, c].T,
                    "phi": phi[:, c], "omega": omega[:, c],
                    "portfolio": portfolio, "rewards": rewards,
                    "cash": portfolio - hedges[:, c].T * paths.prices}
            for name, matrix in want.items():
                assert np.array_equal(getattr(got, name), matrix), name
            assert got.price_t0 == float(-q_values[0, c].mean())
            assert got.hedge_t0 == float(hedges[0, c].mean())
            assert got.features is features

    def test_one_read_evaluates_the_batch_once(self, monkeypatch):
        paths, spec, features = self.inputs()
        _, solutions = self.solve(paths, spec, features, 10)
        steps = []
        monkeypatch.setattr("qlbs.dp.step_features",
                            lambda features, t: steps.append(t) or step_features(features, t))
        solutions[3].hedges
        assert sorted(steps) == list(range(paths.n_steps))
        for solution in solutions:
            solution.hedges, solution.portfolio, solution.rewards, solution.cash
        assert len(steps) == paths.n_steps
        # Reading the hedges evaluated no values: the first values read does.
        solutions[0].q_values
        assert len(steps) == 2 * paths.n_steps
        for solution in solutions:
            solution.q_values
        assert len(steps) == 2 * paths.n_steps

    def test_stepwise_features_evaluate_each_step_per_read(self, monkeypatch):
        # The pass evaluates t = 0 .. T-1 once each, never t = T; the first
        # read of the hedges and of the values evaluates them once more.
        paths, spec, features = self.inputs(form="stepwise")
        calls = []
        cox_de_boor = basis._cox_de_boor
        monkeypatch.setattr(basis, "_cox_de_boor",
                            lambda spec, points: calls.append(1) or cox_de_boor(spec, points))
        _, solutions = self.solve(paths, spec, features, 10)
        assert len(calls) == paths.n_steps
        for solution in solutions:
            solution.hedges, solution.q_values
        assert len(calls) == 3 * paths.n_steps

    def test_matrices_are_read_only(self):
        _, solutions = self.solve(*self.inputs(), 2)
        for name in MATRICES:
            matrix = getattr(solutions[1], name)
            assert not matrix.flags.writeable, name
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    @pytest.mark.parametrize("kind", BENCHMARK_STATE_KINDS)
    def test_fits_on_derived_matrices_reproduce_coefficients(self, kind):
        paths = simulate_gbm(MARKET)
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=12, order=4)
        features = spline_features(spec, states)
        risk = RiskParams.from_rate(1e-3, MARKET.r, MARKET.dt)
        solution = run_model_based(paths, kind, 100.0, risk, basis_spec=spec,
                                   features=features)
        inc = price_increments(paths, -np.log(risk.gamma) / paths.dt)
        pi, rewards = solution.portfolio.T, solution.rewards.T
        q = solution.q_values.T
        for t in range(MARKET.n_steps):
            phi_t = step_features(features, t)
            pi_hat = pi[t + 1] - pi[t + 1].mean()
            phi = fit_hedge_coefficients(phi_t, inc.delta_s[:, t],
                                         inc.delta_s_hat[:, t], pi_hat[np.newaxis],
                                         [risk])
            omega = fit_q_coefficients(phi_t, rewards[t][np.newaxis],
                                       q[t + 1][np.newaxis], risk.gamma)
            assert np.array_equal(phi[0], solution.phi[t]), t
            assert np.array_equal(omega[0], solution.omega[t]), t
        assert np.array_equal(solution.cash,
                              solution.portfolio - solution.hedges * paths.prices)


class TestStepwisePeak:
    def test_a_pass_given_no_features_stores_no_cube(self):
        # Ten contracts on 10k x 24 paths of one state kind, as one group of
        # the strike sweep. Both runs compute the states and hold them
        # through the pass; only the stored run holds the cube as well.
        market = replace(MARKET, sigma=0.15, maturity=1.0, n_steps=24, n_paths=10_000)
        paths = simulate_gbm(market)
        kind = StateKind.DRIFT_ADJUSTED
        spec = spec_for_states(compute_states(paths, kind).values)
        contracts = [(z, RiskParams.from_rate(lam, market.r, market.dt))
                     for z in (60.0, 80.0, 100.0, 120.0, 140.0) for lam in (1e-4, 1e-3)]

        def stepwise(paths):
            return run_model_based_batch(paths, kind, contracts, basis_spec=spec)

        def stored(paths):
            states = compute_states(paths, kind)
            features = spline_features(spec, states.values)
            return run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                         features=features)

        peaks = []
        for run in (stepwise, stored):
            tracemalloc.start()
            try:
                run(paths)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # order float64 values and one int64 first column per point. Python
        # objects and numpy's caches move either peak by a few kB from run
        # to run; one (K,) vector of slack covers them.
        cube = (spec.order + 1) * 8 * paths.n_paths * (paths.n_steps + 1)
        assert peaks[1] - peaks[0] >= cube - 8 * paths.n_paths, (
            f"peaks {peaks[0] / 1e6:.3f} and {peaks[1] / 1e6:.3f} MB, "
            f"cube {cube / 1e6:.3f} MB")


class TestPassSlabs:
    def test_a_pass_holds_four_contract_slabs(self):
        # Ten contracts on 10k x 24 paths and stored SplineFeatures of 12
        # cubic splines, as one group of a sweep that stores its features.
        market = replace(MARKET, sigma=0.15, maturity=1.0, n_steps=24, n_paths=10_000)
        paths = simulate_gbm(market)
        kind = StateKind.DRIFT_ADJUSTED
        states = compute_states(paths, kind).values
        spec = spec_for_states(states)
        features = spline_features(spec, states)
        del states
        contracts = [(z, RiskParams.from_rate(lam, market.r, market.dt))
                     for z in (60.0, 80.0, 100.0, 120.0, 140.0) for lam in (1e-4, 1e-3)]
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            run_model_based_batch(paths, kind, contracts, features=features)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        n_contracts, n_paths, n_steps = len(contracts), paths.n_paths, paths.n_steps
        slab = 8 * n_contracts * n_paths
        # Four (C, K) slabs: the portfolio, its demeaned copy, the action
        # values and the work slab. Beside them the (K, T) increments, the
        # (T, C, N) coefficients and, at the hedge fit, one step's dense
        # (K, N) features, the Gram's weighted copy of them, the step's
        # demeaned increments and numpy's ufunc buffer. One (K,) vector of
        # slack, as in TestStepwisePeak. A fifth slab would exceed the bound.
        allowed = (4 * slab + 8 * n_paths * n_steps
                   + 2 * 8 * n_steps * n_contracts * spec.n_basis
                   + 2 * 8 * n_paths * spec.n_basis + 8 * n_paths
                   + 8 * np.getbufsize() + 8 * n_paths)
        assert peak <= allowed, (
            f"peak {peak / slab:.2f} slabs above the live {live / 1e6:.3f} MB, "
            f"allowed {allowed / slab:.2f} ({slab / 1e6:.3f} MB each)")


def in_place_inputs(shape):
    """Portfolios, hedge and a strided increments column of ``shape``, and
    a risk aversion that broadcasts against it."""
    rng = np.random.default_rng(len(shape))
    n_paths = shape[-1]
    delta_s = rng.normal(size=(n_paths, 4))[:, 2]
    pi_next, hedge, pi_t = (rng.normal(scale=10.0, size=shape) for _ in range(3))
    risk_aversion = 1e-3 if len(shape) == 1 else np.linspace(0, 1e-2, shape[0])[:, None]
    return pi_next, hedge, pi_t, delta_s, risk_aversion


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(257,), (3, 257)])
class TestInPlace:
    """``out=`` gives the returning form's bits, also into an input."""

    def test_rollback_portfolio(self, shape):
        pi_next, hedge, _, delta_s, _ = in_place_inputs(shape)
        want = rollback_portfolio(pi_next, hedge, delta_s, 0.99)
        out = np.empty(shape)
        assert rollback_portfolio(pi_next, hedge, delta_s, 0.99, out=out) is out
        assert_same_bits(out, want)
        aliased = hedge.copy()  # the pass rolls back over its hedge
        rollback_portfolio(pi_next, aliased, delta_s, 0.99, out=aliased)
        assert_same_bits(aliased, want)

    def test_compute_rewards(self, shape):
        pi_next, _, pi_t, _, risk_aversion = in_place_inputs(shape)
        want = compute_rewards(pi_next, pi_t, 0.99, risk_aversion)
        out = np.empty(shape)
        assert compute_rewards(pi_next, pi_t, 0.99, risk_aversion, out=out) is out
        assert_same_bits(out, want)
        aliased = pi_next.copy()  # the pass writes rewards over the portfolio
        compute_rewards(aliased, pi_t, 0.99, risk_aversion, out=aliased)
        assert_same_bits(aliased, want)

    def test_fits_write_their_targets(self, shape):
        pi_next, hedge, pi_t, delta_s, _ = in_place_inputs(shape)
        rng = np.random.default_rng(5)
        step = basis.FeatureMatrix(rng.uniform(size=(shape[-1], 6)))
        delta_s_hat = delta_s - delta_s.mean()
        risk = RiskParams(1e-3, gamma=0.99)
        want = fit_hedge_coefficients(step, delta_s, delta_s_hat, pi_next, risk)
        aliased = pi_next.copy()
        got = fit_hedge_coefficients(step, delta_s, delta_s_hat, aliased, risk, out=aliased)
        assert_same_bits(got, want)
        assert_same_bits(aliased, pi_next * delta_s_hat)
        want = fit_q_coefficients(step, pi_t, hedge, 0.99)
        aliased = hedge.copy()
        assert_same_bits(fit_q_coefficients(step, pi_t, aliased, 0.99, out=aliased), want)
        assert_same_bits(aliased, pi_t + 0.99 * hedge)


class TestBatchValidation:
    def test_mixed_gamma_rejected(self):
        kind, paths, spec, cube = shared_inputs(0)
        contracts = [(100.0, RiskParams(1e-3, gamma=0.99)),
                     (100.0, RiskParams(1e-3, gamma=0.98))]
        with pytest.raises(ValueError, match="gamma"):
            run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                  features=cube)

    def test_no_contracts_rejected(self):
        kind, paths, spec, cube = shared_inputs(0)
        with pytest.raises(ValueError):
            run_model_based_batch(paths, kind, [], basis_spec=spec, features=cube)

    def test_nonpositive_strike_rejected(self):
        kind, paths, spec, cube = shared_inputs(0)
        risk = RiskParams(1e-3, gamma=0.99)
        with pytest.raises(ValueError, match="strike"):
            run_model_based_batch(paths, kind, [(100.0, risk), (0.0, risk)],
                                  basis_spec=spec, features=cube)


def small_config(scenario, sweep):
    market = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                          n_steps=6, n_paths=300, seed=0)
    return ScenarioConfig(scenario=scenario, market=market, seeds=(0, 1),
                          sweep=sweep)


def per_cell_rows(config, cells, method):
    """(method, state, seed, strike, risk aversion, noise, price, hedge) per
    cell and state kind, each cell solved alone on fresh paths and features."""
    rows = []
    for market, strike, lam, noise in cells:
        for kind in config.state_kinds:
            paths = simulate_gbm(market)
            states = compute_states(paths, kind)
            spec = spec_for_states(states.values, n_basis=config.n_basis,
                                   order=config.order)
            cube = feature_cube(spec, states.values)
            risk = RiskParams.from_rate(lam, market.r, market.dt)
            dp = run_model_based(paths, kind, strike, risk, basis_spec=spec,
                                 features=cube)
            price, hedge = dp.price_t0, dp.hedge_t0
            if method == "fqi":
                noisy = perturb_actions(dp.hedges, noise, seed=market.seed + 104_729)
                noisy[:, -1] = 0.0
                dataset = build_offline_dataset(paths, states, noisy, strike, risk)
                price, hedge = run_fqi(dataset, spec, features=cube).price_t0, None
            rows.append((method, kind.value, market.seed, strike, lam, noise,
                         price, hedge))
    return rows


def assert_rows_match(table, expected):
    names = ("method", "state", "seed", "strike", "risk_aversion", "noise")
    got = [tuple(row[table.columns.index(n)] for n in names) for row in table.rows]
    assert got == [row[:6] for row in expected]
    for row, (*_, price, hedge) in zip(table.rows, expected):
        assert abs(row[table.columns.index("price")] - price) <= TOL
        if hedge is None:
            assert row[table.columns.index("hedge")] is None
        else:
            assert abs(row[table.columns.index("hedge")] - hedge) <= TOL
    assert not table.errors


class TestSweepsMatchPerCellSolves:
    def test_moneyness(self):
        strikes, lambdas = [60.0, 100.0, 100.0, 130.0], [1e-4, 1e-3]
        config = small_config(Scenario.MONEYNESS, {"strikes": strikes,
                                                   "risk_aversions": lambdas})
        markets = [replace(config.market, seed=s) for s in config.seeds]
        cells = [(m, z, lam, config.noise)
                 for lam in lambdas for z in strikes for m in markets]
        assert_rows_match(run_scenario(config),
                          per_cell_rows(config, cells, "dp"))

    def test_noise_grid(self):
        counts, etas = [100, 300], [0.4, 0.8]
        config = small_config(Scenario.NOISE_GRID, {"path_counts": counts,
                                                    "noise_levels": etas})
        cells = [(replace(config.market, seed=s, n_paths=n),
                  config.strike, config.risk_aversion, eta)
                 for n in counts for eta in etas for s in config.seeds]
        assert_rows_match(run_scenario(config),
                          per_cell_rows(config, cells, "fqi"))
