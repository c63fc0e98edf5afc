"""Batched contracts: one backward pass for many (strike, risk) pairs on shared paths.

The reference is the one-contract solver, called once per contract, and
the per-cell sweep loop the scenario runner used before it batched.
"""
import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlbs.basis import feature_cube, spec_for_states, spline_features
from qlbs.dp import RiskParams, run_model_based, run_model_based_batch
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

    # The full hedge's drift term scales like 1/lambda, and so do the
    # values it produces; lambda >= 1e-2 keeps entries below about 1e5,
    # where an absolute 1e-10 is still several units in the last place.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(strikes=strike_sets, kind_index=st.integers(0, 2),
           lambdas=st.lists(st.sampled_from([1e-2, 5e-2]), min_size=1))
    def test_full_hedge(self, strikes, kind_index, lambdas):
        contracts = [(z, RiskParams.from_rate(lambdas[i % len(lambdas)],
                                              MARKET.r, MARKET.dt, pure_risk=False))
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
    sum(pi_hat * dShat [+ dS / (2 lambda gamma)]) / sum(dShat^2) and the
    value a per-bin mean of reward + gamma * next value, each denominator
    carrying the solver's ridge.
    """
    strikes = np.array([[strike] for strike, _ in contracts])
    lam = np.array([[risk.risk_aversion] for _, risk in contracts])
    gamma, pure_risk = contracts[0][1].gamma, contracts[0][1].pure_risk
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
        if not pure_risk:
            target = target + ds / (2.0 * lam * gamma)
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
    # The full hedge's values scale like 1/lambda, so it is checked at
    # lambda in {0.01, 0.05}, as in TestBatchEqualsSingles. 100 bins put
    # the pass on banded Gram assembly and leave some bins empty.
    @pytest.mark.parametrize("n_bins", [8, 100])
    @pytest.mark.parametrize("kind", list(StateKind))
    @pytest.mark.parametrize("pure_risk,lambdas,regularizer", [
        (True, (0.0, 1e-4, 1e-3), None),
        (True, (1e-3,), 1e-2),
        (False, (1e-2, 5e-2), None),
    ])
    def test_batch_matches_bincount_solution(self, kind, pure_risk, lambdas,
                                             regularizer, n_bins):
        paths = simulate_gbm(MARKET)
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=n_bins, order=1)
        cube = feature_cube(spec, states)
        assert np.all((cube == 0.0) | (cube == 1.0)) and np.all(cube.sum(axis=2) == 1.0)
        contracts = [(strike, RiskParams.from_rate(lam, MARKET.r, MARKET.dt,
                                                   pure_risk=pure_risk))
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
    # N = 100 takes the banded Gram assembly at every one of these orders;
    # from SplineFeatures it also forms right-hand sides and fitted values
    # band-wise.
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

    # Four contracts at N = 100: Grams, right-hand sides and fitted values
    # all come from the bands. At order 10 on 2000 paths the Grams are so
    # ill-conditioned that any change in summation order moves the
    # per-path matrices by up to about 3e-8 (cash); batching the dense
    # cube's contracts moves them as much. So the matrices are held to a
    # few times that spread of the dense solver against itself.
    @pytest.mark.parametrize("order", [1, 10])
    def test_large_basis_batch_matches_dense_cube(self, order):
        kind, paths = StateKind.LOG_RETURN, simulate_gbm(replace(MARKET, n_paths=2000))
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=100, order=order)
        cube = feature_cube(spec, states)
        contracts = [(z, RiskParams.from_rate(1e-3, MARKET.r, MARKET.dt))
                     for z in (60.0, 90.0, 100.0, 125.0)]
        runs = [run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                      features=features)
                for features in (cube, spline_features(spec, states))]
        singles = [run_model_based(paths, kind, z, risk, basis_spec=spec, features=cube)
                   for z, risk in contracts]
        for want, got, single in zip(*runs, singles):
            assert abs(got.price_t0 - want.price_t0) <= TOL
            assert abs(got.hedge_t0 - want.hedge_t0) <= TOL
            for name in MATRICES:
                want_m, got_m = getattr(want, name), getattr(got, name)
                spread = np.max(np.abs(getattr(single, name) - want_m))
                assert np.max(np.abs(got_m - want_m)) <= max(TOL, 4 * spread), name


class TestBatchValidation:
    def test_mixed_gamma_rejected(self):
        kind, paths, spec, cube = shared_inputs(0)
        contracts = [(100.0, RiskParams(1e-3, gamma=0.99)),
                     (100.0, RiskParams(1e-3, gamma=0.98))]
        with pytest.raises(ValueError, match="gamma"):
            run_model_based_batch(paths, kind, contracts, basis_spec=spec,
                                  features=cube)

    def test_mixed_pure_risk_rejected(self):
        kind, paths, spec, cube = shared_inputs(0)
        contracts = [(100.0, RiskParams(1e-3, gamma=0.99, pure_risk=True)),
                     (100.0, RiskParams(1e-3, gamma=0.99, pure_risk=False))]
        with pytest.raises(ValueError, match="pure_risk"):
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
