"""Batched contracts: one backward pass for many (strike, risk) pairs on shared paths.

The reference is the one-contract solver, called once per contract, and
the per-cell sweep loop the scenario runner used before it batched.
"""
import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qlbs.basis import feature_cube, spec_for_states
from qlbs.dp import RiskParams, run_model_based, run_model_based_batch
from qlbs.experiments import Scenario, ScenarioConfig, run_scenario
from qlbs.fqi import build_offline_dataset, perturb_actions, run_fqi
from qlbs.market import BENCHMARK_STATE_KINDS, MarketParams, compute_states, simulate_gbm

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
