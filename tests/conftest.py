"""Shared fixtures: the five-path golden example and cached benchmark paths."""
from __future__ import annotations

import numpy as np
import pytest

from qlbs.basis import feature_cube, make_spec
from qlbs.dp import RiskParams, run_model_based
from qlbs.market import (
    MarketParams,
    StateKind,
    compute_states,
    simulate_gbm,
    table_to_pathset,
)

# Five-path worked example: prices, the published feature matrix at t=2,
# and every published intermediate. The examples were computed with
# feature matrices rounded to two decimals and an absolute ridge of 1e-3;
# reproducing them requires the same conventions (see tests for the
# unrounded variants).
GOLDEN_PRICES = np.array([
    [100.0, 118.27, 124.43, 127.10],
    [100.0, 86.20, 85.25, 83.75],
    [100.0, 100.58, 96.50, 97.38],
    [100.0, 97.20, 87.87, 96.10],
    [100.0, 109.33, 128.43, 130.66],
])
GOLDEN_DT = 1.0 / 3.0
GOLDEN_RATE = 0.03
GOLDEN_STRIKE = 100.0
GOLDEN_RISK_AVERSION = 1e-3
GOLDEN_RIDGE = 1e-3
# Domain spanning the global min/max of the price table; with three
# basis functions of order 3 this is the unique clamped spec.
GOLDEN_DOMAIN = (83.75, 130.66)

GOLDEN_PHI2 = np.array([
    [0.02, 0.23, 0.75],
    [0.94, 0.06, 0.00],
    [0.53, 0.40, 0.07],
    [0.83, 0.16, 0.01],
    [0.00, 0.09, 0.91],
])
GOLDEN_PI_T = np.array([0.00, 16.25, 2.62, 3.90, 0.00])
GOLDEN_PI_HAT_T = np.array([-4.55, 11.70, -1.93, -0.65, -4.55])
GOLDEN_Q_T = np.array([-0.04, -16.29, -2.66, -3.94, -0.04])
GOLDEN_DELTA_S_2 = np.array([1.42, -2.36, -0.09, 7.35, 0.94])
GOLDEN_DELTA_S_HAT_2 = np.array([-0.03, -3.81, -1.54, 5.90, -0.51])
GOLDEN_HEDGE_COEFFS_2 = np.array([-3.05, 11.37, 8.2])
GOLDEN_HEDGES_2 = np.array([8.70, -2.18, 3.51, -0.63, 8.49])
GOLDEN_PORTFOLIO_2 = np.array([-12.24, 10.98, 2.91, 8.45, -7.90])
GOLDEN_REWARDS_2 = np.array([12.15, 5.02, -0.39, -4.67, 7.81])
GOLDEN_VALUE_COEFFS_2 = np.array([-12.85, 10.71, 9.74])
GOLDEN_Q_2 = np.array([9.51, -11.41, -1.84, -8.85, 9.83])
GOLDEN_PRICE = 2.38
GOLDEN_HEDGE_T0 = -0.05

TABLE_TOL = 0.01      # terminal-stage quantities
STAGE_TOL = 0.05      # regression-stage quantities (published values rounded)
PRICE_TOL = 0.02


@pytest.fixture(scope="session")
def golden_paths():
    params = MarketParams(s0=100.0, mu=0.05, sigma=0.15, r=GOLDEN_RATE,
                          maturity=1.0, n_steps=3, n_paths=5, seed=0)
    return table_to_pathset(GOLDEN_PRICES, dt=GOLDEN_DT, params=params)


@pytest.fixture(scope="session")
def golden_risk():
    return RiskParams.from_rate(GOLDEN_RISK_AVERSION, GOLDEN_RATE, GOLDEN_DT)


@pytest.fixture(scope="session")
def golden_spec():
    return make_spec(*GOLDEN_DOMAIN, n_basis=3, order=3)


@pytest.fixture(scope="session")
def golden_features(golden_paths, golden_spec):
    """Display-rounded feature cube, the convention of the published example."""
    states = compute_states(golden_paths, StateKind.PRICE)
    return np.round(feature_cube(golden_spec, states.values), 2)


@pytest.fixture(scope="session")
def golden_solution(golden_paths, golden_risk, golden_spec, golden_features):
    return run_model_based(golden_paths, StateKind.PRICE, strike=GOLDEN_STRIKE,
                           risk=golden_risk, basis_spec=golden_spec,
                           features=golden_features, regularizer=GOLDEN_RIDGE)


def spoil(cube):
    """The cube with one NaN and one inf, each in place of a nonzero feature."""
    cube = cube.copy()
    for t, k, bad in ((2, 5, np.nan), (4, 9, np.inf)):
        cube[t, k, np.flatnonzero(cube[t, k])[0]] = bad
    return cube


class BenchmarkCache:
    """Memoizes desk-scale paths and DP prices shared across test modules.

    Defaults follow the benchmark configuration: spot 100, drift 0.05,
    rate 0.03, strike 100, one year over 24 steps, 10000 paths, 12 cubic
    splines, pure-risk hedge. Solver outputs are kept as scalars.
    """

    N_PATHS = 10_000
    SEEDS = (0, 1, 2, 3, 4)

    def __init__(self):
        self._paths = {}
        self._dp_summaries = {}

    def market(self, sigma=0.15, n_steps=24, n_paths=N_PATHS, seed=0):
        return MarketParams(s0=100.0, mu=0.05, sigma=sigma, r=0.03,
                            maturity=1.0, n_steps=n_steps, n_paths=n_paths,
                            seed=seed)

    def paths(self, **kwargs):
        market = self.market(**kwargs)
        if market not in self._paths:
            self._paths[market] = simulate_gbm(market)
        return self._paths[market]

    def dp_run(self, kind, strike=100.0, risk_aversion=1e-4, **kwargs):
        """Uncached full solution (large); callers drop it when done."""
        paths = self.paths(**kwargs)
        risk = RiskParams.from_rate(risk_aversion, paths.params.r, paths.dt)
        return run_model_based(paths, kind, strike=strike, risk=risk)

    def dp_summary(self, kind, **market):
        """(price, initial hedge) of the default contract, cached."""
        key = (kind, self.market(**market))
        if key not in self._dp_summaries:
            solution = self.dp_run(kind, **market)
            self._dp_summaries[key] = (solution.price_t0, solution.hedge_t0)
        return self._dp_summaries[key]


@pytest.fixture(scope="session")
def bench():
    return BenchmarkCache()
