import json
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlbs import experiments
from qlbs.basis import spec_for_states
from qlbs.dp import RiskParams, run_model_based
from qlbs.experiments import (
    FREQUENCY_STEPS,
    ResultTable,
    Scenario,
    ScenarioConfig,
    emit_report,
    load_report,
    run_scenario,
    terminal_wealth,
)
from qlbs.market import (
    MarketParams,
    StateKind,
    StateSeries,
    compute_states,
    simulate_gbm,
    table_to_pathset,
)


def flat_hedge_paths():
    prices = np.array([
        [100.0, 104.0, 98.0, 95.0],
        [100.0, 97.0, 101.0, 112.0],
        [100.0, 100.0, 100.0, 100.0],
    ])
    return table_to_pathset(prices, dt=1.0 / 3.0)


def small_config(**overrides):
    market = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                          n_steps=6, n_paths=300, seed=0)
    base = dict(market=market, seeds=(0,),
                state_kinds=(StateKind.DRIFT_ADJUSTED, StateKind.PRICE))
    base.update(overrides)
    return ScenarioConfig(**base)


class TestTerminalWealth:
    def test_flat_hedge_telescopes(self):
        # Costless flat hedge at zero rate: premium + a (S_T - S_0) - payoff.
        paths = flat_hedge_paths()
        hedges = np.full_like(paths.prices, -0.4)
        hedges[:, -1] = 0.0
        tw = terminal_wealth(paths, hedges, strike=100.0, cost_rate=0.0,
                             premium=5.0)
        payoff = np.maximum(100.0 - paths.prices[:, -1], 0.0)
        expected = 5.0 + (-0.4) * (paths.prices[:, -1] - 100.0) - payoff
        assert np.allclose(tw, expected, atol=1e-12)

    def test_mean_strictly_decreasing_in_cost(self):
        params = MarketParams(s0=100, mu=0.05, sigma=0.2, r=0.03, maturity=1.0,
                              n_steps=12, n_paths=2000, seed=1)
        paths = simulate_gbm(params)
        risk = RiskParams.from_rate(1e-3, params.r, params.dt)
        solution = run_model_based(paths, StateKind.DRIFT_ADJUSTED,
                                   strike=100.0, risk=risk)
        means = [
            terminal_wealth(paths, solution.hedges, 100.0, c,
                            solution.price_t0).mean()
            for c in (0.0, 0.005, 0.01, 0.02)
        ]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_report_statistics_consistent(self):
        # A transaction-costs row reports the mean and median of the
        # terminal wealth of its DP hedges, premium included.
        config = small_config(scenario=Scenario.TRANSACTION_COSTS,
                              state_kinds=(StateKind.PRICE,))
        table = run_scenario(config)
        row = dict(zip(table.columns, table.rows[0]))
        paths = simulate_gbm(config.market)
        risk = RiskParams.from_rate(row["risk_aversion"], config.market.r,
                                    config.market.dt)
        spec = spec_for_states(compute_states(paths, StateKind.PRICE).values)
        dp = run_model_based(paths, StateKind.PRICE, 100.0, risk, basis_spec=spec)
        tw = terminal_wealth(paths, dp.hedges, 100.0, row["cost_rate"], dp.price_t0)
        assert row["cost_rate"] == 0.01
        assert row["price"] == dp.price_t0
        assert row["tw_mean"] == pytest.approx(tw.mean(), rel=1e-12)
        assert row["tw_median"] == pytest.approx(np.median(tw), rel=1e-12)

    def test_cost_rate_validation(self):
        paths = flat_hedge_paths()
        hedges = np.zeros_like(paths.prices)
        with pytest.raises(ValueError):
            terminal_wealth(paths, hedges, 100.0, -0.01, 5.0)
        with pytest.raises(ValueError):
            terminal_wealth(paths, hedges, 100.0, 1.0, 5.0)


class TestScenarioConfig:
    def test_frequency_mapping(self):
        assert FREQUENCY_STEPS == {"weekly": 52, "bi-weekly": 26,
                                   "monthly": 12, "semi-annual": 2}
        for n in FREQUENCY_STEPS.values():
            market = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03,
                                  maturity=1.0, n_steps=n, n_paths=10, seed=0)
            assert market.dt * n == pytest.approx(1.0, abs=1e-15)

    def test_json_round_trip(self):
        config = small_config(scenario=Scenario.VOL_SWEEP,
                              sweep={"sigmas": [0.1, 0.2]})
        blob = json.dumps(config.to_json_dict())
        restored = ScenarioConfig.from_json_dict(json.loads(blob))
        assert restored == config
        assert restored.config_hash() == config.config_hash()

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(seeds=())
        with pytest.raises(ValueError):
            small_config(state_kinds=())

    def test_every_json_key_has_a_type(self):
        keys = {f.name for cls in (ScenarioConfig, MarketParams) for f in fields(cls)}
        assert set(experiments._JSON_TYPES) == keys

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", 5, "config: key 'seeds' must be a list of integers, got 5"),
        ("seeds", [0, 1.5], "config: key 'seeds' must be a list of integers, got [0, 1.5]"),
        ("strike", "abc", "config: key 'strike' must be a number, got 'abc'"),
        ("noise", True, "config: key 'noise' must be a number, got True"),
        # A config written while the full hedge existed.
        ("pure_risk", True, "config: unknown key 'pure_risk'"),
        ("regularizer", "1e-9", "config: key 'regularizer' must be a number or null, "
                                "got '1e-9'"),
        ("state_kinds", "price", "config: key 'state_kinds' must be a list of strings, "
                                 "got 'price'"),
        ("sweep", [], "config: key 'sweep' must be a JSON object, got []"),
        ("market", {"n_steps": 4.0}, "market: key 'n_steps' must be an integer, got 4.0"),
        ("market", {"s0": "100"}, "market: key 's0' must be a number, got '100'"),
        # Python's json reads NaN and Infinity.
        ("strike", float("nan"), "config: key 'strike' must be a number, got nan"),
        ("market", {"mu": float("-inf")}, "market: key 'mu' must be a number, got -inf"),
        ("noise", -1.0, "noise must lie in [0, 1], got -1.0"),
        ("noise", 1.5, "noise must lie in [0, 1], got 1.5"),
    ])
    def test_value_of_the_wrong_json_type_rejected(self, key, value, message):
        data = small_config().to_json_dict()
        data[key] = {**data["market"], **value} if key == "market" else value
        with pytest.raises(ValueError) as info:
            ScenarioConfig.from_json_dict(data)
        assert str(info.value) == message


class TestRunScenario:
    def test_single_scenario_shape_and_determinism(self):
        config = small_config(scenario=Scenario.SINGLE)
        table = run_scenario(config)
        # 1 seed x 2 states x 2 methods.
        assert len(table.rows) == 4
        assert not table.errors
        again = run_scenario(config)
        skip = table.columns.index("runtime_s")
        strip = lambda rows: [[v for i, v in enumerate(r) if i != skip] for r in rows]
        assert strip(again.rows) == strip(table.rows)

    def test_vol_sweep_shape(self):
        config = small_config(scenario=Scenario.VOL_SWEEP,
                              sweep={"sigmas": [0.15, 0.25]})
        table = run_scenario(config)
        assert len(table.rows) == 2 * 2 * 2
        assert set(table.column("method")) == {"dp", "fqi"}
        assert set(table.column("sigma")) == {0.15, 0.25}
        for price in table.column("price"):
            assert price is not None and 0.0 < price < 100.0

    def test_moneyness_rows_carry_benchmark(self):
        config = small_config(scenario=Scenario.MONEYNESS,
                              sweep={"strikes": [90.0, 110.0],
                                     "risk_aversions": [1e-4]})
        table = run_scenario(config)
        assert len(table.rows) == 2 * 2
        for row_strike, bsm in zip(table.column("strike"), table.column("bsm_price")):
            assert bsm is not None and bsm > 0
        itm = table.select(strike=110.0)
        otm = table.select(strike=90.0)
        assert min(itm.column("bsm_price")) > max(otm.column("bsm_price"))

    def test_transaction_costs_rows(self):
        config = small_config(scenario=Scenario.TRANSACTION_COSTS)
        table = run_scenario(config)
        assert len(table.rows) == 2
        for mean, median, rate in zip(table.column("tw_mean"),
                                      table.column("tw_median"),
                                      table.column("cost_rate")):
            assert rate == 0.01
            assert mean is not None and median is not None

    def test_noise_grid_runs_fqi_only(self):
        config = small_config(scenario=Scenario.NOISE_GRID,
                              sweep={"path_counts": [100],
                                     "noise_levels": [0.4]})
        table = run_scenario(config)
        assert set(table.column("method")) == {"fqi"}

    @pytest.mark.parametrize("scenario, sweep, message", [
        (Scenario.VOL_SWEEP, {"sigma": [0.2]},
         "sweep key 'sigma' is not read by vol-sweep, which reads 'sigmas'"),
        (Scenario.MONEYNESS, {"strikes": [90.0], "sigmas": [0.2]},
         "sweep key 'sigmas' is not read by moneyness, which reads 'strikes', "
         "'risk_aversions'"),
        (Scenario.SINGLE, {"sigmas": [0.2]},
         "sweep key 'sigmas' is not read by single, which reads no sweep key"),
    ], ids=["misspelt", "other-scenarios-key", "single"])
    def test_unknown_sweep_key_rejected_before_any_cell(self, monkeypatch, scenario,
                                                        sweep, message):
        monkeypatch.setattr(experiments, "simulate_gbm", None)  # no cell may run
        with pytest.raises(ValueError) as info:
            run_scenario(small_config(scenario=scenario, sweep=sweep))
        assert str(info.value) == message

    @pytest.mark.parametrize("scenario, sweep, message", [
        (Scenario.VOL_SWEEP, {"sigmas": 0.2},
         "sweep key 'sigmas' must be a list of numbers, got 0.2"),
        (Scenario.MONEYNESS, {"strikes": [90.0, "110"]},
         "sweep key 'strikes' must be a list of numbers, got [90.0, '110']"),
        (Scenario.TRANSACTION_COSTS, {"cost_rate": [0.01]},
         "sweep key 'cost_rate' must be a number, got [0.01]"),
        (Scenario.MONEYNESS, {"strikes": [90.0, float("inf")]},
         "sweep key 'strikes' must be a list of numbers, got [90.0, inf]"),
    ], ids=["number-for-list", "string-in-list", "list-for-number", "infinity-in-list"])
    def test_sweep_value_of_wrong_type_rejected_before_any_cell(
            self, monkeypatch, scenario, sweep, message):
        monkeypatch.setattr(experiments, "simulate_gbm", None)  # no cell may run
        with pytest.raises(ValueError) as info:
            run_scenario(small_config(scenario=scenario, sweep=sweep))
        assert str(info.value) == message

    def test_cell_failure_recorded_and_run_continues(self):
        config = small_config(scenario=Scenario.VOL_SWEEP,
                              strike=-5.0,
                              sweep={"sigmas": [0.15]})
        table = run_scenario(config)
        assert table.errors
        assert len(table.rows) == 4  # error rows still emitted per method

    def test_nonfinite_strike_marks_every_row(self):
        # A config built in code; one read from JSON rejects it on load.
        table = run_scenario(small_config(scenario=Scenario.SINGLE, strike=float("nan")))
        assert table.errors == ["spot and strike must be positive and finite"] * 4
        assert table.column("price") == [None] * 4

    @pytest.mark.parametrize("strikes", [[90.0, 110.0], [-5.0]])
    def test_config_hash_computed_once_per_sweep(self, monkeypatch, strikes):
        # Solved rows, and error rows of a strike the benchmark rejects.
        config = small_config(scenario=Scenario.MONEYNESS,
                              sweep={"strikes": strikes, "risk_aversions": [1e-4]})
        expected = config.config_hash()
        calls = []

        def counted(self):
            calls.append(self)
            return expected

        monkeypatch.setattr(ScenarioConfig, "config_hash", counted)
        table = run_scenario(config)
        assert calls == [config]
        assert len(table.rows) == 2 * len(strikes)
        assert bool(table.errors) == (strikes == [-5.0])
        assert table.column("config_hash") == [expected] * len(table.rows)

    @pytest.mark.parametrize("n_basis", [12, 100])
    def test_nan_state_gives_error_rows(self, monkeypatch, n_basis):
        # One NaN state, with the basis spanning the finite ones: the
        # compact features hold NaNs, which the first Gram rejects.
        def nan_states(paths, kind):
            values = compute_states(paths, kind).values.copy()
            values[7, 3] = np.nan
            return StateSeries(values=values, kind=kind)

        def finite_spec(values, **basis):
            return spec_for_states(values[np.isfinite(values)], **basis)

        monkeypatch.setattr(experiments, "compute_states", nan_states)
        monkeypatch.setattr(experiments, "spec_for_states", finite_spec)
        config = small_config(scenario=Scenario.SINGLE, n_basis=n_basis, order=3)
        table = run_scenario(config)
        assert len(table.rows) == 4
        assert table.errors == ["feature matrix must be finite"] * 4

    @pytest.mark.parametrize("scenario, sweep, field, values", [
        (Scenario.NOISE_GRID, {"path_counts": [100, 200], "noise_levels": [0.4]},
         "n_paths", [100, 200]),
        (Scenario.HEDGE_FREQUENCY, {"step_counts": [12, 2]}, "n_steps", [12, 2]),
    ], ids=["noise-grid", "hedge-frequency"])
    def test_simulates_each_cell_market_once(self, monkeypatch, scenario, sweep,
                                             field, values):
        # No cell runs on the 500-path base market, so it is never simulated
        # and the header has no knots.
        calls = []

        def counted(market):
            calls.append(market)
            return simulate_gbm(market)

        monkeypatch.setattr(experiments, "simulate_gbm", counted)
        market = replace(small_config().market, n_paths=500)
        config = small_config(scenario=scenario, sweep=sweep, seeds=(0, 1),
                              market=market)
        table = run_scenario(config)
        assert not table.errors
        cells = {replace(config.market, seed=seed, **{field: value})
                 for value in values for seed in config.seeds}
        assert len(calls) == len(cells) and set(calls) == cells
        assert table.meta["knots"] == {}

    @pytest.mark.parametrize("scenario, sweep", [
        (Scenario.MONEYNESS, {"strikes": [90.0, 110.0]}),
        (Scenario.BASIS_SENSITIVITY, {"basis_sizes": [6], "orders": [1, 3]}),
    ], ids=["moneyness", "basis-sensitivity"])
    def test_holds_one_markets_paths(self, monkeypatch, scenario, sweep):
        # Both sweeps come back to a seed's market after the other seed's
        # cells; a basis-sensitivity sweep lists its cells seed-innermost.
        simulated, live = [], []

        def tracked(market):
            live.append(sum(ref() is not None for ref in simulated))
            paths = simulate_gbm(market)
            simulated.append(weakref.ref(paths))
            return paths

        monkeypatch.setattr(experiments, "simulate_gbm", tracked)
        table = run_scenario(small_config(scenario=scenario, sweep=sweep, seeds=(0, 1)))
        assert not table.errors
        assert live == [0, 0]

    def test_moneyness_group_is_one_backward_pass(self, monkeypatch):
        # 17 strikes x 2 risk aversions: 34 contracts per (market, kind).
        calls = []
        sweep = experiments.run_dp_and_fqi

        def counted(paths, states, contracts, *args, **kwargs):
            calls.append((paths.params, states.kind, len(contracts)))
            return sweep(paths, states, contracts, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_dp_and_fqi", counted)
        config = small_config(scenario=Scenario.MONEYNESS, seeds=(0, 1))
        table = run_scenario(config)
        assert not table.errors
        groups = {(replace(config.market, seed=seed), kind)
                  for seed in config.seeds for kind in config.state_kinds}
        assert len(calls) == len(groups)
        assert {(market, kind) for market, kind, _ in calls} == groups
        assert {n for _, _, n in calls} == {34}

    def test_fitted_q_failure_keeps_dp_row(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("fitted Q diverged")

        monkeypatch.setattr("qlbs.fqi.fqi_backward_step", failing)
        table = run_scenario(small_config(scenario=Scenario.SINGLE))
        dp, fqi = table.select(method="dp"), table.select(method="fqi")
        assert len(dp.rows) == len(fqi.rows) == 2
        assert dp.errors == []
        assert all(price is not None and price > 0 for price in dp.column("price"))
        assert fqi.errors == ["fitted Q diverged"] * 2
        assert fqi.column("price") == [None, None]

    def test_fitted_q_failure_at_one_noise_keeps_the_others(self):
        # One contract of a noise grid whose cells also ask for the DP row:
        # two fitted-Q jobs in one sweep, the one at eta = 1.5 rejected.
        config = small_config(scenario=Scenario.NOISE_GRID,
                              state_kinds=(StateKind.DRIFT_ADJUSTED,))
        cells = [{"market": config.market, "noise": eta} for eta in (0.4, 1.5)]
        table = experiments._run_cells(config, cells)
        alone = experiments._run_cells(config, cells[:1])
        dp, fitted = table.select(method="dp"), table.select(method="fqi")
        assert dp.errors == [] and len(dp.rows) == 2
        assert dp.column("price") == alone.select(method="dp").column("price") * 2
        assert fitted.column("noise") == [0.4, 1.5]
        assert fitted.column("error") == ["", "eta must lie in [0, 1]"]
        assert fitted.column("price") == [alone.select(method="fqi").column("price")[0],
                                          None]

    def test_basis_sensitivity_shape(self):
        config = small_config(scenario=Scenario.BASIS_SENSITIVITY,
                              sweep={"basis_sizes": [6], "orders": [1, 3]})
        table = run_scenario(config)
        assert len(table.rows) == 2 * 2
        assert set(table.column("order")) == {1, 3}


class TestReports:
    def test_empty_table_writes_header_only(self, tmp_path):
        table = ResultTable(columns=["a", "b"], rows=[], meta={"config": {"x": 1}})
        dest = tmp_path / "empty.csv"
        emit_report(table, dest, "csv")
        lines = dest.read_text().strip().splitlines()
        assert lines[-1] == "a,b"
        assert all(line.startswith("#") for line in lines[:-1])

    def test_json_round_trip(self, tmp_path):
        config = small_config(scenario=Scenario.SINGLE)
        table = run_scenario(config)
        dest = tmp_path / "report.json"
        emit_report(table, dest, "json")
        loaded = load_report(dest)
        assert loaded.columns == table.columns
        assert loaded.rows == table.rows
        assert loaded.meta == table.meta

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_json_round_trip_of_any_table(self, tmp_path, data):
        scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.text())
        values = st.recursive(scalars, lambda inner: st.one_of(
            st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)),
            max_leaves=8)
        columns = data.draw(st.lists(st.text(), unique=True, max_size=6))
        rows = data.draw(st.lists(st.lists(scalars, min_size=len(columns),
                                           max_size=len(columns)), max_size=5))
        meta = data.draw(st.dictionaries(st.text(), values, max_size=4))
        dest = tmp_path / "report.json"
        emit_report(ResultTable(columns=columns, rows=rows, meta=meta), dest, "json")
        loaded = load_report(dest)
        assert (loaded.columns, loaded.rows, loaded.meta) == (columns, rows, meta)

    @pytest.mark.parametrize("payload, message", [
        ([["a"], [[1]]], r"expected a JSON object, got list"),
        ({"rows": [[1]]}, r"missing key 'columns'"),
        ({"columns": ["a"]}, r"missing key 'rows'"),
        ({"columns": ["a", "b"], "rows": [[1, 2], [3]]},
         r"row 1 has 1 values, expected 2"),
    ], ids=["not-an-object", "no-columns", "no-rows", "short-row"])
    def test_load_report_rejects_malformed_file(self, tmp_path, payload, message):
        dest = tmp_path / "bad.json"
        dest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=r"bad\.json: " + message):
            load_report(dest)

    def test_report_header_echoes_knots(self, tmp_path):
        config = small_config(scenario=Scenario.SINGLE)
        table = run_scenario(config)
        for kind in config.state_kinds:
            knots = table.meta["knots"][kind.value]
            assert len(knots) == config.n_basis + config.order
            assert knots == sorted(knots)
        dest = tmp_path / "report.csv"
        emit_report(table, dest, "csv")
        header = [l for l in dest.read_text().splitlines() if l.startswith("#")]
        assert any(l.startswith("# knots=") for l in header)
        assert any(l.startswith("# config=") for l in header)

    def test_csv_six_significant_digits(self, tmp_path):
        table = ResultTable(columns=["x"], rows=[[1.23456789012345]], meta={})
        dest = tmp_path / "digits.csv"
        emit_report(table, dest, "csv")
        assert dest.read_text().strip().splitlines()[-1] == "1.23457"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(ResultTable(columns=[], rows=[]), tmp_path / "x", "yaml")

    def test_write_failure_has_path_context(self):
        with pytest.raises(OSError, match="no/such"):
            emit_report(ResultTable(columns=["a"], rows=[]), "/no/such/dir/report.csv")
