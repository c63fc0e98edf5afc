import json

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
    TerminalWealthReport,
    TwFormula,
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

    def test_literal_formula_differs_at_time_zero(self):
        paths = flat_hedge_paths()
        hedges = np.full_like(paths.prices, -0.4)
        hedges[:, -1] = 0.0
        corrected = terminal_wealth(paths, hedges, 100.0, 0.01, 5.0,
                                    TwFormula.CORRECTED)
        literal = terminal_wealth(paths, hedges, 100.0, 0.01, 5.0,
                                  TwFormula.LITERAL)
        # Flat hedge: no interior trades under the corrected form. The
        # literal form differs twice: its time-0 charge is c*|S0 - a0|
        # instead of c*|a0|*S0, and its shifted cost index charges the
        # final unwind at the second-to-last step.
        gap = (0.01 * abs(100.0 - (-0.4)) - 0.01 * 0.4 * 100.0
               + 0.01 * 0.4 * paths.prices[:, 2])
        assert np.allclose(corrected - literal, gap, atol=1e-12)

    def test_report_statistics_consistent(self):
        tw = np.array([-3.0, 1.0, 2.0, 5.0])
        report = TerminalWealthReport.from_sample(tw, StateKind.PRICE, 0.01)
        assert report.mean == pytest.approx(tw.mean())
        assert report.median == pytest.approx(np.median(tw))

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

    def test_cell_failure_recorded_and_run_continues(self):
        config = small_config(scenario=Scenario.VOL_SWEEP,
                              strike=-5.0,
                              sweep={"sigmas": [0.15]})
        table = run_scenario(config)
        assert table.errors
        assert len(table.rows) == 4  # error rows still emitted per method

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
