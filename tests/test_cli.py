import json
import re
import sys
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from qlbs.basis import feature_cube, spec_for_states
from qlbs.bsm import bsm_put_price
from qlbs import cli
from qlbs.cli import main
from qlbs.dp import RiskParams, run_model_based
from qlbs.experiments import (
    DEFAULT_MARKET,
    DEFAULT_NOISE,
    DEFAULT_RISK_AVERSION,
    DEFAULT_STRIKE,
    Scenario,
    ScenarioConfig,
    run_scenario,
)
from qlbs.fqi import OfflineDataset, fqi_from_hedges, load_dataset, run_fqi
from qlbs.market import StateKind, compute_states, load_paths, simulate_gbm


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestPriceBs:
    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "price-bs", "--sigma", "0.15")
        assert code == 0
        payload = json.loads(out)
        assert payload["price"] == pytest.approx(
            bsm_put_price(100, 100, 0.03, 0.15, 1.0))
        assert -1.0 <= payload["delta"] <= 0.0

    def test_csv_output(self, capsys):
        code, out = run_cli(capsys, "price-bs", "--format", "csv")
        header, values = out.strip().splitlines()
        assert header.split(",") == ["price", "delta", "d1", "d2"]
        assert len(values.split(",")) == 4


class TestSimulate:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        dest = tmp_path / "paths.csv"
        code, _ = run_cli(capsys, "simulate", "--paths", "8", "--steps", "5",
                          "--seed", "3", "--out", str(dest))
        assert code == 0
        paths = load_paths(dest)
        assert paths.n_paths == 8
        assert paths.n_steps == 5


class TestSolverCommands:
    def test_price_dp(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.csv"
        code, out = run_cli(capsys, "price-qlbs-dp", "--paths", "500",
                            "--seed", "2", "--dump-coefficients", str(coeffs))
        assert code == 0
        payload = json.loads(out)
        assert 0.0 < payload["price"] < 100.0
        assert payload["hedge"] < 0.0
        lines = coeffs.read_text().strip().splitlines()
        assert lines[0].startswith("t,kind,")
        assert len(lines) == 1 + 2 * 24

    def test_price_fqi_with_dataset_round_trip(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.csv"
        code, out = run_cli(capsys, "price-qlbs-fqi", "--paths", "400",
                            "--seed", "2", "--noise", "0.2",
                            "--dataset-out", str(dataset))
        assert code == 0
        assert json.loads(out).keys() == {"price"}
        direct = json.loads(out)["price"]

        code, out = run_cli(capsys, "price-qlbs-fqi",
                            "--dataset-in", str(dataset))
        assert code == 0
        assert json.loads(out).keys() == {"price"}
        reloaded = json.loads(out)["price"]
        assert reloaded == pytest.approx(direct, abs=1e-9)


class TestFqiPipelineAgreement:
    @pytest.mark.parametrize("state", ["drift-adjusted", "log-return"])
    def test_cli_scenario_and_library_agree(self, tmp_path, capsys, state):
        market = replace(DEFAULT_MARKET, n_steps=6, n_paths=400, seed=7)
        dest = tmp_path / "dataset.csv"
        code, out = run_cli(capsys, "price-qlbs-fqi", "--steps", "6", "--paths",
                            "400", "--seed", "7", "--state", state,
                            "--dataset-out", str(dest))
        assert code == 0
        cli_price = json.loads(out)["price"]

        kind = StateKind.parse(state)
        table = run_scenario(ScenarioConfig(scenario=Scenario.SINGLE, market=market,
                                            state_kinds=(kind,), seeds=(7,)))
        assert table.select(method="fqi").column("price") == [cli_price]

        paths = simulate_gbm(market)
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values)
        risk = RiskParams.from_rate(DEFAULT_RISK_AVERSION, market.r, market.dt)
        dp = run_model_based(paths, kind, DEFAULT_STRIKE, risk, basis_spec=spec)
        dataset, solution = fqi_from_hedges(paths, states, dp.hedges, DEFAULT_NOISE,
                                            DEFAULT_STRIKE, risk, spec)
        assert solution.price_t0 == cli_price
        loaded = load_dataset(dest)
        for field in fields(OfflineDataset):
            assert np.array_equal(getattr(loaded, field.name),
                                  getattr(dataset, field.name)), field.name

    def test_explicit_ridge_reaches_the_fitted_q_pass(self, capsys):
        ridge = 1e-3
        market = replace(DEFAULT_MARKET, n_steps=6, n_paths=400, seed=7)
        code, out = run_cli(capsys, "price-qlbs-fqi", "--steps", "6", "--paths",
                            "400", "--seed", "7", "--ridge", str(ridge))
        assert code == 0
        cli_price = json.loads(out)["price"]

        kind = StateKind.DRIFT_ADJUSTED
        table = run_scenario(ScenarioConfig(scenario=Scenario.SINGLE, market=market,
                                            state_kinds=(kind,), seeds=(7,),
                                            regularizer=ridge))
        assert table.select(method="fqi").column("price") == [cli_price]

        paths = simulate_gbm(market)
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values)
        risk = RiskParams.from_rate(DEFAULT_RISK_AVERSION, market.r, market.dt)
        dp = run_model_based(paths, kind, DEFAULT_STRIKE, risk, basis_spec=spec,
                             regularizer=ridge)
        dataset, solution = fqi_from_hedges(paths, states, dp.hedges, DEFAULT_NOISE,
                                            DEFAULT_STRIKE, risk, spec,
                                            regularizer=ridge)
        assert solution.price_t0 == cli_price
        # The same dataset priced directly: the ridge must reach run_fqi.
        assert run_fqi(dataset, spec, regularizer=ridge).price_t0 == cli_price
        assert run_fqi(dataset, spec).price_t0 != cli_price


class TestLargeBasisQuote:
    @pytest.mark.parametrize("state", ["drift-adjusted", "log-return"])
    def test_matches_the_library_on_a_dense_cube(self, capsys, state):
        # N = 100 takes the band path on the CLI's compact features.
        argv = ["--steps", "6", "--paths", "2000", "--seed", "3", "--state", state,
                "--n-splines", "100", "--spline-order", "3"]
        dp_quote = json.loads(run_cli(capsys, "price-qlbs-dp", *argv)[1])
        fqi_quote = json.loads(run_cli(capsys, "price-qlbs-fqi", *argv)[1])

        market = replace(DEFAULT_MARKET, n_steps=6, n_paths=2000, seed=3)
        kind = StateKind.parse(state)
        paths = simulate_gbm(market)
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values, n_basis=100, order=3)
        cube = feature_cube(spec, states.values)
        risk = RiskParams.from_rate(DEFAULT_RISK_AVERSION, market.r, market.dt)
        dp = run_model_based(paths, kind, DEFAULT_STRIKE, risk, basis_spec=spec,
                             features=cube)
        _, fqi = fqi_from_hedges(paths, states, dp.hedges, DEFAULT_NOISE,
                                 DEFAULT_STRIKE, risk, spec, features=cube)
        assert abs(dp_quote["price"] - dp.price_t0) <= 1e-10
        assert abs(dp_quote["hedge"] - dp.hedge_t0) <= 1e-10
        assert abs(fqi_quote["price"] - fqi.price_t0) <= 1e-10


class TestBadSeed:
    def test_negative_seed_is_rejected_by_market_params(self, capsys):
        assert main(["price-qlbs-dp", "--paths", "50", "--seed", "-1"]) == 2
        assert ("qlbs: error: seed must be a nonnegative integer"
                in capsys.readouterr().err)

    def test_fractional_seed_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["price-qlbs-dp", "--paths", "50", "--seed", "1.5"])
        assert exit_info.value.code == 2
        assert "--seed: invalid int value" in capsys.readouterr().err


class TestUsageErrors:
    """Values the library rejects end in a usage message and status 2."""

    @pytest.mark.parametrize("argv, message", [
        (["price-qlbs-dp", "--paths", "0"], "n_paths must be at least 1"),
        (["price-qlbs-dp", "--steps", "0"], "n_steps must be at least 1"),
        (["price-qlbs-dp", "--paths", "50", "--spline-order", "0"],
         "need n_basis >= order >= 1"),
        (["price-qlbs-fqi", "--paths", "50", "--steps", "4", "--noise", "2"],
         r"eta must lie in \[0, 1\]"),
    ], ids=["paths-0", "steps-0", "spline-order-0", "noise-2"])
    def test_bad_value(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("qlbs: error: ")
        assert re.search(message, err)
        assert "Traceback" not in err

    def test_noise_rejected_before_simulation(self, monkeypatch, capsys):
        def simulate(*args, **kwargs):
            raise AssertionError("paths simulated before --noise was checked")

        monkeypatch.setattr(cli, "simulate_gbm", simulate)
        assert main(["price-qlbs-fqi", "--noise", "2"]) == 2
        assert capsys.readouterr().err == "qlbs: error: eta must lie in [0, 1]\n"

    def test_missing_dataset_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.csv"
        assert main(["price-qlbs-fqi", "--dataset-in", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qlbs: error: ")
        assert "absent.csv" in err

    @pytest.mark.parametrize("column, field", [(2, "states"), (3, "actions")])
    def test_nonfinite_dataset_field_named(self, tmp_path, capsys, column, field):
        dest = tmp_path / "dataset.csv"
        assert main(["price-qlbs-fqi", "--paths", "50", "--steps", "4",
                     "--dataset-out", str(dest)]) == 0
        lines = dest.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("1,3,"))
        cells = lines[row].split(",")
        cells[column] = "nan"
        lines[row] = ",".join(cells)
        dest.write_text("".join(lines))
        capsys.readouterr()
        assert main(["price-qlbs-fqi", "--dataset-in", str(dest)]) == 2
        assert capsys.readouterr().err == f"qlbs: error: dataset {field} must be finite\n"

    def test_other_errors_still_raise(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(cli, "run_model_based", broken)
        with pytest.raises(RuntimeError, match="solver bug"):
            main(["price-qlbs-dp", "--paths", "50"])


class TestFreeHeapReleased:
    """Every command ends by returning the C heap's free pages to the OS."""

    @staticmethod
    def use_libc(monkeypatch, libc):
        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=lambda name: libc))

    @pytest.mark.skipif(sys.platform != "linux", reason="glibc only")
    def test_trimmed_after_success_usage_error_and_raise(self, monkeypatch, capsys):
        calls = []
        self.use_libc(monkeypatch, SimpleNamespace(malloc_trim=calls.append))
        assert main(["price-bs"]) == 0
        assert main(["price-qlbs-dp", "--paths", "0"]) == 2

        def broken(*args, **kwargs):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(cli, "run_model_based", broken)
        with pytest.raises(RuntimeError, match="solver bug"):
            main(["price-qlbs-dp", "--paths", "50"])
        assert calls == [0, 0, 0]

    def test_libc_without_malloc_trim(self, monkeypatch, capsys):
        self.use_libc(monkeypatch, SimpleNamespace())
        assert main(["price-bs"]) == 0
        assert json.loads(capsys.readouterr().out)["price"] > 0


class TestExperiment:
    def test_single_scenario_csv(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "single",
            "market": {"s0": 100, "mu": 0.05, "sigma": 0.15, "r": 0.03,
                       "maturity": 1.0, "n_steps": 4, "n_paths": 200, "seed": 0},
            "strike": 100.0,
            "state_kinds": ["drift-adjusted"],
            "seeds": [0],
        }))
        code, out = run_cli(capsys, "experiment", "single",
                            "--config", str(config), "--out", str(dest))
        assert code == 0
        assert "2 rows" in out
        lines = [l for l in dest.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("scenario,method,state,seed")
        assert len(lines) == 3

    def test_strict_mode_fails_on_cell_error(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "single",
            "market": {"s0": 100, "mu": 0.05, "sigma": 0.15, "r": 0.03,
                       "maturity": 1.0, "n_steps": 4, "n_paths": 100, "seed": 0},
            "strike": -1.0,
            "state_kinds": ["price"],
            "seeds": [0],
        }))
        code, _ = run_cli(capsys, "experiment", "single", "--config", str(config),
                          "--out", str(dest), "--strict")
        assert code == 1
