import functools
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
from qlbs.fqi import (OfflineDataset, build_offline_dataset, load_dataset,
                      perturb_actions, run_fqi)
from qlbs.market import StateKind, compute_states, simulate_gbm


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def chained_fqi(paths, states, dp, spec, features=None, regularizer=None):
    """The CLI's dataset and fitted-Q solution from separate passes: the
    DP's hedges perturbed with the CLI's noise and seed, closed at expiry,
    then build_offline_dataset and run_fqi."""
    noisy = perturb_actions(dp.hedges, DEFAULT_NOISE, seed=paths.params.seed + 104_729)
    noisy[:, -1] = 0.0
    dataset = build_offline_dataset(paths, states, noisy, dp.strike, dp.risk)
    return dataset, run_fqi(dataset, spec, regularizer=regularizer, features=features)


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
    def test_writes_the_simulated_paths(self, tmp_path, capsys):
        dest = tmp_path / "paths.csv"
        code, _ = run_cli(capsys, "simulate", "--paths", "8", "--steps", "5",
                          "--seed", "3", "--out", str(dest))
        assert code == 0
        paths = simulate_gbm(replace(DEFAULT_MARKET, n_paths=8, n_steps=5, seed=3))
        header, *rows = dest.read_text().splitlines()
        assert header == ",".join(map(repr, paths.times.tolist()))
        # repr round-trips a float, so the rows parse to the same bits.
        assert np.array_equal([[float(v) for v in row.split(",")] for row in rows],
                              paths.prices)


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
        assert lines[0] == "t,kind," + ",".join(f"c{i}" for i in range(12))

        market = replace(DEFAULT_MARKET, n_paths=500, seed=2)
        paths = simulate_gbm(market)
        kind = StateKind.DRIFT_ADJUSTED
        spec = spec_for_states(compute_states(paths, kind).values)
        risk = RiskParams.from_rate(DEFAULT_RISK_AVERSION, market.r, market.dt)
        dp = run_model_based(paths, kind, DEFAULT_STRIKE, risk, basis_spec=spec)
        assert payload == {"price": dp.price_t0, "hedge": dp.hedge_t0}
        want = [f"{t},{name}," + ",".join(repr(float(v)) for v in coef[t])
                for t in range(market.n_steps)
                for name, coef in (("hedge", dp.phi), ("value", dp.omega))]
        assert lines[1:] == want

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
        dataset, solution = chained_fqi(paths, states, dp, spec)
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
        dataset, solution = chained_fqi(paths, states, dp, spec, regularizer=ridge)
        assert solution.price_t0 == cli_price
        # The same dataset priced directly: the ridge must reach run_fqi.
        assert run_fqi(dataset, spec, regularizer=ridge).price_t0 == cli_price
        assert run_fqi(dataset, spec).price_t0 != cli_price


class TestLargeBasisQuote:
    @pytest.mark.parametrize("state", ["drift-adjusted", "log-return"])
    def test_matches_the_library_on_a_dense_cube(self, capsys, state):
        # N = 100 takes the band path on the CLI's stepwise features.
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
        _, fqi = chained_fqi(paths, states, dp, spec, features=cube)
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


class TestRemovedFlags:
    def test_full_hedge_is_unrecognized(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["price-qlbs-dp", "--paths", "50", "--full-hedge"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --full-hedge" in capsys.readouterr().err


class TestUsageErrors:
    """Values the library rejects end in a usage message and status 2."""

    @pytest.mark.parametrize("argv, message", [
        (["price-qlbs-dp", "--paths", "0"], "n_paths must be at least 1"),
        (["price-qlbs-dp", "--steps", "0"], "n_steps must be at least 1"),
        (["price-qlbs-dp", "--paths", "50", "--spline-order", "0"],
         "need n_basis >= order >= 1"),
        (["price-qlbs-fqi", "--paths", "50", "--steps", "4", "--noise", "2"],
         r"eta must lie in \[0, 1\]"),
        (["price-qlbs-dp", "--strike", "nan", "--paths", "200", "--steps", "4"],
         "strike must be positive and finite"),
        (["price-qlbs-fqi", "--strike", "nan", "--paths", "200", "--steps", "4"],
         "strike must be positive and finite"),
        (["price-bs", "--strike", "nan"], "spot and strike must be positive and finite"),
        (["price-bs", "--sigma", "inf"], "sigma and maturity must be nonnegative and finite"),
    ], ids=["paths-0", "steps-0", "spline-order-0", "noise-2", "dp-strike-nan",
            "fqi-strike-nan", "bs-strike-nan", "bs-sigma-inf"])
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
        # The fake would also answer the OpenBLAS lookup, and its cache.
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)

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


def openblas_threads():
    blas = cli._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS is absent: no thread count to read")
    return blas


class TestOneBlasThread:
    """Each command runs at one OpenBLAS thread, and main restores the
    count it found."""

    # A RuntimeError is not a usage error: main lets it propagate.
    @pytest.mark.parametrize("error, status", [
        (None, 0), (ValueError, 2), (RuntimeError, None)],
        ids=["status-0", "ValueError", "RuntimeError"])
    def test_one_thread_inside_count_restored_after(self, monkeypatch, capsys,
                                                    error, status):
        get_threads, set_threads = openblas_threads()
        inside = []

        def command(args):
            inside.append(get_threads())
            if error is not None:
                raise error("from the command")
            return 0

        monkeypatch.setattr(cli, "_cmd_price_bs", command)
        original = get_threads()
        set_threads(2)  # a count other than the command's, on any machine
        try:
            if status is None:
                with pytest.raises(RuntimeError, match="from the command"):
                    main(["price-bs"])
            else:
                assert main(["price-bs"]) == status
            after = get_threads()
        finally:
            set_threads(original)
        assert inside == [1]
        assert after == 2

    @pytest.mark.parametrize("absent", ["library", "loadable library", "functions"])
    def test_commands_run_without_the_library(self, monkeypatch, capsys, tmp_path,
                                              absent):
        expected = run_cli(capsys, "price-bs")

        def cdll(name):
            if name is not None and absent == "loadable library":
                raise OSError(f"{name}: cannot open shared object file")
            return SimpleNamespace()  # no OpenBLAS functions, no malloc_trim

        if absent == "library":
            monkeypatch.setattr(cli, "np", SimpleNamespace(
                __file__=str(tmp_path / "numpy" / "__init__.py")))
        monkeypatch.setattr(cli, "ctypes", SimpleNamespace(CDLL=cdll))
        lookup = functools.cache(cli._openblas_threads.__wrapped__)
        monkeypatch.setattr(cli, "_openblas_threads", lookup)
        assert run_cli(capsys, "price-bs") == expected
        assert lookup() is None


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

    @pytest.mark.parametrize("payload, message", [
        ({"scenario": "single", "seedz": [0]}, "config: unknown key 'seedz'"),
        ({"market": {"s0": 100, "mu": 0.05, "sigma": 0.15}},
         "market: missing key 'r'"),
        ([{"scenario": "single"}], "config must be a JSON object, got list"),
        ({"seeds": 5}, "config: key 'seeds' must be a list of integers, got 5"),
        ({"strike": "abc"}, "config: key 'strike' must be a number, got 'abc'"),
        ({"strike": float("nan")}, "config: key 'strike' must be a number, got nan"),
        ({"market": {**DEFAULT_MARKET.__dict__, "sigma": float("inf")}},
         "market: key 'sigma' must be a number, got inf"),
        ({"noise": -1.0}, "noise must lie in [0, 1], got -1.0"),
    ], ids=["misspelt-key", "market-missing-fields", "top-level-array",
            "seeds-not-a-list", "strike-not-a-number", "strike-nan", "sigma-infinity",
            "noise-negative"])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, payload,
                                               message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code = main(["experiment", "single", "--config", str(config),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"qlbs: error: {config}: {message}\n"
        assert not (tmp_path / "report.csv").exists()

    def test_duplicated_config_key_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"scenario": "single", "noise": 0.2, "noise": NaN}')
        code = main(["experiment", "single", "--config", str(config),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert (capsys.readouterr().err
                == f"qlbs: error: {config}: key 'noise' appears twice\n")
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("name, sweep, message", [
        ("vol-sweep", {"sigma": [0.2]},
         "sweep key 'sigma' is not read by vol-sweep, which reads 'sigmas'"),
        ("moneyness", {"sigmas": [0.2]},
         "sweep key 'sigmas' is not read by moneyness, which reads 'strikes', "
         "'risk_aversions'"),
    ], ids=["misspelt", "scenario-overridden-by-name"])
    def test_unknown_sweep_key_is_a_usage_error(self, tmp_path, capsys, name, sweep,
                                                message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "vol-sweep", "sweep": sweep}))
        code = main(["experiment", name, "--config", str(config),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"qlbs: error: {config}: {message}\n"
        assert not (tmp_path / "report.csv").exists()

    def test_sweep_value_of_wrong_type_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "vol-sweep", "seeds": [0],
                                      "sweep": {"sigmas": 0.2}}))
        code = main(["experiment", "vol-sweep", "--config", str(config),
                     "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"qlbs: error: {config}: sweep key 'sigmas' must be a list of "
            "numbers, got 0.2\n")
        assert not (tmp_path / "report.csv").exists()
