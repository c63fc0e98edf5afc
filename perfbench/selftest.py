"""The benchmark's own tests: each output check accepts a right input and
rejects a deliberately wrong one, and the oracles match known values.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

Run from the repository root; uses ``qlbs`` from ``src/`` on small inputs.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import qlbs  # noqa: E402
from oracles import bsm_put, bspline_row, rebuilt_dp_price  # noqa: E402

OUT = HERE / "out"
S0, R, SIGMA, T = 100.0, 0.03, 0.15, 1.0


def _small_market(seed=3, n_paths=400, n_steps=6):
    return qlbs.MarketParams(s0=S0, mu=0.05, sigma=SIGMA, r=R, maturity=T,
                             n_steps=n_steps, n_paths=n_paths, seed=seed)


def test_bsm_oracle_matches_textbook_value():
    # Hull, Options, Futures and Other Derivatives, Example 15.6: 0.8086.
    assert abs(bsm_put(42.0, 40.0, 0.1, 0.2, 0.5) - 0.8086) < 5e-5
    assert bsm_put(100.0, 120.0, 0.03, 0.0, 1.0) == 120.0 * math.exp(-0.03) - 100.0


def test_bspline_oracle_hat_functions():
    # Order 2 on knots 0,0,1,2,2: hats peaking at 0, 1 and 2.
    knots = [0.0, 0.0, 1.0, 2.0, 2.0]
    assert bspline_row(knots, 3, 2, 0.25) == [0.75, 0.25, 0.0]
    assert bspline_row(knots, 3, 2, 1.5) == [0.0, 0.5, 0.5]
    assert bspline_row(knots, 3, 2, 2.0) == [0.0, 0.0, 1.0]


def test_desk_quote_check():
    bsm = bsm_put(S0, 100.0, R, SIGMA, T)
    assert checks.desk_quote(bsm, -0.35, bsm + 0.01, bsm) == []
    assert checks.desk_quote(bsm + 0.5, -0.35, bsm + 0.5, bsm)
    assert checks.desk_quote(bsm, -0.35, bsm + 0.5, bsm)
    assert checks.desk_quote(bsm, 0.1, bsm, bsm)


def _sweep_rows():
    rows = []
    for strike in (60.0, 100.0, 140.0):
        bsm = bsm_put(S0, strike, R, SIGMA, T)
        for seed in (1, 2):
            for state in ("price", "log-return"):
                for lam, bump in ((1e-4, 0.0), (1e-3, 0.01)):
                    rows.append({"strike": strike, "seed": seed, "state": state,
                                 "risk_aversion": lam, "price": bsm + bump,
                                 "bsm_price": bsm, "error": ""})
    return rows


def test_strike_sweep_check():
    rows = _sweep_rows()
    assert checks.strike_sweep(rows, _sweep_rows(), S0, R, SIGMA, T) == []

    def rejected(mutate):
        bad = _sweep_rows()
        mutate(bad)
        return checks.strike_sweep(bad, bad, S0, R, SIGMA, T)

    # A lambda = 1e-3 price shifted down by 0.5 falls below its 1e-4 twin.
    assert rejected(lambda b: b[3].update(price=b[3]["price"] - 0.5))
    # A deep out-of-the-money price shifted down by 0.5 is negative.
    assert rejected(lambda b: b[0].update(price=b[0]["price"] - 0.5))
    # Every lambda = 1e-4 price shifted up by 0.5: far from BSM.
    assert rejected(lambda b: [r.update(price=r["price"] + 0.5) for r in b])
    assert rejected(lambda b: b[5].update(bsm_price=b[5]["bsm_price"] + 1e-9))
    assert rejected(lambda b: b[7].update(error="boom"))
    changed = _sweep_rows()
    changed[2]["price"] += 0.5
    assert checks.strike_sweep(rows, changed, S0, R, SIGMA, T)


def test_rebuilt_price_check():
    market = _small_market()
    paths = qlbs.simulate_gbm(market)
    risk = qlbs.RiskParams.from_rate(1e-3, market.r, market.dt)
    solution = qlbs.run_model_based(paths, qlbs.StateKind.DRIFT_ADJUSTED,
                                    strike=100.0, risk=risk)
    rebuilt = rebuilt_dp_price(paths.prices, solution.hedges, 100.0,
                               risk.gamma, risk.risk_aversion)
    assert checks.rebuilt_price(solution.price_t0, rebuilt) == []
    assert checks.rebuilt_price(solution.price_t0 + 0.5, rebuilt)


def test_basis_rows_check():
    spec = qlbs.make_spec(-0.4, 0.3, n_basis=100, order=10)
    points = list(np.linspace(-0.4, 0.3, 17))
    rows = qlbs.basis.basis_values(spec, points)
    assert checks.basis_rows(spec.knots, 100, 10, points, rows) == []
    rows[5, int(np.argmax(rows[5]))] += 1e-9
    assert checks.basis_rows(spec.knots, 100, 10, points, rows)


def test_basis_stability_check():
    assert checks.basis_stability({"log-return": [0.1, 0.1], "drift-adjusted": [0.3, 0.3]}) == []
    assert checks.basis_stability({"log-return": [0.6, 0.6], "drift-adjusted": [0.3, 0.3]})


def test_replay_check():
    bsm = bsm_put(S0, 100.0, R, SIGMA, T)
    assert checks.replay(bsm, bsm, bsm) == []
    assert checks.replay(bsm, bsm + 0.5, bsm)
    assert checks.replay(bsm + 0.5, bsm + 0.5, bsm)


def test_dataset_file_check():
    market = _small_market(n_paths=5, n_steps=3)
    paths = qlbs.simulate_gbm(market)
    states = qlbs.compute_states(paths, qlbs.StateKind.PRICE)
    risk = qlbs.RiskParams.from_rate(1e-4, market.r, market.dt)
    actions = np.full(paths.prices.shape, -0.5)
    actions[:, -1] = 0.0
    dataset = qlbs.build_offline_dataset(paths, states, actions, strike=100.0, risk=risk)
    OUT.mkdir(exist_ok=True)
    good = OUT / "selftest-dataset.csv"
    qlbs.save_dataset(dataset, good)
    assert checks.dataset_file(good, 5, 3) == []
    lines = good.read_text().splitlines(keepends=True)
    last = len(lines) - 1
    for name, bad_lines in (("dropped", lines[:last]),
                            ("duplicated", lines + [lines[last]])):
        bad = OUT / f"selftest-dataset-{name}.csv"
        bad.write_text("".join(bad_lines))
        assert checks.dataset_file(bad, 5, 3), name


def test_manifest_lists_what_the_runs_report():
    from run import END_TO_END
    from spans import PER_LAYER
    from workloads import WORKLOADS

    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in manifest["workloads"]) == sorted(WORKLOADS)


if __name__ == "__main__":
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except Exception as err:
                failed += 1
                print(f"FAIL {name}: {err!r}")
    sys.exit(1 if failed else 0)
