"""Seeded numbers of every scenario, the golden example and the CLI quotes.

``tests/test_seeded_numbers.py`` recomputes these numbers and compares
them with ``seeded_numbers.json``, so a change that is meant to keep
every seeded result shows that it does. Regenerate the fixture only for
a change that is meant to move numbers, and state the largest move:

    PYTHONPATH=src python tests/seeded_numbers.py

The numbers depend on the host's BLAS and its thread count: regenerated
on another host or thread count, the N = 100 basis-sensitivity rows
drift from the committed file by up to 1.6e-11, within the test's 1e-10
tolerance. So regenerating does not show that no number moved. To claim
that, write :func:`compute` elsewhere with ``--out`` at the parent
commit and at the change, on the same host with the same BLAS thread
count, and compare the two files byte for byte:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/seeded_numbers.py --out OUT.json
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).with_name("seeded_numbers.json")

# 2000 paths x 12 steps on seeds 0-2; each sweep keeps a few of its
# default cells, among them strike 60 (deep out of the money) and
# N = 100 splines of order 10.
MARKET = dict(s0=100.0, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
              n_steps=12, n_paths=2000, seed=0)
SEEDS = (0, 1, 2)
SWEEPS = {
    "vol-sweep": {"sigmas": [0.15, 0.40]},
    "noise-grid": {"path_counts": [100, 1000], "noise_levels": [0.4, 0.8]},
    "hedge-frequency": {"step_counts": [26, 2]},
    "moneyness": {"strikes": [60.0, 100.0, 140.0], "risk_aversions": [1e-4, 1e-3]},
    "transaction-costs": {},
    "basis-sensitivity": {"basis_sizes": [15, 100], "orders": [1, 3, 10]},
    "single": {},
}
KEYS = ("scenario", "method", "state", "seed", "sigma", "n_steps", "n_paths",
        "strike", "risk_aversion", "noise", "n_basis", "order", "cost_rate")
VALUES = ("price", "hedge", "tw_mean", "tw_median", "error")
GOLDEN_ARRAYS = ("hedges", "portfolio", "q_values", "phi", "omega")
CLI_STATES = ("drift-adjusted", "price", "log-return")


def scenario_rows(name: str) -> list[dict]:
    """Identifying fields and values of every row of one shrunk sweep."""
    from qlbs.experiments import ScenarioConfig, run_scenario

    config = ScenarioConfig.from_json_dict({
        "scenario": name, "market": MARKET, "seeds": list(SEEDS),
        "sweep": SWEEPS[name]})
    table = run_scenario(config)
    return [{c: row[table.columns.index(c)] for c in KEYS + VALUES}
            for row in table.rows]


def golden_numbers() -> dict:
    """The five-path worked example as the golden fixtures solve it."""
    import numpy as np

    from conftest import (GOLDEN_DOMAIN, GOLDEN_DT, GOLDEN_PRICES, GOLDEN_RATE,
                          GOLDEN_RIDGE, GOLDEN_RISK_AVERSION, GOLDEN_STRIKE)
    from qlbs.basis import feature_cube, make_spec
    from qlbs.dp import RiskParams, run_model_based
    from qlbs.market import MarketParams, StateKind, compute_states, table_to_pathset

    params = MarketParams(s0=100.0, mu=0.05, sigma=0.15, r=GOLDEN_RATE,
                          maturity=1.0, n_steps=3, n_paths=5, seed=0)
    paths = table_to_pathset(GOLDEN_PRICES, dt=GOLDEN_DT, params=params)
    spec = make_spec(*GOLDEN_DOMAIN, n_basis=3, order=3)
    cube = np.round(feature_cube(spec, compute_states(paths, StateKind.PRICE).values), 2)
    risk = RiskParams.from_rate(GOLDEN_RISK_AVERSION, GOLDEN_RATE, GOLDEN_DT)
    solution = run_model_based(paths, StateKind.PRICE, GOLDEN_STRIKE, risk,
                               basis_spec=spec, features=cube, regularizer=GOLDEN_RIDGE)
    out = {"price": solution.price_t0, "hedge": solution.hedge_t0}
    out.update({name: getattr(solution, name).tolist() for name in GOLDEN_ARRAYS})
    return out


def cli_quote(argv: list[str]) -> dict:
    """The JSON a CLI price command prints."""
    from qlbs.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"qlbs {' '.join(argv)} exited with {status}")
    return json.loads(printed.getvalue())


def cli_quotes() -> dict:
    return {f"{command} --seed 0 --state {state}":
            cli_quote([command, "--seed", "0", "--state", state])
            for command in ("price-qlbs-dp", "price-qlbs-fqi")
            for state in CLI_STATES}


def compute() -> dict:
    return {"scenarios": {name: scenario_rows(name) for name in SWEEPS},
            "golden": golden_numbers(),
            "cli": cli_quotes()}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the seeded numbers as JSON.")
    parser.add_argument("--out", type=Path, default=FIXTURE,
                        help="file to write (default: the committed fixture)")
    out = parser.parse_args().out
    sys.path.insert(0, str(Path(__file__).parent))
    out.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {out}")
