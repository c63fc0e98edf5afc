"""The four workloads: what one round runs, how it is timed and checked.

Every workload is one closed-loop caller: the next operation starts when
the previous one returns. A round is a fixed list of operations whose
inputs are drawn from the run's seeded generator; a run repeats whole
rounds. Only the operation itself is timed; its checks run afterwards.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks
from oracles import bsm_put, rebuilt_dp_price

# The desk market: the CLI's documented defaults.
S0, MU, SIGMA, RATE, MATURITY, N_STEPS, N_PATHS = 100.0, 0.05, 0.15, 0.03, 1.0, 24, 10_000
STRIKE = 100.0
RISK_AVERSION = 1e-4
STATE_KINDS = ("drift-adjusted", "price", "log-return")
BSM_DESK = bsm_put(S0, STRIKE, RATE, SIGMA, MATURITY)

SWEEP_STRIKES = (60.0, 80.0, 100.0, 120.0, 140.0)
SWEEP_LAMBDAS = (1e-4, 1e-3)
SWEEP_SEEDS = 3
STRESS_N_BASIS = 100
STRESS_ORDERS = (1, 3, 10)
# Feature rows per stress contract compared with the scalar recursion.
BASIS_SAMPLES = 40


class Tally:
    """Timings, counts and check failures of one pass over the rounds."""

    def __init__(self):
        self.op_s: list[float] = []
        self.parts: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @contextlib.contextmanager
    def operation(self, label: str):
        """Count one operation; an exception marks it failed, not the run."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)

    def record(self, seconds: float, **parts: float) -> None:
        self.op_s.append(seconds)
        for name, value in parts.items():
            self.parts[name].append(value)

    def check(self, label: str, problems: list[str]) -> None:
        self.problems.extend(f"{label}: {p}" for p in problems)

    def summary(self) -> dict[str, float]:
        """The workload's own figures: medians of each timed part."""
        return {name: statistics.median(v) for name, v in sorted(self.parts.items())}


def cli_json(qlbs, argv: list[str]) -> dict:
    """Run the ``qlbs`` CLI in-process and parse the JSON it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qlbs.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qlbs {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


class DeskQuote:
    """CLI quotes at the desk defaults: per state kind, a DP quote and an
    FQI quote on one fresh seed. An operation is that pair."""

    name = "desk-quote"

    def __init__(self, qlbs, out_dir):
        self.qlbs = qlbs

    def draw(self, rng) -> list:
        return [(kind, rng.randrange(2**31)) for kind in STATE_KINDS]

    def run(self, inputs, tally: Tally) -> None:
        for kind, seed in inputs:
            args = ["--seed", str(seed), "--state", kind]
            with tally.operation(f"{kind} seed {seed}"):
                t0 = time.perf_counter()
                dp = cli_json(self.qlbs, ["price-qlbs-dp", *args])
                t1 = time.perf_counter()
                fqi = cli_json(self.qlbs, ["price-qlbs-fqi", *args])
                t2 = time.perf_counter()
                tally.record(t2 - t0, dp_quote_s=t1 - t0, fqi_quote_s=t2 - t1)
                tally.check(f"{kind} seed {seed}", checks.desk_quote(
                    dp["price"], dp["hedge"], fqi["price"], BSM_DESK))


class StrikeSweep:
    """The moneyness scenario through ``run_scenario`` and ``emit_report``
    (JSON): strikes x both lambdas x three state kinds on shared paths of
    three seeds, DP only. An operation is one sweep and its report."""

    name = "strike-sweep"

    def __init__(self, qlbs, out_dir):
        self.qlbs = qlbs
        self.report = out_dir / "strike-sweep-report.json"

    def draw(self, rng) -> list:
        return [rng.randrange(2**31) for _ in range(SWEEP_SEEDS)]

    def run(self, seeds, tally: Tally) -> None:
        q = self.qlbs
        market = q.MarketParams(s0=S0, mu=MU, sigma=SIGMA, r=RATE, maturity=MATURITY,
                                n_steps=N_STEPS, n_paths=N_PATHS, seed=seeds[0])
        config = q.ScenarioConfig(
            scenario=q.Scenario.MONEYNESS, market=market, risk_aversion=RISK_AVERSION,
            seeds=tuple(seeds), sweep={"strikes": list(SWEEP_STRIKES),
                                       "risk_aversions": list(SWEEP_LAMBDAS)})
        with tally.operation(f"sweep seeds {seeds}"):
            t0 = time.perf_counter()
            table = q.run_scenario(config)
            t1 = time.perf_counter()
            q.emit_report(table, self.report, "json")
            t2 = time.perf_counter()
            tally.record(t2 - t0, sweep_s=t1 - t0, emit_report_s=t2 - t1,
                         sweep_contracts_per_s=len(table.rows) / (t2 - t0))
            reloaded = q.load_report(self.report)
            rows = [dict(zip(table.columns, row)) for row in table.rows]
            again = [dict(zip(reloaded.columns, row)) for row in reloaded.rows]
            tally.check(f"sweep seeds {seeds}", checks.strike_sweep(
                rows, again, S0, RATE, SIGMA, MATURITY))


class BasisStress:
    """N = 100 B-splines at orders 1, 3 and 10 on the three state kinds,
    driven through the library: simulate_gbm -> compute_states ->
    spec_for_states -> feature_cube -> run_model_based. An operation is
    one state kind at the three orders, each contract building its own
    paths and dense feature cube."""

    name = "basis-stress"

    def __init__(self, qlbs, out_dir):
        self.qlbs = qlbs

    def draw(self, rng) -> list:
        return [rng.randrange(2**31)]

    def run(self, inputs, tally: Tally) -> None:
        seed, = inputs
        deviations = {}
        for kind_name in STATE_KINDS:
            label = f"{kind_name} seed {seed}"
            with tally.operation(label):
                problems, contract_s, devs = [], [], []
                for order in STRESS_ORDERS:
                    t0 = time.perf_counter()
                    spec, states, cube, solution, paths, risk = self._contract(
                        seed, kind_name, order)
                    contract_s.append(time.perf_counter() - t0)
                    problems += checks.rebuilt_price(solution.price_t0, rebuilt_dp_price(
                        paths.prices, solution.hedges, STRIKE, risk.gamma, risk.risk_aversion))
                    pick = np.random.default_rng(seed + order).integers(
                        0, [N_STEPS + 1, N_PATHS], size=(BASIS_SAMPLES, 2))
                    problems += checks.basis_rows(
                        spec.knots, spec.n_basis, spec.order,
                        [float(states.values[k, t]) for t, k in pick],
                        [cube[t, k] for t, k in pick])
                    devs.append(abs(solution.price_t0 - BSM_DESK))
                    # Free this cube before the next contract builds its own.
                    del spec, states, cube, solution, paths
                tally.record(sum(contract_s))
                tally.parts["stress_contract_s"] += contract_s
                tally.check(label, problems)
                deviations[kind_name] = devs
        if len(deviations) == len(STATE_KINDS):
            tally.check(f"seed {seed}", checks.basis_stability(deviations))

    def _contract(self, seed, kind_name, order):
        q = self.qlbs
        market = q.MarketParams(s0=S0, mu=MU, sigma=SIGMA, r=RATE, maturity=MATURITY,
                                n_steps=N_STEPS, n_paths=N_PATHS, seed=seed)
        kind = q.StateKind.parse(kind_name)
        paths = q.simulate_gbm(market)
        states = q.compute_states(paths, kind)
        spec = q.spec_for_states(states.values, n_basis=STRESS_N_BASIS, order=order)
        cube = q.feature_cube(spec, states.values)
        risk = q.RiskParams.from_rate(RISK_AVERSION, market.r, market.dt)
        solution = q.run_model_based(paths, kind, strike=STRIKE, risk=risk,
                                     basis_spec=spec, features=cube)
        return spec, states, cube, solution, paths, risk


class DatasetReplay:
    """The data-driven use: per state kind, ``price-qlbs-fqi --dataset-out F``
    on a fresh seed, then ``price-qlbs-fqi --dataset-in F``. An operation
    is that export and its replay."""

    name = "dataset-replay"

    def __init__(self, qlbs, out_dir):
        self.qlbs = qlbs
        self.dataset = out_dir / "dataset.csv"

    def draw(self, rng) -> list:
        return [(kind, rng.randrange(2**31)) for kind in STATE_KINDS]

    def run(self, inputs, tally: Tally) -> None:
        path = str(self.dataset)
        for kind, seed in inputs:
            label = f"{kind} seed {seed}"
            with tally.operation(label):
                t0 = time.perf_counter()
                exported = cli_json(self.qlbs, ["price-qlbs-fqi", "--seed", str(seed),
                                                "--state", kind, "--dataset-out", path])
                t1 = time.perf_counter()
                replayed = cli_json(self.qlbs, ["price-qlbs-fqi", "--dataset-in", path])
                t2 = time.perf_counter()
                tally.record(t2 - t0, export_s=t1 - t0, replay_s=t2 - t1)
                tally.check(label, checks.replay(exported["price"], replayed["price"],
                                                 BSM_DESK))
                tally.check(label, checks.dataset_file(path, N_PATHS, N_STEPS))


WORKLOADS = {w.name: w for w in (DeskQuote, StrikeSweep, BasisStress, DatasetReplay)}
