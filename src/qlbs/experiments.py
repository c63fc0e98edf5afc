"""Scenario runner reproducing the benchmark studies.

Each scenario sweeps one axis (volatility, sample size and action noise,
hedging frequency, strike, transaction costs, or basis shape), runs the
solvers per state kind and seed, and collects one row per cell. Paths
are simulated once per market; cells on the same paths and basis share
one set of features and solve their contracts in batched backward passes,
so sweeps stay fast at desk scale.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .basis import (DEFAULT_N_BASIS, DEFAULT_ORDER, BasisSpec, spec_for_states,
                    spline_features)
from .bsm import bsm_put_delta, bsm_put_price
from .dp import DPSolution, RiskParams, run_model_based_batch
from .fqi import fqi_from_hedges
from .market import (
    BENCHMARK_STATE_KINDS,
    MarketParams,
    PathSet,
    StateKind,
    compute_states,
    simulate_gbm,
)

log = logging.getLogger(__name__)

DEFAULT_MARKET = MarketParams(s0=100.0, mu=0.05, sigma=0.15, r=0.03,
                              maturity=1.0, n_steps=24, n_paths=10_000, seed=0)
DEFAULT_STRIKE = 100.0
DEFAULT_RISK_AVERSION = 1e-4
DEFAULT_NOISE = 0.2
DEFAULT_SEEDS = (0, 1, 2, 3, 4)

VOL_SWEEP_SIGMAS = (0.15, 0.25, 0.40)
NOISE_GRID_PATHS = (100, 1000, 5000, 10_000)
NOISE_GRID_ETAS = (0.4, 0.8)
FREQUENCY_STEPS = {"weekly": 52, "bi-weekly": 26, "monthly": 12, "semi-annual": 2}
MONEYNESS_STRIKES = tuple(float(z) for z in range(60, 141, 5))
MONEYNESS_RISK_AVERSIONS = (1e-4, 1e-3)
TRANSACTION_COST_RATE = 0.01
TRANSACTION_RISK_AVERSION = 2e-3
BASIS_SENSITIVITY_N = (15, 20, 50, 100)
BASIS_SENSITIVITY_ORDERS = (1, 3, 10)


class Scenario(Enum):
    VOL_SWEEP = "vol-sweep"
    NOISE_GRID = "noise-grid"
    HEDGE_FREQUENCY = "hedge-frequency"
    MONEYNESS = "moneyness"
    TRANSACTION_COSTS = "transaction-costs"
    BASIS_SENSITIVITY = "basis-sensitivity"
    SINGLE = "single"

    @classmethod
    def parse(cls, name: str) -> "Scenario":
        for member in cls:
            if member.value == name or member.name.lower() == name.lower():
                return member
        raise ValueError(f"unknown scenario {name!r}")


class TwFormula(Enum):
    """Cash-flow accounting for the writer's terminal wealth.

    CORRECTED charges the proportional cost on the trade actually
    executed at each step; LITERAL follows the source recurrence
    verbatim, including its shifted cost index and its unscaled cost term
    at time zero.
    """

    CORRECTED = "corrected"
    LITERAL = "literal"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs; JSON-serializable field for field."""

    scenario: Scenario = Scenario.SINGLE
    market: MarketParams = DEFAULT_MARKET
    strike: float = DEFAULT_STRIKE
    risk_aversion: float = DEFAULT_RISK_AVERSION
    pure_risk: bool = True
    n_basis: int = DEFAULT_N_BASIS
    order: int = DEFAULT_ORDER
    state_kinds: tuple[StateKind, ...] = BENCHMARK_STATE_KINDS
    noise: float = DEFAULT_NOISE
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    regularizer: float | None = None
    sweep: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("need at least one seed")
        if not self.state_kinds:
            raise ValueError("need at least one state kind")

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.value,
            "market": {
                "s0": self.market.s0, "mu": self.market.mu,
                "sigma": self.market.sigma, "r": self.market.r,
                "maturity": self.market.maturity, "n_steps": self.market.n_steps,
                "n_paths": self.market.n_paths, "seed": self.market.seed,
            },
            "strike": self.strike,
            "risk_aversion": self.risk_aversion,
            "pure_risk": self.pure_risk,
            "n_basis": self.n_basis,
            "order": self.order,
            "state_kinds": [k.value for k in self.state_kinds],
            "noise": self.noise,
            "seeds": list(self.seeds),
            "regularizer": self.regularizer,
            "sweep": self.sweep,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioConfig":
        kwargs = dict(data)
        if "scenario" in kwargs:
            kwargs["scenario"] = Scenario.parse(kwargs["scenario"])
        if "market" in kwargs:
            kwargs["market"] = MarketParams(**kwargs["market"])
        if "state_kinds" in kwargs:
            kwargs["state_kinds"] = tuple(StateKind.parse(k) for k in kwargs["state_kinds"])
        for key in ("seeds",):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def terminal_wealth(paths: PathSet, hedges: np.ndarray, strike: float,
                    cost_rate: float, premium: float,
                    formula: TwFormula = TwFormula.CORRECTED) -> np.ndarray:
    """Writer's cumulative cash flows per path, premium included.

    Cash flows are summed without interest accrual. The corrected form
    charges cost_rate on the value of each executed trade; at expiry the
    stock leg is closed and the payoff paid, with no further cost.
    """
    if not 0 <= cost_rate < 1:
        raise ValueError("cost_rate must lie in [0, 1)")
    prices = paths.prices
    hedges = np.asarray(hedges, dtype=float)
    if hedges.shape != prices.shape:
        raise ValueError("hedges must match the price matrix shape")
    n_steps = paths.n_steps
    tw = np.full(paths.n_paths, float(premium))
    a0 = hedges[:, 0]
    if formula is TwFormula.CORRECTED:
        tw += -prices[:, 0] * a0 - cost_rate * np.abs(a0) * prices[:, 0]
    else:
        tw += -prices[:, 0] * a0 - cost_rate * np.abs(prices[:, 0] - a0)
    for t in range(1, n_steps):
        executed = hedges[:, t] - hedges[:, t - 1]
        tw += -prices[:, t] * executed
        if formula is TwFormula.CORRECTED:
            tw -= cost_rate * np.abs(executed) * prices[:, t]
        else:
            tw -= cost_rate * np.abs(hedges[:, t + 1] - hedges[:, t]) * prices[:, t]
    payoff = np.maximum(strike - prices[:, -1], 0.0)
    tw += prices[:, -1] * hedges[:, n_steps - 1] - payoff
    return tw


@dataclass
class ResultTable:
    """Rectangular result set with a config echo for reproducibility."""

    columns: list
    rows: list
    meta: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def select(self, **filters) -> "ResultTable":
        idx = {name: self.columns.index(name) for name in filters}
        rows = [row for row in self.rows
                if all(row[idx[k]] == v for k, v in filters.items())]
        return ResultTable(columns=list(self.columns), rows=rows, meta=self.meta)

    @property
    def errors(self) -> list:
        if "error" not in self.columns:
            return []
        return [e for e in self.column("error") if e]


_COLUMNS = [
    "scenario", "method", "state", "seed", "sigma", "n_steps", "n_paths",
    "strike", "risk_aversion", "noise", "n_basis", "order", "cost_rate",
    "price", "hedge", "bsm_price", "bsm_delta", "tw_mean", "tw_median",
    "runtime_s", "config_hash", "error",
]


def _pass_size(n_basis: int) -> int:
    """Most contracts one batched backward pass solves.

    A pass keeps five (T+1, K) work arrays per contract, so a pass of
    6 * n_basis / 5 contracts holds at most 6 * n_basis of them: a larger
    basis, whose fits cost more per contract, allows a longer pass.
    """
    return 6 * n_basis // 5


@dataclass
class _Job:
    """One (cell, state kind) of a sweep and the report rows it produced.

    ``base`` holds the row fields the cell sets (strike, risk aversion,
    noise, basis, state, benchmark).
    """

    market: MarketParams
    kind: StateKind
    methods: tuple
    cost_rate: float | None
    base: dict
    rows: list = field(default_factory=list)


def _row_base(config: ScenarioConfig, market: MarketParams, **overrides) -> dict:
    row = {
        "scenario": config.scenario.value,
        "method": "", "state": "", "seed": market.seed,
        "sigma": market.sigma, "n_steps": market.n_steps,
        "n_paths": market.n_paths, "strike": config.strike,
        "risk_aversion": config.risk_aversion, "noise": config.noise,
        "n_basis": config.n_basis, "order": config.order, "cost_rate": 0.0,
        "price": None, "hedge": None, "bsm_price": None, "bsm_delta": None,
        "tw_mean": None, "tw_median": None, "runtime_s": 0.0,
        "config_hash": config.config_hash(), "error": "",
    }
    row.update(overrides)
    return row


def _fail(config: ScenarioConfig, job: _Job, err: Exception) -> None:
    """Record one error row per method and continue with the sweep."""
    log.warning("cell failed: %s", err)
    job.rows = [_row_base(config, job.market, method=method, error=str(err),
                          **job.base)
                for method in job.methods]


def _finish_job(config: ScenarioConfig, job: _Job, dp: DPSolution,
                dp_seconds: float, paths: PathSet, states, spec, features,
                risk: RiskParams) -> None:
    """Run the job's fitted-Q pass if asked, then build its report rows."""
    solved = {"dp": (dp, dp_seconds)}
    if "fqi" in job.methods:
        try:
            started = time.perf_counter()
            _, fqi = fqi_from_hedges(paths, states, dp.hedges, job.base["noise"],
                                     job.base["strike"], risk, spec, features=features,
                                     regularizer=config.regularizer)
            solved["fqi"] = (fqi, time.perf_counter() - started)
        except Exception as err:  # record and continue with the sweep
            _fail(config, job, err)
            return
    for method in job.methods:
        solution, elapsed = solved[method]
        row = _row_base(config, job.market, method=method,
                        runtime_s=round(elapsed, 6), **job.base)
        row["price"] = solution.price_t0
        if method == "dp":
            row["hedge"] = solution.hedge_t0
        if job.cost_rate is not None and method == "dp":
            tw = terminal_wealth(paths, solution.hedges, job.base["strike"],
                                 job.cost_rate, solution.price_t0)
            row["cost_rate"] = job.cost_rate
            row["tw_mean"] = float(tw.mean())
            row["tw_median"] = float(np.median(tw))
        job.rows.append(row)


def _solve_group(get_paths, config: ScenarioConfig, market: MarketParams,
                 kind: StateKind, n_basis: int, order: int,
                 jobs: list) -> BasisSpec | None:
    """Solve every job on one set of paths, state kind and basis.

    The features are built once, in compact form (SplineFeatures), and
    shared by every pass and fitted-Q run. Jobs with the same (strike, risk)
    share one contract, and the contracts are solved in batched passes
    of at most ``_pass_size(n_basis)``; each DP row's runtime is its
    pass's wall time divided by the pass's contracts. A failure inside a
    pass marks every job of that pass. Returns the group's BasisSpec, or
    None when the paths, states or basis could not be built.
    """
    try:
        paths = get_paths(market)
        states = compute_states(paths, kind)
        spec = spec_for_states(states.values, n_basis=n_basis, order=order)
        features = spline_features(spec, states.values)
    except Exception as err:  # record and continue with the sweep
        for job in jobs:
            _fail(config, job, err)
        return None
    contracts: dict[tuple[float, RiskParams], list[_Job]] = {}
    for job in jobs:
        try:
            risk = RiskParams.from_rate(job.base["risk_aversion"], market.r,
                                        market.dt, pure_risk=config.pure_risk)
        except Exception as err:  # record and continue with the sweep
            _fail(config, job, err)
            continue
        contracts.setdefault((job.base["strike"], risk), []).append(job)
    keys = list(contracts)
    size = _pass_size(n_basis)
    for start in range(0, len(keys), size):
        batch = keys[start:start + size]
        try:
            started = time.perf_counter()
            solutions = run_model_based_batch(paths, kind, batch, basis_spec=spec,
                                              regularizer=config.regularizer,
                                              features=features)
            per_contract = (time.perf_counter() - started) / len(batch)
        except Exception as err:  # record and continue with the sweep
            for key in batch:
                for job in contracts[key]:
                    _fail(config, job, err)
            continue
        for (strike, risk), solution in zip(batch, solutions):
            for job in contracts[strike, risk]:
                _finish_job(config, job, solution, per_contract, paths, states,
                            spec, features, risk)
        # Free this pass's arrays before the next pass allocates its own.
        del solutions, solution
    return spec


def _run_cells(config: ScenarioConfig, cells, methods=("dp", "fqi")) -> ResultTable:
    """Shared sweep loop: cells yield per-cell overrides.

    Each (cell, state kind) is a job. Jobs that share paths, state kind
    and basis are solved together (see :func:`_solve_group`); rows come
    out in cell order whatever order the groups ran in. The header's
    ``knots`` holds, per state kind, the knots of the group on the base
    configuration (``config.market``, ``n_basis`` and ``order``); a kind
    no cell solved there has no entry.
    """
    get_paths = functools.cache(simulate_gbm)  # paths shared by the run's cells
    base = (config.market, config.n_basis, config.order)
    jobs: list[_Job] = []
    groups: dict[tuple, list[_Job]] = {}
    for cell in cells:
        market = cell["market"]
        strike = cell.get("strike", config.strike)
        risk_aversion = cell.get("risk_aversion", config.risk_aversion)
        noise = cell.get("noise", config.noise)
        n_basis = cell.get("n_basis", config.n_basis)
        order = cell.get("order", config.order)
        try:
            bsm_price = bsm_put_price(market.s0, strike, market.r,
                                      market.sigma, market.maturity)
            bsm_delta = bsm_put_delta(market.s0, strike, market.r,
                                      market.sigma, market.maturity)
            benchmark_error = None
        except Exception as err:
            bsm_price = bsm_delta = None
            benchmark_error = err
        for kind in config.state_kinds:
            job = _Job(
                market=market, kind=kind,
                methods=tuple(cell.get("methods", methods)),
                cost_rate=cell.get("cost_rate"),
                base=dict(strike=strike, risk_aversion=risk_aversion,
                          noise=noise, n_basis=n_basis, order=order,
                          state=kind.value, bsm_price=bsm_price,
                          bsm_delta=bsm_delta),
            )
            jobs.append(job)
            if benchmark_error is not None:
                _fail(config, job, benchmark_error)
            else:
                groups.setdefault((market, kind, n_basis, order), []).append(job)
    knots = {}
    for (market, kind, n_basis, order), members in groups.items():
        spec = _solve_group(get_paths, config, market, kind, n_basis, order, members)
        if spec is not None and (market, n_basis, order) == base:
            knots[kind.value] = [float(k) for k in spec.knots]
    meta = {"config": config.to_json_dict(), "knots": knots}
    return ResultTable(columns=list(_COLUMNS),
                       rows=[[r[c] for c in _COLUMNS]
                             for job in jobs for r in job.rows],
                       meta=meta)


def _seeded_markets(config: ScenarioConfig, **changes):
    for seed in config.seeds:
        yield replace(config.market, seed=seed, **changes)


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch one scenario sweep and return its result table."""
    scenario = config.scenario
    if scenario is Scenario.VOL_SWEEP:
        sigmas = config.sweep.get("sigmas", VOL_SWEEP_SIGMAS)
        cells = [{"market": m}
                 for sigma in sigmas
                 for m in _seeded_markets(config, sigma=sigma)]
        return _run_cells(config, cells)

    if scenario is Scenario.NOISE_GRID:
        path_counts = config.sweep.get("path_counts", NOISE_GRID_PATHS)
        etas = config.sweep.get("noise_levels", NOISE_GRID_ETAS)
        cells = [{"market": m, "noise": eta, "methods": ("fqi",)}
                 for n in path_counts
                 for eta in etas
                 for m in _seeded_markets(config, n_paths=int(n))]
        return _run_cells(config, cells)

    if scenario is Scenario.HEDGE_FREQUENCY:
        steps = config.sweep.get("step_counts", tuple(FREQUENCY_STEPS.values()))
        cells = [{"market": m}
                 for n in steps
                 for m in _seeded_markets(config, n_steps=int(n))]
        return _run_cells(config, cells)

    if scenario is Scenario.MONEYNESS:
        strikes = config.sweep.get("strikes", MONEYNESS_STRIKES)
        lambdas = config.sweep.get("risk_aversions", MONEYNESS_RISK_AVERSIONS)
        cells = [{"market": m, "strike": float(z), "risk_aversion": lam,
                  "methods": ("dp",)}
                 for lam in lambdas
                 for z in strikes
                 for m in _seeded_markets(config)]
        return _run_cells(config, cells, methods=("dp",))

    if scenario is Scenario.TRANSACTION_COSTS:
        cost = config.sweep.get("cost_rate", TRANSACTION_COST_RATE)
        lam = config.sweep.get("risk_aversion", TRANSACTION_RISK_AVERSION)
        cells = [{"market": m, "cost_rate": cost, "risk_aversion": lam,
                  "methods": ("dp",)}
                 for m in _seeded_markets(config)]
        return _run_cells(config, cells, methods=("dp",))

    if scenario is Scenario.BASIS_SENSITIVITY:
        sizes = config.sweep.get("basis_sizes", BASIS_SENSITIVITY_N)
        orders = config.sweep.get("orders", BASIS_SENSITIVITY_ORDERS)
        cells = [{"market": m, "n_basis": int(n), "order": int(p),
                  "methods": ("dp",)}
                 for n in sizes
                 for p in orders
                 for m in _seeded_markets(config)]
        return _run_cells(config, cells, methods=("dp",))

    if scenario is Scenario.SINGLE:
        cells = [{"market": m} for m in _seeded_markets(config)]
        return _run_cells(config, cells)

    raise ValueError(f"unsupported scenario {scenario!r}")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def emit_report(table: ResultTable, dest, fmt: str = "csv") -> None:
    """Write a result table to CSV (6 significant digits) or JSON (exact)."""
    fmt = fmt.lower()
    if fmt == "csv":
        lines = []
        for key, value in sorted(table.meta.items()):
            lines.append(f"# {key}={json.dumps(value, sort_keys=True)}")
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(
            {"meta": table.meta, "columns": table.columns, "rows": table.rows},
            indent=2, sort_keys=True,
        ) + "\n"
    else:
        raise ValueError(f"unsupported report format {fmt!r}")
    try:
        with open(dest, "w") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"could not write report to {dest}: {err}") from err


def load_report(source) -> ResultTable:
    """Reload a JSON report written by :func:`emit_report`.

    A top level that is not an object, a missing ``columns`` or ``rows``
    key, or a row whose length differs from ``columns`` raises ValueError
    naming the file and the row.
    """
    with open(source) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{source}: expected a JSON object, got "
                         f"{type(data).__name__}")
    for key in ("columns", "rows"):
        if key not in data:
            raise ValueError(f"{source}: missing key {key!r}")
    width = len(data["columns"])
    for index, row in enumerate(data["rows"]):
        if len(row) != width:
            raise ValueError(f"{source}: row {index} has {len(row)} values, "
                             f"expected {width}")
    return ResultTable(columns=data["columns"], rows=data["rows"],
                       meta=data.get("meta", {}))
