"""Scenario runner reproducing the benchmark studies.

Each scenario sweeps one axis (volatility, sample size and action noise,
hedging frequency, strike, transaction costs, or basis shape), runs the
solvers per state kind and seed, and collects one row per cell. Paths
are simulated once per market; cells on the same paths and basis share
one set of features and solve their contracts in one batched backward pass,
so sweeps stay fast at desk scale.
"""
from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .basis import (DEFAULT_N_BASIS, DEFAULT_ORDER, BasisSpec, SplineSteps,
                    spec_for_states, spline_features)
from .bsm import bsm_put_quote
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


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario run needs; JSON-serializable field for field."""

    scenario: Scenario = Scenario.SINGLE
    market: MarketParams = DEFAULT_MARKET
    strike: float = DEFAULT_STRIKE
    risk_aversion: float = DEFAULT_RISK_AVERSION
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
        data = asdict(self)
        data["scenario"] = self.scenario.value
        data["state_kinds"] = [k.value for k in self.state_kinds]
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioConfig":
        """The config :meth:`to_json_dict` wrote. Input that is not a JSON
        object, an unknown key, a missing market field or a value of the
        wrong JSON type raises ValueError naming it."""
        kwargs = _json_fields(data, cls, "config")
        if "scenario" in kwargs:
            kwargs["scenario"] = Scenario.parse(kwargs["scenario"])
        if "market" in kwargs:
            kwargs["market"] = MarketParams(**_json_fields(kwargs["market"],
                                                           MarketParams, "market"))
        if "state_kinds" in kwargs:
            kwargs["state_kinds"] = tuple(StateKind.parse(k) for k in kwargs["state_kinds"])
        if "seeds" in kwargs:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_NUMBER = ("a number", _is_number)
_INTEGER = ("an integer", _is_integer)
_NUMBERS = ("a list of numbers", lambda value: isinstance(value, (list, tuple))
            and all(map(_is_number, value)))
_OBJECT = ("a JSON object", lambda value: isinstance(value, dict))

# The JSON value each key of a config and of its market holds, as a
# description and a test.
_JSON_TYPES = {
    "scenario": ("a string", lambda value: isinstance(value, str)),
    "market": _OBJECT,
    "strike": _NUMBER,
    "risk_aversion": _NUMBER,
    "n_basis": _INTEGER,
    "order": _INTEGER,
    "state_kinds": ("a list of strings", lambda value: isinstance(value, list)
                    and all(isinstance(v, str) for v in value)),
    "noise": _NUMBER,
    "seeds": ("a list of integers", lambda value: isinstance(value, list)
              and all(map(_is_integer, value))),
    "regularizer": ("a number or null", lambda value: value is None or _is_number(value)),
    "sweep": _OBJECT,
    "s0": _NUMBER, "mu": _NUMBER, "sigma": _NUMBER, "r": _NUMBER,
    "maturity": _NUMBER, "n_steps": _INTEGER, "n_paths": _INTEGER, "seed": _INTEGER,
}


def _json_fields(data, cls, what: str) -> dict:
    """``data`` as keyword arguments of the dataclass ``cls``, checked to
    be a JSON object holding only its fields, every required one, and
    each of the JSON type that :data:`_JSON_TYPES` names."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    known = fields(cls)
    unknown = [key for key in data if key not in {f.name for f in known}]
    if unknown:
        raise ValueError(f"{what}: unknown key {unknown[0]!r}")
    missing = [f.name for f in known if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{what}: missing key {missing[0]!r}")
    for key, value in data.items():
        description, holds = _JSON_TYPES[key]
        if not holds(value):
            raise ValueError(f"{what}: key {key!r} must be {description}, got {value!r}")
    return dict(data)


def terminal_wealth(paths: PathSet, hedges: np.ndarray, strike: float,
                    cost_rate: float, premium: float) -> np.ndarray:
    """Writer's cumulative cash flows per path, premium included.

    Cash flows are summed without interest accrual. Each executed trade
    is charged cost_rate on its value; at expiry the stock leg is closed
    and the payoff paid, with no further cost.
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
    tw += -prices[:, 0] * a0 - cost_rate * np.abs(a0) * prices[:, 0]
    for t in range(1, n_steps):
        executed = hedges[:, t] - hedges[:, t - 1]
        tw += -prices[:, t] * executed
        tw -= cost_rate * np.abs(executed) * prices[:, t]
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


@dataclass
class _Job:
    """One (cell, state kind) of a sweep and the report rows it produced.

    ``base`` holds the row fields the cell sets (strike, risk aversion,
    noise, basis, state, benchmark) and the sweep's config hash.
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
        "tw_mean": None, "tw_median": None, "runtime_s": 0.0, "error": "",
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
                dp_seconds: float, paths: PathSet, spec, features,
                risk: RiskParams) -> None:
    """Build the job's report rows; a fitted-Q failure marks only its own row.

    A fitted-Q row computes its states again, since the group drops them
    before its pass; DP and transaction-cost rows read only the paths and
    the hedges.
    """
    for method in job.methods:
        row = _row_base(config, job.market, method=method, **job.base)
        if method == "dp":
            row.update(price=dp.price_t0, hedge=dp.hedge_t0,
                       runtime_s=round(dp_seconds, 6))
            if job.cost_rate is not None:
                tw = terminal_wealth(paths, dp.hedges, job.base["strike"],
                                     job.cost_rate, dp.price_t0)
                row["cost_rate"] = job.cost_rate
                row["tw_mean"] = float(tw.mean())
                row["tw_median"] = float(np.median(tw))
        else:
            try:
                started = time.perf_counter()
                _, fqi = fqi_from_hedges(paths, compute_states(paths, job.kind),
                                         dp.hedges, job.base["noise"],
                                         job.base["strike"], risk, spec,
                                         features=features,
                                         regularizer=config.regularizer)
                row["price"] = fqi.price_t0
                row["runtime_s"] = round(time.perf_counter() - started, 6)
            except Exception as err:  # record and continue with the sweep
                log.warning("cell failed: %s", err)
                row["error"] = str(err)
        job.rows.append(row)


def _solve_group(paths: PathSet, config: ScenarioConfig, kind: StateKind,
                 n_basis: int, order: int, jobs: list) -> BasisSpec | None:
    """Solve every job on one set of paths, state kind and basis.

    A group with a fitted-Q or transaction-cost job stores its features
    once, in compact form (SplineFeatures), shared by the backward pass,
    the hedges it evaluates and every fitted-Q run; its state matrix
    lives only until the spec and the features are built. Any other
    group's features have one reader, the pass, which evaluates each
    step's splines from the states (SplineSteps) as it reaches the step.
    Jobs with the same (strike, risk) share one contract, and all
    contracts are solved in one batched backward pass; each DP row's
    runtime is the pass's wall time divided by its contracts, so in a
    group that stores no features it includes the spline evaluation.
    A failure inside the pass marks every job of the group. Returns the
    group's BasisSpec, or None when the states or basis could not be
    built.
    """
    market = paths.params
    try:
        states = compute_states(paths, kind).values
        spec = spec_for_states(states, n_basis=n_basis, order=order)
        # After the pass, a fitted-Q row fits on the features and a cost
        # row evaluates the DP's hedges from them.
        if any(job.cost_rate is not None or job.methods != ("dp",) for job in jobs):
            features = spline_features(spec, states)
        else:
            features = SplineSteps(spec, states)
        del states
    except Exception as err:  # record and continue with the sweep
        for job in jobs:
            _fail(config, job, err)
        return None
    contracts: dict[tuple[float, RiskParams], list[_Job]] = {}
    for job in jobs:
        try:
            risk = RiskParams.from_rate(job.base["risk_aversion"], market.r, market.dt)
        except Exception as err:  # record and continue with the sweep
            _fail(config, job, err)
            continue
        contracts.setdefault((job.base["strike"], risk), []).append(job)
    try:
        started = time.perf_counter()
        solutions = run_model_based_batch(paths, kind, list(contracts), basis_spec=spec,
                                          regularizer=config.regularizer,
                                          features=features)
        per_contract = (time.perf_counter() - started) / len(contracts)
    except Exception as err:  # record and continue with the sweep
        for members in contracts.values():
            for job in members:
                _fail(config, job, err)
        return spec
    for (strike, risk), solution in zip(contracts, solutions):
        for job in contracts[strike, risk]:
            _finish_job(config, job, solution, per_contract, paths, spec,
                        features, risk)
    return spec


def _run_cells(config: ScenarioConfig, cells) -> ResultTable:
    """Shared sweep loop: cells yield per-cell overrides.

    Each (cell, state kind) is a job. Jobs that share paths, state kind
    and basis are solved together (see :func:`_solve_group`); rows come
    out in cell order whatever order the groups ran in. No paths are
    cached across markets: the markets are solved in turn, in the order
    of their first cell, and each market's paths are simulated when its
    first group runs and dropped after its last, so a sweep holds one
    market's paths at a time. The header's ``knots`` holds, per state
    kind, the knots of the group on the base configuration
    (``config.market``, ``n_basis`` and ``order``); a kind no cell solved
    there has no entry.
    """
    base = (config.market, config.n_basis, config.order)
    config_hash = config.config_hash()
    jobs: list[_Job] = []
    markets: dict[MarketParams, dict[tuple, list[_Job]]] = {}
    for cell in cells:
        market = cell["market"]
        strike = cell.get("strike", config.strike)
        risk_aversion = cell.get("risk_aversion", config.risk_aversion)
        noise = cell.get("noise", config.noise)
        n_basis = cell.get("n_basis", config.n_basis)
        order = cell.get("order", config.order)
        try:
            quote = bsm_put_quote(market.s0, strike, market.r, market.sigma,
                                  market.maturity)
            bsm_price, bsm_delta = quote.price, quote.delta
            benchmark_error = None
        except Exception as err:
            bsm_price = bsm_delta = None
            benchmark_error = err
        for kind in config.state_kinds:
            job = _Job(
                market=market, kind=kind,
                methods=tuple(cell.get("methods", ("dp", "fqi"))),
                cost_rate=cell.get("cost_rate"),
                base=dict(strike=strike, risk_aversion=risk_aversion,
                          noise=noise, n_basis=n_basis, order=order,
                          state=kind.value, bsm_price=bsm_price,
                          bsm_delta=bsm_delta, config_hash=config_hash),
            )
            jobs.append(job)
            if benchmark_error is not None:
                _fail(config, job, benchmark_error)
            else:
                groups = markets.setdefault(market, {})
                groups.setdefault((kind, n_basis, order), []).append(job)
    knots = {}
    for market, groups in markets.items():
        try:
            paths = simulate_gbm(market)
        except Exception as err:  # record and continue with the sweep
            for members in groups.values():
                for job in members:
                    _fail(config, job, err)
            continue
        for (kind, n_basis, order), members in groups.items():
            spec = _solve_group(paths, config, kind, n_basis, order, members)
            if spec is not None and (market, n_basis, order) == base:
                knots[kind.value] = [float(k) for k in spec.knots]
        del paths  # before the next market's paths are simulated
    meta = {"config": config.to_json_dict(), "knots": knots}
    return ResultTable(columns=list(_COLUMNS),
                       rows=[[r[c] for c in _COLUMNS]
                             for job in jobs for r in job.rows],
                       meta=meta)


def _seeded_markets(config: ScenarioConfig, **changes):
    for seed in config.seeds:
        yield replace(config.market, seed=seed, **changes)


def run_scenario(config: ScenarioConfig) -> ResultTable:
    """Dispatch one scenario sweep and return its result table.

    A ``sweep`` key the scenario does not read, or a sweep value that is
    not of its default's type (a list of numbers, or a number), raises
    ValueError naming the key, before any cell runs.
    """
    scenario = config.scenario
    read = []

    def sweep(key, default):
        read.append(key)
        value = config.sweep.get(key, default)
        description, holds = _NUMBER if _is_number(default) else _NUMBERS
        if not holds(value):
            raise ValueError(f"sweep key {key!r} must be {description}, got {value!r}")
        return value

    if scenario is Scenario.VOL_SWEEP:
        cells = [{"market": m}
                 for sigma in sweep("sigmas", VOL_SWEEP_SIGMAS)
                 for m in _seeded_markets(config, sigma=sigma)]
    elif scenario is Scenario.NOISE_GRID:
        path_counts = sweep("path_counts", NOISE_GRID_PATHS)
        etas = sweep("noise_levels", NOISE_GRID_ETAS)
        cells = [{"market": m, "noise": eta, "methods": ("fqi",)}
                 for n in path_counts
                 for eta in etas
                 for m in _seeded_markets(config, n_paths=int(n))]
    elif scenario is Scenario.HEDGE_FREQUENCY:
        cells = [{"market": m}
                 for n in sweep("step_counts", tuple(FREQUENCY_STEPS.values()))
                 for m in _seeded_markets(config, n_steps=int(n))]
    elif scenario is Scenario.MONEYNESS:
        strikes = sweep("strikes", MONEYNESS_STRIKES)
        lambdas = sweep("risk_aversions", MONEYNESS_RISK_AVERSIONS)
        cells = [{"market": m, "strike": float(z), "risk_aversion": lam,
                  "methods": ("dp",)}
                 for lam in lambdas
                 for z in strikes
                 for m in _seeded_markets(config)]
    elif scenario is Scenario.TRANSACTION_COSTS:
        cost = sweep("cost_rate", TRANSACTION_COST_RATE)
        lam = sweep("risk_aversion", TRANSACTION_RISK_AVERSION)
        cells = [{"market": m, "cost_rate": cost, "risk_aversion": lam,
                  "methods": ("dp",)}
                 for m in _seeded_markets(config)]
    elif scenario is Scenario.BASIS_SENSITIVITY:
        sizes = sweep("basis_sizes", BASIS_SENSITIVITY_N)
        orders = sweep("orders", BASIS_SENSITIVITY_ORDERS)
        cells = [{"market": m, "n_basis": int(n), "order": int(p),
                  "methods": ("dp",)}
                 for n in sizes
                 for p in orders
                 for m in _seeded_markets(config)]
    elif scenario is Scenario.SINGLE:
        cells = [{"market": m} for m in _seeded_markets(config)]
    else:
        raise ValueError(f"unsupported scenario {scenario!r}")

    unknown = [key for key in config.sweep if key not in read]
    if unknown:
        raise ValueError(f"sweep key {unknown[0]!r} is not read by {scenario.value}, "
                         f"which reads {', '.join(map(repr, read)) or 'no sweep key'}")
    return _run_cells(config, cells)


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
