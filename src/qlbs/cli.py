"""Command-line interface: single computations and scenario sweeps."""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .basis import (DEFAULT_N_BASIS, DEFAULT_ORDER, SplineSteps, spec_for_states,
                    spline_features)
from .bsm import bsm_put_quote
from .dp import RiskParams, run_model_based
from .experiments import (
    DEFAULT_MARKET,
    DEFAULT_NOISE,
    DEFAULT_RISK_AVERSION,
    DEFAULT_SEEDS,
    DEFAULT_STRIKE,
    Scenario,
    ScenarioConfig,
    emit_report,
    run_scenario,
)
from .fqi import check_noise, fqi_from_hedges, load_dataset, run_fqi, save_dataset
from .market import MarketParams, StateKind, compute_states, save_paths, simulate_gbm


def _add_market_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--s0", type=float, default=DEFAULT_MARKET.s0)
    parser.add_argument("--mu", type=float, default=DEFAULT_MARKET.mu)
    parser.add_argument("--sigma", type=float, default=DEFAULT_MARKET.sigma)
    parser.add_argument("--rate", type=float, default=DEFAULT_MARKET.r)
    parser.add_argument("--maturity", type=float, default=DEFAULT_MARKET.maturity)
    parser.add_argument("--steps", type=int, default=DEFAULT_MARKET.n_steps)
    parser.add_argument("--paths", type=int, default=DEFAULT_MARKET.n_paths)
    parser.add_argument("--seed", type=int, default=0)


def _market_from_args(args) -> MarketParams:
    return MarketParams(s0=args.s0, mu=args.mu, sigma=args.sigma, r=args.rate,
                        maturity=args.maturity, n_steps=args.steps,
                        n_paths=args.paths, seed=args.seed)


def _add_solver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strike", type=float, default=DEFAULT_STRIKE)
    parser.add_argument("--state", default="drift-adjusted",
                        help="price | log-price | log-return | drift-adjusted")
    parser.add_argument("--risk-aversion", type=float, default=DEFAULT_RISK_AVERSION)
    parser.add_argument("--n-splines", type=int, default=DEFAULT_N_BASIS)
    parser.add_argument("--spline-order", type=int, default=DEFAULT_ORDER)
    parser.add_argument("--ridge", type=float, default=None,
                        help="absolute ridge weight (default: scaled automatically)")


def _prepared_run(args):
    market = _market_from_args(args)
    paths = simulate_gbm(market)
    kind = StateKind.parse(args.state)
    states = compute_states(paths, kind)
    spec = spec_for_states(states.values, n_basis=args.n_splines,
                           order=args.spline_order)
    risk = RiskParams.from_rate(args.risk_aversion, market.r, market.dt)
    return paths, kind, states, spec, risk


def _cmd_simulate(args) -> int:
    paths = simulate_gbm(_market_from_args(args))
    save_paths(paths, args.out)
    print(f"wrote {paths.n_paths} paths x {paths.n_steps} steps to {args.out}")
    return 0


def _cmd_price_bs(args) -> int:
    quote = bsm_put_quote(args.s0, args.strike, args.rate, args.sigma, args.maturity)
    payload = {"price": quote.price, "delta": quote.delta,
               "d1": quote.d1, "d2": quote.d2}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(",".join(payload))
        print(",".join(f"{v:.10g}" for v in payload.values()))
    return 0


def _cmd_price_dp(args) -> int:
    paths, kind, states, spec, risk = _prepared_run(args)
    # The pass is the features' one reader: each step's splines are
    # evaluated as it reaches the step, and no cube is stored.
    solution = run_model_based(paths, kind, strike=args.strike, risk=risk,
                               basis_spec=spec,
                               features=SplineSteps(spec, states.values),
                               regularizer=args.ridge)
    print(json.dumps({"price": solution.price_t0, "hedge": solution.hedge_t0},
                     indent=2))
    if args.dump_coefficients:
        with open(args.dump_coefficients, "w") as handle:
            handle.write("t,kind," + ",".join(f"c{i}" for i in range(spec.n_basis)) + "\n")
            for t in range(solution.phi.shape[0]):
                handle.write(f"{t},hedge," + ",".join(repr(float(v)) for v in solution.phi[t]) + "\n")
                handle.write(f"{t},value," + ",".join(repr(float(v)) for v in solution.omega[t]) + "\n")
    return 0


def _cmd_price_fqi(args) -> int:
    if args.dataset_in:
        dataset = load_dataset(args.dataset_in)
        dataset.check_finite()  # before the knots, which need finite states
        spec = spec_for_states(dataset.states, n_basis=args.n_splines,
                               order=args.spline_order)
        solution = run_fqi(dataset, spec, regularizer=args.ridge)
    else:
        check_noise(args.noise)
        paths, kind, states, spec, risk = _prepared_run(args)
        # The DP, its hedges and fitted Q read the features: they are
        # stored once. Only the hedges outlive the DP, and only until
        # fitted Q has perturbed them. The pass keeps coefficients, so
        # reading the hedges evaluates them and no action values.
        features = spline_features(spec, states.values)
        dataset, solution = fqi_from_hedges(
            paths, states,
            run_model_based(paths, kind, strike=args.strike, risk=risk,
                            basis_spec=spec, features=features,
                            regularizer=args.ridge).hedges,
            args.noise, args.strike, risk, spec, features=features,
            regularizer=args.ridge)
        if args.dataset_out:
            save_dataset(dataset, args.dataset_out)
    print(json.dumps({"price": solution.price_t0}, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config) as handle:
            try:
                config = ScenarioConfig.from_json_dict(json.load(handle))
            except ValueError as err:
                raise ValueError(f"{args.config}: {err}") from err
        if config.scenario is not Scenario.parse(args.name):
            config = ScenarioConfig.from_json_dict(
                {**config.to_json_dict(), "scenario": args.name})
    else:
        config = ScenarioConfig(scenario=Scenario.parse(args.name),
                                seeds=tuple(range(args.n_seeds)))
    try:
        table = run_scenario(config)
    except ValueError as err:  # a sweep value; only a config file sets one
        raise ValueError(f"{args.config}: {err}") from err
    emit_report(table, args.out, args.format)
    n_err = len(table.errors)
    print(f"wrote {len(table.rows)} rows to {args.out} ({n_err} cell errors)")
    if args.strict and n_err:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlbs",
        description="Price and hedge European puts with regression-based "
                    "Q-learning, benchmarked against Black-Scholes-Merton.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate paths and write them as CSV")
    _add_market_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("price-bs", help="closed-form put price and delta")
    p.add_argument("--s0", type=float, default=DEFAULT_MARKET.s0)
    p.add_argument("--strike", type=float, default=DEFAULT_STRIKE)
    p.add_argument("--rate", type=float, default=DEFAULT_MARKET.r)
    p.add_argument("--sigma", type=float, default=DEFAULT_MARKET.sigma)
    p.add_argument("--maturity", type=float, default=DEFAULT_MARKET.maturity)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_price_bs)

    p = sub.add_parser("price-qlbs-dp", help="model-based price and hedge")
    _add_market_args(p)
    _add_solver_args(p)
    p.add_argument("--dump-coefficients", default=None,
                   help="optional CSV of the per-step coefficient vectors")
    p.set_defaults(func=_cmd_price_dp)

    p = sub.add_parser("price-qlbs-fqi", help="model-free price from noisy actions")
    _add_market_args(p)
    _add_solver_args(p)
    p.add_argument("--noise", type=float, default=DEFAULT_NOISE)
    p.add_argument("--dataset-out", default=None,
                   help="write the offline dataset as CSV")
    p.add_argument("--dataset-in", default=None,
                   help="price an existing offline dataset instead of simulating")
    p.set_defaults(func=_cmd_price_fqi)

    p = sub.add_parser("experiment", help="run a scenario sweep")
    p.add_argument("name", help="vol-sweep | noise-grid | hedge-frequency | "
                                "moneyness | transaction-costs | "
                                "basis-sensitivity | single")
    p.add_argument("--config", default=None, help="JSON ScenarioConfig file")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--n-seeds", type=int, default=len(DEFAULT_SEEDS))
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any cell failed")
    p.set_defaults(func=_cmd_experiment)

    return parser


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy's wheel, or None where that library or its functions are absent.
    Looked up on first call, not at import."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def main(argv=None) -> int:
    """Run one command and return its exit status.

    Argument values the library rejects (``ValueError``) and files that
    cannot be opened (``OSError``) are reported like argparse's usage
    errors, ``qlbs: error: <message>`` with status 2, but returned rather
    than raised so in-process callers get a status, not ``SystemExit``.
    Each command ends in glibc's ``malloc_trim``: glibc keeps freed heap
    resident up to twice the largest block freed so far, so an in-process
    caller would otherwise hold more or less of what a quote freed.
    Each command runs with numpy's bundled OpenBLAS at one thread, and the
    count found is restored on the way out: a second thread doubles the
    CPU time of the solvers' small BLAS calls and does not shorten them.
    """
    args = build_parser().parse_args(argv)
    blas = _openblas_threads()
    if blas is not None:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"qlbs: error: {err}", file=sys.stderr)
        return 2
    finally:
        if blas is not None:
            set_threads(threads)
        libc = ctypes.CDLL(None) if sys.platform == "linux" else None
        if hasattr(libc, "malloc_trim"):
            libc.malloc_trim(0)


if __name__ == "__main__":
    sys.exit(main())
