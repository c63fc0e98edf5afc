"""Output checks, one group per workload.

Each check takes plain values (prices, rows, file paths) and returns a
list of failure messages; an empty list means the output passed. The
tolerances are stated here, with the measurements they were set from.
"""
from __future__ import annotations

import math

import numpy as np

from oracles import bspline_row, bsm_put

# |DP - BSM| per quote at the desk defaults (10k paths x 24 steps, 12
# cubic splines). Over 180 quotes (60 seeds x 3 state kinds) DP - BSM
# lay in [-0.111, +0.087]; per state kind the standard deviation was at
# most 0.042 around a bias of at most -0.048, so 0.3 is six deviations.
MC_BAND = 0.3
# Paper criterion 4: the model-free price stays within 0.05 of the
# model-based one on the same paths (measured at most 0.023).
FQI_DP_GAP = 0.05
# Both prices come from math.erfc or scipy's erfc, each accurate to a
# few ulp.
BSM_TOL = 1e-10
# A put's no-arbitrage bounds hold for the true price, not exactly for
# the DP estimate. At strike 60 the DP returns prices down to -1.3e-4
# (a known fault, see CHANGES.md); over 7 seeds every other row stayed
# at least 0.3 inside the bounds. The slack is a cent on a spot of 100.
BOUND_SLACK = 0.01
# Paper criterion 7: mean relative deviation from BSM at lambda = 1e-4,
# over strikes whose BSM price exceeds 0.5.
MONEYNESS_REL_LIMIT = 0.05
MONEYNESS_MIN_BSM = 0.5
# The rebuilt price differs from price_t0 only through the ridge
# penalty: measured at most 6e-8 relative at N = 100.
REBUILD_RTOL = 1e-6
# Vectorized and scalar Cox-de Boor differ by rounding only.
BASIS_TOL = 1e-12

DATASET_COLUMNS = ["t", "k", "state", "action", "reward", "next_state"]


def desk_quote(dp_price: float, dp_hedge: float, fqi_price: float,
               bsm: float) -> list[str]:
    """One DP quote and one FQI quote on the same seed and state."""
    out = []
    if not abs(dp_price - bsm) <= MC_BAND:
        out.append(f"DP price {dp_price:.6f} is {dp_price - bsm:+.4f} from BSM "
                   f"{bsm:.6f} (band {MC_BAND})")
    if not abs(fqi_price - dp_price) <= FQI_DP_GAP:
        out.append(f"|FQI - DP| = {abs(fqi_price - dp_price):.4f} > {FQI_DP_GAP}")
    if not -1.0 <= dp_hedge <= 0.0:
        out.append(f"hedge {dp_hedge:.6f} outside [-1, 0]")
    return out


def strike_sweep(rows: list[dict], reloaded: list[dict], s0: float, r: float,
                 sigma: float, maturity: float) -> list[str]:
    """A moneyness sweep's report rows, and the same rows read back."""
    out = []
    if reloaded != rows:
        out.append("report does not reload with identical rows")
    errors = [row["error"] for row in rows if row["error"]]
    if errors:
        out.append(f"{len(errors)} cell errors, first: {errors[0]}")
        return out
    prices = {}
    for row in rows:
        strike, price = row["strike"], row["price"]
        oracle = bsm_put(s0, strike, r, sigma, maturity)
        if not abs(row["bsm_price"] - oracle) <= BSM_TOL:
            out.append(f"strike {strike}: bsm_price {row['bsm_price']!r} vs oracle {oracle!r}")
        upper = strike * math.exp(-r * maturity)
        lower = max(upper - s0, 0.0)
        if not lower - BOUND_SLACK <= price <= upper + BOUND_SLACK:
            out.append(f"strike {strike} {row['state']} seed {row['seed']}: price "
                       f"{price:.6f} outside [{lower:.4f}, {upper:.4f}] +- {BOUND_SLACK}")
        prices[(strike, row["seed"], row["state"], row["risk_aversion"])] = price
    lambdas = sorted({key[3] for key in prices})
    for (strike, seed, state, lam), price in prices.items():
        for higher in lambdas:
            other = prices.get((strike, seed, state, higher))
            if higher > lam and other is not None and not other >= price:
                out.append(f"strike {strike} {state} seed {seed}: price at lambda "
                           f"{higher} ({other:.8f}) below lambda {lam} ({price:.8f})")
    lam = lambdas[0]
    by_cell: dict = {}
    for (strike, _seed, state, cell_lam), price in prices.items():
        if cell_lam == lam:
            by_cell.setdefault((strike, state), []).append(price)
    rel = []
    for (strike, _state), cell in by_cell.items():
        bsm = bsm_put(s0, strike, r, sigma, maturity)
        if bsm > MONEYNESS_MIN_BSM:
            rel.append(abs(float(np.mean(cell)) - bsm) / bsm)
    if not rel or not float(np.mean(rel)) <= MONEYNESS_REL_LIMIT:
        out.append(f"mean relative deviation from BSM at lambda {lam}: "
                   f"{float(np.mean(rel)) if rel else float('nan'):.4f} > {MONEYNESS_REL_LIMIT}")
    return out


def rebuilt_price(price_t0: float, rebuilt: float) -> list[str]:
    """price_t0 against the price rebuilt from the solution's hedges."""
    if abs(price_t0 - rebuilt) <= REBUILD_RTOL * abs(rebuilt):
        return []
    return [f"price_t0 {price_t0!r} vs price rebuilt from hedges {rebuilt!r}"]


def basis_rows(knots, n_basis: int, order: int, points, rows) -> list[str]:
    """Feature rows against the scalar recursion; each row must sum to 1."""
    out = []
    for x, row in zip(points, np.asarray(rows, dtype=float)):
        expect = np.array(bspline_row(knots, n_basis, order, x))
        err = float(np.max(np.abs(row - expect)))
        if not err <= BASIS_TOL:
            out.append(f"basis row at {x!r} (order {order}) off by {err:.3e}")
        if not abs(float(row.sum()) - 1.0) <= BASIS_TOL:
            out.append(f"basis row at {x!r} (order {order}) sums to {row.sum()!r}")
    return out


def basis_stability(deviations: dict) -> list[str]:
    """Paper criterion 10 at N = 100: the log-return state's mean |price -
    BSM| is at most the drift-adjusted state's."""
    ret = float(np.mean(deviations["log-return"]))
    drift = float(np.mean(deviations["drift-adjusted"]))
    if ret <= drift:
        return []
    return [f"N=100 mean deviation: log-return {ret:.4f} > drift-adjusted {drift:.4f}"]


def replay(export_price: float, replay_price: float, bsm: float) -> list[str]:
    """A dataset priced on export and again after reading it back."""
    out = []
    if replay_price != export_price:
        out.append(f"replayed price {replay_price!r} != exported {export_price!r}")
    if not abs(export_price - bsm) <= MC_BAND + FQI_DP_GAP:
        out.append(f"exported price {export_price:.6f} is {export_price - bsm:+.4f} "
                   f"from BSM {bsm:.6f} (band {MC_BAND + FQI_DP_GAP})")
    return out


def dataset_file(path, n_paths: int, n_steps: int) -> list[str]:
    """The exported CSV holds every (t, k) row exactly once."""
    meta = {}
    with open(path, newline="") as handle:
        lines = [line for line in handle if line.strip()]
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            meta[key.strip()] = value.strip()
        else:
            body.append(line)
    header = body[0].strip().split(",") if body else None
    if header != DATASET_COLUMNS:
        return [f"{path}: header {header}"]
    if meta.get("n_paths") != str(n_paths) or meta.get("n_steps") != str(n_steps):
        return [f"{path}: metadata n_paths={meta.get('n_paths')} "
                f"n_steps={meta.get('n_steps')}, expected {n_paths} and {n_steps}"]
    # Rows hold integers and repr() floats: no quoting, so commas split fields.
    rows = body[1:]
    for line in rows:
        if line.count(",") != len(DATASET_COLUMNS) - 1:
            return [f"{path}: row {line.strip()!r} does not have {len(DATASET_COLUMNS)} fields"]
    keys = np.array([line.split(",", 2)[:2] for line in rows], dtype=np.int64).reshape(-1, 2)
    t, k = keys[:, 0], keys[:, 1]
    out = []
    inside = (t >= 0) & (t <= n_steps) & (k >= 0) & (k < n_paths)
    if not inside.all():
        out.append(f"{path}: {int((~inside).sum())} rows outside the grid, "
                   f"e.g. (t, k) = {tuple(keys[~inside][0])}")
    counts = np.bincount(t[inside] * n_paths + k[inside], minlength=(n_steps + 1) * n_paths)
    for what, mask in (("missing", counts == 0), ("repeated", counts > 1)):
        if mask.any():
            first = int(np.argmax(mask))
            out.append(f"{path}: {int(mask.sum())} (t, k) rows {what}, "
                       f"e.g. ({first // n_paths}, {first % n_paths})")
    return out
