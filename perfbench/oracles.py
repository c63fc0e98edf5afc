"""Reference values the benchmark checks the program against.

Nothing here imports ``qlbs``: each oracle is written from the defining
formula, so a fault in the program cannot also hide in its oracle.
"""
from __future__ import annotations

import math

import numpy as np


def bsm_put(s0: float, strike: float, r: float, sigma: float, maturity: float) -> float:
    """Black-Scholes-Merton European put, normal CDF from ``math.erfc``."""
    if sigma == 0.0 or maturity == 0.0:
        return max(strike * math.exp(-r * maturity) - s0, 0.0)
    root_t = math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * maturity) / (sigma * root_t)
    d2 = d1 - sigma * root_t

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    return strike * math.exp(-r * maturity) * cdf(-d2) - s0 * cdf(-d1)


def bspline_row(knots, n_basis: int, order: int, x: float) -> list[float]:
    """All ``n_basis`` B-splines of ``order`` at one point, by the scalar
    Cox-de Boor recursion (0/0 read as 0).

    ``x`` is clamped to the domain [knots[order-1], knots[n_basis]]; at the
    right edge the last non-empty knot interval is used, so the row still
    sums to one there.
    """
    t = [float(v) for v in knots]
    lo, hi = t[order - 1], t[n_basis]
    x = min(max(float(x), lo), hi)
    last = max(i for i in range(n_basis) if t[i] < t[i + 1])
    row = [1.0 if (t[i] <= x < t[i + 1]) or (i == last and x == hi) else 0.0
           for i in range(len(t) - 1)]
    for k in range(1, order):
        nxt = []
        for i in range(len(t) - 1 - k):
            left = 0.0
            if t[i + k] > t[i]:
                left = (x - t[i]) / (t[i + k] - t[i]) * row[i]
            right = 0.0
            if t[i + k + 1] > t[i + 1]:
                right = (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * row[i + 1]
            nxt.append(left + right)
        row = nxt
    return row[:n_basis]


def rebuilt_dp_price(prices: np.ndarray, hedges: np.ndarray, strike: float,
                     gamma: float, risk_aversion: float) -> float:
    """Time-0 price implied by a hedge sequence.

    Rolls the self-financing portfolio back from the put payoff,
    Pi_t = gamma * (Pi_{t+1} - a_t * dS_t) with dS_t = S_{t+1} - S_t / gamma,
    and returns mean(Pi_0) + lambda * sum_t gamma^t Var(Pi_t), t = 0..T
    (population variances). For the backward DP this equals minus the mean
    fitted time-0 value whenever the basis spans the constants, up to the
    ridge penalty.
    """
    prices = np.asarray(prices, dtype=float)
    hedges = np.asarray(hedges, dtype=float)
    n_steps = prices.shape[1] - 1
    pi = np.maximum(strike - prices[:, -1], 0.0)
    penalty = gamma**n_steps * pi.var()
    for t in range(n_steps - 1, -1, -1):
        pi = gamma * (pi - hedges[:, t] * (prices[:, t + 1] - prices[:, t] / gamma))
        penalty += gamma**t * pi.var()
    return float(pi.mean() + risk_aversion * penalty)
