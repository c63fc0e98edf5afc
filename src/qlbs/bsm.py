"""Closed-form Black-Scholes-Merton put price and hedge ratio.

Serves as the analytic benchmark for the simulation-based prices. Only
European puts are covered; the hedge ratio here is the put delta, which
lives in [-1, 0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])


def norm_cdf(x):
    """Standard normal CDF via the complementary error function.

    erfc is evaluated by the C library to full double precision, so the
    absolute error is far below the 1e-10 contract. Accepts scalars or
    numpy arrays.
    """
    return 0.5 * _erfc(-np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class BsmQuote:
    price: float
    delta: float
    d1: float
    d2: float


def _validate(s0, strike, sigma, maturity):
    # Written so that nan fails each test.
    if not (0 < s0 < math.inf and 0 < strike < math.inf):
        raise ValueError("spot and strike must be positive and finite")
    if not (0 <= sigma < math.inf and 0 <= maturity < math.inf):
        raise ValueError("sigma and maturity must be nonnegative and finite")


def _quote(s0: float, strike: float, r: float, sigma: float,
           maturity: float) -> BsmQuote:
    """The checked inputs' price, delta, d1 and d2, forming d1 and d2 once.

    sigma = 0 or maturity = 0 are treated as their analytic limits: the
    discounted intrinsic value, a delta of -1 or 0, and d1 = d2 = +inf
    where s0 >= strike * exp(-r * maturity), -inf elsewhere.
    """
    _validate(s0, strike, sigma, maturity)
    discounted = strike * math.exp(-r * maturity)
    if sigma == 0.0 or maturity == 0.0:
        d = math.inf if s0 >= discounted else -math.inf
        return BsmQuote(price=max(discounted - s0, 0.0),
                        delta=-1.0 if discounted > s0 else 0.0, d1=d, d2=d)
    root_t = math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma**2) * maturity) / (sigma * root_t)
    d2 = d1 - sigma * root_t
    return BsmQuote(price=float(discounted * norm_cdf(-d2) - s0 * norm_cdf(-d1)),
                    delta=float(norm_cdf(d1) - 1.0), d1=d1, d2=d2)


def bsm_put_price(s0: float, strike: float, r: float, sigma: float,
                  maturity: float) -> float:
    """European put price.

    sigma = 0 or maturity = 0 are treated as their analytic limits
    (discounted intrinsic value) so parameter sweeps can touch the edges.
    """
    return _quote(s0, strike, r, sigma, maturity).price


def bsm_put_delta(s0: float, strike: float, r: float, sigma: float,
                  maturity: float) -> float:
    """Put hedge ratio N(d1) - 1, in [-1, 0]."""
    return _quote(s0, strike, r, sigma, maturity).delta


def bsm_put_quote(s0: float, strike: float, r: float, sigma: float,
                  maturity: float) -> BsmQuote:
    """Price, delta and the d1/d2 coefficients in one call."""
    return _quote(s0, strike, r, sigma, maturity)
