import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from qlbs.bsm import bsm_put_delta, bsm_put_price, bsm_put_quote, norm_cdf


class TestNormCdf:
    def test_zero_is_half(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(-8, 8))
    def test_symmetry(self, x):
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_against_quadrature(self):
        # Independent oracle: integrate the Gaussian density directly.
        density = lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi)
        for x in (-2.5, -1.0, 0.3, 1.0, 2.0):
            target, _ = quad(density, -12.0, x)
            assert norm_cdf(x) == pytest.approx(target, abs=1e-10)

    def test_vectorized(self):
        values = norm_cdf(np.array([-1.0, 0.0, 1.0]))
        assert values.shape == (3,)
        assert values[1] == pytest.approx(0.5)


class TestPutPrice:
    @pytest.mark.parametrize("sigma,expected", [(0.15, 4.53), (0.25, 8.39), (0.40, 14.18)])
    def test_benchmark_values(self, sigma, expected):
        assert bsm_put_price(100, 100, 0.03, sigma, 1.0) == pytest.approx(expected, abs=0.005)

    def test_zero_volatility_limit(self):
        assert bsm_put_price(100, 100, 0.03, 0.0, 1.0) == pytest.approx(
            max(100 * math.exp(-0.03) - 100, 0.0))
        assert bsm_put_price(50, 100, 0.03, 0.0, 1.0) == pytest.approx(
            100 * math.exp(-0.03) - 50)
        # Approached continuously from sigma > 0.
        assert bsm_put_price(50, 100, 0.03, 1e-8, 1.0) == pytest.approx(
            100 * math.exp(-0.03) - 50, abs=1e-6)

    def test_zero_maturity_limit(self):
        assert bsm_put_price(90, 100, 0.03, 0.2, 0.0) == pytest.approx(10.0)

    def test_monotone_in_spot_sigma_strike(self):
        spots = [bsm_put_price(s, 100, 0.03, 0.2, 1.0) for s in np.linspace(60, 140, 17)]
        assert all(a > b for a, b in zip(spots, spots[1:]))
        vols = [bsm_put_price(100, 100, 0.03, v, 1.0) for v in np.linspace(0.05, 0.6, 12)]
        assert all(a < b for a, b in zip(vols, vols[1:]))
        strikes = [bsm_put_price(100, z, 0.03, 0.2, 1.0) for z in np.linspace(60, 140, 17)]
        assert all(a < b for a, b in zip(strikes, strikes[1:]))

    def test_price_bounds(self):
        for s0 in (60.0, 100.0, 140.0):
            for sigma in (0.05, 0.2, 0.5):
                p = bsm_put_price(s0, 100, 0.03, sigma, 1.0)
                discounted = 100 * math.exp(-0.03)
                assert max(discounted - s0, 0.0) - 1e-12 <= p <= discounted


class TestPutDelta:
    @pytest.mark.parametrize("sigma,expected", [(0.15, -0.39), (0.25, -0.40), (0.40, -0.39)])
    def test_benchmark_values(self, sigma, expected):
        assert bsm_put_delta(100, 100, 0.03, sigma, 1.0) == pytest.approx(expected, abs=0.005)

    def test_deep_out_of_the_money(self):
        assert bsm_put_delta(400, 100, 0.03, 0.15, 1.0) == pytest.approx(0.0, abs=1e-8)

    def test_deep_in_the_money(self):
        assert bsm_put_delta(20, 100, 0.03, 0.15, 1.0) == pytest.approx(-1.0, abs=1e-8)

    def test_zero_volatility_limit(self):
        assert bsm_put_delta(50, 100, 0.03, 0.0, 1.0) == -1.0
        assert bsm_put_delta(150, 100, 0.03, 0.0, 1.0) == 0.0

    def test_matches_finite_difference(self):
        for s0 in (80.0, 95.0, 100.0, 110.0, 130.0):
            h = 1e-4 * s0
            numeric = (bsm_put_price(s0 + h, 100, 0.03, 0.2, 1.0)
                       - bsm_put_price(s0 - h, 100, 0.03, 0.2, 1.0)) / (2 * h)
            analytic = bsm_put_delta(s0, 100, 0.03, 0.2, 1.0)
            assert abs(numeric - analytic) <= 1e-5 * abs(analytic)

    def test_range(self):
        for s0 in np.linspace(40, 200, 9):
            assert -1.0 <= bsm_put_delta(float(s0), 100, 0.03, 0.3, 1.0) <= 0.0


class TestQuote:
    def test_consistency(self):
        quote = bsm_put_quote(100, 100, 0.03, 0.15, 1.0)
        assert quote.d2 == pytest.approx(quote.d1 - 0.15)
        assert quote.price == pytest.approx(bsm_put_price(100, 100, 0.03, 0.15, 1.0))
        assert quote.delta == pytest.approx(bsm_put_delta(100, 100, 0.03, 0.15, 1.0))

    def test_degenerate_quote(self):
        quote = bsm_put_quote(50, 100, 0.03, 0.0, 1.0)
        assert quote.delta == -1.0
        assert math.isinf(quote.d1)

    def test_validation(self):
        with pytest.raises(ValueError):
            bsm_put_price(-1, 100, 0.03, 0.2, 1.0)
        with pytest.raises(ValueError):
            bsm_put_price(100, 0, 0.03, 0.2, 1.0)
        with pytest.raises(ValueError):
            bsm_put_price(100, 100, 0.03, -0.2, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("argument", ["s0", "strike", "sigma", "maturity"])
    def test_nonfinite_input_rejected(self, argument, bad):
        inputs = {"s0": 100.0, "strike": 100.0, "r": 0.03, "sigma": 0.2, "maturity": 1.0}
        with pytest.raises(ValueError, match="finite"):
            bsm_put_quote(**{**inputs, argument: bad})
