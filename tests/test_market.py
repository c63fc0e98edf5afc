import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlbs import market
from qlbs.market import (
    MarketParams,
    StateKind,
    compute_states,
    load_paths,
    price_increments,
    save_paths,
    simulate_gbm,
    table_to_pathset,
)

from conftest import GOLDEN_DELTA_S_2, GOLDEN_DELTA_S_HAT_2, GOLDEN_PRICES


def table4_market(**overrides):
    base = dict(s0=100.0, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                n_steps=24, n_paths=10_000, seed=0)
    base.update(overrides)
    return MarketParams(**base)


class TestMarketParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            table4_market(s0=-1.0)
        with pytest.raises(ValueError):
            table4_market(sigma=-0.1)
        with pytest.raises(ValueError):
            table4_market(maturity=0.0)
        with pytest.raises(ValueError):
            table4_market(n_steps=0)
        with pytest.raises(ValueError):
            table4_market(mu=float("nan"))
        with pytest.raises(ValueError):
            table4_market(sigma=float("inf"))

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            table4_market(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        a = simulate_gbm(table4_market(n_paths=5, seed=np.int64(9)))
        assert np.array_equal(a.prices, simulate_gbm(table4_market(n_paths=5, seed=9)).prices)

    def test_dt(self):
        params = table4_market()
        assert params.dt == pytest.approx(1.0 / 24.0)


def spawn_loop_prices(params):
    """The original simulation: one Generator per ``SeedSequence.spawn`` child."""
    children = np.random.SeedSequence(params.seed).spawn(params.n_paths)
    shocks = np.empty((params.n_paths, params.n_steps))
    for k, child in enumerate(children):
        shocks[k] = np.random.Generator(np.random.PCG64(child)).standard_normal(
            params.n_steps)
    dt = params.dt
    log_increments = ((params.mu - 0.5 * params.sigma**2) * dt
                      + params.sigma * math.sqrt(dt) * shocks)
    log_paths = np.concatenate(
        [np.zeros((params.n_paths, 1)), np.cumsum(log_increments, axis=1)], axis=1)
    return params.s0 * np.exp(log_paths)


# 2**130 + 1 has five 32-bit words, one more than the SeedSequence pool.
REFERENCE_SEEDS = (0, 1, 2**31 - 1, 2**32 + 5, 2**70 + 3, 2**130 + 1)


class TestSimulateGbmMatchesSpawnLoop:
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    @pytest.mark.parametrize("n_paths", [1, 7, 1000])
    @pytest.mark.parametrize("n_steps", [1, 24])
    def test_bit_identical(self, seed, n_paths, n_steps):
        params = table4_market(seed=seed, n_paths=n_paths, n_steps=n_steps)
        assert np.array_equal(simulate_gbm(params).prices, spawn_loop_prices(params))

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_first_paths_do_not_depend_on_path_count(self, seed):
        full = simulate_gbm(table4_market(seed=seed, n_paths=1000)).prices
        for k in (1, 7, 999):
            head = simulate_gbm(table4_market(seed=seed, n_paths=k)).prices
            assert np.array_equal(full[:k], head)

    @pytest.mark.parametrize("seed", [0, 2**32 + 5])
    def test_bit_identical_at_52_steps(self, seed):
        params = table4_market(seed=seed, n_paths=1000, n_steps=52)
        assert np.array_equal(simulate_gbm(params).prices, spawn_loop_prices(params))


def pcg64_at(state):
    """A PCG64 whose next step lands on ``state``, with increment 1."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 1},
                           "has_uint32": 0, "uinteger": 0}
    bit_generator.advance(-1)
    return bit_generator


def on_fast_path(streams, bounds, n_words=24):
    """For each stream, whether its first words all lie in the ziggurat fast path."""
    words = np.array([s.random_raw(n_words) for s in streams])
    strips = (words & np.uint64(0xFF)).astype(np.intp)
    magnitudes = words >> np.uint64(9) & np.uint64(2**52 - 1)
    return np.all(magnitudes < bounds[strips], axis=1)


class TestZigguratFastPath:
    """simulate_gbm's model of numpy's standard_normal, against numpy."""

    def test_top_settled_magnitude_matches_numpy(self):
        widths, bounds = market._ziggurat_fast_path()
        rng = np.random.default_rng(19)
        strips = np.flatnonzero(bounds)
        assert strips.size > 250  # all but a few strips have a fast path
        for strip in strips.tolist():
            magnitude = int(bounds[strip]) - 1
            negative, top = rng.integers(2), int(rng.integers(8))
            # A state whose high half is 0 outputs its low half unrotated.
            word = top << 61 | magnitude << 9 | int(negative) << 8 | strip
            bit_generator = pcg64_at(word)
            value = np.random.Generator(bit_generator).standard_normal()
            assert bit_generator.state["state"]["state"] == word  # one word taken
            expected = magnitude * widths[strip]
            assert value == (-expected if negative else expected)

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_reference_cases_have_fast_and_fallback_paths(self, seed):
        children = np.random.SeedSequence(seed).spawn(1000)
        fast = on_fast_path(map(np.random.PCG64, children), market._ziggurat_fast_path()[1])
        assert 0 < fast.sum() < fast.size

    @pytest.mark.parametrize("seed", [0, 2**70 + 3])
    def test_every_path_on_the_fallback_matches(self, monkeypatch, seed):
        params = table4_market(seed=seed, n_paths=1000)
        expected = simulate_gbm(params).prices
        widths, bounds = market._ziggurat_fast_path()
        monkeypatch.setattr(market, "_ziggurat_fast_path",
                            lambda: (widths, np.zeros_like(bounds)))
        assert np.array_equal(simulate_gbm(params).prices, expected)


class TestSimulateGbm:
    def test_zero_volatility_is_pure_drift(self):
        params = table4_market(sigma=0.0, n_steps=4, n_paths=3, maturity=1.0)
        paths = simulate_gbm(params)
        expected = 100.0 * np.exp(0.05 * paths.times)
        assert np.allclose(paths.prices, expected[np.newaxis, :], rtol=1e-12)

    def test_same_seed_is_bit_identical(self):
        a = simulate_gbm(table4_market(n_paths=50, seed=7))
        b = simulate_gbm(table4_market(n_paths=50, seed=7))
        assert np.array_equal(a.prices, b.prices)

    def test_different_seeds_differ(self):
        a = simulate_gbm(table4_market(n_paths=50, seed=1))
        b = simulate_gbm(table4_market(n_paths=50, seed=2))
        assert not np.array_equal(a.prices, b.prices)

    def test_terminal_mean_matches_analytic_growth(self):
        # Oracle: E[S_T] = s0 * exp(mu * T); a 10x larger simulation
        # confirms the target before the benchmark-size check.
        target = 100.0 * math.exp(0.05)
        big = simulate_gbm(table4_market(n_paths=100_000, seed=123)).prices[:, -1]
        assert abs(big.mean() - target) <= 3 * big.std() / math.sqrt(big.size)

        s_T = simulate_gbm(table4_market(seed=0)).prices[:, -1]
        assert abs(s_T.mean() - target) <= 3 * s_T.std() / math.sqrt(s_T.size)

    def test_prices_positive_and_immutable(self):
        paths = simulate_gbm(table4_market(sigma=0.6, n_paths=500))
        assert np.all(paths.prices > 0)
        with pytest.raises(ValueError):
            paths.prices[0, 0] = -1.0

    def test_log_return_moments(self):
        params = table4_market(seed=3)
        total = np.log(simulate_gbm(params).prices[:, -1] / 100.0)
        mean_target = (0.05 - 0.5 * 0.15**2) * 1.0
        var_target = 0.15**2
        k = total.size
        assert abs(total.mean() - mean_target) <= 3 * total.std() / math.sqrt(k)
        # Chi-square spread of the sample variance, normal approximation.
        assert abs(total.var() - var_target) <= 3 * var_target * math.sqrt(2.0 / k)


class TestComputeStates:
    def test_price_kind_is_identity(self, golden_paths):
        series = compute_states(golden_paths, StateKind.PRICE)
        assert np.array_equal(series.values, golden_paths.prices)

    def test_log_price(self, golden_paths):
        series = compute_states(golden_paths, StateKind.LOG_PRICE)
        assert np.allclose(series.values, np.log(golden_paths.prices))

    def test_log_return_matches_diff(self, golden_paths):
        series = compute_states(golden_paths, StateKind.LOG_RETURN)
        logs = np.log(golden_paths.prices)
        assert np.allclose(series.values[:, 1:], np.diff(logs, axis=1))
        assert np.all(series.values[:, 0] == 0.0)

    def test_drift_adjusted_zero_vol_is_constant(self):
        paths = simulate_gbm(table4_market(sigma=0.0, n_paths=4, n_steps=6))
        series = compute_states(paths, StateKind.DRIFT_ADJUSTED)
        assert np.allclose(series.values, math.log(100.0), atol=1e-12)

    def test_drift_adjusted_increments_are_centered(self):
        paths = simulate_gbm(table4_market(seed=11))
        values = compute_states(paths, StateKind.DRIFT_ADJUSTED).values
        increments = np.diff(values, axis=1)
        k = increments.shape[0]
        for t in range(increments.shape[1]):
            col = increments[:, t]
            assert abs(col.mean()) <= 3 * col.std() / math.sqrt(k)

    def test_drift_adjusted_mean_increment_has_no_trend(self):
        paths = simulate_gbm(table4_market(seed=19))
        values = compute_states(paths, StateKind.DRIFT_ADJUSTED).values
        means = np.diff(values, axis=1).mean(axis=0)
        t = np.arange(means.size, dtype=float)
        slope = np.polyfit(t, means, 1)[0]
        # Slope of a flat noise sequence: se = sd / sqrt(sum (t - tbar)^2).
        se = means.std(ddof=1) / math.sqrt(np.sum((t - t.mean()) ** 2))
        assert abs(slope) <= 3 * se


class TestPriceIncrements:
    def test_golden_increments(self, golden_paths):
        inc = price_increments(golden_paths, 0.03)
        assert np.allclose(inc.delta_s[:, 2], GOLDEN_DELTA_S_2, atol=0.01)
        assert np.allclose(inc.delta_s_hat[:, 2], GOLDEN_DELTA_S_HAT_2, atol=0.01)

    def test_demeaned_columns_sum_to_zero(self):
        paths = simulate_gbm(table4_market(n_paths=2000, seed=5))
        inc = price_increments(paths, 0.03)
        assert np.max(np.abs(inc.delta_s_hat.mean(axis=0))) <= 1e-10

    def test_constant_paths_zero_rate_give_zero(self):
        paths = simulate_gbm(table4_market(mu=0.0, sigma=0.0, n_paths=3, n_steps=5))
        inc = price_increments(paths, 0.0)
        assert np.allclose(inc.delta_s, 0.0, atol=1e-12)


def csv_writer_paths(paths, dest):
    """The original writer: ``repr(float(v))`` per numpy scalar."""
    with open(dest, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([repr(float(t)) for t in paths.times])
        for row in paths.prices:
            writer.writerow([repr(float(v)) for v in row])


@st.composite
def path_sets(draw):
    n_paths = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 4))
    positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
    s0 = draw(positive)
    later = draw(st.lists(st.lists(positive, min_size=n_steps, max_size=n_steps),
                          min_size=n_paths, max_size=n_paths))
    prices = np.column_stack([np.full(n_paths, s0), np.array(later)])
    return table_to_pathset(prices, dt=draw(st.floats(1e-4, 10.0)))


class TestPathIo:
    def test_byte_identical_to_csv_writer(self, tmp_path):
        paths = simulate_gbm(table4_market(n_paths=1000, seed=11))
        save_paths(paths, tmp_path / "fast.csv")
        csv_writer_paths(paths, tmp_path / "reference.csv")
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())

    @given(paths=path_sets())
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_property(self, tmp_path, paths):
        save_paths(paths, tmp_path / "fast.csv")
        csv_writer_paths(paths, tmp_path / "reference.csv")
        assert ((tmp_path / "fast.csv").read_bytes()
                == (tmp_path / "reference.csv").read_bytes())
        loaded = load_paths(tmp_path / "fast.csv")
        assert np.array_equal(loaded.prices, paths.prices)
        assert loaded.dt == paths.dt

    def test_round_trip(self, tmp_path):
        paths = simulate_gbm(table4_market(n_paths=7, n_steps=9, seed=2))
        dest = tmp_path / "paths.csv"
        save_paths(paths, dest)
        loaded = load_paths(dest)
        assert np.array_equal(loaded.prices, paths.prices)
        assert loaded.dt == pytest.approx(paths.dt)

    def test_golden_fixture_load(self, tmp_path):
        dest = tmp_path / "golden.csv"
        save_paths(table_to_pathset(GOLDEN_PRICES, dt=1.0 / 3.0), dest)
        loaded = load_paths(dest)
        assert np.allclose(loaded.prices[0], [100.0, 118.27, 124.43, 127.10])
        assert loaded.n_steps == 3

    def test_single_column_rejected(self, tmp_path):
        dest = tmp_path / "bad.csv"
        dest.write_text("0.0\n100.0\n")
        with pytest.raises(ValueError):
            load_paths(dest)

    def test_ragged_rows_rejected(self, tmp_path):
        dest = tmp_path / "ragged.csv"
        dest.write_text("0.0,0.5,1.0\n100,101,102\n100,101\n")
        with pytest.raises(ValueError):
            load_paths(dest)

    def test_nonpositive_prices_rejected(self, tmp_path):
        dest = tmp_path / "neg.csv"
        dest.write_text("0.0,0.5,1.0\n100,-1,102\n")
        with pytest.raises(ValueError):
            load_paths(dest)

    def test_non_numeric_cell_names_file_and_line(self, tmp_path):
        dest = tmp_path / "text.csv"
        dest.write_text("0.0,0.5,1.0\n100,101,102\n\n100,abc,102\n")
        with pytest.raises(ValueError, match=r"text\.csv: line 4: 'abc' is not a number"):
            load_paths(dest)

    def test_non_finite_cell_names_file_and_line(self, tmp_path):
        dest = tmp_path / "nan.csv"
        dest.write_text("0.0,0.5,1.0\n100,nan,102\n")
        with pytest.raises(ValueError, match=r"nan\.csv: line 2: 'nan' is not finite"):
            load_paths(dest)

    def test_nonuniform_times_rejected(self, tmp_path):
        dest = tmp_path / "grid.csv"
        dest.write_text("0.0,0.5,0.7\n100,101,102\n")
        with pytest.raises(ValueError):
            load_paths(dest)
