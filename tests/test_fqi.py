import csv
import functools
import logging
import math
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qlbs.basis import (FeatureMatrix, basis_values, feature_cube, make_spec,
                         spec_for_states, spline_features, step_features)
from qlbs.dp import RiskParams, run_model_based
from qlbs.fqi import (
    OfflineDataset,
    WMatrix,
    _psi,
    build_offline_dataset,
    fqi_backward_step,
    greedy_action,
    load_dataset,
    perturb_actions,
    run_fqi,
    save_dataset,
)
from qlbs.market import MarketParams, StateKind, compute_states, simulate_gbm
from qlbs.numerics import RowBand, row_band, scaled_regularizer, solve_normal_equations

from conftest import (
    GOLDEN_PI_T,
    GOLDEN_Q_T,
    GOLDEN_REWARDS_2,
    GOLDEN_STRIKE,
    STAGE_TOL,
    spoil,
)


def small_run(kind=StateKind.DRIFT_ADJUSTED, n_paths=1000, seed=0, sigma=0.15,
              lam=1e-4):
    params = MarketParams(s0=100, mu=0.05, sigma=sigma, r=0.03, maturity=1.0,
                          n_steps=12, n_paths=n_paths, seed=seed)
    paths = simulate_gbm(params)
    states = compute_states(paths, kind)
    spec = spec_for_states(states.values)
    cube = feature_cube(spec, states.values)
    risk = RiskParams.from_rate(lam, params.r, params.dt)
    dp = run_model_based(paths, kind, strike=100.0, risk=risk, basis_spec=spec,
                         features=cube)
    return paths, states, spec, cube, risk, dp


class TestPerturbActions:
    def test_zero_noise_is_identity(self):
        actions = np.random.default_rng(0).normal(size=(20, 5))
        assert np.array_equal(perturb_actions(actions, 0.0, seed=1), actions)

    def test_moderate_noise_distribution(self):
        actions = np.full((100, 100), 2.0)
        noisy = perturb_actions(actions, 0.2, seed=42)
        ratio = noisy / actions
        assert ratio.min() >= 0.8 and ratio.max() <= 1.2
        se = ratio.std() / math.sqrt(ratio.size)
        assert abs(ratio.mean() - 1.0) <= 3 * se

    def test_full_noise_support_and_sign(self):
        actions = np.full((200, 50), -1.5)
        noisy = perturb_actions(actions, 1.0, seed=3)
        ratio = noisy / actions
        assert ratio.min() >= 0.0 and ratio.max() <= 2.0
        assert ratio.max() > 1.9 and ratio.min() < 0.1
        assert np.all(noisy <= 0.0)

    def test_deterministic_by_seed(self):
        actions = np.ones((10, 4))
        a = perturb_actions(actions, 0.5, seed=9)
        b = perturb_actions(actions, 0.5, seed=9)
        assert np.array_equal(a, b)

    def test_equals_the_product_with_its_draw(self):
        # Bit for bit, signed zeros, infinities and nan included.
        actions = np.random.default_rng(5).normal(size=(300, 7))
        actions[0, :4] = [-0.0, 0.0, -np.inf, np.nan]
        eta, seed = 0.4, 11
        draw = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).uniform(
            1.0 - eta, 1.0 + eta, size=actions.shape)
        noisy = perturb_actions(actions, eta, seed=seed)
        assert np.array_equal(noisy.view(np.uint64), (actions * draw).view(np.uint64))

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            perturb_actions(np.ones((2, 2)), 1.5, seed=0)


class TestBuildOfflineDataset:
    def test_zero_noise_reduces_to_on_policy(self):
        paths, states, _, _, risk, dp = small_run(n_paths=400)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        assert np.array_equal(dataset.rewards, dp.rewards)
        assert np.array_equal(dataset.actions, dp.hedges)

    def test_golden_rewards_from_stored_hedges(self, golden_paths, golden_risk,
                                               golden_solution):
        states = compute_states(golden_paths, StateKind.PRICE)
        dataset = build_offline_dataset(golden_paths, states,
                                        golden_solution.hedges,
                                        strike=GOLDEN_STRIKE, risk=golden_risk)
        assert np.allclose(dataset.rewards[:, 2], GOLDEN_REWARDS_2, atol=STAGE_TOL)

    def test_zero_actions_zero_risk_aversion_give_zero_rewards(self):
        paths, states, _, _, _, _ = small_run(n_paths=200)
        risk = RiskParams.from_rate(0.0, 0.03, paths.dt)
        actions = np.zeros_like(paths.prices)
        dataset = build_offline_dataset(paths, states, actions,
                                        strike=100.0, risk=risk)
        assert np.allclose(dataset.rewards, 0.0, atol=1e-12)

    def test_terminal_action_must_close(self):
        paths, states, _, _, risk, dp = small_run(n_paths=50)
        bad = dp.hedges.copy()
        bad[:, -1] = 0.5
        with pytest.raises(ValueError):
            build_offline_dataset(paths, states, bad, strike=100.0, risk=risk)

    def test_terminal_q_uses_population_variance(self):
        # The published terminal values pin the variance convention:
        # population variance rounds to them, the sample variance does not.
        lam, zeros = 1e-3, np.zeros((GOLDEN_PI_T.size, 2))
        dataset = OfflineDataset(states=zeros, actions=zeros, rewards=zeros,
                                 terminal_portfolio=GOLDEN_PI_T,
                                 state_kind=StateKind.PRICE, strike=GOLDEN_STRIKE,
                                 risk=RiskParams(lam, gamma=0.99), dt=1.0)
        assert np.array_equal(np.round(dataset.terminal_q(), 2), GOLDEN_Q_T)
        sample = -GOLDEN_PI_T - lam * np.var(GOLDEN_PI_T, ddof=1)
        assert not np.array_equal(np.round(sample, 2), GOLDEN_Q_T)

    def test_terminal_q_matches_dp(self):
        paths, states, _, _, risk, dp = small_run(n_paths=300)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        assert np.allclose(dataset.terminal_q(), dp.q_values[:, -1], atol=1e-12)


def written_psi(a, phi):
    """psi written out entry by entry: column 3j + m is phi_j (1, a, a^2/2)[m]."""
    psi = np.zeros((phi.shape[0], 3 * phi.shape[1]))
    for k in range(phi.shape[0]):
        for j in range(phi.shape[1]):
            psi[k, 3 * j] = phi[k, j]
            psi[k, 3 * j + 1] = a[k] * phi[k, j]
            psi[k, 3 * j + 2] = 0.5 * a[k] ** 2 * phi[k, j]
    return psi


def psi_forms(a, phi):
    """psi of a (K, N) feature matrix built from its dense slab and from its
    row band, each with its (K, 3N) matrix."""
    dense, band = _psi(FeatureMatrix(phi), a), _psi(row_band(phi), a)
    assert isinstance(dense, FeatureMatrix) and isinstance(band, RowBand)
    return [(dense, dense.values), (band, band.dense())]


class TestPsiMatrix:
    def test_zero_action(self):
        phi = np.array([[0.2, 0.5, 0.3]])
        for _, psi in psi_forms(np.zeros(1), phi):
            assert np.array_equal(psi[0, ::3], phi[0])
            assert np.all(psi[0, 1::3] == 0.0) and np.all(psi[0, 2::3] == 0.0)

    def test_unit_basis_pattern(self):
        phi = np.array([[1.0, 0.0, 0.0, 0.0]])
        expected = np.zeros(12)
        expected[:3] = [1.0, 1.0, 0.5]
        for _, psi in psi_forms(np.ones(1), phi):
            assert np.array_equal(psi[0], expected)

    def test_bilinear_identity(self):
        # psi's products with interleaved coefficients equal the bilinear
        # form [1, a, a^2/2] W phi, row by row, and its Gram and right-hand
        # side match the written-out psi.
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = rng.integers(2, 9)
            w = rng.normal(size=(3, n))
            phi = rng.normal(size=(4, n))
            a = rng.normal(size=4) * 3
            y = rng.normal(size=4)
            direct = np.einsum("ki,ij,kj->k", np.stack([np.ones(4), a, 0.5 * a * a], 1),
                               w, phi)
            written = written_psi(a, phi)
            for step, psi in psi_forms(a, phi):
                assert np.array_equal(psi, written)
                for got, want in ((step.fitted(w.T.reshape(-1)), direct),
                                  (step.gram(), written.T @ written),
                                  (step.rhs(y), y @ written)):
                    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("order", [1, 3, 10])
    def test_band_psi_densifies_to_dense_psi(self, order):
        rng = np.random.default_rng(9)
        states = rng.normal(size=(500, 2))
        spec = make_spec(states.min(), states.max(), 100, order)
        band = spline_features(spec, states).band(1)
        a = rng.normal(size=500)
        psi = _psi(band, a)
        assert psi.width == 3 * order and psi.n_cols == 300
        assert np.array_equal(psi.dense(), _psi(FeatureMatrix(band.dense()), a).values)
        assert np.array_equal(psi.dense(), written_psi(a, band.dense()))


class TestGreedyAction:
    def test_analytic_maximum(self):
        w = WMatrix(np.array([[0.0], [1.0], [-1.0]]))
        a = greedy_action(w, np.array([1.0]))
        assert a == pytest.approx(1.0)

    def test_symmetric_quadratic(self):
        w = WMatrix(np.array([[5.0], [0.0], [-2.0]]))
        assert greedy_action(w, np.array([1.0])) == pytest.approx(0.0)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = rng.integers(2, 6)
            w = rng.normal(size=(3, n))
            w[2] = -np.abs(w[2]) - 0.1  # force concavity
            phi = np.abs(rng.normal(size=n)) + 0.05
            a_star = greedy_action(WMatrix(w), phi)
            u = w @ phi

            def q(a):
                return u[0] + a * u[1] + 0.5 * a * a * u[2]

            grid = np.arange(a_star - 1.0, a_star + 1.0 + 1e-9, 1e-3)
            assert q(a_star) >= q(grid).max() - 1e-12

    def test_convex_fit_falls_back_to_observed(self):
        w = WMatrix(np.array([[0.0], [1.0], [2.0]]))
        assert greedy_action(w, np.array([1.0]), observed_action=0.7) == 0.7

    def test_far_maximizer_falls_back(self):
        # Concave but nearly flat: the implied maximizer sits far outside
        # the action scale and is rejected.
        w = WMatrix(np.array([[0.0], [1.0], [-1e-9]]))
        assert greedy_action(w, np.array([1.0]), observed_action=0.3) == 0.3


class TestBackwardStep:
    def test_constant_target_reproduced(self):
        rng = np.random.default_rng(4)
        spec = make_spec(0.0, 1.0, n_basis=4, order=2)
        states = rng.uniform(0, 1, 60)
        features = FeatureMatrix(basis_values(spec, states))
        actions = rng.normal(0, 1, 60)
        w, q_t = fqi_backward_step(actions, np.full(60, 1.7),
                                   features, np.zeros(60), 1.0)
        assert np.allclose(q_t, 1.7, atol=1e-4)

    def test_underdetermined_system_warns_but_solves(self, caplog):
        rng = np.random.default_rng(6)
        spec = make_spec(0.0, 1.0, n_basis=6, order=3)
        states = rng.uniform(0, 1, 10)  # 10 samples for 18 coefficients
        features = FeatureMatrix(basis_values(spec, states))
        actions = rng.normal(0, 1, 10)
        with caplog.at_level(logging.WARNING):
            w, q_t = fqi_backward_step(actions, rng.normal(size=10),
                                       features, np.zeros(10), 0.99)
        assert np.all(np.isfinite(q_t))
        assert any("ridge" in message for message in caplog.messages)

    def test_band_step_stays_a_band(self):
        # One step on an N = 100 band of 2000 rows never forms the dense
        # (K, 3N) psi of 4.8 MB: its peak is the (3N, 3N) Gram, the two
        # copies of it that the solve makes, and a few band-sized arrays.
        rng = np.random.default_rng(7)
        states = rng.normal(size=(2000, 2))
        spec = make_spec(states.min(), states.max(), 100, 3)
        step = step_features(spline_features(spec, states), 1)
        assert isinstance(step, RowBand)
        actions, rewards, q_next = rng.normal(size=(3, 2000))
        tracemalloc.start()
        try:
            fqi_backward_step(actions, rewards, step, q_next, 0.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram, band = 300 * 300 * 8, 9 * 2000 * 8
        assert peak <= 3 * gram + 4 * band  # 2.7 MB


class TestRunFqi:
    @pytest.mark.filterwarnings("error")  # no numpy warning beside the error
    def test_nonfinite_cube_rejected(self):
        paths, states, spec, cube, risk, dp = small_run(n_paths=500)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        with pytest.raises(ValueError, match="feature matrix must be finite"):
            run_fqi(dataset, spec, features=spoil(cube))

    @pytest.mark.parametrize("field", ["states", "actions", "rewards",
                                       "terminal_portfolio"])
    def test_nonfinite_dataset_field_named(self, field):
        paths, states, spec, cube, risk, dp = small_run(n_paths=200)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        values = getattr(dataset, field).copy()
        values.flat[7] = np.nan
        with pytest.raises(ValueError, match=f"^dataset {field} must be finite$"):
            run_fqi(replace(dataset, **{field: values}), spec, features=cube)

    def test_float32_cube_solved_in_float64(self):
        paths, states, spec, cube, risk, dp = small_run(n_paths=500)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        single = cube.astype(np.float32)
        got = run_fqi(dataset, spec, features=single)
        want = run_fqi(dataset, spec, features=single.astype(float))
        assert got.price_t0 == want.price_t0
        assert np.array_equal(got.q_values, want.q_values)

    def test_zero_noise_matches_model_based(self):
        paths, states, spec, cube, risk, dp = small_run(n_paths=1000)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        fqi = run_fqi(dataset, spec, features=cube)
        assert abs(fqi.price_t0 - dp.price_t0) <= 0.05
        # The two fits use different feature spaces (state-only vs
        # action-state), so individual fitted values can differ on outlier
        # paths; the per-step value levels must agree.
        step_means = np.abs(fqi.q_values.mean(axis=0) - dp.q_values.mean(axis=0))
        assert np.max(step_means) <= 0.05

    def test_moderate_noise_stays_close(self):
        paths, states, spec, cube, risk, dp = small_run(n_paths=2000)
        noisy = perturb_actions(dp.hedges, 0.2, seed=7)
        noisy[:, -1] = 0.0
        dataset = build_offline_dataset(paths, states, noisy,
                                        strike=100.0, risk=risk)
        fqi = run_fqi(dataset, spec, features=cube)
        assert abs(fqi.price_t0 - dp.price_t0) <= 0.15
        assert 0.0 <= fqi.price_t0 <= 100.0

    def test_csv_round_trip(self, tmp_path):
        for kind in (StateKind.PRICE, StateKind.LOG_RETURN):
            paths, states, spec, cube, risk, dp = small_run(kind=kind, n_paths=40)
            noisy = perturb_actions(dp.hedges, 0.4, seed=2)
            noisy[:, -1] = 0.0
            dataset = build_offline_dataset(paths, states, noisy,
                                            strike=100.0, risk=risk)
            dest = tmp_path / f"dataset-{kind.value}.csv"
            save_dataset(dataset, dest)
            loaded = load_dataset(dest)
            assert np.array_equal(loaded.states, dataset.states)
            assert np.array_equal(loaded.actions, dataset.actions)
            assert np.array_equal(loaded.rewards, dataset.rewards)
            assert np.array_equal(loaded.terminal_portfolio,
                                  dataset.terminal_portfolio)
            assert loaded.state_kind is kind
            before = run_fqi(dataset, spec).price_t0
            after = run_fqi(loaded, spec).price_t0
            assert after == pytest.approx(before, abs=1e-10)

    def test_default_fit_skips_maximizer(self):
        # Reference: the fitted-Q recursion evaluated at the recorded
        # actions, written out step by step.
        paths, states, spec, cube, risk, dp = small_run(n_paths=500)
        noisy = perturb_actions(dp.hedges, 0.2, seed=3)
        noisy[:, -1] = 0.0
        dataset = build_offline_dataset(paths, states, noisy,
                                        strike=100.0, risk=risk)
        q = dataset.terminal_q()
        for t in range(dataset.n_steps - 1, -1, -1):
            features, a = cube[t], dataset.actions[:, t][:, np.newaxis]
            design = np.stack([features, a * features, 0.5 * a**2 * features],
                              axis=2).reshape(len(a), -1)
            gram = design.T @ design
            rhs = dataset.rewards[:, t] + risk.gamma * q
            q = solve_normal_equations(gram, rhs @ design, scaled_regularizer(gram)) @ design.T

        fit = run_fqi(dataset, spec, features=cube)
        assert fit.price_t0 == float(-q.mean())

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OfflineDataset(states=np.zeros((3, 4)), actions=np.zeros((3, 3)),
                           rewards=np.zeros((3, 4)),
                           terminal_portfolio=np.zeros(3),
                           state_kind=StateKind.PRICE, strike=100.0,
                           risk=RiskParams(1e-4, 0.99), dt=0.1)


class TestLoadDatasetRejectsMalformedFiles:
    @pytest.fixture
    def lines(self, tmp_path):
        paths, states, spec, cube, risk, dp = small_run(n_paths=5)
        dataset = build_offline_dataset(paths, states, dp.hedges,
                                        strike=100.0, risk=risk)
        dest = tmp_path / "good.csv"
        save_dataset(dataset, dest)
        return dest.read_text().splitlines(keepends=True)

    def write(self, tmp_path, lines):
        dest = tmp_path / "bad.csv"
        dest.write_text("".join(lines))
        return dest

    def data_index(self, lines, t, k):
        return lines.index(next(line for line in lines
                                if line.startswith(f"{t},{k},")))

    def test_missing_row(self, tmp_path, lines):
        del lines[self.data_index(lines, 3, 2)]
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=r"bad\.csv: 64 data rows, but 13 times "
                                             r"x 5 paths need 65"):
            load_dataset(dest)

    def test_duplicate_row(self, tmp_path, lines):
        # In place of another row, so the row count is the stated one.
        lines[self.data_index(lines, 5, 3)] = lines[self.data_index(lines, 5, 4)]
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=r"bad\.csv: duplicate row for \(t=5, k=4\)"):
            load_dataset(dest)

    def test_metadata_after_the_header(self, tmp_path, lines):
        # 5 paths x 13 times: the appended line is data row 66.
        lines.append("# strike=50.0\n")
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=r"bad\.csv: data row 66 is not 6 "
                                             r"comma-separated numbers: '# strike=50\.0'"):
            load_dataset(dest)

    # The third data row is (t=0, k=2).
    @pytest.mark.parametrize("row", ["0,2,abc,0.5,0.0,1.0\r\n", "0,2,1.0,0.5,0.0\r\n"],
                             ids=["bad-value", "five-columns"])
    def test_unparsable_row_is_named_in_data_rows(self, tmp_path, lines, row):
        lines[self.data_index(lines, 0, 2)] = row
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError) as info:
            load_dataset(dest)
        assert str(info.value) == (f"{dest}: data row 3 is not 6 comma-separated "
                                   f"numbers: {row.rstrip()!r}")

    # np.loadtxt raises only where the column count changes, so a table
    # whose every row has the same wrong count is caught by its width.
    @pytest.mark.parametrize("width", [5, 3], ids=["five-columns", "three-columns"])
    def test_every_row_of_the_wrong_width(self, tmp_path, lines, width):
        # The metadata and header of a dataset of 2 paths x 1 step.
        shape = {"n_paths": "2", "n_steps": "1"}
        head = [next((f"# {key}={value}\n" for key, value in shape.items()
                      if line.startswith(f"# {key}=")), line)
                for line in lines[:self.data_index(lines, 0, 0)]]
        rows = [",".join([str(t), str(k)] + ["1.0"] * (width - 2))
                for t in range(2) for k in range(2)]
        dest = self.write(tmp_path, head + [row + "\r\n" for row in rows])
        with pytest.raises(ValueError) as info:
            load_dataset(dest)
        assert str(info.value) == (f"{dest}: data row 1 is not 6 comma-separated "
                                   f"numbers: {rows[0]!r}")

    @pytest.mark.parametrize("key", ["state_kind", "mu", "sigma"])
    def test_metadata_checked_before_the_rows(self, tmp_path, lines, key):
        # A bad key is reported, not the malformed row after it.
        lines[self.data_index(lines, 0, 2)] = "0,2,1.0\r\n"
        dest = self.replace_value(tmp_path, lines, key, "bogus")
        with pytest.raises(ValueError, match=rf"bad\.csv: metadata key '{key}': "):
            load_dataset(dest)

    def test_repeated_metadata_key(self, tmp_path, lines):
        lines.insert(0, "# strike=50.0\n")
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=r"bad\.csv: metadata key 'strike' appears twice"):
            load_dataset(dest)

    @pytest.mark.parametrize("key", ["state_kind", "strike", "risk_aversion",
                                     "gamma", "pure_risk", "dt", "mu", "sigma",
                                     "n_paths", "n_steps"])
    def test_missing_metadata_key(self, tmp_path, lines, key):
        lines = [line for line in lines if not line.startswith(f"# {key}=")]
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"bad\.csv: missing metadata key '{key}'"):
            load_dataset(dest)

    # False marks a file of the removed full hedge: never repriced as pure risk.
    @pytest.mark.parametrize("value", ["yes", "False", "true"])
    def test_pure_risk_must_be_true(self, tmp_path, lines, value):
        lines = [line.replace("# pure_risk=True", f"# pure_risk={value}") for line in lines]
        dest = self.write(tmp_path, lines)
        with pytest.raises(ValueError, match=rf"bad\.csv: metadata key 'pure_risk' "
                                             rf"must be True, got '{value}'"):
            load_dataset(dest)

    def replace_value(self, tmp_path, lines, key, value):
        return self.write(tmp_path, [f"# {key}={value}\n" if line.startswith(f"# {key}=")
                                     else line for line in lines])

    @pytest.mark.parametrize("key, value", [
        ("n_paths", "abc"), ("n_steps", "1.5"), ("state_kind", "momentum"),
        ("strike", ""), ("risk_aversion", "low"), ("gamma", "0,99"),
        ("dt", "1/12"), ("mu", "5%"), ("sigma", "x")])
    def test_unparsable_metadata_value(self, tmp_path, lines, key, value):
        dest = self.replace_value(tmp_path, lines, key, value)
        with pytest.raises(ValueError, match=rf"bad\.csv: metadata key '{key}': "):
            load_dataset(dest)

    @pytest.mark.parametrize("key, value, message", [
        ("gamma", "1.5", r"gamma must lie in \(0, 1\]"),
        ("gamma", "0.0", r"gamma must lie in \(0, 1\]"),
        ("risk_aversion", "-0.001", "risk_aversion must be nonnegative")])
    def test_metadata_risk_params_reject(self, tmp_path, lines, key, value, message):
        dest = self.replace_value(tmp_path, lines, key, value)
        with pytest.raises(ValueError, match=rf"bad\.csv: metadata: {message}"):
            load_dataset(dest)

    @pytest.mark.parametrize("key, value, message", [
        ("strike", "inf", "metadata key 'strike' must be finite, got inf"),
        ("dt", "inf", "metadata key 'dt' must be finite, got inf"),
        ("mu", "nan", "metadata key 'mu' must be finite, got nan"),
        ("sigma", "-inf", "metadata key 'sigma' must be finite, got -inf"),
        ("risk_aversion", "inf", "metadata: risk_aversion must be finite")],
        ids=["strike", "dt", "mu", "sigma", "risk_aversion"])
    def test_nonfinite_metadata(self, tmp_path, lines, key, value, message):
        dest = self.replace_value(tmp_path, lines, key, value)
        with pytest.raises(ValueError) as info:
            load_dataset(dest)
        assert str(info.value) == f"{dest}: {message}"

    def test_header_without_rows(self, tmp_path, lines):
        # numpy warns of input with no data; the loader's error comes alone.
        dest = self.write(tmp_path, lines[:self.data_index(lines, 0, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                load_dataset(dest)
        assert str(info.value) == f"{dest}: 0 data rows, but 13 times x 5 paths need 65"

    @pytest.mark.parametrize("key, value, message", [
        ("n_paths", "0", "must be at least 1, got 0"),
        ("n_steps", "0", "must be at least 1, got 0"),
        ("strike", "-5.0", "must be positive, got -5.0"),
        ("strike", "nan", "must be positive, got nan"),
        ("dt", "-0.5", "must be positive, got -0.5")],
        ids=["n_paths-0", "n_steps-0", "strike-negative", "strike-nan", "dt-negative"])
    def test_metadata_outside_the_writers_domain(self, tmp_path, lines, key, value,
                                                 message):
        if key.startswith("n_"):
            # The header of an empty dataset: metadata and columns, no rows.
            lines = lines[:next(i for i, line in enumerate(lines)
                                if not line.startswith("#")) + 1]
        dest = self.replace_value(tmp_path, lines, key, value)
        with pytest.raises(ValueError, match=rf"bad\.csv: metadata key '{key}' {message}"):
            load_dataset(dest)


def csv_writer_dataset(dataset, dest):
    """The original writer: one ``csv.writer`` row per (t, k), reading
    numpy scalars cell by cell."""
    meta = {
        "state_kind": dataset.state_kind.value,
        "strike": repr(dataset.strike),
        "risk_aversion": repr(dataset.risk.risk_aversion),
        "gamma": repr(dataset.risk.gamma),
        "pure_risk": "True",
        "dt": repr(dataset.dt),
        "mu": repr(dataset.mu),
        "sigma": repr(dataset.sigma),
        "n_paths": str(dataset.n_paths),
        "n_steps": str(dataset.n_steps),
    }
    with open(dest, "w", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        writer = csv.writer(handle)
        writer.writerow(("t", "k", "state", "action", "reward", "next_state"))
        for t in range(dataset.n_steps + 1):
            terminal = t == dataset.n_steps
            for k in range(dataset.n_paths):
                writer.writerow([
                    t,
                    k,
                    repr(float(dataset.states[k, t])),
                    repr(float(dataset.actions[k, t])),
                    repr(float(dataset.rewards[k, t])),
                    repr(float(dataset.terminal_portfolio[k])) if terminal
                    else repr(float(dataset.states[k, t + 1])),
                ])


def noisy_dataset(n_paths, n_steps, kind=StateKind.DRIFT_ADJUSTED, seed=0):
    """Desk-market tuples under a perturbed constant hedge (no DP needed)."""
    params = MarketParams(s0=100, mu=0.05, sigma=0.15, r=0.03, maturity=1.0,
                          n_steps=n_steps, n_paths=n_paths, seed=seed)
    paths = simulate_gbm(params)
    noisy = perturb_actions(np.full(paths.prices.shape, -0.5), 0.2, seed=seed + 1)
    noisy[:, -1] = 0.0
    return build_offline_dataset(paths, compute_states(paths, kind), noisy,
                                 strike=100.0,
                                 risk=RiskParams.from_rate(1e-4, params.r, params.dt))


def assert_matches_csv_writer(dataset, tmp_path):
    """Write with both writers; return the bytes, which must agree."""
    save_dataset(dataset, tmp_path / "fast.csv")
    csv_writer_dataset(dataset, tmp_path / "reference.csv")
    written = (tmp_path / "fast.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    return written


def assert_same_dataset(loaded, dataset):
    """Every field equal, nan equal to nan and the sign of zero kept.

    The text form carries no sign for nan (``repr`` writes ``nan``), so
    the sign is compared on the other values only.
    """
    for field in fields(OfflineDataset):
        a, b = getattr(loaded, field.name), getattr(dataset, field.name)
        if isinstance(b, (np.ndarray, float)):
            assert np.array_equal(a, b, equal_nan=True), field.name
            assert np.array_equal(np.signbit(a) & ~np.isnan(a),
                                  np.signbit(b) & ~np.isnan(b)), field.name
        else:
            assert a == b, field.name


class TestSaveDatasetMatchesCsvWriter:
    @pytest.mark.parametrize("n_paths", [1, 7, 400])
    @pytest.mark.parametrize("n_steps", [1, 6])
    def test_byte_identical(self, tmp_path, n_paths, n_steps):
        for kind in (StateKind.DRIFT_ADJUSTED, StateKind.LOG_RETURN):
            assert_matches_csv_writer(
                noisy_dataset(n_paths, n_steps, kind, seed=n_paths), tmp_path)

    def test_desk_dataset_byte_identical(self, tmp_path):
        assert_matches_csv_writer(noisy_dataset(10_000, 24, StateKind.PRICE, seed=31),
                                  tmp_path)

    def test_no_paths(self, tmp_path):
        empty = np.empty((0, 3))
        dataset = OfflineDataset(states=empty, actions=empty, rewards=empty,
                                 terminal_portfolio=[], state_kind=StateKind.PRICE,
                                 strike=100.0, risk=RiskParams(0.0, 1.0), dt=0.5)
        assert assert_matches_csv_writer(dataset, tmp_path).endswith(
            b"# n_steps=2\nt,k,state,action,reward,next_state\r\n")

    def test_special_values_and_terminators(self, tmp_path):
        nan = float("nan")
        dataset = OfflineDataset(
            states=[[-0.0, 5e-324, 1e300], [3.0, nan, -1e300]],
            actions=[[5e-324, -0.0, 0.0], [1e300, 2.0, 0.0]],
            rewards=[[1e300, nan, -0.0], [-5e-324, 7.0, 4.0]],
            terminal_portfolio=[nan, -0.0],
            state_kind=StateKind.LOG_RETURN, strike=100.0,
            risk=RiskParams(0.0, 1.0), dt=0.5, mu=-0.0, sigma=0.0,
        )
        text = assert_matches_csv_writer(dataset, tmp_path)
        assert b"# mu=-0.0\n# sigma=0.0\n" in text
        assert text.endswith(
            b"t,k,state,action,reward,next_state\r\n"
            b"0,0,-0.0,5e-324,1e+300,5e-324\r\n"
            b"0,1,3.0,1e+300,-5e-324,nan\r\n"
            b"1,0,5e-324,-0.0,nan,1e+300\r\n"
            b"1,1,nan,2.0,7.0,-1e+300\r\n"
            b"2,0,1e+300,0.0,-0.0,nan\r\n"
            b"2,1,-1e+300,0.0,4.0,-0.0\r\n"
        )
        assert_same_dataset(load_dataset(tmp_path / "fast.csv"), dataset)


class TestLoadDatasetPeak:
    def test_peak_is_its_output_plus_the_table_and_its_indices(self, tmp_path):
        # 4000 paths x 25 times: 100k rows, a 4.8 MB parsed table and 2.4 MB
        # of returned arrays. The streamed load peaks at 10.7 MB; the rest
        # is the integer (t, k) and cell indices, about 35 bytes a row.
        # Holding the file as a list of lines, as the loader once did,
        # peaked at 24.5 MB.
        dataset = noisy_dataset(4000, 24)
        save_dataset(dataset, tmp_path / "dataset.csv")
        tracemalloc.start()
        try:
            loaded = load_dataset(tmp_path / "dataset.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = 6 * dataset.states.nbytes  # six float64 columns a row
        output = sum(getattr(loaded, name).nbytes for name in
                     ("states", "actions", "rewards", "terminal_portfolio"))
        bound = output + 2 * table
        assert peak <= bound, f"peak {peak / 1e6:.1f} MB above {bound / 1e6:.1f} MB"

    def test_rows_counted_before_the_stated_shape_is_allocated(self, tmp_path):
        # 2 rows of a file that states 1,000,000 paths x 1 step. Sizing
        # the cell counts by the stated shape before counting the rows
        # would peak at 18.0 MB.
        save_dataset(noisy_dataset(1, 1), tmp_path / "dataset.csv")
        text = (tmp_path / "dataset.csv").read_text()
        dest = tmp_path / "over.csv"
        dest.write_text(text.replace("# n_paths=1\n", "# n_paths=1000000\n"))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                load_dataset(dest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == (f"{dest}: 2 data rows, but 2 times x 1000000 "
                                   f"paths need 2000000")
        assert peak < 1e6, f"peak {peak / 1e6:.1f} MB"


@st.composite
def offline_datasets(draw):
    n_paths = draw(st.integers(1, 4))
    n_steps = draw(st.integers(1, 3))
    cells = st.floats(width=64)

    def table():
        return np.array(draw(st.lists(st.lists(cells, min_size=n_steps + 1,
                                               max_size=n_steps + 1),
                                      min_size=n_paths, max_size=n_paths)))

    return OfflineDataset(
        states=table(), actions=table(), rewards=table(),
        terminal_portfolio=draw(st.lists(cells, min_size=n_paths, max_size=n_paths)),
        state_kind=draw(st.sampled_from(StateKind)),
        # The loader rejects a strike or dt that is not positive, and
        # metadata that is not finite.
        strike=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        risk=RiskParams(draw(st.floats(0.0, 1e3)), draw(st.floats(1e-6, 1.0))),
        dt=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        mu=draw(st.floats(allow_nan=False, allow_infinity=False)),
        sigma=draw(st.floats(allow_nan=False, allow_infinity=False)),
    )


class TestDatasetRoundTripProperty:
    @given(dataset=offline_datasets())
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_returns_every_field(self, tmp_path, dataset):
        assert_matches_csv_writer(dataset, tmp_path)
        assert_same_dataset(load_dataset(tmp_path / "fast.csv"), dataset)


# Values a mutation writes into a data cell (text, nan, inf, a float that
# overflows) and into a metadata value, where well-formed numbers may
# state another dataset.
_CELL_VALUES = ("x", "nan", "inf", "1e400")
_META_VALUES = ("", "x", "nan", "inf", "-inf", "1e400", "0", "-1", "2")
_N_META = 10  # metadata lines before the header


def _same_dataset(loaded, dataset) -> bool:
    try:
        assert_same_dataset(loaded, dataset)
    except AssertionError:
        return False
    return True


def _stated_dataset(dataset, key, value):
    """The dataset a file states once metadata ``key`` reads ``value``, or
    None where the loader must reject the value or keep the dataset."""
    try:
        number = float(value)
        if key in ("strike", "dt", "mu", "sigma"):
            return replace(dataset, **{key: number})
        if key == "risk_aversion":
            return replace(dataset, risk=RiskParams(number, dataset.risk.gamma))
        if key == "gamma":
            return replace(dataset, risk=RiskParams(dataset.risk.risk_aversion, number))
    except ValueError:
        pass
    return None


def _mutate(lines, data):
    """One mutation of a saved file's lines: the new text, what was done
    and the (key, value) a metadata mutation wrote."""
    n_lines, first_row = len(lines), _N_META + 1
    kind = data.draw(st.sampled_from([
        "delete", "duplicate", "swap", "cell", "add column", "drop column",
        "truncate", "metadata value", "line endings"]), label="mutation")
    lines = list(lines)
    meta = None
    if kind == "delete":
        del lines[data.draw(st.integers(0, n_lines - 1))]
    elif kind == "duplicate":
        line = lines[data.draw(st.integers(0, n_lines - 1))]
        lines.insert(data.draw(st.integers(0, n_lines)), line)
    elif kind == "swap":
        i, j = data.draw(st.lists(st.integers(0, n_lines - 1), min_size=2, max_size=2,
                                  unique=True))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "cell":
        i = data.draw(st.integers(first_row, n_lines - 1))
        cells = lines[i].rstrip("\r\n").split(",")
        column = data.draw(st.integers(0, len(cells) - 1))
        cells[column] = data.draw(st.sampled_from(_CELL_VALUES))
        kind = "nonfinite cell" if cells[column] != "x" and column >= 2 else kind
        lines[i] = ",".join(cells) + "\r\n"
    elif kind in ("add column", "drop column"):
        every_row = data.draw(st.booleans())
        rows = (range(first_row, n_lines) if every_row
                else [data.draw(st.integers(_N_META, n_lines - 1))])
        for i in rows:
            body = lines[i].rstrip("\r\n")
            body = body + ",0.5" if kind == "add column" else body.rpartition(",")[0]
            lines[i] = body + "\r\n"
    elif kind == "truncate":
        # The file loses part of its last row, or a tail up to all its rows.
        rows = "".join(lines[first_row:])
        lost = data.draw(st.one_of(st.integers(1, len(lines[-1])),
                                   st.integers(1, len(rows))))
        lines[first_row:] = [rows[:-lost]]
    elif kind == "metadata value":
        i = data.draw(st.integers(0, _N_META - 1))
        key = lines[i][2:].partition("=")[0]
        meta = key, data.draw(st.sampled_from(_META_VALUES))
        lines[i] = f"# {key}={meta[1]}\n"
    else:
        endings = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                     min_size=n_lines, max_size=n_lines))
        lines = [line.rstrip("\r\n") + end for line, end in zip(lines, endings)]
    return "".join(lines), kind, meta


@functools.cache
def _saved(n_paths):
    """A 2-step dataset of ``n_paths`` paths and the lines save_dataset writes."""
    dataset = noisy_dataset(n_paths, 2)
    with tempfile.TemporaryDirectory() as scratch:
        dest = Path(scratch) / "saved.csv"
        save_dataset(dataset, dest)
        return dataset, dest.read_bytes().decode().splitlines(keepends=True)


class TestLoadDatasetMutations:
    """A file save_dataset wrote, changed by one mutation, either loads as
    the dataset it states or raises ValueError naming the file.

    It loads as the original when only its line endings changed, and may
    when the change leaves what it states alone (rows reordered, or a
    non-terminal row's next state, which the loader does not read). A
    nonfinite data cell may instead load and be rejected by run_fqi's
    check. A metadata value the loader admits states the original with
    that one value replaced. No other outcome and no other exception type
    is allowed.
    """

    @given(n_paths=st.sampled_from([2, 3]), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_loads_as_stated_or_is_rejected(self, tmp_path, n_paths, data):
        dataset, lines = _saved(n_paths)
        text, kind, meta = _mutate(lines, data)
        dest = tmp_path / "mutated.csv"
        dest.write_bytes(text.encode())
        try:
            loaded = load_dataset(dest)
        except ValueError as err:
            assert str(dest) in str(err)
            assert kind != "line endings", err
            return
        if _same_dataset(loaded, dataset):
            return
        if kind == "nonfinite cell":
            with pytest.raises(ValueError, match="must be finite"):
                loaded.check_finite()
            return
        stated = meta and _stated_dataset(dataset, *meta)
        assert stated is not None and _same_dataset(loaded, stated), (
            f"{kind} {meta or ''} loaded a different dataset from {text!r}")

    def test_nan_risk_aversion_rejected(self, tmp_path):
        # The mutation test seldom draws this key and value together, and
        # a "< 0" check in RiskParams would let the nan through.
        _, lines = _saved(2)
        dest = tmp_path / "nan.csv"
        dest.write_bytes("".join(lines).replace("# risk_aversion=0.0001\n",
                                                "# risk_aversion=nan\n").encode())
        with pytest.raises(ValueError, match=f"{dest}: metadata: risk_aversion must "
                                             "be nonnegative"):
            load_dataset(dest)
