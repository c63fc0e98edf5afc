"""Model-free solver: fitted Q iteration on an offline dataset of noisy hedges.

The dataset holds (state, action, reward, next state) tuples produced by
perturbing a hedge sequence; the solver never sees the optimal hedge rule
or the market dynamics, only the recorded tuples plus the contract payoff
at expiry. Action values are expanded in features that couple each basis
function with 1, a and a^2/2, so the fitted surface is quadratic in the
action and its maximizer has a closed form.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FeatureMatrix, SplineFeatures, feature_cube, step_features
from .market import PathSet, StateKind, StateSeries
from .numerics import (
    DEFAULT_RIDGE_REL,
    cross_sectional_stats,
    scaled_regularizer,
    solve_normal_equations,
)
from .dp import RiskParams, compute_rewards, rollback_portfolio

log = logging.getLogger(__name__)

# The analytic maximizer of a fitted quadratic is trusted only when the
# curvature is negative and the implied action stays within this many
# multiples of the reference action scale. Flat or noisy curvature
# otherwise sends the maximizer arbitrarily far from the data, where the
# fit has no support.
_ACTION_BRACKET_FACTOR = 5.0


@dataclass(frozen=True)
class OfflineDataset:
    """Recorded interaction tuples plus the contract metadata.

    ``states``, ``actions`` and ``rewards`` have shape (K, T+1); the final
    action column is zero (position closed at expiry) and the final reward
    column holds the terminal variance penalty. ``terminal_portfolio`` is
    the payoff per path, which together with ``risk`` pins the terminal
    action value.
    """

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminal_portfolio: np.ndarray
    state_kind: StateKind
    strike: float
    risk: RiskParams
    dt: float
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("states", "actions", "rewards"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        tp = np.asarray(self.terminal_portfolio, dtype=float)
        object.__setattr__(self, "terminal_portfolio", tp)
        shape = self.states.shape
        if self.actions.shape != shape or self.rewards.shape != shape:
            raise ValueError("states, actions and rewards must share one shape")
        if tp.shape != (shape[0],):
            raise ValueError("terminal_portfolio must have one entry per path")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    def terminal_q(self) -> np.ndarray:
        """Known terminal action value: -payoff - lambda * Var(payoff)."""
        _, var = cross_sectional_stats(self.terminal_portfolio)
        return -self.terminal_portfolio - self.risk.risk_aversion * var


@dataclass(frozen=True)
class WMatrix:
    """Fitted coefficients at one step, shape (3, n_basis).

    Row 0 multiplies the plain features, row 1 the action-weighted ones
    and row 2 the half-squared-action ones.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != 3:
            raise ValueError("coefficient matrix must have shape (3, n_basis)")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficient matrix must be finite")


@dataclass(frozen=True)
class FQISolution:
    """Fitted coefficients per step, action values per path, and the price.

    ``greedy_fallbacks`` totals the maximizer candidates the guarded
    greedy rejected over all steps; it is 0 unless the fit ran with
    ``greedy_update``.
    """

    w: tuple
    q_values: np.ndarray
    price_t0: float
    greedy_fallbacks: int


def check_noise(eta: float) -> None:
    """Reject a noise level outside [0, 1], the range perturb_actions accepts."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must lie in [0, 1]")


def perturb_actions(a_star: np.ndarray, eta: float, seed: int) -> np.ndarray:
    """Scale each action by an independent Uniform(1-eta, 1+eta) draw.

    Multiplicative noise keeps the hedge sign; eta = 0 returns the input
    unchanged and eta = 1 spans (0, 2) times the input.
    """
    check_noise(eta)
    a_star = np.asarray(a_star, dtype=float)
    if eta == 0:
        return a_star.copy()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return a_star * rng.uniform(1.0 - eta, 1.0 + eta, size=a_star.shape)


def build_offline_dataset(paths: PathSet, states: StateSeries,
                          noisy_actions: np.ndarray, strike: float,
                          risk: RiskParams) -> OfflineDataset:
    """Assemble the tuples the model-free solver trains on.

    The portfolio is re-rolled backward from the payoff under the stored
    actions, and rewards are recomputed from that portfolio, so the
    recorded rewards are consistent with the recorded actions.
    """
    if strike <= 0:
        raise ValueError("strike must be positive")
    actions = np.asarray(noisy_actions, dtype=float)
    n_paths, n_cols = paths.prices.shape
    if actions.shape != (n_paths, n_cols):
        raise ValueError("actions must cover every path and time step")
    if np.any(actions[:, -1] != 0):
        raise ValueError("the terminal action must be zero")

    # Growth implied by the discount factor, matching the solver's rollback.
    growth = 1.0 / risk.gamma
    delta_s = paths.prices[:, 1:] - growth * paths.prices[:, :-1]

    payoff = np.maximum(strike - paths.prices[:, -1], 0.0)
    portfolio = np.zeros((n_paths, n_cols))
    rewards = np.zeros_like(portfolio)
    portfolio[:, -1] = payoff
    _, terminal_var = cross_sectional_stats(payoff)
    rewards[:, -1] = -risk.risk_aversion * terminal_var
    for t in range(n_cols - 2, -1, -1):
        portfolio[:, t] = rollback_portfolio(portfolio[:, t + 1], actions[:, t],
                                             delta_s[:, t], risk.gamma)
        rewards[:, t] = compute_rewards(portfolio[:, t + 1], portfolio[:, t],
                                        risk.gamma, risk.risk_aversion)

    return OfflineDataset(
        states=states.values,
        actions=actions,
        rewards=rewards,
        terminal_portfolio=payoff,
        state_kind=states.kind,
        strike=strike,
        risk=risk,
        dt=paths.dt,
        mu=paths.params.mu,
        sigma=paths.params.sigma,
    )


def _psi_matrix(actions_t: np.ndarray, features_t: np.ndarray) -> np.ndarray:
    """Action-state features, row k = [phi_k, a_k phi_k, (a_k^2 / 2) phi_k]."""
    a = actions_t[:, np.newaxis]
    return np.hstack([features_t, a * features_t, 0.5 * a**2 * features_t])


def _quadratic(u: np.ndarray, actions: np.ndarray) -> np.ndarray:
    return u[:, 0] + actions * u[:, 1] + 0.5 * actions**2 * u[:, 2]


def _greedy_batch(w: np.ndarray, features_t: np.ndarray,
                  observed: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Maximize the fitted quadratic per path, falling back to the data.

    Returns (actions, values, n_fallbacks).
    """
    u = features_t @ w.T  # (K, 3): constant, slope, curvature
    bracket = _ACTION_BRACKET_FACTOR * max(float(np.max(np.abs(observed))), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate = -u[:, 1] / u[:, 2]
    usable = (u[:, 2] < 0) & np.isfinite(candidate) & (np.abs(candidate) <= bracket)
    actions = np.where(usable, candidate, observed)
    return actions, _quadratic(u, actions), int(np.sum(~usable))


def greedy_action(w_t: WMatrix, phi_x: np.ndarray, observed_action: float = 0.0) -> float:
    """Action maximizing the fitted quadratic at one state.

    With negative curvature the maximizer is -slope/curvature; flat or
    convex fits, and maximizers far outside the action scale, fall back
    to the observed action.
    """
    actions, _, _ = _greedy_batch(
        w_t.values, np.asarray(phi_x, dtype=float)[np.newaxis, :],
        np.array([observed_action]),
    )
    return float(actions[0])


def fqi_backward_step(actions_t: np.ndarray, rewards_t: np.ndarray,
                      phi_t: FeatureMatrix, q_next: np.ndarray, gamma: float,
                      regularizer: float | None = None,
                      greedy_update: bool = False):
    """Fit one step's coefficients and evaluate the per-path values.

    Regresses reward + gamma * next value on the action-state features;
    ``q_next`` must already hold final values (terminal column included).

    By default the fitted surface is evaluated at the recorded actions.
    The variance penalty in the rewards is a cross-sectional scalar, so
    the regression target is conditionally linear in the action: the
    fitted curvature is sampling noise, and chasing its analytic maximizer
    diverges within a few backward steps (measured on the benchmark
    configuration). ``greedy_update`` switches the evaluation to the
    guarded maximizer for experimentation.

    Returns (WMatrix, q_t, n_fallbacks); the counter reports how many
    maximizer candidates the guarded greedy rejected. The maximizer runs
    only when ``greedy_update`` is set, so the counter is 0 otherwise.
    A nonfinite feature raises ValueError: the phi block of the Gram
    matrix has diagonal sum_k phi_kj^2, nonfinite exactly when column j
    holds one, so unchecked StepFeatures are caught there.
    """
    features = phi_t.values
    design = _psi_matrix(actions_t, features)
    n_coef = design.shape[1]
    if design.shape[0] < n_coef:
        log.warning(
            "fitted-Q step has %d samples for %d coefficients; "
            "relying on the ridge penalty", design.shape[0], n_coef,
        )
    gram = design.T @ design
    if not np.all(np.isfinite(np.diagonal(gram)[:features.shape[1]])):
        raise ValueError("feature matrix must be finite")
    rhs = design.T @ (rewards_t + gamma * q_next)
    if regularizer is None:
        regularizer = scaled_regularizer(gram, DEFAULT_RIDGE_REL)
    w_vec = solve_normal_equations(gram, rhs, regularizer)
    w = w_vec.reshape(3, features.shape[1])
    if greedy_update:
        _, q_t, fallbacks = _greedy_batch(w, features, actions_t)
    else:
        q_t, fallbacks = _quadratic(features @ w.T, actions_t), 0
    return WMatrix(values=w), q_t, fallbacks


def run_fqi(dataset: OfflineDataset, basis_spec: BasisSpec,
            gamma: float | None = None,
            regularizer: float | None = None,
            features: np.ndarray | SplineFeatures | None = None,
            greedy_update: bool = False) -> FQISolution:
    """Backward fitted Q iteration over the whole dataset.

    The terminal value column comes from the known payoff; every earlier
    column is fitted from the recorded tuples. The time-0 price is the
    negative average of the initial values. ``features`` is a dense
    (T+1, K, N) cube or SplineFeatures, whose steps are densified one
    slab at a time.
    """
    if gamma is None:
        gamma = dataset.risk.gamma
    if features is None:
        features = feature_cube(basis_spec, dataset.states)

    n_paths, n_steps = dataset.n_paths, dataset.n_steps
    q_values = np.zeros((n_paths, n_steps + 1))
    q_values[:, -1] = dataset.terminal_q()
    w_list: list[WMatrix] = [None] * n_steps
    fallbacks = 0
    for t in range(n_steps - 1, -1, -1):
        w_list[t], q_values[:, t], n_fb = fqi_backward_step(
            dataset.actions[:, t], dataset.rewards[:, t],
            step_features(features, t), q_values[:, t + 1], gamma,
            regularizer, greedy_update,
        )
        fallbacks += n_fb

    return FQISolution(
        w=tuple(w_list),
        q_values=q_values,
        price_t0=float(-q_values[:, 0].mean()),
        greedy_fallbacks=fallbacks,
    )


def fqi_from_hedges(paths: PathSet, states: StateSeries, hedges: np.ndarray,
                    noise: float, strike: float, risk: RiskParams,
                    basis_spec: BasisSpec,
                    features: np.ndarray | SplineFeatures | None = None,
                    regularizer: float | None = None
                    ) -> tuple[OfflineDataset, FQISolution]:
    """Fitted Q on ``hedges`` perturbed by noise the path seed fixes and
    closed at expiry; returns the recorded dataset and the solution."""
    noisy = perturb_actions(hedges, noise, seed=paths.params.seed + 104_729)
    noisy[:, -1] = 0.0
    dataset = build_offline_dataset(paths, states, noisy, strike=strike, risk=risk)
    return dataset, run_fqi(dataset, basis_spec, regularizer=regularizer,
                            features=features)


_CSV_COLUMNS = ("t", "k", "state", "action", "reward", "next_state")


def save_dataset(dataset: OfflineDataset, dest) -> None:
    """Write the dataset as CSV with a metadata header block.

    Rows carry (t, k, state, action, reward, next_state). Terminal rows
    have no next state, so that slot carries the path's terminal
    portfolio (the payoff) instead; states alone cannot recover it for
    the log-return state kind.

    Metadata lines end in ``"\\n"``; the header and the rows end in
    ``"\\r\\n"``, the terminator of :mod:`csv`'s default dialect, and floats
    are written with ``repr``. The bytes equal those of a ``csv.writer``
    loop over the cells, which ``tests/test_fqi.py`` keeps as a reference.
    Rows are written one time step at a time.
    """
    meta = {
        "state_kind": dataset.state_kind.value,
        "strike": repr(dataset.strike),
        "risk_aversion": repr(dataset.risk.risk_aversion),
        "gamma": repr(dataset.risk.gamma),
        "pure_risk": str(dataset.risk.pure_risk),
        "dt": repr(dataset.dt),
        "mu": repr(dataset.mu),
        "sigma": repr(dataset.sigma),
        "n_paths": str(dataset.n_paths),
        "n_steps": str(dataset.n_steps),
    }
    with open(dest, "w", newline="") as handle:
        for key, value in meta.items():
            handle.write(f"# {key}={value}\n")
        handle.write(",".join(_CSV_COLUMNS) + "\r\n")
        paths = range(dataset.n_paths)
        state = list(map(repr, dataset.states[:, 0].tolist()))
        for t in range(dataset.n_steps + 1):
            following = (dataset.terminal_portfolio if t == dataset.n_steps
                         else dataset.states[:, t + 1])
            next_state = list(map(repr, following.tolist()))
            handle.writelines(
                f"{t},{k},{s},{a},{r},{n}\r\n" for k, s, a, r, n in zip(
                    paths, state, map(repr, dataset.actions[:, t].tolist()),
                    map(repr, dataset.rewards[:, t].tolist()), next_state))
            state = next_state


_META_KEYS = ("state_kind", "strike", "risk_aversion", "gamma", "dt", "mu",
              "sigma", "n_paths", "n_steps")


def load_dataset(source) -> OfflineDataset:
    """Load a dataset written by :func:`save_dataset`.

    Every (t, k) must appear exactly once; a missing or duplicate row, an
    index outside the stated shape, or a missing metadata key raises
    ValueError naming the file and the row or key.
    """
    meta: dict[str, str] = {}
    rows = []
    with open(source, newline="") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                meta[key.strip()] = value.strip()
            else:
                rows.append(line)
    header = next(csv.reader(rows[:1]), None)
    if header is None or tuple(header) != _CSV_COLUMNS:
        raise ValueError(f"{source}: unexpected columns {header}")
    missing = [key for key in _META_KEYS if key not in meta]
    if missing:
        raise ValueError(f"{source}: missing metadata key {missing[0]!r}")

    n_paths = int(meta["n_paths"])
    n_steps = int(meta["n_steps"])
    try:
        table = np.loadtxt(rows[1:], delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from err
    table = table.reshape(-1, len(_CSV_COLUMNS))
    t, k = table[:, 0], table[:, 1]
    outside = ((t != np.floor(t)) | (t < 0) | (t > n_steps)
               | (k != np.floor(k)) | (k < 0) | (k >= n_paths))
    if outside.any():
        row = int(np.argmax(outside))
        raise ValueError(f"{source}: data row {row + 1} has (t={t[row]:g}, "
                         f"k={k[row]:g}) outside {n_steps + 1} steps x "
                         f"{n_paths} paths")
    t, k = t.astype(np.intp), k.astype(np.intp)
    cell = t * n_paths + k
    counts = np.bincount(cell, minlength=(n_steps + 1) * n_paths)
    if np.any(counts > 1):
        repeats = np.flatnonzero(cell == np.argmax(counts > 1))
        raise ValueError(f"{source}: duplicate row for (t={t[repeats[0]]}, "
                         f"k={k[repeats[0]]}) at data rows {repeats[0] + 1} "
                         f"and {repeats[1] + 1}")
    if np.any(counts == 0):
        gap = int(np.argmax(counts == 0))
        raise ValueError(f"{source}: missing row for (t={gap // n_paths}, "
                         f"k={gap % n_paths})")

    states = np.empty((n_paths, n_steps + 1))
    actions = np.empty_like(states)
    rewards = np.empty_like(states)
    states[k, t] = table[:, 2]
    actions[k, t] = table[:, 3]
    rewards[k, t] = table[:, 4]
    terminal = t == n_steps
    terminal_portfolio = np.empty(n_paths)
    terminal_portfolio[k[terminal]] = table[terminal, 5]

    return OfflineDataset(
        states=states,
        actions=actions,
        rewards=rewards,
        terminal_portfolio=terminal_portfolio,
        state_kind=StateKind.parse(meta["state_kind"]),
        strike=float(meta["strike"]),
        risk=RiskParams(
            risk_aversion=float(meta["risk_aversion"]),
            gamma=float(meta["gamma"]),
            pure_risk=meta.get("pure_risk", "True") == "True",
        ),
        dt=float(meta["dt"]),
        mu=float(meta["mu"]),
        sigma=float(meta["sigma"]),
    )
