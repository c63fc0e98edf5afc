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
import itertools
import logging
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec, FeatureMatrix, SplineFeatures, SplineSteps, step_features
from .dp import RiskParams, portfolio_and_rewards
from .market import PathSet, StateKind, StateSeries
from .numerics import RowBand, _solve_rows

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

    def check_finite(self) -> None:
        """Raise ValueError naming the first nonfinite field among the
        states, actions, rewards and terminal portfolio."""
        for name in ("states", "actions", "rewards", "terminal_portfolio"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"dataset {name} must be finite")

    def terminal_q(self) -> np.ndarray:
        """Known terminal action value: -payoff - lambda * Var(payoff)."""
        var = self.terminal_portfolio.var()
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
    """Fitted coefficients per step, action values per path, and the price."""

    w: tuple
    q_values: np.ndarray
    price_t0: float


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
    noisy = rng.uniform(1.0 - eta, 1.0 + eta, size=a_star.shape)
    noisy *= a_star  # the bits of a_star * draw: multiplication commutes
    return noisy


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

    return OfflineDataset(
        states=states.values,
        actions=actions,
        rewards=portfolio_and_rewards(paths, strike, actions, risk)[1],
        terminal_portfolio=np.maximum(strike - paths.prices[:, -1], 0.0),
        state_kind=states.kind,
        strike=strike,
        risk=risk,
        dt=paths.dt,
        mu=paths.params.mu,
        sigma=paths.params.sigma,
    )


def greedy_action(w_t: WMatrix, phi_x: np.ndarray, observed_action: float = 0.0) -> float:
    """Action maximizing the fitted quadratic at one state.

    With negative curvature the maximizer is -slope/curvature; flat or
    convex fits, and maximizers far outside the action scale, fall back
    to the observed action.
    """
    phi = np.asarray(phi_x, dtype=float)[np.newaxis, :]
    _, slope, curvature = (phi @ w_t.values.T)[0]
    bracket = _ACTION_BRACKET_FACTOR * max(abs(observed_action), 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        candidate = -slope / curvature
    if curvature < 0 and np.isfinite(candidate) and abs(candidate) <= bracket:
        return float(candidate)
    return float(observed_action)


def _psi(step: FeatureMatrix | RowBand, actions_t: np.ndarray) -> FeatureMatrix | RowBand:
    """Action-state features in the step's form: column 3j + m is feature j
    times (1, a, a^2/2)[m], so a band of width w over N columns stays one
    band, of width 3w over 3N columns, and a (K, N) slab becomes (K, 3N).
    The three blocks are written into one buffer, with no temporaries of
    the step's size."""
    if isinstance(step, RowBand):
        f, a = step.values, actions_t
        psi = np.empty((len(f), 3, a.size))
        psi[:, 0] = f
        np.multiply(a, f, out=psi[:, 1])
        np.multiply(0.5 * a**2, f, out=psi[:, 2])
        psi = psi.reshape(-1, a.size)
        return RowBand(columns=3 * step.columns[0] + np.arange(len(psi))[:, np.newaxis],
                       values=psi, n_cols=3 * step.n_cols)
    f, a = step.values, actions_t[:, np.newaxis]
    psi = np.empty(f.shape + (3,))
    psi[:, :, 0] = f
    np.multiply(a, f, out=psi[:, :, 1])
    np.multiply(0.5 * a**2, f, out=psi[:, :, 2])
    return FeatureMatrix._unchecked(psi.reshape(a.size, -1))


def fqi_backward_step(actions_t: np.ndarray, rewards_t: np.ndarray,
                      phi_t: FeatureMatrix | RowBand, q_next: np.ndarray, gamma: float,
                      regularizer: float | None = None):
    """Fit one step's coefficients and evaluate the per-path values.

    Regresses reward + gamma * next value on the action-state features;
    ``q_next`` must already hold final values (terminal column included).
    Like the DP's fits, it computes with the step it is given, a
    FeatureMatrix (dense products at any N) or a RowBand, and builds psi
    in that form.

    The fitted surface is evaluated at the recorded actions. The variance
    penalty in the rewards is a cross-sectional scalar, so the regression
    target is conditionally linear in the action: the fitted curvature is
    sampling noise, and chasing its analytic maximizer diverges within a
    few backward steps (measured on the benchmark configuration).

    Returns (WMatrix, q_t). A nonfinite feature or action raises
    ValueError("feature matrix must be finite") from the Gram diagonal.
    """
    psi = _psi(phi_t, actions_t)
    gram = psi.gram()
    if actions_t.size < gram.shape[0]:
        log.warning(
            "fitted-Q step has %d samples for %d coefficients; "
            "relying on the ridge penalty", actions_t.size, gram.shape[0],
        )
    coef = _solve_rows(gram, psi.rhs(rewards_t + gamma * q_next), regularizer)
    return WMatrix(values=coef.reshape(-1, 3).T), psi.fitted(coef)


def run_fqi(dataset: OfflineDataset, basis_spec: BasisSpec,
            regularizer: float | None = None,
            features: np.ndarray | SplineFeatures | SplineSteps | None = None
            ) -> FQISolution:
    """Backward fitted Q iteration over the whole dataset.

    The terminal value column comes from the known payoff; every earlier
    column is fitted from the recorded tuples, discounted by the
    dataset's ``risk.gamma``. The time-0 price is the negative average of
    the initial values. A nonfinite state, action, reward or terminal
    portfolio raises ValueError naming the field. ``features`` is a dense
    (T+1, K, N) cube, SplineFeatures or SplineSteps, read one step at a
    time as the DP reads it: :func:`~qlbs.basis.step_features` gives each
    step as a FeatureMatrix or a RowBand. Without it the pass reads the
    recorded states as SplineSteps on ``basis_spec``, evaluating each
    step's splines when it reaches the step, and stores no cube.
    """
    dataset.check_finite()
    if features is None:
        features = SplineSteps(basis_spec, dataset.states)

    n_paths, n_steps = dataset.n_paths, dataset.n_steps
    q_values = np.zeros((n_paths, n_steps + 1))
    q_values[:, -1] = dataset.terminal_q()
    w_list: list[WMatrix] = [None] * n_steps
    for t in range(n_steps - 1, -1, -1):
        w_list[t], q_values[:, t] = fqi_backward_step(
            dataset.actions[:, t], dataset.rewards[:, t],
            step_features(features, t), q_values[:, t + 1], dataset.risk.gamma,
            regularizer,
        )

    return FQISolution(
        w=tuple(w_list),
        q_values=q_values,
        price_t0=float(-q_values[:, 0].mean()),
    )


def fqi_from_hedges(paths: PathSet, states: StateSeries, hedges: np.ndarray,
                    noise: float, strike: float, risk: RiskParams,
                    basis_spec: BasisSpec,
                    features: np.ndarray | SplineFeatures | SplineSteps | None = None,
                    regularizer: float | None = None
                    ) -> tuple[OfflineDataset, FQISolution]:
    """Fitted Q on ``hedges`` perturbed by noise the path seed fixes and
    closed at expiry; returns the recorded dataset and the solution.

    The hedges are not kept once perturbed: a caller that passes them
    without holding them frees them before the fit."""
    noisy = perturb_actions(hedges, noise, seed=paths.params.seed + 104_729)
    del hedges
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
    Each time step's rows are joined into one string and written in one
    call, so the text held at once is one step's.
    """
    meta = {
        "state_kind": dataset.state_kind.value,
        "strike": repr(dataset.strike),
        "risk_aversion": repr(dataset.risk.risk_aversion),
        "gamma": repr(dataset.risk.gamma),
        "pure_risk": "True",  # the one hedge form, kept so files stay readable
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
        if not dataset.n_paths:
            return  # no rows
        k_text = list(map(str, range(dataset.n_paths)))
        state = list(map(repr, dataset.states[:, 0].tolist()))
        for t in range(dataset.n_steps + 1):
            following = (dataset.terminal_portfolio if t == dataset.n_steps
                         else dataset.states[:, t + 1])
            next_state = list(map(repr, following.tolist()))
            # One expression: the rows and their iterators are freed once
            # written, and do not hold the last step's lists into the next.
            handle.write(f"{t}," + f"\r\n{t},".join(map(",".join, zip(
                k_text, state, map(repr, dataset.actions[:, t].tolist()),
                map(repr, dataset.rewards[:, t].tolist()), next_state))) + "\r\n")
            state = next_state


_META_KEYS = ("state_kind", "strike", "risk_aversion", "gamma", "pure_risk",
              "dt", "mu", "sigma", "n_paths", "n_steps")


def _row_error(source, n_head: int, fallback: str) -> str:
    """Name the first data row, after the ``n_head`` lines of metadata and
    header, that is not six numbers, counting data rows from 1 as the
    loader's other messages do, or give ``fallback`` if every row is. It
    reads the file again, so it runs only after a failed load."""
    width = len(_CSV_COLUMNS)
    with open(source, newline="") as handle:
        # np.loadtxt skips empty lines and does not count them as rows.
        lines = (line.rstrip("\r\n") for line in itertools.islice(handle, n_head, None))
        for number, row in enumerate(filter(None, lines), 1):
            try:
                values = np.loadtxt([row], delimiter=",", comments=None)
            except ValueError:
                values = None
            if values is None or values.size != width:
                return f"data row {number} is not {width} comma-separated numbers: {row!r}"
    return fallback


def load_dataset(source) -> OfflineDataset:
    """Load a dataset written by :func:`save_dataset`.

    The metadata lines precede the header, and each key appears once.
    The metadata is checked before any row is read; the rows are then
    streamed from the file into one table, so the file is never held as
    text. Every (t, k) must appear exactly once; a row count other than
    the stated (n_steps + 1) * n_paths, which is checked before anything
    of the stated size is allocated, a duplicate row, an index outside the
    stated shape, a row that is not six numbers (a ``#`` line among the
    rows included), a last line without a line end (a truncated file), a
    missing or repeated metadata key, a value that does not parse or that
    RiskParams rejects, ``n_paths`` or ``n_steps`` below 1, a ``strike``
    or ``dt`` that is not positive, a ``strike``, ``dt``, ``mu`` or
    ``sigma`` that is not finite, or a ``pure_risk`` other than ``True``,
    the one hedge form, raises ValueError naming the file and the count,
    row or key.
    """
    meta: dict[str, str] = {}
    header = None
    with open(source, newline="") as handle:
        for n_head, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if not line.startswith("#"):
                header = next(csv.reader([line]))
                break
            key, _, value = line.lstrip("# ").partition("=")
            key = key.strip()
            if key in meta:
                raise ValueError(f"{source}: metadata key {key!r} appears twice")
            meta[key] = value.strip()
        if header is None or tuple(header) != _CSV_COLUMNS:
            raise ValueError(f"{source}: unexpected columns {header}")
        missing = [key for key in _META_KEYS if key not in meta]
        if missing:
            raise ValueError(f"{source}: missing metadata key {missing[0]!r}")
        if meta["pure_risk"] != "True":
            raise ValueError(f"{source}: metadata key 'pure_risk' must be True, "
                             f"got {meta['pure_risk']!r}")

        def parse(key, convert):
            try:
                return convert(meta[key])
            except ValueError as err:
                raise ValueError(f"{source}: metadata key {key!r}: {err}") from err

        n_paths, n_steps = parse("n_paths", int), parse("n_steps", int)
        strike, dt = parse("strike", float), parse("dt", float)
        mu, sigma = parse("mu", float), parse("sigma", float)
        for key, value, rule, holds in [("n_paths", n_paths, "at least 1", n_paths >= 1),
                                        ("n_steps", n_steps, "at least 1", n_steps >= 1),
                                        ("strike", strike, "positive", strike > 0),
                                        ("dt", dt, "positive", dt > 0),
                                        ("strike", strike, "finite", math.isfinite(strike)),
                                        ("dt", dt, "finite", math.isfinite(dt)),
                                        ("mu", mu, "finite", math.isfinite(mu)),
                                        ("sigma", sigma, "finite", math.isfinite(sigma))]:
            if not holds:
                raise ValueError(f"{source}: metadata key {key!r} must be {rule}, "
                                 f"got {value!r}")
        risk_aversion, gamma = parse("risk_aversion", float), parse("gamma", float)
        try:
            risk = RiskParams(risk_aversion, gamma)
        except ValueError as err:
            raise ValueError(f"{source}: metadata: {err}") from err
        state_kind = parse("state_kind", StateKind.parse)
        try:
            with warnings.catch_warnings():
                # A file of no rows gets the row-count error below.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
        except ValueError as err:
            raise ValueError(f"{source}: {_row_error(source, n_head, str(err))}") from None
    if table.size and table.shape[1] != len(_CSV_COLUMNS):
        # np.loadtxt raises only where the column count changes, so rows
        # that all have the same wrong count load as a table of that width.
        raise ValueError(f"{source}: " + _row_error(
            source, n_head, f"data rows have {table.shape[1]} columns"))
    table = table.reshape(-1, len(_CSV_COLUMNS))
    # save_dataset ends every row with a line end. A file cut inside its
    # last row may still parse, with that row's last number shortened.
    with open(source, "rb") as raw:
        raw.seek(-1, os.SEEK_END)
        if raw.read(1) not in b"\r\n":
            raise ValueError(f"{source}: the last line has no line end; the file "
                             "is truncated")
    # Checked before any array of the declared size: with this count, no
    # index outside the shape and no duplicate, every (t, k) appears once.
    n_cells = (n_steps + 1) * n_paths
    if len(table) != n_cells:
        raise ValueError(f"{source}: {len(table)} data rows, but {n_steps + 1} times "
                         f"x {n_paths} paths need {n_cells}")
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
    counts = np.bincount(cell, minlength=n_cells)
    if np.any(counts > 1):
        repeats = np.flatnonzero(cell == np.argmax(counts > 1))
        raise ValueError(f"{source}: duplicate row for (t={t[repeats[0]]}, "
                         f"k={k[repeats[0]]}) at data rows {repeats[0] + 1} "
                         f"and {repeats[1] + 1}")

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
        state_kind=state_kind,
        strike=strike,
        risk=risk,
        dt=dt,
        mu=mu,
        sigma=sigma,
    )
