"""Model-based solver: backward dynamic programming over the replicating portfolio.

Each backward step fits the hedge coefficients from the demeaned price
increments, rolls the portfolio back under the self-financing constraint,
turns the portfolio change into a reward net of the variance penalty, and
fits the value coefficients. The time-0 put price is the negative average
of the initial action values. Contracts on the same paths and features
share each step's Gram matrices and their factorizations.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    BasisSpec,
    FeatureMatrix,
    SplineFeatures,
    SplineSteps,
    spec_for_states,
    step_features,
)
from .market import PathSet, StateKind, _delta_s, compute_states
from .numerics import RowBand, _solve_rows


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion and discounting for the variance-penalized objective.

    The hedge is Halperin's pure-risk form, which minimizes the variance
    of the next portfolio alone, so the risk aversion enters only the
    rewards and values and may be zero.
    """

    risk_aversion: float
    gamma: float

    def __post_init__(self):
        if not self.risk_aversion >= 0:  # nan too
            raise ValueError("risk_aversion must be nonnegative")
        if math.isinf(self.risk_aversion):
            raise ValueError("risk_aversion must be finite")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")

    @classmethod
    def from_rate(cls, risk_aversion: float, r: float, dt: float) -> "RiskParams":
        return cls(risk_aversion=risk_aversion, gamma=math.exp(-r * dt))


@dataclass(frozen=True, eq=False)
class _PassOutput:
    """What one backward pass leaves its solutions: the features it was
    solved on, its contracts and its (T, C, N) hedge and value
    coefficients. The (T+1, C, K) hedges and action values are evaluated
    from them for the whole batch on first read, each on its own, with the
    products the pass formed, and are read-only. SplineSteps features
    evaluate their splines again for each such read."""

    paths: PathSet
    features: np.ndarray | SplineFeatures | SplineSteps
    strikes: np.ndarray
    risks: tuple[RiskParams, ...]
    phi: np.ndarray
    omega: np.ndarray

    def _evaluated(self, coefficients: np.ndarray, terminal: np.ndarray) -> np.ndarray:
        out = np.empty((self.paths.n_steps + 1,) + terminal.shape)
        for t in range(self.paths.n_steps):
            out[t] = step_features(self.features, t).fitted(coefficients[t])
        out[-1] = terminal
        out.setflags(write=False)
        return out

    @functools.cached_property
    def hedges(self) -> np.ndarray:
        return self._evaluated(self.phi, np.zeros((self.strikes.size, self.paths.n_paths)))

    @functools.cached_property
    def q_values(self) -> np.ndarray:
        terminal_q = terminal_conditions(self.paths, self.strikes, self.risks)[4]
        return self._evaluated(self.omega, terminal_q)


@dataclass(frozen=True)
class DPSolution:
    """Output of the backward pass for one contract on ``paths``.

    ``phi`` and ``omega`` hold the hedge and value coefficients for
    t = 0 .. T-1; the solution also holds the ``features`` it was solved
    on, shared by every solution of its batch: a dense cube,
    SplineFeatures, or, when the pass built its own, SplineSteps, which
    evaluate each step's splines when ``hedges`` or ``q_values`` is first
    read, bit for bit as the pass did. The per-path matrices are
    (n_paths, n_steps + 1), read-only, and evaluated from these on first
    read: ``hedges`` and ``q_values`` for the whole batch at once (the
    terminal hedge is 0), bit for bit as the pass formed them, and
    ``portfolio``, ``rewards`` and ``cash`` (portfolio - hedge * price)
    rolled back under ``hedges``.
    """

    phi: np.ndarray
    omega: np.ndarray
    price_t0: float
    hedge_t0: float
    paths: PathSet
    strike: float
    risk: RiskParams
    _output: _PassOutput = field(repr=False)
    _contract: int = field(repr=False)

    features = property(lambda self: self._output.features)
    hedges = property(lambda self: self._output.hedges[:, self._contract].T)
    q_values = property(lambda self: self._output.q_values[:, self._contract].T)

    @functools.cached_property
    def _rolled(self) -> tuple[np.ndarray, np.ndarray]:
        rolled = portfolio_and_rewards(self.paths, self.strike, self.hedges, self.risk)
        for matrix in rolled:
            matrix.setflags(write=False)
        return rolled

    portfolio = property(lambda self: self._rolled[0])
    rewards = property(lambda self: self._rolled[1])

    @functools.cached_property
    def cash(self) -> np.ndarray:
        cash = self.portfolio - self.hedges * self.paths.prices
        cash.setflags(write=False)
        return cash


def _contract_risk(risk) -> tuple[float, float | np.ndarray]:
    """Discount factor and risk aversion of one or many contracts.

    ``risk`` is one RiskParams, or a sequence with one per contract; a
    sequence must share gamma, and its risk aversions come back as a
    (C, 1) column that broadcasts against (C, K) arrays.
    """
    if isinstance(risk, RiskParams):
        return risk.gamma, risk.risk_aversion
    risks = tuple(risk)
    if not risks:
        raise ValueError("need at least one contract")
    if len({r.gamma for r in risks}) > 1:
        raise ValueError("batched contracts must share gamma")
    aversions = np.array([r.risk_aversion for r in risks])[:, np.newaxis]
    return risks[0].gamma, aversions


def terminal_conditions(paths: PathSet, strike, risk):
    """Terminal portfolio, its demeaned version, hedge, reward and value.

    The portfolio at expiry equals the put payoff, the position is closed
    (hedge 0), and the reward/value carry the variance penalty. A scalar
    strike with one RiskParams gives (K,) arrays; C strikes with C
    RiskParams give (C, K) arrays.
    """
    strike = np.asarray(strike, dtype=float)
    if np.any(strike <= 0):
        raise ValueError("strike must be positive")
    _, risk_aversion = _contract_risk(risk)
    payoff = np.maximum(strike[..., np.newaxis] - paths.prices[:, -1], 0.0)
    mean = payoff.mean(axis=-1, keepdims=True)
    penalty = risk_aversion * payoff.var(axis=-1, keepdims=True)
    pi_hat = payoff - mean
    hedge = np.zeros_like(payoff)
    reward = np.full_like(payoff, -penalty)
    q_value = -payoff - penalty
    return payoff, pi_hat, hedge, reward, q_value


def fit_hedge_coefficients(phi_t: FeatureMatrix | RowBand, delta_s: np.ndarray,
                           delta_s_hat: np.ndarray, pi_hat_next: np.ndarray,
                           risk, regularizer: float | None = None,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Pure-risk hedge coefficients from the increment-weighted normal equations.

    Gram matrix: sum_k phi_k phi_k^T (dShat_k)^2; right-hand side: sum_k
    phi_k pi_hat_next_k dShat_k, the demeaned next portfolio coupled with
    the demeaned increments. ``delta_s`` and ``risk`` do not enter the
    fit; they stay in the signature for its callers. ``pi_hat_next`` is
    (K,) for one contract or (C, K) for C contracts; the Gram matrix is
    shared, so the contracts cost one factorization. The regression
    target pi_hat_next * dShat is written into ``out``, which may be
    ``pi_hat_next`` itself, or, when it is None, into a new array.
    Like the other per-step functions, it uses the products of the step
    it is given: dense for a FeatureMatrix at any N, banded for a RowBand.
    """
    target = np.multiply(pi_hat_next, delta_s_hat, out=out)
    return _solve_rows(phi_t.gram(delta_s_hat), phi_t.rhs(target), regularizer)


def rollback_portfolio(pi_next: np.ndarray, hedge: np.ndarray,
                       delta_s: np.ndarray, gamma: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """One self-financing step backward: gamma * (pi_next - hedge * delta_s).

    The result is written into ``out`` and returned; ``out`` may be
    ``hedge`` itself, not ``pi_next``. None returns a new array.
    """
    held = np.multiply(hedge, delta_s, out=out)
    return np.multiply(gamma, np.subtract(pi_next, held, out=out), out=out)


def compute_rewards(pi_next: np.ndarray, pi_t: np.ndarray, gamma: float,
                    risk_aversion, out: np.ndarray | None = None) -> np.ndarray:
    """Per-path reward: discounted portfolio change minus the variance penalty.

    The penalty uses the cross-sectional (population) variance of the
    current portfolio, a single scalar shared by all paths. Portfolios of
    shape (C, K) take one variance per row and a (C, 1) risk aversion.
    The rewards are written into ``out`` and returned; ``out`` may be
    ``pi_next`` itself, not ``pi_t``. None returns a new array.
    """
    var = np.var(pi_t, axis=-1, keepdims=True)
    change = np.subtract(np.multiply(gamma, pi_next, out=out), pi_t, out=out)
    return np.subtract(change, risk_aversion * var, out=out)


def _delta_s_at(paths: PathSet, gamma: float) -> np.ndarray:
    # The rate implied by gamma, so increments and discounting always agree.
    return _delta_s(paths, -math.log(gamma) / paths.dt)


def portfolio_and_rewards(paths: PathSet, strike: float, actions: np.ndarray,
                          risk: RiskParams) -> tuple[np.ndarray, np.ndarray]:
    """Portfolio and rewards, each (n_paths, n_steps + 1), of holding ``actions``:
    the payoff rolled back step by step with the backward pass's arithmetic."""
    payoff, _, _, terminal_reward, _ = terminal_conditions(paths, strike, risk)
    delta_s = _delta_s_at(paths, risk.gamma)
    portfolio = np.empty((paths.n_steps + 1, paths.n_paths))
    rewards = np.empty_like(portfolio)
    portfolio[-1], rewards[-1] = payoff, terminal_reward
    for t in range(paths.n_steps - 1, -1, -1):
        rollback_portfolio(portfolio[t + 1], actions[:, t], delta_s[:, t], risk.gamma,
                           out=portfolio[t])
        compute_rewards(portfolio[t + 1], portfolio[t], risk.gamma, risk.risk_aversion,
                        out=rewards[t])
    return portfolio.T, rewards.T


def fit_q_coefficients(phi_t: FeatureMatrix | RowBand, rewards_t: np.ndarray,
                       q_next: np.ndarray, gamma: float,
                       regularizer: float | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Value coefficients: regress reward + gamma * next value on the features.

    (K,) inputs give (N,) coefficients; (C, K) inputs give (C, N) from one
    factorization of the shared Gram matrix. The regression target is
    written into ``out``, which may be ``q_next`` itself, not
    ``rewards_t``, or, when it is None, into a new array.
    """
    target = np.add(rewards_t, np.multiply(gamma, q_next, out=out), out=out)
    return _solve_rows(phi_t.gram(), phi_t.rhs(target), regularizer)


def run_model_based(paths: PathSet, state_kind: StateKind, strike: float,
                    risk: RiskParams, basis_spec: BasisSpec | None = None,
                    regularizer: float | None = None,
                    features: np.ndarray | SplineFeatures | SplineSteps | None = None
                    ) -> DPSolution:
    """Backward pass from expiry to time 0 for one contract.

    The one-contract case of :func:`run_model_based_batch`.
    """
    return run_model_based_batch(paths, state_kind, [(strike, risk)],
                                 basis_spec, regularizer, features)[0]


def run_model_based_batch(paths: PathSet, state_kind: StateKind, contracts,
                          basis_spec: BasisSpec | None = None,
                          regularizer: float | None = None,
                          features: np.ndarray | SplineFeatures | SplineSteps | None = None
                          ) -> list[DPSolution]:
    """Backward pass from expiry to time 0 for many contracts on shared paths.

    ``contracts`` is a sequence of (strike, RiskParams) that share the
    discount factor gamma; mixed ones raise ValueError. Neither Gram
    matrix of a step depends on the strike or the risk aversion, so each
    step builds and factors them once and solves every contract as one
    more right-hand side. Its per-path work is four (C, K) slabs,
    allocated once and rewritten in place each step: the portfolio, its
    demeaned copy, the action values, and a work slab that takes the
    hedge, then the rolled-back portfolio; the rewards overwrite the
    portfolio they are formed from, and the slabs swap at the end of the
    step. Beside them it holds the (K, T) increments, demeaning one column
    per step, and one step's features, released before the next step's
    are read. It stores only the (T, C, N) coefficients and takes the
    time-0 price and hedge from the last slabs. Solutions hold the
    features and evaluate every per-path matrix on first read (see
    DPSolution).

    Each step's features are read unchecked, in the one form
    :func:`~qlbs.basis.step_features` chooses: a large basis whose rows
    are narrow bands, such as N = 100 splines, forms its Grams,
    right-hand sides and fitted values from each row's band, without a
    (K, N) slab; every other step uses dense products. So a dense cube
    and SplineFeatures of the same numbers give the same solution.

    Without ``features`` the pass computes the chosen state and reads it
    as SplineSteps on ``basis_spec``, or, when no basis spec is given
    either, on the default clamped basis over the state's global range:
    each step's splines are evaluated when the pass reaches it, and no
    cube is stored. Features may be passed instead: SplineSteps, or,
    to reuse work across runs that share paths and basis, a stored dense
    (T+1, K, N) cube or SplineFeatures; a dense cube is read as float64
    one step at a time. All three give the same numbers. Returns one
    solution per contract, in order.
    """
    strikes = np.array([float(strike) for strike, _ in contracts])
    risks = tuple(risk for _, risk in contracts)
    gamma, risk_aversion = _contract_risk(risks)
    if features is None:
        states = compute_states(paths, state_kind)
        if basis_spec is None:
            basis_spec = spec_for_states(states.values)
        features = SplineSteps(basis_spec, states.values)
    delta_s = _delta_s_at(paths, gamma)
    delta_s_mean = delta_s.mean(axis=0)

    n_steps = paths.n_steps
    phi = np.zeros((n_steps, strikes.size, features.shape[2]))
    omega = np.zeros_like(phi)

    # Hedges, values and the portfolio are needed only one step back, so
    # the pass holds four (C, K) slabs and rewrites them in place; the
    # terminal hedge and reward are never read.
    terminal = terminal_conditions(paths, strikes, risks)
    pi_next, pi_hat_next, q_next = terminal[0], terminal[1], terminal[4]
    del terminal
    work = np.empty_like(pi_next)
    for t in range(n_steps - 1, -1, -1):
        phi_t = step_features(features, t)
        ds = delta_s[:, t]
        ds_hat = ds - delta_s_mean[t]

        phi[t] = fit_hedge_coefficients(phi_t, ds, ds_hat, pi_hat_next, risks,
                                        regularizer, out=pi_hat_next)
        work[...] = phi_t.fitted(phi[t])
        if t == 0:
            hedge_t0 = [float(row.mean()) for row in work]
        pi_t = rollback_portfolio(pi_next, work, ds, gamma, out=work)
        rewards = compute_rewards(pi_next, pi_t, gamma, risk_aversion, out=pi_next)
        omega[t] = fit_q_coefficients(phi_t, rewards, q_next, gamma, regularizer,
                                      out=q_next)
        q_next[...] = phi_t.fitted(omega[t])
        np.subtract(pi_t, pi_t.mean(axis=-1, keepdims=True), out=pi_hat_next)
        pi_next, work = pi_t, rewards
        # Freed before the next step's splines are evaluated.
        del phi_t

    output = _PassOutput(paths, features, strikes, risks, phi, omega)
    return [
        DPSolution(
            phi=phi[:, c],
            omega=omega[:, c],
            price_t0=float(-q_next[c].mean()),
            hedge_t0=hedge_t0[c],
            paths=paths, strike=float(strikes[c]), risk=risks[c],
            _output=output, _contract=c,
        )
        for c in range(strikes.size)
    ]
