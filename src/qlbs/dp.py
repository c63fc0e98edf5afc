"""Model-based solver: backward dynamic programming over the replicating portfolio.

Each backward step fits the hedge coefficients from the demeaned price
increments, rolls the portfolio back under the self-financing constraint,
turns the portfolio change into a reward net of the variance penalty, and
fits the value coefficients. The time-0 put price is the negative average
of the initial action values. Contracts on the same paths and features
share each step's Gram matrices and their factorizations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSpec,
    FeatureMatrix,
    SplineFeatures,
    StepFeatures,
    feature_cube,
    spec_for_states,
    step_features,
)
from .market import PathSet, StateKind, compute_states, price_increments
from .numerics import DEFAULT_RIDGE_REL, scaled_regularizer, solve_normal_equations


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion and discounting for the variance-penalized objective.

    ``pure_risk`` drops the drift-seeking term from the hedge (the default
    for benchmark reproduction); the full hedge needs a strictly positive
    risk aversion because that term scales with 1/(2*lambda*gamma).
    """

    risk_aversion: float
    gamma: float
    pure_risk: bool = True

    def __post_init__(self):
        if self.risk_aversion < 0:
            raise ValueError("risk_aversion must be nonnegative")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not self.pure_risk and self.risk_aversion == 0:
            raise ValueError("the full hedge needs risk_aversion > 0")

    @classmethod
    def from_rate(cls, risk_aversion: float, r: float, dt: float,
                  pure_risk: bool = True) -> "RiskParams":
        return cls(risk_aversion=risk_aversion, gamma=math.exp(-r * dt),
                   pure_risk=pure_risk)


@dataclass(frozen=True)
class DPSolution:
    """Full output of the backward pass.

    Matrices are (n_paths, n_steps + 1); ``phi`` and ``omega`` hold the
    hedge and value coefficients for t = 0 .. T-1 (shape (T, n_basis)).
    Cash is the bank-account leg portfolio - hedge * price. The arrays are
    views into the time-major work arrays of the pass that solved them,
    so every solution of a batch shares, and keeps alive, those arrays.
    """

    hedges: np.ndarray
    portfolio: np.ndarray
    rewards: np.ndarray
    q_values: np.ndarray
    cash: np.ndarray
    phi: np.ndarray
    omega: np.ndarray
    price_t0: float
    hedge_t0: float


def _contract_risk(risk) -> tuple[float, bool, float | np.ndarray]:
    """Discount factor, hedge form and risk aversion of one or many contracts.

    ``risk`` is one RiskParams, or a sequence with one per contract; a
    sequence must share gamma and pure_risk, and its risk aversions come
    back as a (C, 1) column that broadcasts against (C, K) arrays.
    """
    if isinstance(risk, RiskParams):
        return risk.gamma, risk.pure_risk, risk.risk_aversion
    risks = tuple(risk)
    if not risks:
        raise ValueError("need at least one contract")
    if len({(r.gamma, r.pure_risk) for r in risks}) > 1:
        raise ValueError("batched contracts must share gamma and pure_risk")
    aversions = np.array([r.risk_aversion for r in risks])[:, np.newaxis]
    return risks[0].gamma, risks[0].pure_risk, aversions


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
    _, _, risk_aversion = _contract_risk(risk)
    payoff = np.maximum(strike[..., np.newaxis] - paths.prices[:, -1], 0.0)
    mean = payoff.mean(axis=-1, keepdims=True)
    penalty = risk_aversion * payoff.var(axis=-1, keepdims=True)
    pi_hat = payoff - mean
    hedge = np.zeros_like(payoff)
    reward = np.full_like(payoff, -penalty)
    q_value = -payoff - penalty
    return payoff, pi_hat, hedge, reward, q_value


def _effective_ridge(gram: np.ndarray, regularizer: float | None) -> float:
    """Absolute ridge weight: an explicit value wins, else the scaled default."""
    if regularizer is not None:
        return regularizer
    return scaled_regularizer(gram, DEFAULT_RIDGE_REL)


def _solve_rows(gram: np.ndarray, rhs: np.ndarray,
                regularizer: float | None) -> np.ndarray:
    """Coefficients for each row of ``rhs`` from one factorization of ``gram``.

    A (C, N) right-hand side gives (C, N) coefficients, a (N,) one gives (N,).
    """
    return solve_normal_equations(gram, rhs.T, _effective_ridge(gram, regularizer)).T


def _step(phi_t: FeatureMatrix | StepFeatures) -> StepFeatures:
    """The step's features as StepFeatures; a pass's own are kept, with their band."""
    return phi_t if isinstance(phi_t, StepFeatures) else StepFeatures(phi_t.values)


def fit_hedge_coefficients(phi_t: FeatureMatrix, delta_s: np.ndarray,
                           delta_s_hat: np.ndarray, pi_hat_next: np.ndarray,
                           risk, regularizer: float | None = None) -> np.ndarray:
    """Hedge coefficients from the increment-weighted normal equations.

    Gram matrix: sum_k phi_k phi_k^T (dShat_k)^2. Right-hand side couples
    the demeaned next portfolio with the increments; unless ``pure_risk``
    is set it also carries the drift term delta_s / (2 lambda gamma).
    ``pi_hat_next`` is (K,) for one contract (``risk`` one RiskParams) or
    (C, K) for C contracts (``risk`` a sequence); the Gram matrix is
    shared, so the contracts cost one factorization.
    """
    gamma, pure_risk, risk_aversion = _contract_risk(risk)
    step = _step(phi_t)
    gram = step.gram(delta_s_hat)
    target = pi_hat_next * delta_s_hat
    if not pure_risk:
        target = target + delta_s / (2.0 * risk_aversion * gamma)
    return _solve_rows(gram, step.rhs(target), regularizer)


def optimal_hedge_values(phi_t: FeatureMatrix, coefficients: np.ndarray) -> np.ndarray:
    """Per-path hedge: (N,) coefficients give (K,) hedges, (C, N) give (C, K)."""
    return _step(phi_t).fitted(coefficients)


def rollback_portfolio(pi_next: np.ndarray, hedge: np.ndarray,
                       delta_s: np.ndarray, gamma: float) -> np.ndarray:
    """One self-financing step backward: gamma * (pi_next - hedge * delta_s)."""
    return gamma * (pi_next - hedge * delta_s)


def compute_rewards(pi_next: np.ndarray, pi_t: np.ndarray, gamma: float,
                    risk_aversion) -> np.ndarray:
    """Per-path reward: discounted portfolio change minus the variance penalty.

    The penalty uses the cross-sectional (population) variance of the
    current portfolio, a single scalar shared by all paths. Portfolios of
    shape (C, K) take one variance per row and a (C, 1) risk aversion.
    """
    var = np.var(pi_t, axis=-1, keepdims=True)
    return gamma * pi_next - pi_t - risk_aversion * var


def fit_q_coefficients(phi_t: FeatureMatrix, rewards_t: np.ndarray,
                       q_next: np.ndarray, gamma: float,
                       regularizer: float | None = None) -> np.ndarray:
    """Value coefficients: regress reward + gamma * next value on the features.

    (K,) inputs give (N,) coefficients; (C, K) inputs give (C, N) from one
    factorization of the shared Gram matrix.
    """
    step = _step(phi_t)
    return _solve_rows(step.gram(), step.rhs(rewards_t + gamma * q_next), regularizer)


def run_model_based(paths: PathSet, state_kind: StateKind, strike: float,
                    risk: RiskParams, basis_spec: BasisSpec | None = None,
                    regularizer: float | None = None,
                    features: np.ndarray | SplineFeatures | None = None) -> DPSolution:
    """Backward pass from expiry to time 0 for one contract.

    The one-contract case of :func:`run_model_based_batch`.
    """
    return run_model_based_batch(paths, state_kind, [(strike, risk)],
                                 basis_spec, regularizer, features)[0]


def run_model_based_batch(paths: PathSet, state_kind: StateKind, contracts,
                          basis_spec: BasisSpec | None = None,
                          regularizer: float | None = None,
                          features: np.ndarray | SplineFeatures | None = None
                          ) -> list[DPSolution]:
    """Backward pass from expiry to time 0 for many contracts on shared paths.

    ``contracts`` is a sequence of (strike, RiskParams) that share gamma
    and pure_risk; mixed ones raise ValueError. Neither Gram matrix of a
    step depends on the strike or the risk aversion, so each step builds
    and factors them once and solves every contract as one more
    right-hand side. Work arrays are time-major, (T+1, C, K), so a step
    reads and writes contiguous (C, K) slabs.

    Each step's features are read unchecked (see StepFeatures). A large
    basis whose rows are narrow bands, such as N = 100 splines, assembles
    both Grams from each row's band; smaller ones use one dense product
    each. Given SplineFeatures, such a step reads the bands directly and
    forms right-hand sides and fitted values band-wise too, without a
    (K, N) slab. Other steps densify their slab; below 50 functions their
    numbers equal a dense cube's.

    When no basis spec is given, the default clamped basis is built over
    the global range of the chosen state. Precomputed features, a dense
    (T+1, K, N) cube or SplineFeatures, may be passed to reuse work
    across runs that share paths and basis; a dense cube is read as
    float64. Returns one solution per contract, in order.
    """
    strikes = np.array([float(strike) for strike, _ in contracts])
    risks = tuple(risk for _, risk in contracts)
    gamma, _, risk_aversion = _contract_risk(risks)
    if features is None:
        states = compute_states(paths, state_kind)
        if basis_spec is None:
            basis_spec = spec_for_states(states.values)
        features = feature_cube(basis_spec, states.values)
    if not isinstance(features, SplineFeatures):
        features = np.asarray(features, dtype=float)
    # The rate implied by the discount factor, so increments and
    # discounting always agree even for loaded path fixtures.
    rate = -math.log(gamma) / paths.dt
    increments = price_increments(paths, rate)

    n_steps = paths.n_steps
    shape = (n_steps + 1, strikes.size, paths.n_paths)
    hedges = np.zeros(shape)
    portfolio = np.zeros(shape)
    rewards = np.zeros(shape)
    q_values = np.zeros(shape)
    n_basis = features.shape[2]
    phi = np.zeros((n_steps, strikes.size, n_basis))
    omega = np.zeros_like(phi)

    (portfolio[-1], pi_hat_next, hedges[-1], rewards[-1],
     q_values[-1]) = terminal_conditions(paths, strikes, risks)

    for t in range(n_steps - 1, -1, -1):
        phi_t = step_features(features, t)
        ds = increments.delta_s[:, t]
        ds_hat = increments.delta_s_hat[:, t]

        phi[t] = fit_hedge_coefficients(phi_t, ds, ds_hat, pi_hat_next, risks,
                                        regularizer)
        hedges[t] = optimal_hedge_values(phi_t, phi[t])
        portfolio[t] = rollback_portfolio(portfolio[t + 1], hedges[t], ds, gamma)
        rewards[t] = compute_rewards(portfolio[t + 1], portfolio[t], gamma,
                                     risk_aversion)
        omega[t] = fit_q_coefficients(phi_t, rewards[t], q_values[t + 1], gamma,
                                      regularizer)
        q_values[t] = phi_t.fitted(omega[t])
        pi_hat_next = portfolio[t] - portfolio[t].mean(axis=-1, keepdims=True)

    cash = hedges * paths.prices.T[:, np.newaxis, :]
    np.subtract(portfolio, cash, out=cash)
    return [
        DPSolution(
            hedges=hedges[:, c].T,
            portfolio=portfolio[:, c].T,
            rewards=rewards[:, c].T,
            q_values=q_values[:, c].T,
            cash=cash[:, c].T,
            phi=phi[:, c],
            omega=omega[:, c],
            price_t0=float(-q_values[0, c].mean()),
            hedge_t0=float(hedges[0, c].mean()),
        )
        for c in range(strikes.size)
    ]
