"""Pricing and hedging European puts with regression-based Q-learning.

Two solvers share the same B-spline feature machinery: a model-based
backward dynamic program over the replicating portfolio, and a model-free
fitted Q iteration trained on an offline dataset of noisy hedges. Both
are benchmarked against the closed-form Black-Scholes-Merton put.
"""
from .basis import (
    BasisSpec,
    FeatureMatrix,
    feature_cube,
    make_spec,
    spec_for_states,
)
from .bsm import BsmQuote, bsm_put_delta, bsm_put_price, bsm_put_quote, norm_cdf
from .dp import (
    DPSolution,
    RiskParams,
    compute_rewards,
    fit_hedge_coefficients,
    fit_q_coefficients,
    rollback_portfolio,
    run_model_based,
    run_model_based_batch,
    terminal_conditions,
)
from .fqi import (
    FQISolution,
    OfflineDataset,
    WMatrix,
    build_offline_dataset,
    fqi_backward_step,
    greedy_action,
    load_dataset,
    perturb_actions,
    run_dp_and_fqi,
    run_fqi,
    save_dataset,
)
from .experiments import (
    ResultTable,
    Scenario,
    ScenarioConfig,
    emit_report,
    load_report,
    run_scenario,
    terminal_wealth,
)
from .market import (
    BENCHMARK_STATE_KINDS,
    Increments,
    MarketParams,
    PathSet,
    StateKind,
    StateSeries,
    compute_states,
    price_increments,
    save_paths,
    simulate_gbm,
    table_to_pathset,
)
from .numerics import (
    RankDeficientError,
    RidgeProblem,
    ridge_solve,
    scaled_regularizer,
    solve_normal_equations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
