"""Sequential optimizing betting strategies for bounded forecasting games.

A library for log-optimal sequential betting over bounded outcome
vectors: exact capital accounting, a Newton solver for the hindsight
constant-proportion optimum, the sequential strategy that bets last
round's optimum, deficiency and law-of-large-numbers diagnostics, a
limit-order embedding of continuous price paths, an information
criterion for choosing the number of betting items, and a universal
portfolio baseline.
"""

from .baselines import (
    UniversalPortfolioConfig,
    constant_strategy_capital,
    kelly_gbm_rate,
    universal_portfolio,
    universal_portfolio_curves,
)
from .continuous import (
    Embedding,
    PricePath,
    embed,
    gen_fbm,
    gen_gbm,
    girsanov_rate_experiment,
    holder_experiment,
)
from .domain import (
    CapitalLedger,
    CollateralError,
    Domain,
    GameConfig,
    InvariantError,
    TrainingSet,
    as_path,
    make_training,
    running_moments,
)
from .model_select import NestedGameReport, select_dimension
from .optimizer import (
    PhiProblem,
    PhiSolution,
    RiskNeutralDist,
    SolverError,
    appendix_yn,
    kl_capital_identity,
    risk_neutral,
    solve_phi,
)
from .sos import (
    SosResult,
    deficiency_bounds,
    deficiency_constants,
    slln2_ratio,
    slln_ratio,
    sos_capital_fast,
    sos_run,
)
from .transform import ReturnTransform, read_price_csv, transform_returns

__version__ = "0.1.0"

__all__ = [
    "CapitalLedger",
    "CollateralError",
    "Domain",
    "Embedding",
    "GameConfig",
    "InvariantError",
    "NestedGameReport",
    "PhiProblem",
    "PhiSolution",
    "PricePath",
    "ReturnTransform",
    "RiskNeutralDist",
    "SolverError",
    "SosResult",
    "TrainingSet",
    "UniversalPortfolioConfig",
    "appendix_yn",
    "as_path",
    "constant_strategy_capital",
    "deficiency_bounds",
    "deficiency_constants",
    "embed",
    "gen_fbm",
    "gen_gbm",
    "girsanov_rate_experiment",
    "holder_experiment",
    "kelly_gbm_rate",
    "kl_capital_identity",
    "make_training",
    "read_price_csv",
    "risk_neutral",
    "running_moments",
    "select_dimension",
    "slln2_ratio",
    "slln_ratio",
    "solve_phi",
    "sos_capital_fast",
    "sos_run",
    "transform_returns",
    "universal_portfolio",
    "universal_portfolio_curves",
]
