"""Comparison strategies: Cover's universal portfolio and the analytic
optimal growth rate under geometric Brownian motion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import CollateralError, as_path

__all__ = [
    "UniversalPortfolioConfig",
    "universal_portfolio",
    "universal_portfolio_curves",
    "kelly_gbm_rate",
]


@dataclass(frozen=True)
class UniversalPortfolioConfig:
    """Grid of M constant-proportion accounts over the prudent interval.

    Accounts sit at the midpoints of M equal-width subintervals of
    [-1, 1].  include_training prepends the two outcomes {-1, +1} to
    every account's product (the trained variant).
    """

    M: int = 100
    include_training: bool = False

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("need at least two accounts")

    @property
    def account_alphas(self) -> np.ndarray:
        edges = np.linspace(-1.0, 1.0, self.M + 1)
        return 0.5 * (edges[:-1] + edges[1:])


# Rounds per block of universal_portfolio_curves.  Each block array is
# _UP_ROWS x M floats, so the working memory does not grow with the path.
_UP_ROWS = 128


def universal_portfolio(config: UniversalPortfolioConfig, path) -> np.ndarray:
    """Per-round capital K^U_n = (1/M) sum_m prod_i (1 + alpha_m x_i).

    One-dimensional outcomes only; the multi-account average is computed
    exactly as the mean over accounts so it can be reproduced bit for bit
    from M independent constant-strategy runs.  Accounts whose capital
    hits zero (boundary alphas with trained variant) simply stop
    contributing.  The curve is the one of universal_portfolio_curves that
    config.include_training selects.
    """
    plain, trained = universal_portfolio_curves(config.M, path)
    return trained if config.include_training else plain


def universal_portfolio_curves(M: int, path) -> tuple[np.ndarray, np.ndarray]:
    """The universal portfolio of M accounts without and with training.

    Both curves come from one pass over blocks of _UP_ROWS rounds.  A
    block holds the growth factors 1 + alpha_m x_i below a row with each
    account's capital before the block, and one np.cumprod down the block
    turns them into capitals, so every product is the one np.cumprod makes
    over the whole (n, M) array.  Each row's mean over the accounts gives
    the untrained curve and, after the training factor
    (1 - alpha_m)(1 + alpha_m), the trained one.  A negative growth
    factor raises CollateralError.
    """
    path = as_path(path, 1)[:, 0]
    alphas = UniversalPortfolioConfig(M=M).account_alphas
    factor = (1.0 - alphas) * (1.0 + alphas)
    n = path.size
    plain, trained = np.empty(n), np.empty(n)
    caps = np.ones((min(n, _UP_ROWS) + 1, M))
    scaled = np.empty((caps.shape[0] - 1, M))
    for lo in range(0, n, _UP_ROWS):
        hi = min(lo + _UP_ROWS, n)
        block = caps[: hi - lo + 1]
        np.multiply.outer(path[lo:hi], alphas, out=block[1:])
        block[1:] += 1.0
        if block[1:].min() < 0.0:
            raise CollateralError("an account's growth factor went negative")
        np.cumprod(block, axis=0, out=block)
        np.mean(block[1:], axis=1, out=plain[lo:hi])
        np.multiply(block[1:], factor, out=scaled[: hi - lo])
        np.mean(scaled[: hi - lo], axis=1, out=trained[lo:hi])
        caps[0] = block[-1]
    return plain, trained


def _gbm_params(mu, sigma):
    """mu as a vector and sigma as a matrix of floats: the one check of
    the parameters of geometric Brownian motion.  A NaN or infinite entry
    raises ValueError naming mu or sigma, and a singular sigma raises
    LinAlgError."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value.tolist()}")
    if abs(np.linalg.det(sigma)) == 0.0:
        raise np.linalg.LinAlgError("volatility matrix is singular")
    return mu, sigma


def kelly_gbm_rate(mu, sigma):
    """Optimal exponential growth rate 0.5 mu' (sigma sigma')^{-1} mu.

    mu and sigma are checked by _gbm_params, as gen_gbm checks them."""
    mu, sigma = _gbm_params(mu, sigma)
    return 0.5 * float(mu @ np.linalg.solve(sigma @ sigma.T, mu))
