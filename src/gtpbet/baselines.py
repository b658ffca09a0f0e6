"""Comparison strategies: fixed proportions, Cover's universal portfolio,
and the analytic optimal growth rate under geometric Brownian motion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import CollateralError, as_path

__all__ = [
    "UniversalPortfolioConfig",
    "constant_strategy_capital",
    "universal_portfolio",
    "kelly_gbm_rate",
]


def constant_strategy_capital(alpha, path) -> float:
    """Final log capital (nats) of the constant proportion alpha."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    path = as_path(path, alpha.size)
    r = 1.0 + path @ alpha
    bad = np.nonzero(r <= 0.0)[0]
    if bad.size:
        raise CollateralError(f"collateral violated at round {bad[0] + 1}")
    return float(np.sum(np.log(r)))


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


def universal_portfolio(config: UniversalPortfolioConfig, path) -> np.ndarray:
    """Per-round capital K^U_n = (1/M) sum_m prod_i (1 + alpha_m x_i).

    One-dimensional outcomes only; the multi-account average is computed
    exactly as the mean over accounts so it can be reproduced bit for bit
    from M independent constant-strategy runs.  Accounts whose capital
    hits zero (boundary alphas with trained variant) simply stop
    contributing.
    """
    path = as_path(path, 1)[:, 0]
    alphas = config.account_alphas
    rounds = path[:, None] * alphas[None, :] + 1.0  # (n, M)
    if np.any(rounds < 0.0):
        raise CollateralError("an account's growth factor went negative")
    caps = np.cumprod(rounds, axis=0)
    if config.include_training:
        caps = caps * ((1.0 - alphas) * (1.0 + alphas))[None, :]
    return caps.mean(axis=1)


def kelly_gbm_rate(mu, sigma, partition=None):
    """Optimal exponential growth rate 0.5 mu' (sigma sigma')^{-1} mu.

    With a partition (list of index groups) also returns the sum of the
    group-wise rates, each computed from the corresponding sub-blocks of
    mu and sigma sigma'.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    cov = sigma @ sigma.T
    if abs(np.linalg.det(cov)) < 1e-300:
        raise np.linalg.LinAlgError("sigma sigma' is singular")
    rate = 0.5 * float(mu @ np.linalg.solve(cov, mu))
    if partition is None:
        return rate
    part_sum = 0.0
    for group in partition:
        idx = np.asarray(group, dtype=int)
        sub = cov[np.ix_(idx, idx)]
        part_sum += 0.5 * float(mu[idx] @ np.linalg.solve(sub, mu[idx]))
    return rate, part_sum
