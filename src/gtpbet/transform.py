"""Return transform turning raw price series into bounded game outcomes.

Daily returns are mapped affinely onto [-1, 1] using the observed per-item
extremes, a forecast value rho is formed from the sign-corner training
block together with the first F transformed returns, and outcomes are the
centered values z - rho.  The live game then runs on the remaining
T - 1 - F rounds over the shifted box [-1 - rho, 1 - rho].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, GameConfig, _read_csv, as_prices, make_training

__all__ = ["ReturnTransform", "transform_returns", "read_price_csv"]


@dataclass(frozen=True)
class ReturnTransform:
    F: int
    rho: np.ndarray


def transform_returns(prices, c: float):
    """Build (outcomes, GameConfig, ReturnTransform) from a price table.

    prices is a (T, d) array of strictly positive, finite prices (a 1-D
    array is one column); c in (0, 1)
    sets the forecast horizon F = floor(c T).  The outcomes are the
    centered transformed returns after the forecast block; the returned
    config carries the shifted-box domain and the centered corner
    training points.
    """
    prices = as_prices(prices)
    T, d = prices.shape
    if T < 3:
        raise ValueError("need at least three price rows")
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c!r}")
    returns = prices[1:] / prices[:-1] - 1.0  # (T-1, d)
    s_max = returns.max(axis=0)
    s_min = returns.min(axis=0)
    if np.any(s_max <= s_min):
        raise ValueError("constant price series: transform is degenerate")
    F = int(math.floor(c * T))
    if F < 1 or F >= T - 1:
        raise ValueError("forecast horizon leaves no live rounds")
    z = (2.0 * returns - s_max - s_min) / (s_max - s_min)
    corners = make_training(Domain.box(-np.ones(d), np.ones(d)), scheme="corners_2tod")
    rho = (corners.points.sum(axis=0) + z[:F].sum(axis=0)) / (corners.n0 + F)
    tr = ReturnTransform(F=F, rho=rho)
    outcomes = z[F:] - rho
    # the corners of the shifted box are the centered unit corners
    dom = Domain.box(-1.0 - rho, 1.0 - rho)
    cfg = GameConfig(domain=dom, training=make_training(dom, scheme="corners_2tod"))
    return outcomes, cfg, tr


def read_price_csv(path) -> np.ndarray:
    """Prices from a CSV with a header row; column 1 is a date or index
    (ignored), columns 2..d+1 are prices.  A row whose column count is not
    the header's, or with a price cell that is empty, not a number, NaN,
    infinite, zero or negative, raises ValueError naming its line in the
    file."""
    return _read_csv(path)
