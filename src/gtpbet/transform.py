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

from .domain import Domain, GameConfig, as_prices, make_training

__all__ = ["ReturnTransform", "transform_returns", "read_price_csv"]


@dataclass(frozen=True)
class ReturnTransform:
    s_max: np.ndarray  # per-item max daily return
    s_min: np.ndarray  # per-item min daily return
    F: int
    rho: np.ndarray

    def to_unit(self, returns) -> np.ndarray:
        returns = np.atleast_2d(np.asarray(returns, dtype=float))
        return (2.0 * returns - self.s_max - self.s_min) / (self.s_max - self.s_min)

    def from_unit(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return 0.5 * (z * (self.s_max - self.s_min) + self.s_max + self.s_min)


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
        raise ValueError("c must lie in (0, 1)")
    returns = prices[1:] / prices[:-1] - 1.0  # (T-1, d)
    s_max = returns.max(axis=0)
    s_min = returns.min(axis=0)
    if np.any(s_max <= s_min):
        raise ValueError("constant price series: transform is degenerate")
    F = int(math.floor(c * T))
    if F < 1 or F >= T - 1:
        raise ValueError("forecast horizon leaves no live rounds")
    z = (2.0 * returns - s_max - s_min) / (s_max - s_min)
    corners = make_training(Domain.box(-np.ones(d), np.ones(d)), 0.1, "corners_2tod")
    rho = (corners.points.sum(axis=0) + z[:F].sum(axis=0)) / (corners.n0 + F)
    tr = ReturnTransform(s_max=s_max, s_min=s_min, F=F, rho=rho)
    outcomes = z[F:] - rho
    # the corners of the shifted box are the centered unit corners
    dom = Domain.box(-1.0 - rho, 1.0 - rho)
    cfg = GameConfig(domain=dom, training=make_training(dom, 0.1, "corners_2tod"))
    return outcomes, cfg, tr


def read_price_csv(path) -> np.ndarray:
    """Prices from a CSV with a header row; column 1 is a date or index
    (ignored), columns 2..d+1 are prices.  A row whose column count is not
    the header's, or with a price cell that is empty or not a number,
    raises ValueError naming its line in the file."""
    rows = []
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise ValueError("empty price file")
        width = header.count(",") + 1
        if width < 2:
            raise ValueError("line 1: the header names no price column")
        for lineno, line in enumerate(fh, start=2):
            parts = line.split(",")
            if len(parts) != width:
                if line.isspace():
                    continue
                raise ValueError(
                    f"line {lineno}: {len(parts)} columns where the header has {width}"
                )
            try:  # float() ignores the whitespace around a cell
                rows.append(list(map(float, parts[1:])))
            except ValueError:
                raise ValueError(f"line {lineno}: {_bad_cell(parts)}") from None
    if not rows:
        raise ValueError("no price rows found")
    return np.asarray(rows, dtype=float)


def _bad_cell(parts) -> str:
    """The cause for the first price cell of a row that float() refuses."""
    for j, v in enumerate(parts[1:], start=2):
        try:
            float(v)
        except ValueError:
            cell = v.strip()
            if not cell:
                return f"empty cell in column {j}"
            return f"non-numeric cell {cell!r} in column {j}"
