"""Information criterion for choosing the number of betting items.

The nested games share one training set: the sign corners of the full
d_max-dimensional box, projected onto the first d coordinates for the
d-item game.  That makes the d-item objective the restriction of the
(d+1)-item objective to a zero last coordinate, so the hindsight KL term
is nondecreasing in d by construction.  The criterion subtracts the
penalty LD2 from the KL term; the argmax trades fit against the cost of
estimating more proportions.  LD2 is taken along each d-game's own bets,
so it is not nested the way the KL term is and need not grow with d;
select_dimension warns when it falls.

Each of the 2^d_max corners appears 2^(d_max - d) times in the d-item
game's training, so the rounding floor of that game's Newton gradient
grows with d_max.  From d_max = 12 on it can rise above the solver's
tolerance, and the runs stall, so select_dimension takes at most
_MAX_D = 11 columns.  Training on the distinct projected corners, each
weighted by its count, is the route to lifting that limit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .domain import (
    Domain, GameConfig, InvariantError, TrainingSet, as_path, make_training, write_csv
)
from .sos import sos_run

__all__ = ["NestedGameReport", "select_dimension"]

_MAX_D = 11  # the most columns whose nested runs converge (module docstring)


@dataclass(frozen=True)
class NestedGameReport:
    d: np.ndarray  # 1..d_max
    kl_term: np.ndarray  # (N + n0) D_d(g || g*), the hindsight log capital
    penalty: np.ndarray  # 0.5 log [I_N]_d
    criterion: np.ndarray  # kl_term - penalty
    logK_true: np.ndarray
    selected: int

    def to_csv(self, path) -> None:
        """Write one row per d with write_csv; selected is 1 on the chosen d."""
        write_csv(path, {
            "d": self.d,
            "kl_term": self.kl_term,
            "penalty": self.penalty,
            "criterion": self.criterion,
            "logK_true": self.logK_true,
            "selected": self.d == self.selected,
        })


def select_dimension(paths) -> NestedGameReport:
    """Run the sequential strategy for every prefix dimension and pick the
    one maximizing the hindsight-minus-penalty criterion.

    paths is an (N, d_max) array of per-item outcomes in [-1, 1]; items
    are nested in the given column order.  Ties break toward smaller d.
    More than _MAX_D columns raise ValueError before any run.
    """
    paths = as_path(paths)
    N, d_max = paths.shape
    if N < 1:
        raise ValueError("empty outcome sequence")
    if d_max > _MAX_D:
        raise ValueError(
            f"{d_max} items; the nested games stall beyond {_MAX_D}, where the "
            "repeated training corners put the gradient's rounding floor above "
            "the solver's tolerance"
        )
    # shared training: corners of the full box, projected per prefix
    full = Domain.box(-np.ones(d_max), np.ones(d_max))
    corners = make_training(full, scheme="corners_2tod")
    kl = np.empty(d_max)
    pen = np.empty(d_max)
    crit = np.empty(d_max)
    logk = np.empty(d_max)
    for d in range(1, d_max + 1):
        dom = Domain.box(-np.ones(d), np.ones(d))
        train = TrainingSet(epsilon0=corners.epsilon0, points=corners.points[:, :d].copy())
        cfg = GameConfig(domain=dom, training=train)
        res = sos_run(cfg, paths[:, :d])
        led = res.ledger
        kl[d - 1] = led.logK_hindsight[-1]
        pen[d - 1] = led.LD2[-1]
        crit[d - 1] = kl[d - 1] - pen[d - 1]
        logk[d - 1] = led.logK_true[-1]
        if pen[d - 1] < -1e-8:
            raise InvariantError(f"negative penalty at d={d}")
    for d in range(1, d_max):
        if pen[d] < pen[d - 1] - 1e-8:
            warnings.warn(
                f"penalty not monotone between d={d} and d={d + 1}", stacklevel=2
            )
    selected = int(np.argmax(crit)) + 1  # argmax takes the first maximizer
    return NestedGameReport(
        d=np.arange(1, d_max + 1),
        kl_term=kl,
        penalty=pen,
        criterion=crit,
        logK_true=logk,
        selected=selected,
    )
