"""Outcome domains, training data and exact capital accounting.

The betting game is played over a compact region D in R^d whose convex
hull contains the origin in its interior.  Before round 1 the bettor
prepends synthetic "training" outcomes chosen so that any proportion
vector alpha that keeps 1 + alpha.x >= 0 on the training points keeps
1 + alpha.x >= epsilon0 on all of D.  Capital is tracked in log space
(nats) because raw capital overflows double precision on long runs.
Every table the package writes or reads goes through one CSV format,
write_csv and _read_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Domain",
    "TrainingSet",
    "GameConfig",
    "CapitalLedger",
    "CollateralError",
    "InvariantError",
    "as_path",
    "as_prices",
    "make_training",
    "running_moments",
    "write_csv",
]

_BOUNDARY_SLACK = 1e-12  # absorbs transform rounding on membership tests

# Rows per block of the continuous path's per-row stages, which work column
# by column: NumPy's inner loop runs along the last axis, of length d.  The
# size also sets their working memory, which glibc may keep after a block
# is freed.  Peak RSS of a benchmark drift_multi pass (girsanov at d = 2,
# 2,250,001 grid points; 2-core Xeon, NumPy 2.4) by rows per block:
#
#   rows per block   2^16    2^15    2^14    2^13    2^12
#   peak RSS (MiB)   130.5   127.5   125.0   123.4   123.2
#
# 2^12 saves little more, and costs twice the blocks of 2^13.
_ROW_BLOCK = 1 << 13


def _require_positive(**values) -> None:
    """Raise ValueError naming the first value that is not positive and finite."""
    for name, value in values.items():
        if value is None or not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


class CollateralError(ValueError):
    """Raised when a bet would allow the capital to reach zero or below."""


class InvariantError(AssertionError):
    """An identity of the theory failed at run time.  Raised explicitly, so
    the checks stay active under python -O; subclassing AssertionError keeps
    the checks catchable as the asserts they replace."""


@dataclass(frozen=True)
class Domain:
    """Compact outcome region.

    kind is "box" or "sphere".  A box is given by finite component-wise
    bounds lo < 0 < hi; a sphere (ball) by its positive finite radius.
    """

    d: int
    kind: str
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    radius: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.kind == "box":
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != (self.d,) or hi.shape != (self.d,):
                raise ValueError("box bounds must have shape (d,)")
            if not np.all(np.isfinite(lo) & (lo < 0.0)):
                raise ValueError(f"lo must be negative and finite, got {lo}")
            if not np.all(np.isfinite(hi) & (hi > 0.0)):
                raise ValueError(f"hi must be positive and finite, got {hi}")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)
        elif self.kind == "sphere":
            _require_positive(radius=self.radius)
        else:
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @classmethod
    def box(cls, lo, hi) -> "Domain":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        return cls(d=lo.size, kind="box", lo=lo, hi=hi)

    @classmethod
    def sphere(cls, d: int, radius: float) -> "Domain":
        return cls(d=d, kind="sphere", radius=radius)

    @property
    def delta_bar(self) -> float:
        """max norm over the domain, in closed form."""
        if self.kind == "box":
            return float(np.sqrt(np.sum(np.maximum(-self.lo, self.hi) ** 2)))
        return float(self.radius)

    def contains_rows(self, path) -> np.ndarray:
        """Membership of every row of an (N, d) array, as N booleans."""
        if self.kind == "box":
            return np.all(
                (path >= self.lo - _BOUNDARY_SLACK) & (path <= self.hi + _BOUNDARY_SLACK),
                axis=1,
            )
        return np.linalg.norm(path, axis=1) <= self.radius + _BOUNDARY_SLACK

    def max_growth_constant(self) -> float:
        """Largest one-round growth factor 1 + alpha.x over prudent alpha.

        Prudent means 1 + alpha.x >= 0 for every x in the domain.  Equals
        2 for any domain symmetric about the origin and can be large for
        skewed boxes (e.g. 11 for the interval [-0.1, 1]).
        """
        if self.kind == "box":
            ratios = np.maximum(self.hi / -self.lo, -self.lo / self.hi)
            return 1.0 + float(np.max(ratios))
        return 2.0


@dataclass(frozen=True)
class TrainingSet:
    """Synthetic prior outcomes guaranteeing epsilon0 interiority."""

    epsilon0: float
    points: np.ndarray  # (n0, d)

    @property
    def n0(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __post_init__(self):
        pts = as_path(self.points)
        object.__setattr__(self, "points", pts)
        if np.linalg.matrix_rank(pts) != pts.shape[1]:
            raise ValueError("training points must span R^d")


def make_training(domain: Domain, epsilon0: float, scheme: str = "axis_2d") -> TrainingSet:
    """Build the training set for a domain.

    scheme "axis_2d" uses the 2d vectors +-c e_i with
    c = delta_bar * sqrt(d) / (1 - epsilon0), which certifies the
    epsilon0 margin on any domain.  scheme "corners_2tod" uses the 2^d
    sign vectors of the box (the construction used with the return
    transform); it certifies prudence but only the epsilon0 -> 0 margin.

    Raises ValueError for epsilon0 outside (0,1), for the corner scheme
    on non-box domains, and for d > 20 corners (2^d explosion).
    """
    if not 0.0 < epsilon0 < 1.0:
        raise ValueError("epsilon0 must lie in (0, 1)")
    d = domain.d
    if scheme == "axis_2d":
        c = domain.delta_bar * math.sqrt(d) / (1.0 - epsilon0)
        pts = np.zeros((2 * d, d))
        for i in range(d):
            pts[2 * i, i] = c
            pts[2 * i + 1, i] = -c
        return TrainingSet(epsilon0=epsilon0, points=pts)
    if scheme == "corners_2tod":
        if domain.kind != "box":
            raise ValueError("corners_2tod requires a box domain")
        if d > 20:
            raise ValueError("corners_2tod limited to d <= 20")
        # sign corners of the box: lo_i or hi_i in each coordinate
        grid = np.stack(
            np.meshgrid(*[(domain.lo[i], domain.hi[i]) for i in range(d)], indexing="ij"),
            axis=-1,
        ).reshape(-1, d)
        return TrainingSet(epsilon0=epsilon0, points=grid)
    raise ValueError(f"unknown training scheme {scheme!r}")


@dataclass(frozen=True)
class GameConfig:
    domain: Domain
    training: TrainingSet

    def __post_init__(self):
        if self.training.d != self.domain.d:
            raise ValueError("training dimension does not match domain")


def as_path(x, d: int | None = None) -> np.ndarray:
    """An outcome path as an (N, d) float array, validated once.

    A 2-D array keeps its shape.  A 1-D array is N scalar outcomes when d
    is 1 or omitted, and one outcome when d > 1.  Raises ValueError for
    any other shape, for a width other than d, and for a NaN or infinite
    component, naming the first round that holds one.
    """
    path = np.asarray(x, dtype=float)
    if path.ndim == 1:
        path = path[:, None] if d in (None, 1) else path[None, :]
    if path.ndim != 2 or d is not None and path.shape[1] != d:
        raise ValueError(f"outcome path of shape {np.shape(x)} is not (N, {d or 'd'})")
    ok = np.isfinite(path)
    if not ok.all():
        raise ValueError(f"non-finite outcome at round {_first_bad_row(ok) + 1}")
    return path


def _first_bad_row(ok) -> int:
    """Index of the first row of a boolean table that is not all True.
    Only called once a whole-table test has failed, because the per-row
    reduction is many times slower than that test."""
    return int(np.flatnonzero(~ok.all(axis=1))[0])


def as_prices(x) -> np.ndarray:
    """A price table as a (T, d) float array, validated once.

    A 2-D array keeps its shape and a 1-D array is one column.  Raises
    ValueError for any other shape and for a NaN, infinite or
    non-positive price, naming the first row (from 0) that holds one.
    """
    prices = np.asarray(x, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    if prices.ndim != 2:
        raise ValueError(f"price table of shape {np.shape(x)} is not (T, d)")
    # a NaN fails both reductions; only a failure pays for a mask
    if prices.min(initial=1.0) > 0.0 and prices.max(initial=1.0) < math.inf:
        return prices
    ok = np.isfinite(prices)
    if not ok.all():
        raise ValueError(f"non-finite price at row {_first_bad_row(ok)}")
    np.greater(prices, 0.0, out=ok)
    raise ValueError(f"prices must be strictly positive (row {_first_bad_row(ok)})")


def running_moments(path, s0=None, V0=None):
    """s_n = s0 + x_1 + ... + x_n and V_n = V0 + x_1 x_1' + ... + x_n x_n'
    for n = 0..N, as arrays of shape (N + 1, d) and (N + 1, d, d).

    The one place the package accumulates these sums.  Rounds are added
    one at a time onto the start row (zero when s0 or V0 is omitted), so
    row n is exactly the running sum a round-by-round loop would hold, also
    over pieces of a path each started from the last rows of the one before.
    """
    path = as_path(path)
    N, d = path.shape
    s = np.empty((N + 1, d))
    s[0] = 0.0 if s0 is None else s0
    s[1:] = path
    V = np.empty((N + 1, d, d))
    V[0] = 0.0 if V0 is None else V0
    for i, j in np.ndindex(d, d):  # d * d column products, not one broadcast
        np.multiply(path[:, i], path[:, j], out=V[1:, i, j])
    np.cumsum(s, axis=0, out=s)
    np.cumsum(V, axis=0, out=V)
    return s, V


# Rows that write_csv formats at a time: only one block's strings are
# alive at once, so writing does not raise a run's peak RSS.
_CSV_ROWS = 256

# write_csv's field format per NumPy dtype kind; any other kind is a float
_CSV_FORMATS = {"b": "%d", "i": "%d", "u": "%d", "U": "%s"}


def write_csv(path, columns) -> None:
    """Write columns, a dict from name to 1-D array of one length, as CSV:
    a header row, then one row per index, LF line endings.  Integer and
    bool columns are written as integers, str columns as they are and all
    others to 17 significant digits, which read back exactly."""
    cols = [np.asarray(c) for c in columns.values()]
    row = ",".join(_CSV_FORMATS.get(c.dtype.kind, "%.17g") for c in cols) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, cols[0].size, _CSV_ROWS):
            fh.writelines(row % r for r in zip(*(c[lo : lo + _CSV_ROWS].tolist() for c in cols)))


def _read_csv(path) -> np.ndarray:
    """The numbers in columns 2.. of a CSV with a header row, one array
    row per line; see read_price_csv for the errors."""
    rows, lines = [], []
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
            lines.append(lineno)
    if not rows:
        raise ValueError("no price rows found")
    data = np.asarray(rows, dtype=float)
    ok = np.isfinite(data)
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(f"line {lines[i]}: non-finite value {data[i, j]} in column {j + 2}")
    return data


def _bad_cell(parts) -> str:
    """The cause for the first cell from column 2 on of a row that float()
    refuses."""
    for j, v in enumerate(parts[1:], start=2):
        try:
            float(v)
        except ValueError:
            cell = v.strip()
            if not cell:
                return f"empty cell in column {j}"
            return f"non-numeric cell {cell!r} in column {j}"


# ledger CSV column order, one row per round
LEDGER_COLUMNS = (
    "n",
    "logK_true",
    "logK_hindsight",
    "logK_approx",
    "LD1",
    "LD2",
    "LD3",
    "GR",
    "QR",
    "DR",
)


class CapitalLedger:
    """Per-round capital and diagnostic series, all in nats.

    Preallocated for N rounds: n holds 1..N and every other name in
    LEDGER_COLUMNS is a float column of length N that the run fills in
    place.
    """

    def __init__(self, N: int):
        self.n = np.arange(1, N + 1)
        for col in LEDGER_COLUMNS[1:]:
            setattr(self, col, np.zeros(N))

    def __len__(self) -> int:
        return self.n.size

    def to_csv(self, path, series=None) -> None:
        """Write one row per round with write_csv.

        With series, a dict from series name to ledger column, also write
        the long-format file series,n,value, one row per name and round, as
        series.csv in path's directory.
        """
        write_csv(path, {c: getattr(self, c) for c in LEDGER_COLUMNS})
        if series is not None:
            write_csv(Path(path).with_name("series.csv"), {
                "series": np.repeat(list(series), len(self)),
                "n": np.tile(self.n, len(series)),
                "value": np.ravel([getattr(self, c) for c in series.values()]),
            })
