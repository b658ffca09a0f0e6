"""Continuous price paths and their limit-order embedding.

A positive d-dimensional path sampled on a fine grid is turned into a
discrete betting game by stopping each time the return vector since the
last stop first reaches norm delta.  The resulting outcomes live on the
sphere of radius delta, so the quadratic variation accumulated by round
N is exactly N delta^2; how fast N grows as delta shrinks measures the
jaggedness (Holder roughness) of the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, GameConfig, InvariantError, as_prices, make_training
from .sos import sos_capital_fast

__all__ = [
    "PricePath",
    "Embedding",
    "gen_gbm",
    "gen_fbm",
    "embed",
    "holder_experiment",
    "girsanov_rate_experiment",
]


@dataclass(frozen=True)
class PricePath:
    """Strictly positive, finite prices on a strictly increasing time grid,
    one row per time (a 1-D values array is one column)."""

    times: np.ndarray  # (K+1,)
    values: np.ndarray  # (K+1, d)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = as_prices(self.values)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.shape[0] != t.size:
            raise ValueError(f"{v.shape[0]} price rows for {t.size} times")
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("time grid must be strictly increasing")

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def to_csv(self, path) -> None:
        d = self.d
        with open(path, "w", newline="") as fh:
            fh.write("time," + ",".join(f"S{j + 1}" for j in range(d)) + "\n")
            for i in range(self.times.size):
                row = [format(self.times[i], ".17g")] + [
                    format(self.values[i, j], ".17g") for j in range(d)
                ]
                fh.write(",".join(row) + "\n")

    @classmethod
    def from_csv(cls, path) -> "PricePath":
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        data = np.atleast_2d(data)
        return cls(times=data[:, 0], values=data[:, 1:])


@dataclass(frozen=True)
class Embedding:
    """delta-crossing discretization of a price path.

    outcomes are the crossing returns rescaled to norm exactly delta
    (direction preserved); raw_returns are the unrescaled grid returns,
    which compound exactly to the true prices at the stop times.  N
    counts the stops strictly before the horizon T.
    """

    delta: float
    stop_indices: np.ndarray  # grid indices t_1 < t_2 < ... (t_0 = 0 implicit)
    outcomes: np.ndarray  # (N, d), on the sphere of radius delta
    raw_returns: np.ndarray  # (N, d)
    final_return: np.ndarray  # return from the last stop to the horizon
    N: int


_MAX_BLOCK = 1 << 16


def _scan_crossings(S, d2):
    """Greedy first-crossing scan; returns the stop indices.

    From each stop i the path is searched forward, one block at a time,
    for the first j with sum((S_j/S_i - 1)**2) >= d2.  The first block
    is a few times a running mean of the gaps between stops, so most stops
    cost one block; a miss doubles the block up to a cache-sized cap.
    A one-dimensional path is searched as its contiguous column.
    """
    K = S.shape[0] - 1
    X = S[:, 0] if S.shape[1] == 1 else S
    stops = []
    i = 0
    gap = 16.0
    while i < K:
        anchor = X[i]
        j = i + 1
        block = min(int(4.0 * gap) + 16, _MAX_BLOCK)
        while j <= K:
            r = X[j : j + block] / anchor
            r -= 1.0
            r *= r
            if r.ndim == 2:
                r = r.sum(axis=1)
            hit = r >= d2
            k = int(hit.argmax())
            if hit[k]:
                break
            j += block
            block = min(2 * block, _MAX_BLOCK)
        else:  # no crossing before the horizon
            break
        j += k
        stops.append(j)
        gap += (j - i - gap) / 16.0
        i = j
    return np.array(stops, dtype=np.int64)


def embed(path: PricePath, delta: float) -> Embedding:
    """Greedy first-crossing scan.

    The stop after grid index i is the first index j where the return
    since i reaches norm delta, sum((S_j/S_i - 1)**2) >= delta * delta.
    A single grid step whose return norm exceeds 2 delta means the
    sampling grid is too coarse to localize the crossing and raises
    ValueError.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    S = path.values
    K = S.shape[0] - 1
    stops = _scan_crossings(S, delta * delta)
    if stops.size:
        prev = np.concatenate([[0], stops[:-1]])
        raws = S[stops] / S[prev] - 1.0
        steps = np.linalg.norm(S[stops] / S[stops - 1] - 1.0, axis=1)
        worst = float(steps.max())
        if worst > 2.0 * delta:
            k = int(stops[np.argmax(steps)])
            raise ValueError(
                f"grid too coarse: single-step return {worst:.4g} exceeds "
                f"2*delta at index {k}; sample the path more finely"
            )
        nrm = np.linalg.norm(raws, axis=1)
        outcomes = raws * (delta / nrm)[:, None]
        final_ret = S[K] / S[stops[-1]] - 1.0
    else:
        raws = np.zeros((0, path.d))
        outcomes = np.zeros((0, path.d))
        final_ret = S[K] / S[0] - 1.0
    return Embedding(
        delta=delta,
        stop_indices=stops,
        outcomes=outcomes,
        raw_returns=raws,
        final_return=final_ret,
        N=len(stops),
    )


def _grid(T, grid_step):
    """Number of grid steps over [0, T] and their common length.  A
    degenerate grid is refused here, before anything is allocated."""
    for name, value in (("T", T), ("grid_step", grid_step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    K = int(math.ceil(T / grid_step))
    return K, T / K


def gen_gbm(mu, sigma, T, grid_step, seed, s0=1.0) -> PricePath:
    """Exact log-Euler geometric Brownian motion, bit-reproducible by seed.

    The normal draws are scaled in place and the log path is summed
    straight into the returned array, so at most two arrays of the path's
    size are alive at once."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = mu.size
    if abs(np.linalg.det(sigma)) == 0.0:
        raise np.linalg.LinAlgError("volatility matrix is singular")
    K, h = _grid(T, grid_step)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((K, d))
    z *= math.sqrt(h)
    incr = z @ sigma.T
    del z
    incr += (mu - 0.5 * np.diag(sigma @ sigma.T)) * h
    values = np.empty((K + 1, d))
    values[0] = 0.0
    np.cumsum(incr, axis=0, out=values[1:])
    del incr
    np.exp(values, out=values)
    values *= float(s0)
    return PricePath(times=np.linspace(0.0, T, K + 1), values=values)


def _fgn_davies_harte(n, hurst, rng, dtype=np.float64):
    """Fractional Gaussian noise with exact covariance, unit steps.

    The circulant embedding (Davies & Harte 1987) lives in one length-2n
    buffer of dtype, which FFTPACK's real transforms overwrite in their
    packed order: mode 0, then the real and imaginary parts of modes
    1..n-1, then the real mode n.  The peak is that buffer plus pocketfft's
    cached plan and its scratch, about three buffers of 2n values of dtype.
    Returns a view of the first n values of the buffer.
    """
    from scipy import fftpack

    e = 2.0 * hurst
    m = 2 * n
    buf = np.empty(m, dtype=dtype)
    # autocovariance 0.5 ((k+1)**e + |k-1|**e - 2 k**e) for k = 0..n from one
    # power table.  The three-term difference cancels ~2H digits of k**e, so
    # it is formed in float64 before any downcast
    p = np.arange(n + 2, dtype=np.float64)
    p **= e
    # in place for float64; a narrower dtype needs a float64 scratch
    acf = buf[: n + 1] if buf.dtype == np.float64 else np.empty(n + 1)
    acf[0] = p[1] + p[1]
    np.add(p[2:], p[:n], out=acf[1:])
    p *= 2.0
    acf -= p[: n + 1]
    del p
    np.multiply(acf, 0.5, out=buf[: n + 1])
    del acf
    buf[n + 1 :] = buf[n - 1 : 0 : -1]
    # eigenvalues of the circulant: mode 0 in buf[0], mode k = 1..n in
    # buf[2k - 1]; the even slots hold imaginary parts, zero up to rounding
    buf = fftpack.rfft(buf, overwrite_x=True)
    eig = (buf[:1], buf[1::2])
    # rounding floor of the length-m transform; anything below it means the
    # embedding itself is indefinite rather than numerically fuzzy, which
    # the circulant embedding of fGn never is for H in (0, 1)
    tol = max(1e-10, np.finfo(dtype).eps * math.sqrt(m)) * max(float(v.max()) for v in eig)
    if min(v.min() for v in eig) < -tol:
        raise InvariantError("circulant embedding of fGn is not positive semidefinite")
    for v in eig:
        np.maximum(v, 0.0, out=v)
        v *= m / 2.0
        np.sqrt(v, out=v)
    # Hermitian-symmetric Gaussian spectrum sqrt(eig m / 2) (wr + i wi), with
    # the two real modes scaled by sqrt 2 -> real noise via irfft.  Each mode
    # k = 1..n-1 carries its amplitude in both of its slots, and the normals
    # are drawn as the wr block and then the wi block, one reused array
    buf[2::2] = buf[1:-1:2]
    w = np.empty(n + 1, dtype=dtype)
    rng.standard_normal(dtype=dtype, out=w)
    w[0] *= math.sqrt(2.0)
    w[-1] *= math.sqrt(2.0)
    buf[:1] *= w[:1]
    buf[1::2] *= w[1:]
    rng.standard_normal(dtype=dtype, out=w)
    buf[2::2] *= w[1:-1]
    del w
    buf = fftpack.irfft(buf, overwrite_x=True)
    return buf[:n]


def gen_fbm(hurst, scale, T, grid_step, seed, s0=1.0, d=1, dtype=np.float64) -> PricePath:
    """Exponential of fractional Brownian motion, one independent fBm per
    component.  Circulant (Davies-Harte) embedding gives exact increment
    covariance.  The noise of each component is synthesized in one
    buffer of 2K values of dtype and then summed in place into the float64
    path.  The synthesis peaks at about three buffers of 2K values of dtype
    (the buffer, pocketfft's plan, which SciPy keeps cached, and its
    scratch); dtype=float32 halves that, but not the (K+1) x d float64
    path."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    K, h = _grid(T, grid_step)
    rng = np.random.default_rng(seed)
    paths = np.empty((K + 1, d))
    for j in range(d):
        paths[0, j] = 0.0
        paths[1:, j] = _fgn_davies_harte(K, hurst, rng, dtype=np.dtype(dtype))
        np.cumsum(paths[1:, j], out=paths[1:, j])
        paths[:, j] *= h**hurst
    paths *= scale
    np.exp(paths, out=paths)
    paths *= float(s0)
    return PricePath(times=np.linspace(0.0, T, K + 1), values=paths)


_DEFAULT_DELTAS = (0.02, 0.01, 0.005, 0.0025)


def _run_embedded_sos(emb: Embedding, epsilon0: float = 0.1):
    """Fast sequential strategy over an embedding.  Returns the final log
    capital, including the residual period from the last stop to the
    horizon, and the final unclipped V^{-1} s (zero when nothing stopped)."""
    d = emb.outcomes.shape[1]
    training = game_config_for_embedding(emb.delta, d, epsilon0).training.points
    bound = 1.0 / training.max()
    logK = float(np.sum(sos_capital_fast(emb.outcomes, training, bound)))
    if not emb.N:
        return logK, np.zeros(d)
    # residual period: the final sub-delta return at the standing bet
    s = training.sum(axis=0) + emb.outcomes.sum(axis=0)
    V = training.T @ training + emb.outcomes.T @ emb.outcomes
    alpha = np.linalg.solve(V, s)
    logK += math.log(1.0 + float(np.clip(alpha, -bound, bound) @ emb.final_return))
    return logK, alpha


def holder_experiment(path: PricePath, delta_grid=_DEFAULT_DELTAS, epsilon0=0.1):
    """Capital and quadratic variation across a grid of crossing radii.

    Returns a list of dicts {delta, N, trV_N, logK, delta_alpha_norm} plus
    the implied roughness exponents between consecutive radii (solving
    tr V_N proportional to delta^(2 - 1/H)).
    """
    rows = []
    for delta in delta_grid:
        emb = embed(path, delta)
        logK, alpha = _run_embedded_sos(emb, epsilon0)
        rows.append(
            {
                "delta": delta,
                "N": emb.N,
                "trV_N": emb.N * delta * delta,
                "logK": logK,
                # diagnostic: delta * ||alpha|| at the end of the run
                "delta_alpha_norm": delta * float(np.linalg.norm(alpha)),
            }
        )
    hs = []
    for a, b in zip(rows[:-1], rows[1:]):
        if a["trV_N"] > 0.0 and b["trV_N"] > 0.0:
            ratio = math.log(a["trV_N"] / b["trV_N"]) / math.log(
                a["delta"] / b["delta"]
            )
            hs.append(1.0 / (2.0 - ratio))
        else:
            hs.append(float("nan"))
    return rows, hs


def girsanov_rate_experiment(
    mu, sigma, T, delta, seed, grid_step=None, epsilon0=0.1
):
    """Simulated growth rate of the embedded strategy under GBM vs the
    analytic target 0.5 mu' (sigma sigma')^{-1} mu."""
    from .baselines import kelly_gbm_rate

    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if grid_step is None:
        smax = float(np.max(np.linalg.norm(sigma, axis=1)))
        grid_step = (delta / (5.0 * smax)) ** 2
    path = gen_gbm(mu, sigma, T, grid_step, seed)
    emb = embed(path, delta)
    logK, _ = _run_embedded_sos(emb, epsilon0)
    return {
        "logK_over_T": logK / T,
        "target": kelly_gbm_rate(mu, sigma),
        "N": emb.N,
        "delta": delta,
    }


def game_config_for_embedding(delta: float, d: int, epsilon0: float = 0.1) -> GameConfig:
    """Axis-training game over the sphere of radius delta."""
    dom = Domain.sphere(d, delta)
    return GameConfig(domain=dom, training=make_training(dom, epsilon0, "axis_2d"))
