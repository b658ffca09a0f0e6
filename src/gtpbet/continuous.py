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

from .domain import Domain, GameConfig, InvariantError, make_training
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
    """Strictly positive prices on a strictly increasing time grid."""

    times: np.ndarray  # (K+1,)
    values: np.ndarray  # (K+1, d)
    meta: dict | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] == t.size and v.ndim == 2:
            pass
        elif v.shape == (1, t.size):
            v = v.T
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("time grid must be strictly increasing")
        if np.any(v <= 0.0):
            raise ValueError("prices must be strictly positive")

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


def gen_gbm(mu, sigma, T, grid_step, seed, s0=1.0) -> PricePath:
    """Exact log-Euler geometric Brownian motion, bit-reproducible by seed."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = mu.size
    if abs(np.linalg.det(sigma)) == 0.0:
        raise np.linalg.LinAlgError("volatility matrix is singular")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    K = int(math.ceil(T / grid_step))
    times = np.linspace(0.0, T, K + 1)
    h = T / K
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((K, d))
    drift = (mu - 0.5 * np.diag(sigma @ sigma.T)) * h
    incr = drift[None, :] + math.sqrt(h) * z @ sigma.T
    logS = np.vstack([np.zeros(d), np.cumsum(incr, axis=0)])
    values = float(s0) * np.exp(logS)
    return PricePath(
        times=times,
        values=values,
        meta={"kind": "gbm", "mu": mu, "sigma": sigma, "seed": seed},
    )


def _fgn_davies_harte(n, hurst, rng, dtype=np.float64):
    """Fractional Gaussian noise with exact covariance, unit steps.

    dtype=float32 halves the memory of the circulant embedding, which
    matters for the ~1e8-point grids the rough-path experiments need.
    """
    from scipy import fft as sfft

    e = 2.0 * hurst
    # the three-term difference cancels ~2H digits of k**e, so the
    # autocovariance itself must be formed in float64 before any downcast
    k = np.arange(n + 1, dtype=np.float64)
    acf = (k + 1.0) ** e
    acf += np.abs(k - 1.0) ** e
    acf -= 2.0 * k**e
    acf *= 0.5
    del k
    acf = acf.astype(dtype, copy=False)
    m = 2 * n
    circ = np.empty(m, dtype=dtype)
    circ[: n + 1] = acf
    circ[n + 1 :] = acf[-2:0:-1]
    del acf
    eig = sfft.rfft(circ)
    del circ
    eig = np.ascontiguousarray(eig.real)
    # rounding floor of the length-m transform; anything below it means the
    # embedding itself is indefinite rather than numerically fuzzy, which
    # the circulant embedding of fGn never is for H in (0, 1)
    tol = max(1e-10, np.finfo(dtype).eps * math.sqrt(m)) * float(np.max(eig))
    if np.any(eig < -tol):
        raise InvariantError("circulant embedding of fGn is not positive semidefinite")
    np.maximum(eig, 0.0, out=eig)
    # Hermitian-symmetric Gaussian spectrum -> real noise via irfft
    half = eig.size  # n + 1; m is even, so both ends are real modes
    eig *= m / 2.0
    np.sqrt(eig, out=eig)
    wr = rng.standard_normal(half, dtype=dtype)
    wi = rng.standard_normal(half, dtype=dtype)
    wr[0] *= math.sqrt(2.0)
    wr[-1] *= math.sqrt(2.0)
    wi[0] = 0.0
    wi[-1] = 0.0
    wr *= eig
    wi *= eig
    del eig
    spec = np.empty(half, dtype=np.result_type(dtype, np.complex64))
    spec.real = wr
    spec.imag = wi
    del wr, wi
    noise = sfft.irfft(spec, n=m)
    del spec
    return np.ascontiguousarray(noise[:n])


def gen_fbm(hurst, scale, T, grid_step, seed, s0=1.0, d=1, dtype=np.float64) -> PricePath:
    """Exponential of fractional Brownian motion, one independent fBm per
    component.  Circulant (Davies-Harte) embedding gives exact increment
    covariance.  dtype=float32 cuts the peak memory of the spectral
    synthesis roughly in half (the running sum is always accumulated in
    float64)."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    K = int(math.ceil(T / grid_step))
    times = np.linspace(0.0, T, K + 1)
    h = T / K
    rng = np.random.default_rng(seed)
    paths = np.empty((K + 1, d))
    for j in range(d):
        fgn = _fgn_davies_harte(K, hurst, rng, dtype=np.dtype(dtype))
        paths[0, j] = 0.0
        np.cumsum(fgn, dtype=np.float64, out=paths[1:, j])
        del fgn
        paths[:, j] *= h**hurst
    paths *= scale
    np.exp(paths, out=paths)
    paths *= float(s0)
    values = paths
    return PricePath(
        times=times,
        values=values,
        meta={"kind": "fbm", "H": hurst, "scale": scale, "seed": seed},
    )


_DEFAULT_DELTAS = (0.02, 0.01, 0.005, 0.0025)


def _run_embedded_sos(emb: Embedding, epsilon0: float = 0.1):
    """Fast sequential strategy over an embedding.  Returns the final log
    capital, including the residual period from the last stop to the
    horizon, and the final unclipped V^{-1} s (zero when nothing stopped)."""
    d = emb.outcomes.shape[1]
    training = game_config_for_embedding(emb.delta, d, epsilon0).training.points
    bound = 1.0 / training.max()
    logK, _ = sos_capital_fast(emb.outcomes, training, bound)
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
