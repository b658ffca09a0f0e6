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
from numpy.lib.stride_tricks import sliding_window_view

from .domain import (
    _ROW_BLOCK, Domain, GameConfig, InvariantError, _require_positive, as_prices, make_training,
)
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
    """Strictly positive, finite prices at K + 1 >= 2 evenly spaced times
    from 0 to T, one row per time (a 1-D values array is one column)."""

    values: np.ndarray  # (K+1, d)
    T: float

    def __post_init__(self):
        _require_positive(T=self.T)
        v = as_prices(self.values)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "T", float(self.T))
        if v.shape[0] < 2:
            raise ValueError(f"{v.shape[0]} price rows; a grid of [0, T] has at least 2")

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Embedding:
    """delta-crossing discretization of a price path.

    outcomes are the crossing returns rescaled to norm exactly delta
    (direction preserved); the unrescaled returns, which compound exactly
    to the true prices at the stop times, are the path's ratios between
    consecutive stops.  N counts the stops strictly before the horizon T.
    """

    delta: float
    stop_indices: np.ndarray  # grid indices t_1 < t_2 < ... (t_0 = 0 implicit)
    outcomes: np.ndarray  # (N, d), on the sphere of radius delta
    final_return: np.ndarray  # return from the last stop to the horizon
    N: int


# The crossing scan runs chains of the greedy scan in lockstep; see
# _scan_crossings.  These constants shape it and no caller sets them.
_MAX_BLOCK = 1 << 16  # longest window a chain reads in one step
_PILOT = 16  # stops the first chain finds alone, to measure the gap
_SEGMENT = 256  # stops per segment that the chain count aims at
_MAX_CHAINS = 1024  # chain ids must fit the scan's int16 owner map


def _scan_crossings(S, d2):
    """Greedy first-crossing scan; returns the stop indices and the count
    of stops computed but discarded.

    The stop after a stop i is the first j > i with
    sum((S_j/S_i - 1)**2) >= d2, summed over the columns left to right.
    It depends on i alone, so two scans that share a stop share every stop
    after it.  The scan runs as chains in lockstep.  A first chain scans
    alone from index 0 for a few stops to measure the mean gap between
    stops.  The rest of the path is then cut into segments of about
    _SEGMENT stops, and a chain starts at the first index of each, as if
    that index were a stop.  Each step moves every active chain on by one
    window of about one gap, read from a strided view of the path, with
    one set of (chains x window) array operations; a window holds at most
    one new stop.  When no chain finds a stop, the window doubles, up to
    _MAX_BLOCK.  A map over the grid names the chain that owns each index:
    the one that started there or first landed on it.  A chain that lands
    on an index another chain owns merges into it: the chain stops, and
    its scan goes on as the owner's.  The lineage is the first chain,
    followed through its merges, and its stops are the scan's.  Any other
    chain pauses once its anchor passes the start of the segment after
    next, and resumes if the lineage merges into it; this bounds the work
    that a path whose scans never meet (a smooth one) can waste.  With one
    chain this is the plain greedy scan, one window at a time.

    Memory: the map holds two bytes a grid point.  Every step records each
    active chain's id (int16, as in the map) and anchor (int32 below 2^31
    grid points).  The map, the windows and the hit buffer are released
    before those records are sorted and spliced, so the scan peaks at the
    map plus a few bytes a stop.  The stops are returned as int64.
    """
    K = S.shape[0] - 1
    cols = [S[:, c] for c in range(S.shape[1])]
    views = {}

    def windows(B):
        # row i of each view is the column's [i, i + B), without a copy
        if B not in views:
            views[B] = [sliding_window_view(c, B) for c in cols]
        return views[B]

    owner = np.zeros(K + 1, np.int16)  # the chain that owns each index, 0 for none
    owner[0] = 1
    ids = np.ones(1, np.int16)  # the active chains, numbered from 1
    a = np.zeros(1, np.int64)  # their anchors, the last stop of each
    p = np.ones(1, np.int64)  # the next index each reads
    # per chain: the index past which it pauses (never, for the lineage),
    # the chain it merged into (0 for none), and where it halted
    lim = np.full(2, K + 1)
    into = np.zeros(2, np.int16)
    held_a, held_p = np.zeros((2, 2), np.int64)
    line, M, total = 1, 1, 0
    # every chain's anchor after every step, narrow (see the docstring)
    a_rec = np.int32 if K < 2**31 else np.int64
    rec_ids, rec_a = [ids], [a.astype(a_rec)]
    gap, streak, hits, pmax = 16.0, 0, 0, 1
    pilot = True
    hit_buf = np.ones((0, 0), bool)
    while K > 0:
        B = int(gap) + 16
        e = max(B.bit_length() - 3, 0)
        B = min(((B >> e) + 1) << e << streak, _MAX_BLOCK, K)  # 4 sizes an octave
        near = pmax > K + 1 - B
        s = np.minimum(p, K + 1 - B) if near else p
        acc = None
        for col, view in zip(cols, windows(B)):
            r = view[s]
            r /= col[a][:, None]
            r -= 1.0
            r *= r
            if acc is None:
                acc = r
            else:
                acc += r
        # a last column of True makes argmax give B for a window without a hit
        if hit_buf.shape != (ids.size, B + 1):
            hit_buf = np.ones((ids.size, B + 1), bool)
        hit = hit_buf[:, :B]
        np.greater_equal(acc, d2, out=hit)
        if near:  # a window clamped to the horizon re-reads indices before p
            hit &= np.arange(B) >= (p - s)[:, None]
        k = hit_buf.argmax(axis=1)
        got = k < B
        j = s + k
        n = int(np.count_nonzero(got))
        if n:
            a = np.where(got, j, a)
            total, last = int(a.sum()), total
            gap += ((total - last) / n - gap) * min(1.0, n / 16.0)
            hits += n
            streak = 0
        else:
            streak += 1
        p = j + got
        pmax += B
        rec_ids.append(ids)
        rec_a.append(a.astype(a_rec))
        # an index is owned by the first chain to land on it; of chains that
        # land on a free one together any may own it, as they go on alike
        o = owner[a]
        owner[a] = np.where(o == 0, ids, o)
        o = owner[a]
        merged = o != ids
        drop = merged | (a > lim[ids])
        if near:
            pmax = int(p.max())
            drop |= p > K  # no crossing before the horizon
        if drop.any():
            into[ids[merged]] = o[merged]
            halt = drop & ~merged
            held_a[ids[halt]], held_p[ids[halt]] = a[halt], p[halt]
            keep = ~drop
            ids, a, p = ids[keep], a[keep], p[keep]
            while into[line]:
                line = into[line]
            lim[line] = K + 1
            if not (ids == line).any():
                if held_p[line] > K:
                    break  # the lineage reached the horizon
                ids = np.append(ids, np.int16(line))
                a = np.append(a, held_a[line])
                p = np.append(p, held_p[line])
                pmax = max(pmax, int(held_p[line]))
            total = int(a.sum())
        if pilot and hits >= _PILOT:
            pilot = False
            a0 = int(a[0])
            M = max(int(min((K - a0) / (gap * _SEGMENT), _MAX_CHAINS, K - a0)), 1)
            if M > 1:
                ids = np.arange(1, M + 1, dtype=np.int16)
                a = a0 + (K - a0) * np.arange(M) // M
                p = a + 1
                owner[a] = ids
                lim = np.full(M + 1, K + 1)
                lim[2:-2] = a[3:]  # chain c starts at a[c - 1], pauses past a[c + 1]
                into = np.zeros(M + 1, np.int16)
                held_a, held_p = np.zeros((2, M + 1), np.int64)
                total, pmax = int(a.sum()), int(p[-1])
                rec_ids.append(ids)
                rec_a.append(a.astype(a_rec))
    # the map, the windows and the hit buffer are done with before the splice
    owner = hit_buf = hit = acc = r = None
    views.clear()
    # each chain's records in step order; a step without a stop repeats one
    rid, ra = np.concatenate(rec_ids), np.concatenate(rec_a)
    del rec_ids, rec_a
    order = np.argsort(rid, kind="stable")
    rid, ra = rid[order], ra[order]
    del order  # 8 bytes a record; kept alive, it raised drift_multi's peak RSS 1.2 MiB
    new = np.ones(rid.size, bool)
    new[1:] = (rid[1:] != rid[:-1]) | (ra[1:] != ra[:-1])
    rid, ra = rid[new], ra[new]
    first = np.searchsorted(rid, np.arange(M + 2))
    pieces, c, after = [], 1, 0
    while True:
        mine = ra[first[c] : first[c + 1]]
        pieces.append(mine[np.searchsorted(mine, after, side="right") :])
        if not into[c]:
            break
        after, c = mine[-1], into[c]
    stops = np.concatenate(pieces, dtype=np.int64)
    # every chain's first record is its start, not a stop it computed
    return stops, rid.size - M - stops.size


def embed(path: PricePath, delta: float) -> Embedding:
    """Greedy first-crossing scan.

    The stop after grid index i is the first index j where the return
    since i reaches norm delta, sum((S_j/S_i - 1)**2) >= delta * delta.
    The scan runs as chains in lockstep, one from the start of each
    segment of the path; a chain that lands on an index another chain
    reached merges into it, and the stops are spliced from the first
    chain's merges (see _scan_crossings).  They are those of one scan
    from index 0, bit for bit.  Their returns are formed column by column,
    _ROW_BLOCK stops at a time, in outcomes, and rescaled there.  A delta that is not positive and finite
    raises ValueError, and so does a single grid step whose return norm
    exceeds 2 delta: the sampling grid is then too coarse to localize the
    crossing.
    """
    _require_positive(delta=delta)
    S = path.values
    stops, _ = _scan_crossings(S, delta * delta)
    outcomes = np.empty((stops.size, S.shape[1]))
    prev, worst, at = S[0], 0.0, 0  # t_0 = 0, then the stops
    for lo in range(0, stops.size, _ROW_BLOCK):
        idx = stops[lo : lo + _ROW_BLOCK]
        at_stop = S[idx]
        steps = _row_norms(at_stop / S[idx - 1] - 1.0)  # one grid step into each stop
        k = int(steps.argmax())
        if steps[k] > worst:  # the earliest worst step wins
            worst, at = float(steps[k]), int(idx[k])
        x = outcomes[lo : lo + idx.size]
        np.divide(at_stop[0], prev, out=x[0])
        np.divide(at_stop[1:], at_stop[:-1], out=x[1:])
        x -= 1.0
        scale = delta / _row_norms(x)
        for c in range(S.shape[1]):
            x[:, c] *= scale
        prev = at_stop[-1]
    if worst > 2.0 * delta:
        raise ValueError(
            f"grid too coarse: single-step return {worst:.4g} exceeds "
            f"2*delta at index {at}; sample the path more finely"
        )
    return Embedding(
        delta=delta,
        stop_indices=stops,
        outcomes=outcomes,
        final_return=S[-1] / prev - 1.0,
        N=len(stops),
    )


def _row_norms(x):
    """np.linalg.norm(x, axis=1), bit for bit: squares summed in column order."""
    out = x[:, 0] * x[:, 0]
    for c in range(1, x.shape[1]):
        out += x[:, c] * x[:, c]
    return np.sqrt(out, out=out)


def _grid(T, grid_step):
    """Number of grid steps over [0, T] and their common length.  A
    degenerate grid is refused here, before anything is allocated."""
    _require_positive(T=T, grid_step=grid_step)
    K = int(math.ceil(T / grid_step))
    return K, T / K


def _gbm_params(mu, sigma):
    """mu as a vector and sigma as a matrix of floats; a NaN or infinite
    entry raises ValueError naming mu or sigma, and a singular sigma
    raises LinAlgError."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value.tolist()}")
    if abs(np.linalg.det(sigma)) == 0.0:
        raise np.linalg.LinAlgError("volatility matrix is singular")
    return mu, sigma


def gen_gbm(mu, sigma, T, grid_step, seed) -> PricePath:
    """Exact log-Euler geometric Brownian motion from 1, bit-reproducible by seed.

    The normals pass through one reused block of _ROW_BLOCK rows, the stream
    of one whole (K, d) draw.  Each block's increments, drift added by column,
    are summed in place in the returned path, the only array of its size,
    onto the row before the block: term by term one whole-path cumsum."""
    mu, sigma = _gbm_params(mu, sigma)
    d = mu.size
    K, h = _grid(T, grid_step)
    rng = np.random.default_rng(seed)
    drift = (mu - 0.5 * np.diag(sigma @ sigma.T)) * h
    sigma_t = np.ascontiguousarray(sigma.T)  # matmul is slower on the transposed view
    values = np.empty((K + 1, d))
    values[0] = 0.0
    w = np.empty((min(K, _ROW_BLOCK), d))
    for lo in range(0, K, w.shape[0]):
        z = w[: min(w.shape[0], K - lo)]
        rng.standard_normal(out=z)
        z *= math.sqrt(h)
        incr = np.matmul(z, sigma_t, out=values[1 + lo : 1 + lo + z.shape[0]])
        for c in range(d):
            incr[:, c] += drift[c]
        incr[0] += values[lo]
        np.cumsum(incr, axis=0, out=incr)
    np.exp(values, out=values)
    return PricePath(values, T)


def _fgn_davies_harte(n, hurst, rng, dtype):
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
    # k = 1..n-1 carries its amplitude in both of its slots.  The normals are
    # drawn as the wr block of n + 1 and then the wi block of n + 1, the same
    # stream as two whole draws, but in chunks of one small reused array:
    # a draw array of the path's size would stay in the heap below glibc's
    # mmap threshold and put the inverse transform's scratch on top of it
    buf[2::2] = buf[1:-1:2]
    w = np.empty(min(n + 1, _ROW_BLOCK), dtype=dtype)
    for real in (True, False):
        for lo in range(0, n + 1, w.size):
            z = w[: min(w.size, n + 1 - lo)]
            hi = lo + z.size
            rng.standard_normal(dtype=dtype, out=z)
            k0 = max(lo, 1)
            if real:  # wr_k goes to slot 0 (k = 0) or slot 2k - 1
                if lo == 0:
                    z[0] *= math.sqrt(2.0)
                    buf[0] *= z[0]
                if hi == n + 1:
                    z[-1] *= math.sqrt(2.0)
                buf[2 * k0 - 1 : 2 * hi - 1 : 2] *= z[k0 - lo :]
            else:  # wi_k goes to slot 2k for k = 1..n-1
                k1 = min(hi, n)
                buf[2 * k0 : 2 * k1 : 2] *= z[k0 - lo : k1 - lo]
    del w, z
    buf = fftpack.irfft(buf, overwrite_x=True)
    return buf[:n]


def gen_fbm(hurst, scale, T, grid_step, seed, dtype=np.float64) -> PricePath:
    """Exponential of fractional Brownian motion from 1, one column, with
    exact increment covariance by circulant (Davies-Harte) embedding.  The
    noise is synthesized in one buffer of 2K values of dtype, then summed
    in place into the float64 path.  The synthesis peaks at about three
    such buffers (the buffer, pocketfft's plan, which SciPy keeps cached,
    and its scratch); dtype=float32 halves that, but not the K + 1 float64
    path.  The path is returned with T alone; its grid is not stored."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    K, h = _grid(T, grid_step)
    path = np.empty(K + 1)
    path[0] = 0.0
    path[1:] = _fgn_davies_harte(K, hurst, np.random.default_rng(seed), np.dtype(dtype))
    np.cumsum(path[1:], out=path[1:])
    path *= h**hurst
    path *= scale
    np.exp(path, out=path)
    return PricePath(path, T)


_EPSILON0 = 0.1  # interiority margin of the embedded games' training


def _run_embedded_sos(emb: Embedding):
    """Fast sequential strategy over an embedding.  Returns the final log
    capital, including the residual period from the last stop to the
    horizon, and the final unclipped V^{-1} s.  With no stop, s is the sum
    of the +-c axis training points, exactly zero, so both are zero."""
    d = emb.outcomes.shape[1]
    training = game_config_for_embedding(emb.delta, d).training.points
    bound = 1.0 / training.max()
    logK = float(np.sum(sos_capital_fast(emb.outcomes, training, bound)))
    # residual period: the final sub-delta return at the standing bet
    s = training.sum(axis=0) + emb.outcomes.sum(axis=0)
    V = training.T @ training + emb.outcomes.T @ emb.outcomes
    alpha = np.linalg.solve(V, s)
    logK += math.log(1.0 + float(np.clip(alpha, -bound, bound) @ emb.final_return))
    return logK, alpha


def holder_experiment(path: PricePath, delta_grid):
    """Capital and quadratic variation across a grid of crossing radii.

    Returns a list of dicts {delta, N, trV_N, logK, delta_alpha_norm} plus
    the implied roughness exponents between consecutive radii (solving
    tr V_N proportional to delta^(2 - 1/H)).
    """
    rows = []
    for delta in delta_grid:
        emb = embed(path, delta)
        logK, alpha = _run_embedded_sos(emb)
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


def girsanov_rate_experiment(mu, sigma, T, delta, seed):
    """Simulated growth rate of the embedded strategy under GBM vs the
    analytic target 0.5 mu' (sigma sigma')^{-1} mu.  The grid step is
    (delta / (5 max_i |sigma_i|))^2, so a one-step return is about a fifth
    of delta."""
    from .baselines import kelly_gbm_rate

    _require_positive(delta=delta)
    mu, sigma = _gbm_params(mu, sigma)
    smax = float(np.max(np.linalg.norm(sigma, axis=1)))
    path = gen_gbm(mu, sigma, T, (delta / (5.0 * smax)) ** 2, seed)
    emb = embed(path, delta)
    logK, _ = _run_embedded_sos(emb)
    return {
        "logK_over_T": logK / T,
        "target": kelly_gbm_rate(mu, sigma),
        "N": emb.N,
        "delta": delta,
    }


def game_config_for_embedding(delta: float, d: int) -> GameConfig:
    """Axis-training game over the sphere of radius delta."""
    dom = Domain.sphere(d, delta)
    return GameConfig(domain=dom, training=make_training(dom, _EPSILON0, "axis_2d"))
