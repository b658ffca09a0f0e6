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
from numpy.lib.stride_tricks import as_strided

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


# The crossing scan runs chains of the greedy scan in lockstep; see
# _scan_crossings.  These constants shape it and no caller sets them.
_MAX_BLOCK = 1 << 16  # longest window a chain reads in one step
_PILOT = 16  # stops the first chain finds alone, to measure the gap
_SEGMENT = 256  # stops per segment that the chain count aims at
_MAX_CHAINS = 1024
_HEAD = 512  # steps of each chain that a predecessor may merge into
_CHECK = 4  # steps between merge checks
_MERGED, _RETIRED = 1, 2


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
    _MAX_BLOCK.  A chain whose anchor is a stop that its successor held in
    its first _HEAD steps merges into it: the chain stops, and its scan
    goes on as the successor's.  A chain that passes the last of those
    stops, or the stop where its successor merged, without merging looks
    for a merge in the chain ahead of that one instead.  A successor passed
    unmerged is retired, and the chain scans on through its segment; this
    bounds the work that a path whose scans never meet (a smooth one) can
    waste.  The stops are the first chain's, followed through the merges.
    With one chain this is the plain greedy scan, one window at a time.
    """
    K = S.shape[0] - 1
    K2 = K + 2  # (chain c, index i) is encoded as c * K2 + i
    cols = [S[:, c] for c in range(S.shape[1])]
    views = {}

    def windows(B):
        # row i of each view is the column's [i, i + B), without a copy
        if B not in views:
            views[B] = [
                as_strided(c, (K + 2 - B, B), (c.strides[0],) * 2, writeable=False)
                for c in cols
            ]
        return views[B]

    def chains(M):
        # per chain id, with row M standing for "no successor": state,
        # successor (the target of a live chain, the chain a merged one
        # joined), the last index a predecessor may merge at, and the
        # encoded anchors of the first _HEAD steps (K + 1 when unfilled)
        succ = np.arange(1, M + 2)
        succ[M] = M
        head = np.arange(M + 1)[:, None] * K2 + np.full(_HEAD, K + 1)
        return np.zeros(M + 1, np.int8), succ, np.full(M + 1, K + 1), head.ravel()

    M = 1
    state, succ, end, head = chains(M)
    ids = np.zeros(1, np.int64)  # the active chains, in path order
    a = np.zeros(1, np.int64)  # their anchors, the last stop of each
    p = np.ones(1, np.int64)  # the next index each reads
    tg = succ[ids]
    row, code, total = ids * _HEAD, ids * K2, 0
    rec_ids, rec_a = [ids], [a]  # every chain's anchor after every step
    gap, streak, hits, step, pmax = 16.0, 0, 0, 0, 1
    pilot = True
    hit_buf = np.ones((0, 0), bool)
    while ids.size and K > 0:
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
        rec_a.append(a)
        drop = None
        if near:
            pmax = int(p.max())
            drop = p > K  # no crossing before the horizon
        if step < _HEAD:
            head[row + step] = code + a
            if step == _HEAD - 1:
                end[ids] = np.minimum(end[ids], a)
        if step % _CHECK == _CHECK - 1:
            q = tg * K2 + a
            merged = head[head.searchsorted(q)] == q
            if merged.any():
                joined = ids[merged]
                state[joined] = _MERGED
                succ[joined] = tg[merged]
                end[joined] = np.minimum(end[joined], a[merged])
                drop = merged if drop is None else drop | merged
            leave = (a > end[tg]) & ~merged
            if leave.any():
                left = tg[leave]
                state[left[state[left] != _MERGED]] = _RETIRED
                tg[leave] = succ[left]
                bad = state[tg] == _RETIRED
                while bad.any():
                    tg[bad] = succ[tg[bad]]
                    bad = state[tg] == _RETIRED
                succ[ids] = tg
                gone = state[ids] == _RETIRED
                drop = gone if drop is None else drop | gone
        if drop is not None and drop.any():
            keep = ~drop
            ids, a, p, tg = ids[keep], a[keep], p[keep], tg[keep]
            row, code, total = ids * _HEAD, ids * K2, int(a.sum())
        step += 1
        if pilot and hits >= _PILOT and ids.size:
            pilot = False
            a0 = int(a[0])
            M = max(int(min((K - a0) / (gap * _SEGMENT), _MAX_CHAINS, K - a0)), 1)
            if M > 1:
                state, succ, end, head = chains(M)
                ids = np.arange(M)
                a = a0 + (K - a0) * ids // M
                p = a + 1
                tg = succ[ids]
                row, code, total = ids * _HEAD, ids * K2, int(a.sum())
                pmax = int(p[-1])
                rec_ids.append(ids)
                rec_a.append(a)
                step = 0
    # each chain's records in step order; a step without a stop repeats one
    rid = np.concatenate(rec_ids)
    order = np.argsort(rid, kind="stable")
    rid, ra = rid[order], np.concatenate(rec_a)[order]
    new = np.ones(rid.size, bool)
    new[1:] = (rid[1:] != rid[:-1]) | (ra[1:] != ra[:-1])
    rid, ra = rid[new], ra[new]
    first = np.searchsorted(rid, np.arange(M + 1))
    pieces, c, after = [], 0, 0
    while True:
        mine = ra[first[c] : first[c + 1]]
        pieces.append(mine[np.searchsorted(mine, after, side="right") :])
        if state[c] != _MERGED:
            break
        after, c = mine[-1], succ[c]
    if state[c] == _RETIRED:
        raise InvariantError(f"crossing scan followed retired chain {c}")
    stops = np.concatenate(pieces)
    # every chain's first record is its start, not a stop it computed
    return stops, rid.size - M - stops.size


def embed(path: PricePath, delta: float) -> Embedding:
    """Greedy first-crossing scan.

    The stop after grid index i is the first index j where the return
    since i reaches norm delta, sum((S_j/S_i - 1)**2) >= delta * delta.
    The scan runs as chains in lockstep, one from the start of each
    segment of the path, spliced where they merge (see _scan_crossings);
    the stops are those of one scan from index 0, bit for bit.
    A single grid step whose return norm exceeds 2 delta means the
    sampling grid is too coarse to localize the crossing and raises
    ValueError.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    S = path.values
    K = S.shape[0] - 1
    stops, _ = _scan_crossings(S, delta * delta)
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


_NORMAL_CHUNK = 1 << 16  # normals drawn at a time by _fgn_davies_harte


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
    # k = 1..n-1 carries its amplitude in both of its slots.  The normals are
    # drawn as the wr block of n + 1 and then the wi block of n + 1, the same
    # stream as two whole draws, but in chunks of one small reused array:
    # a draw array of the path's size would stay in the heap below glibc's
    # mmap threshold and put the inverse transform's scratch on top of it
    buf[2::2] = buf[1:-1:2]
    w = np.empty(min(n + 1, _NORMAL_CHUNK), dtype=dtype)
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
