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
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import _gbm_params, kelly_gbm_rate
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

    The map, two bytes a grid point, is the one record of the landings: a
    chain's are the indices it owns past its start.  So the stops are the
    first chain's up to its merge, then its owner's up to that one's, and
    so on.  Once the windows are freed they are read into an int64 slot a
    landing, so the scan peaks at the map plus 8 bytes a landing.  The
    other landings are the discarded stops.
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
    # the chain it merged into (0 for none) and where, and where it halted
    lim = np.full(2, K + 1)
    into = np.zeros(2, np.int16)
    at = np.zeros(2, np.int64)
    held_a, held_p = np.zeros((2, 2), np.int64)
    line, total = 1, 0
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
            into[ids[merged]], at[ids[merged]] = o[merged], a[merged]
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
                at = np.zeros(M + 1, np.int64)
                held_a, held_p = np.zeros((2, M + 1), np.int64)
                total, pmax = int(a.sum()), int(p[-1])
    # the windows and the hit buffer are done with before the stops are read
    hit_buf = hit = acc = r = None
    views.clear()
    # each chain's owned indices from where the one before merged into it
    # (1, for the first) to its own merge, _MAX_BLOCK at a time
    stops = np.empty(hits, np.int64)
    n, c, lo = 0, 1, 1
    while True:
        hi = at[c] if into[c] else K + 1
        for b in range(lo, hi, _MAX_BLOCK):
            mine = np.flatnonzero(owner[b : min(b + _MAX_BLOCK, hi)] == c)
            mine += b
            stops[n : n + mine.size] = mine
            n += mine.size
        if not into[c]:
            break
        lo, c = hi, into[c]
    return stops[:n], hits - n


def embed(path: PricePath, delta: float) -> Embedding:
    """Greedy first-crossing scan.

    The stop after grid index i is the first index j where the return
    since i reaches norm delta, sum((S_j/S_i - 1)**2) >= delta * delta.
    The scan runs as chains in lockstep, one from the start of each
    segment of the path; a chain that lands on an index another chain
    reached merges into it, and the stops are read along the first chain's
    merges from the map of who reached each index (see _scan_crossings).
    They are those of one scan from index 0, bit for bit.  Their returns
    are formed column by column, _ROW_BLOCK stops at a time, in outcomes,
    and rescaled there.  A delta that is not positive and finite raises
    ValueError, and so does a single grid step whose return norm
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


def _grid(T, grid_step, step_bytes):
    """Number of grid steps over [0, T] and their common length.  Refused
    before any allocation: a degenerate grid, one of 2^62 steps or more, and
    one whose arrays, step_bytes a grid point, pass NumPy's sys.maxsize bytes."""
    _require_positive(T=T, grid_step=grid_step)
    got = f"got T = {T!r} and grid_step = {grid_step!r}"
    if T / grid_step >= 2.0**62:
        raise ValueError(f"T / grid_step must be below 2^62, {got}")
    K = int(math.ceil(T / grid_step))
    if (K + 1) * step_bytes > sys.maxsize:
        raise ValueError(f"T / grid_step must give arrays NumPy can allocate, {got}")
    return K, T / K


def gen_gbm(mu, sigma, T, grid_step, seed) -> PricePath:
    """Exact log-Euler geometric Brownian motion from 1, bit-reproducible by seed.

    The normals pass through one reused block of _ROW_BLOCK rows, the stream
    of one whole (K, d) draw.  Each block's increments, drift added by column,
    are summed in place in the returned path, the only array of its size,
    onto the row before the block: term by term one whole-path cumsum."""
    mu, sigma = _gbm_params(mu, sigma)
    d = mu.size
    K, h = _grid(T, grid_step, 8 * d)  # the (K + 1, d) path
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


def _workers():
    """2 when this process may run on two CPUs or more, else 1: the CPUs
    of its affinity mask, or of the host where there is no such mask."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, 2)


def _start(work, *args):
    """Run work(*args) in a worker thread, or at once in the caller when
    there is one worker (_workers).  Returns a join() that waits for the
    worker and raises its exception, once."""
    if _workers() < 2:
        work(*args)
        return _joined
    failed = []

    def run():
        try:
            work(*args)
        except BaseException as e:  # raised in the caller by join
            failed.append(e)

    t = threading.Thread(target=run)
    t.start()

    def join():
        t.join()
        if failed:
            raise failed.pop()

    return join


def _joined():
    """The join() of work that ran in the caller."""


def _in_halves(work, lo, hi):
    """work(lo, mid) in a worker thread (_start) and work(mid, hi) in the
    caller, mid the middle of the range, or a range of one or none whole in
    the caller; the worker is joined before this returns or raises."""
    mid = (lo + hi) // 2
    join = _start(work, lo, mid) if mid > lo else _joined
    try:
        work(mid, hi)
    finally:
        join()


def _fgn_davies_harte(n, hurst, rng, dtype):
    """Fractional Gaussian noise with exact covariance, unit steps.

    The circulant embedding (Davies & Harte 1987) lives in one buffer of 2n
    values of dtype, read in place as the n complex values c_2j + i c_2j+1.
    Each real transform of length 2n is then one complex transform of
    length n, run in four steps over an (N2, N1) view of the buffer
    (_four_step), plus a split that pairs mode k with mode n - k (_split).
    No transform holds a plan or scratch longer than N2 values, N2 the
    smallest divisor of n that is at least sqrt(n), so the peak is the
    buffer and tables of about n^(3/4) values; a prime n makes N2 = n.
    The buffer is sized for the path of n + 1 float64 that gen_fbm builds in
    it: 2n values in float64, 2n + 2 in float32, of which the transforms use
    the first 2n.  Returns a view of the first n values, whose base is that
    buffer.

    Each stage whose elements or transform lines are independent runs in
    two halves, one in a worker thread and one in the caller (_in_halves),
    and the normals are drawn in the caller while a worker multiplies the
    block before into the spectrum.  A process that may use one CPU runs
    all of it in the caller.  Every element and every transform line gets
    the same arithmetic either way, so the bits depend on neither.
    """
    e = 2.0 * hurst
    m = 2 * n
    buf = np.empty(max(m, 8 * (n + 1) // dtype.itemsize), dtype=dtype)[:m]

    # autocovariance 0.5 ((k+1)**e + |k-1|**e - 2 k**e) for k = 0..n, from a
    # power table of _ROW_BLOCK values at a time.  The three-term difference
    # cancels ~2H digits of k**e, so it is formed in float64 before any
    # downcast
    def autocovariance(lo, hi):
        for a in range(lo, hi, _ROW_BLOCK):
            b = min(a + _ROW_BLOCK, hi)
            p = np.abs(np.arange(a - 1, b + 1, dtype=np.float64))
            p **= e
            acf = p[2:] + p[:-2]
            p *= 2.0
            acf -= p[1:-1]
            np.multiply(acf, 0.5, out=buf[a:b])

    def mirror(lo, hi):  # buf[n + 1 + i] = buf[n - 1 - i]
        buf[n + 1 + lo : n + 1 + hi] = buf[n - 1 - lo : n - 1 - hi : -1]

    _in_halves(autocovariance, 0, n + 1)
    _in_halves(mirror, 0, n - 1)
    N1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    N2 = n // N1
    z = buf.view(np.result_type(dtype, np.complex64)).reshape(N2, N1)
    _four_step(z, -1)
    # the real transform's mode k is X_k = E_k + exp(-i pi k / n) O_k, E and
    # O the transforms of the even and odd values; _split forms 2 X_k with
    # w_k = -i exp(-i pi k / n) = a[k2] b[k1]
    a = _unit_roots(n + 2 * np.arange(N2), 4 * n, -1, z.dtype)
    b = _unit_roots(np.arange(N1), 2 * N1, -1, z.dtype)
    top = _split(z, a, b, z[0, 0], z[0, 0])
    # twice the eigenvalues of the circulant over n, as _four_step scales by
    # 1/n, real up to rounding: 2 lambda_k / n in both parts of mode k's
    # slot, and the real modes 0 and n in slot 0.  Each half keeps its
    # largest and smallest value
    ends = []

    def eigenvalues(lo, hi):  # the slots of modes lo..hi
        v = buf[2 * lo : 2 * hi]
        v[1::2] = v[::2]
        if lo == 0:
            v[1] = top.real
        ends.append((v.max(), v.min()))

    _in_halves(eigenvalues, 0, n)
    largest, smallest = zip(*ends)
    # rounding floor of the length-m transform; anything below it means the
    # embedding itself is indefinite rather than numerically fuzzy, which
    # the circulant embedding of fGn never is for H in (0, 1)
    tol = max(1e-10, np.finfo(dtype).eps * math.sqrt(m)) * float(np.max(largest))
    if float(np.min(smallest)) < -tol:
        raise InvariantError("circulant embedding of fGn is not positive semidefinite")

    def amplitudes(lo, hi):
        v = buf[lo:hi]
        np.maximum(v, 0.0, out=v)
        v *= n * (n / 2.0)  # lambda_k m / 2, from 2 lambda_k / n
        np.sqrt(v, out=v)

    _in_halves(amplitudes, 0, m)
    # Hermitian-symmetric Gaussian spectrum sqrt(lambda_k m / 2) (wr_k + i wi_k),
    # with wr_0 and wr_n scaled by sqrt 2 and wi_0 = wi_n = 0.  The normals
    # are drawn as the wr block of n + 1 and then the wi block, in mode
    # order, the same stream as two whole draws, but into a ring of two
    # small slots: 16 whole columns of z at a time, or _ROW_BLOCK rows of one
    # column when a column is longer.  While the caller draws a block into
    # one slot, a worker multiplies the block before, in the other, into
    # the spectrum.  A draw array of the path's size would raise the peak by
    # half the buffer, and fewer columns make the strided products slower
    # (2 columns took twice as long at n = 2^23).  wi_n, the last draw, is
    # never used, so it is not drawn
    cols, rows = (min(N1, 16), N2) if N2 <= _ROW_BLOCK else (1, _ROW_BLOCK)
    ring = np.empty((2, rows * cols), dtype=dtype)
    for imag, part in enumerate((z.real, z.imag)):
        blocks = (part[r : r + rows, c : c + cols] for c in range(0, N1, cols) for r in range(0, N2, rows))
        join = _joined
        try:
            for i, s in enumerate(blocks):
                g = ring[i % 2, : s.size].reshape(s.shape[::-1])
                rng.standard_normal(dtype=dtype, out=g)
                join()
                join = _start(np.multiply, s, g.T, s)
        finally:
            join()
        if not imag:  # wr_n, and the sqrt 2 of the two real modes
            mode_n = buf[1] * (math.sqrt(2.0) * rng.standard_normal(dtype=dtype))
            buf[0] *= math.sqrt(2.0)
    buf[1] = mode_n  # wi_0 = 0: slot 0 holds the two real modes
    # back to the real transform's input, in natural order
    _split(z, a.conj(), b.conj(), buf[0], buf[1])
    _four_step(z, 1)
    noise = buf[:n]

    def halve(lo, hi):  # the inverse's 1/n, less the real transform's 1/m
        v = noise[lo:hi]
        v *= 0.5

    _in_halves(halve, 0, n)
    return noise


def _unit_roots(t, n, sign, dtype):
    """exp(sign 2 pi i t / n) for an integer array t, reduced mod n first.
    t is overwritten, and the complex128 angles take their exp in place."""
    t %= n
    w = np.multiply(t, sign * 2j * math.pi / n)
    return np.exp(w, out=w).astype(dtype, copy=False)


def _four_step(z, sign):
    """The length-n transform (1/n) sum_j z_j exp(sign 2 pi i j k / n) in
    place over the (N2, N1) view z, n = N2 N1 (Bailey 1990).  Forward
    (sign -1), z holds z_j at [j2, j1], j = N1 j2 + j1, and the result mode
    k = k2 + N2 k1 at [k2, k1]: transforms of length N2 down the columns,
    the twiddles exp(-2 pi i j1 k2 / n), transforms of length N1 along the
    rows.  The inverse (sign 1) runs the same steps backwards, from that
    transposed layout to natural order.  Both directions are scaled by
    1/length, because NumPy passes an unscaled transform the int 1 as its
    scale, which sends complex64 through the complex128 loop and a copy of
    z; a scale of z's own precision keeps either dtype in place.  The
    column transforms run in two halves of the columns, the twiddles and
    row transforms in two halves of the rows (_in_halves)."""
    N2, N1 = z.shape
    n = N2 * N1
    transform, norm = (np.fft.fft, "forward") if sign < 0 else (np.fft.ifft, "backward")
    # the twiddle of row k2 = q P + r is low[r] high_q, high_q formed as
    # its block of P rows is reached and low a table of P rows
    P = math.isqrt(N2 - 1) + 1
    j1 = np.arange(N1)
    low = _unit_roots(np.outer(np.arange(P), j1), n, sign, z.dtype)

    def columns(lo, hi):
        v = z[:, lo:hi]
        transform(v, axis=0, norm=norm, out=v)

    def rows(lo, hi):  # the blocks of P rows from q = lo to hi
        v = z[lo * P : hi * P]
        if sign > 0:
            transform(v, axis=1, norm=norm, out=v)
        for q in range(lo, hi):
            block = z[q * P : (q + 1) * P]
            block *= low[: block.shape[0]]
            block *= _unit_roots(j1 * (q * P), n, sign, z.dtype)
        if sign < 0:
            transform(v, axis=1, norm=norm, out=v)

    if sign < 0:
        _in_halves(columns, 0, N1)
    _in_halves(rows, 0, -(-N2 // P))
    if sign > 0:
        _in_halves(columns, 0, N1)


def _split(z, a, b, z0, zn):
    """z_k <- (z_k + conj z_(n-k)) + w_k (z_k - conj z_(n-k)) in place, for
    every mode k = k2 + N2 k1 of the transposed spectrum z, at [k2, k1],
    with w_k = a[k2] b[k1] and mode 0 paired as z0 with zn.  Returns the
    map's value at mode n, which has no slot.  Needs w_(n-k) = conj(w_k):
    then the value at n - k is conj(A - B) where the value at k is A + B,
    so each pair is formed once.  Row 0 pairs its columns k1 and N1 - k1;
    rows k2 and N2 - k2 pair column-reversed, a block of rows at a time,
    both partners computed from copies, the pairs in two disjoint halves
    (_in_halves)."""
    N2, N1 = z.shape

    def pair(p, q, w):  # p = z_k (a copy), q = conj z_(n-k)
        s = p + q
        p -= q
        p *= w
        return s + p, np.conj(np.subtract(s, p, out=s), out=s)

    p = z[0].copy()
    q = np.conj(np.roll(p[::-1], 1))
    p[0], q[0] = z0, np.conj(zn)
    z[0], top = pair(p, q, a[0] * b)
    h = max(1, _ROW_BLOCK // N1)

    def pairs(lo, hi):  # rows lo..hi and their partners
        for r in range(lo, hi, h):
            s = min(r + h, hi)
            partner = z[N2 - r : N2 - s : -1, ::-1]
            z[r:s], partner[...] = pair(z[r:s].copy(), np.conj(partner), a[r:s, None] * b)

    _in_halves(pairs, 1, N2 // 2 + 1)
    return top[0]


def gen_fbm(hurst, scale, T, grid_step, seed, dtype=np.float64) -> PricePath:
    """Exponential of fractional Brownian motion from 1, one column, with
    exact increment covariance by circulant (Davies-Harte) embedding.  The
    noise is synthesized in one buffer of 2K values of dtype, transformed
    in place by NumPy's FFT in four steps of length about sqrt(K).  The
    buffer is the path's home: the noise is shifted up one slot, widened to
    float64 in place, the buffer shrunk to the K + 1 values of the path and
    the path summed in place, returned with T alone.  The peak is that
    buffer: two path sizes, or one in float32.  A dtype other than float32
    or float64, and a grid whose buffer NumPy cannot allocate, are refused
    first, the grid by T and grid_step.  The synthesis (_fgn_davies_harte)
    and the final scalings and exp run on two threads, in the caller alone
    where the process may use one CPU; the path's bits depend on neither."""
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must be in (0, 1), got {hurst!r}")
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale!r}")
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    # one buffer of 2K of dtype, which holds the path's K + 1 of 8
    K, h = _grid(T, grid_step, 2 * max(dtype.itemsize, 4))
    noise = _fgn_davies_harte(K, hurst, np.random.default_rng(seed), dtype)
    buf = noise.base
    # path[i + 1] starts at or above noise[i]'s byte in either dtype, so
    # blocks copied from the top down never overwrite unread noise
    path = buf.view(np.float64)
    for lo in reversed(range(0, K, _ROW_BLOCK)):
        hi = min(lo + _ROW_BLOCK, K)
        path[lo + 1 : hi + 1] = noise[lo:hi]
    path[0] = 0.0
    # give back the tail.  resize refuses while anything else references buf,
    # which a move would leave dangling: a stray view, or a tracer's snapshot
    # of this frame's locals (frame.f_locals before Python 3.13).  The path
    # then stays at the front of the whole buffer
    del noise, path
    try:
        buf.resize(8 * (K + 1) // buf.itemsize)
    except ValueError:
        pass
    path = buf.view(np.float64)[: K + 1]
    np.cumsum(path[1:], out=path[1:])
    step = h**hurst

    def finish(lo, hi):
        v = path[lo:hi]
        v *= step
        v *= scale
        np.exp(v, out=v)

    _in_halves(finish, 0, K + 1)
    return PricePath(path, T)


def _run_embedded_sos(emb: Embedding):
    """Fast sequential strategy over an embedding.  Returns the final log
    capital, the residual period from the last stop to the horizon
    included, and the unclipped bet V^{-1} s that sos_capital_fast forms
    after the last stop, which that period plays clipped.  With no stop
    both are zero, as is s, the sum of the +-c axis training points, and
    the rule is skipped: its V overflows to inf for a delta near 1e200."""
    d = emb.outcomes.shape[1]
    if emb.N == 0:
        return 0.0, np.zeros(d)
    training = game_config_for_embedding(emb.delta, d).training.points
    bound = 1.0 / training.max()
    gains, alpha = sos_capital_fast(emb.outcomes, training, bound)
    logK = float(np.sum(gains))
    logK += math.log(1.0 + float(np.clip(alpha, -bound, bound) @ emb.final_return))
    return logK, alpha


def holder_experiment(path: PricePath, delta_grid):
    """Capital and quadratic variation across a grid of crossing radii.

    Returns a list of dicts {delta, N, trV_N, logK, delta_alpha_norm} plus
    the implied roughness exponents between consecutive radii a and b.
    tr V_N = N delta^2 grows like delta^(2 - 1/H), so N like delta^(-1/H),
    and H is formed from the counts, log(delta_a/delta_b) / log(N_b/N_a):
    from tr V_N the delta^2 would cancel only up to rounding.  It is NaN
    when either count is 0 or the two are equal.
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
        if a["N"] and b["N"] and a["N"] != b["N"]:
            hs.append(math.log(a["delta"] / b["delta"]) / math.log(b["N"] / a["N"]))
        else:
            hs.append(float("nan"))
    return rows, hs


def girsanov_rate_experiment(mu, sigma, T, delta, seed):
    """Simulated growth rate of the embedded strategy under GBM vs the
    analytic target 0.5 mu' (sigma sigma')^{-1} mu.  The grid step bounds
    both moves of one step: it is (delta / (5 max_i |sigma_i|))^2 for the
    noise and, unless mu = 0, at most delta / (5 max_i |mu_i|) for the
    drift, so a one-step return is about a fifth of delta.  A delta that
    makes 2^62 grid steps or more over T, or a path NumPy cannot allocate,
    is refused by name, before the path is made.  The step is at most T."""
    _require_positive(delta=delta, T=T)
    mu, sigma = _gbm_params(mu, sigma)
    noise = delta / (5.0 * float(np.max(np.linalg.norm(sigma, axis=1))))
    mmax = float(np.max(np.abs(mu)))
    step = min(noise * noise, delta / (5.0 * mmax) if mmax > 0.0 else T, T)
    got = f"got delta = {delta!r} and T = {T!r}"
    if step == 0.0 or T / step >= 2.0**62:  # _grid's tests, which name the step
        raise ValueError(f"delta must give fewer than 2^62 grid steps over T, {got}")
    if (math.ceil(T / step) + 1) * 8 * mu.size > sys.maxsize:
        raise ValueError(f"delta must give a path over T that NumPy can allocate, {got}")
    path = gen_gbm(mu, sigma, T, step, seed)
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
    return GameConfig(domain=dom, training=make_training(dom))
