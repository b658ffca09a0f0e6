"""Checks of gtpbet's outputs against computations made apart from it.

Each check takes plain arrays and numbers and raises CheckError on a
mismatch.  None reuses the code path it checks: the stops are verified
with one vectorised predicate instead of the block scan, the first-order
rule is replayed with a plain loop (d = 1) or a direct solve of the
accumulated V and s (d >= 2) instead of prefix sums or rank-one updates,
hindsight optima are re-solved with SciPy, and the universal portfolio is
recomputed in log space.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program disagrees with the independent value."""


def _close(name, got, want, tol):
    if not abs(got - want) <= tol:
        raise CheckError(f"{name}: program gave {got!r}, expected {want!r} (tol {tol:.3g})")


def stops(values, stop_indices, delta, n_reported):
    """Every stop crosses, no index between two stops crosses, nothing
    crosses after the last stop, and N equals the reported N.

    Index j crosses when sum((S_j/S_a - 1)**2) >= delta**2, a being the
    last stop before j (or 0), the same float operations as the scan's.
    """
    S = np.asarray(values, dtype=float)
    S = S.reshape(S.shape[0], -1)
    K = S.shape[0] - 1
    t = np.asarray(stop_indices, dtype=np.int64)
    if t.size != n_reported:
        raise CheckError(f"{t.size} stops but N = {n_reported} reported")
    if t.size and (t[0] < 1 or t[-1] > K or np.any(np.diff(t) <= 0)):
        raise CheckError("stop indices are not strictly increasing inside the grid")
    anchors = np.concatenate([[0], t])
    lengths = np.diff(np.concatenate([anchors, [K]]))
    r = S[1:] / S[np.repeat(anchors, lengths)]
    r -= 1.0
    r *= r
    crosses = r.sum(axis=1) >= delta * delta
    expected = np.zeros(K, dtype=bool)
    expected[t - 1] = True
    bad = np.flatnonzero(crosses != expected)
    if bad.size:
        j = int(bad[0]) + 1
        what = "is a stop but does not cross" if expected[j - 1] else "crosses but is not a stop"
        raise CheckError(f"delta = {delta}: grid index {j} {what}")


def _embedded_outcomes(values, stop_indices, delta):
    """Returns between stops, rescaled to norm delta."""
    S = np.asarray(values, dtype=float)
    S = S.reshape(S.shape[0], -1)
    t = np.asarray(stop_indices, dtype=np.int64)
    raws = S[t] / S[np.concatenate([[0], t[:-1]])] - 1.0
    return raws * (delta / np.sqrt(np.sum(raws * raws, axis=1)))[:, None]


def fast_logk(values, stop_indices, delta, logk_reported, delta_alpha_norm=None, epsilon0=0.1):
    """Log capital of the first-order rule alpha = clip(V^{-1} s) over the
    embedded outcomes, with axis training +-c e_i, plus the standing bet on
    the residual return to the horizon; optionally delta * |V^{-1} s| at
    the end.  d = 1 replays the rounds one by one; d >= 2 solves every
    round's accumulated V and s directly."""
    S = np.asarray(values, dtype=float)
    S = S.reshape(S.shape[0], -1)
    t = np.asarray(stop_indices, dtype=np.int64)
    x = _embedded_outcomes(S, t, delta)
    N, d = x.shape
    c = delta * math.sqrt(d) / (1.0 - epsilon0)
    bound = 1.0 / c
    V0 = 2.0 * c * c  # training +-c e_i: s_0 = 0, V_0 = 2 c^2 I
    if d == 1:
        logk, s, v = 0.0, 0.0, V0
        for xi in x[:, 0].tolist():
            a = min(max(s / v, -bound), bound)
            logk += math.log1p(a * xi)
            s += xi
            v += xi * xi
    else:
        s_prev = np.cumsum(x, axis=0) - x
        V_prev = np.cumsum(x[:, :, None] * x[:, None, :], axis=0) - x[:, :, None] * x[:, None, :]
        V_prev += V0 * np.eye(d)
        alpha = np.clip(np.linalg.solve(V_prev, s_prev[:, :, None])[:, :, 0], -bound, bound)
        logk = math.fsum(np.log1p(np.sum(alpha * x, axis=1)))
    da = 0.0
    if N:
        alpha = np.linalg.solve(V0 * np.eye(d) + x.T @ x, x.sum(axis=0))
        final = S[-1] / S[t[-1]] - 1.0
        logk += math.log1p(float(np.clip(alpha, -bound, bound) @ final))
        da = delta * float(np.linalg.norm(alpha))
    _close(f"delta = {delta}: log capital", logk_reported, logk, 1e-8 * max(1.0, abs(logk)))
    if delta_alpha_norm is not None:
        _close(f"delta = {delta}: delta*|alpha|", delta_alpha_norm, da, 1e-9 * da)


def fgn_moments(values, hurst, scale, h):
    """Log increments of exp(scale * fBm) are fGn: variance scale^2 h^{2H}
    and lag-1 autocorrelation 2^{2H-1} - 1.  Both tolerances are
    10/sqrt(n), several standard errors for any H < 3/4."""
    inc = np.diff(np.log(np.asarray(values, dtype=float).reshape(len(values), -1)[:, 0]))
    n = inc.size
    inc -= inc.mean()
    var = float(inc @ inc) / n
    rho1 = float(inc[1:] @ inc[:-1]) / n / var
    want = scale * scale * h ** (2.0 * hurst)
    tol = 10.0 / math.sqrt(n)
    _close("increment variance / scale^2 h^2H", var / want, 1.0, tol)
    _close("lag-1 autocorrelation", rho1, 2.0 ** (2.0 * hurst - 1.0) - 1.0, tol)


def kelly_target(mu, sigma, target):
    """The analytic rate 0.5 mu' (sigma sigma')^{-1} mu."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    want = 0.5 * float(mu @ np.linalg.inv(sigma @ sigma.T) @ mu)
    _close("growth-rate target", target, want, 1e-12 * abs(want))


def return_transform(prices, c):
    """(training, outcomes) of the return transform: returns mapped onto
    [-1, 1] by the per-item extremes, rho the mean of the 2^d sign corners
    and the first floor(c T) mapped returns, both centred by rho."""
    P = np.asarray(prices, dtype=float)
    T, d = P.shape
    R = P[1:] / P[:-1] - 1.0
    lo, hi = R.min(axis=0), R.max(axis=0)
    z = (2.0 * R - hi - lo) / (hi - lo)
    F = int(math.floor(c * T))
    corners = np.array([[1.0 if (k >> j) & 1 else -1.0 for j in range(d)] for k in range(2**d)])
    rho = (corners.sum(axis=0) + z[:F].sum(axis=0)) / (2**d + F)
    return corners - rho, z[F:] - rho


def ld1(values, tol=1e-9):
    """LD1 >= 0 and nondecreasing (every round's delta-phi >= 0)."""
    v = np.asarray(values, dtype=float)
    if v.size and v[0] < -tol:
        raise CheckError(f"LD1 = {v[0]!r} < 0 at round 1")
    steps = np.diff(v)
    if np.any(steps < -tol):
        n = int(np.argmin(steps)) + 2
        raise CheckError(f"LD1 decreases by {-steps.min():.3g} at round {n}")


def _hindsight(X):
    """max_alpha sum log(1 + X alpha), re-solved with SciPy's Newton-CG."""
    from scipy.optimize import minimize

    def neg_phi(a):
        r = 1.0 + X @ a
        return math.inf if np.any(r <= 0.0) else -float(np.sum(np.log(r)))

    def grad(a):
        return -(X.T @ (1.0 / (1.0 + X @ a)))

    def hess(a):
        w = 1.0 / (1.0 + X @ a) ** 2
        return (X * w[:, None]).T @ X

    res = minimize(neg_phi, np.zeros(X.shape[1]), jac=grad, hess=hess,
                   method="Newton-CG", options={"xtol": 1e-14})
    gnorm = float(np.linalg.norm(grad(res.x)))
    if not gnorm <= 1e-7 * X.shape[0]:
        raise CheckError(f"SciPy re-solve did not converge (|grad| = {gnorm:.3g})")
    return res.x, -float(res.fun)


def hindsight(training, outcomes, logk_true, logk_hindsight, rounds):
    """At each sampled round n: logK_hindsight[n] is the optimum over the
    training and the first n outcomes, and round n's gain is
    log(1 + alpha.x_n) with alpha the optimum through round n - 1."""
    X = np.vstack([training, outcomes])
    n0 = len(training)
    lt = np.asarray(logk_true, dtype=float)
    lh = np.asarray(logk_hindsight, dtype=float)
    for n in rounds:
        alpha, _ = _hindsight(X[: n0 + n - 1])
        gain = lt[n - 1] - (lt[n - 2] if n > 1 else 0.0)
        _close(f"round {n} gain", gain, math.log1p(float(alpha @ X[n0 + n - 1])), 1e-8)
        _, phi = _hindsight(X[: n0 + n])
        _close(f"round {n} hindsight log capital", lh[n - 1], phi, 1e-8 * max(1.0, abs(phi)))


def universal(path, M, ku0, ku1, ku0_final, ku1_final):
    """K^U_n is the mean over the M account midpoints alpha_m of
    prod_{i<=n} (1 + alpha_m x_i), times (1 - alpha_m^2) for the trained
    variant; recomputed as exp of summed logs.  ku0 and ku1 are the
    per-round series, the finals the summary's values."""
    x = np.asarray(path, dtype=float).reshape(-1)
    alphas = -1.0 + (2.0 * np.arange(M) + 1.0) / M
    caps = np.exp(np.cumsum(np.log1p(x[:, None] * alphas[None, :]), axis=0))
    for name, got, final, want in (
        ("KU0", ku0, ku0_final, caps.mean(axis=1)),
        ("KU1", ku1, ku1_final, (caps * (1.0 - alphas * alphas)).mean(axis=1)),
    ):
        got = np.append(got, final)
        want = np.append(want, want[-1])
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        if got.shape != want.shape or not np.all(err <= 1e-9):
            n = int(np.argmax(err)) + 1 if got.shape == want.shape else 0
            raise CheckError(f"{name} disagrees with the account mean at round {n}")
