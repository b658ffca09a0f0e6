"""Sequential optimizing strategy: bet this round with last round's optimum.

Each round n the bettor uses alpha_n = alpha*_{n-1}, the maximizer of the
log-capital objective over the history through round n-1 (training
included), then re-optimizes.  Alongside the true log capital the run
records the hindsight optimum, the determinant-ratio penalty that turns
the hindsight value into a realizable approximation, and the per-round
deficiency and rate diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    _ROW_BLOCK,
    CapitalLedger,
    CollateralError,
    Domain,
    GameConfig,
    InvariantError,
    as_path,
    running_moments,
)
from .optimizer import PhiProblem, SolverError, _newton_rows, _outer_rows, solve_phi

__all__ = [
    "SosResult",
    "sos_run",
    "sos_capital_fast",
    "deficiency_bounds",
    "deficiency_constants",
    "slln_ratio",
    "slln2_ratio",
]


@dataclass
class SosResult:
    """Ledger plus the arrays needed by the diagnostics operations."""

    ledger: CapitalLedger
    config: GameConfig
    outcomes: np.ndarray  # (N, d), without training
    alpha_star: np.ndarray  # (N, d), alpha*_n after each round
    delta_phi: np.ndarray  # (N,)
    a_n: np.ndarray  # (N,) x_n' V_{0,n-1}^{-1} x_n (determinant recursion)
    iterations: np.ndarray  # (N,) Newton iterations that solved each round

    @property
    def N(self) -> int:
        return self.outcomes.shape[0]

    def summary(self) -> dict:
        led = self.ledger
        c1, c2, c3 = deficiency_constants(self.config)
        out = {
            "N": self.N,
            "logK_true": float(led.logK_true[-1]),
            "logK_hindsight": float(led.logK_hindsight[-1]),
            "logK_approx": float(led.logK_approx[-1]),
            "C1": c1,
            "C2": c2,
            "C3": c3,
            "slln_ratio": float(slln_ratio(self.outcomes)[-1]),
        }
        r2 = slln2_ratio(self.outcomes)
        out["slln2_ratio"] = float(r2[-1]) if np.isfinite(r2[-1]) else None
        return out


# Rounds per batched Newton solve.  With the self-concordant step rule,
# perfbench exact_trading on a 2-core host (10 s runs at seeds 701-710,
# order alternated) gave median pass_s 0.264 s at 16 and 0.245 s at 32,
# and median peak RSS 86.8 and 87.2 MiB; 32 was faster at 8 of the 10
# seeds and raised the peak RSS at all 10.  At 128, OpenBLAS threads the
# block products, which doubles the CPU time without saving wall time.
_BLOCK = 16


def sos_run(
    config: GameConfig,
    path,
    *,
    check_every: int = 64,
    check_tol_28b: float = 1e-6,
) -> SosResult:
    """Run the sequential optimizing strategy over a finite outcome path.

    alpha*_n maximises phi over the training points and x_1..x_n only, so
    the rounds are independent problems: they are solved _BLOCK at a
    time by one batched Newton, and every ledger column is then a
    whole-array expression.  Round n of a block starts from one Newton
    step from a, the previous block's last optimum (for the first block,
    the training-only optimum): a + H_n^{-1} g_n, where g_n is the
    gradient of phi over the history through round n at a and H_n minus
    its Hessian.  Over the history before the block the gradient is at
    most _GRAD_TOL and H is the one that solve returned, so both need
    only the block's own outcomes up to round n.  A prediction infeasible
    for its round's history starts from a instead, which lies inside the
    training polytope and so keeps 1 + a.x > 0 on the whole domain.  The
    result's iterations hold each round's Newton iteration count.

    Every check_every rounds the exact-relation identity alpha* = V*^{-1} s
    (with V* the reweighted second-moment matrix, its weights formed over
    that round's own history) and the determinant bookkeeping are verified
    from scratch; violations raise InvariantError.  A solver failure raises
    SolverError naming the round.  An empty path, a non-finite outcome or
    one outside the domain raises ValueError naming the round.
    """
    path = as_path(path, config.domain.d)
    N, d = path.shape
    if N == 0:
        raise ValueError("empty outcome path")
    if check_every < 1:
        raise ValueError("check_every must be a positive number of rounds")
    bad = np.flatnonzero(~config.domain.contains_rows(path))
    if bad.size:
        raise ValueError(f"outcome at round {bad[0] + 1} lies outside the domain")
    train = config.training.points
    n0 = train.shape[0]
    sol0 = solve_phi(PhiProblem(train))
    phi00_alpha0 = sol0.phi_value

    # the history, padded with zero outcomes to whole blocks: a zero outcome
    # adds exact zeros to every sum, so each block has the same shape, and
    # gives the same bits, in a run over a prefix of the path
    nb = -(-N // _BLOCK)
    X = np.zeros((n0 + nb * _BLOCK, d))
    X[:n0] = train
    X[n0 : n0 + N] = path
    P = _outer_rows(X)
    blocks = []
    alpha, info = sol0.alpha_star, sol0.hessian
    for hi in range(n0 + _BLOCK, X.shape[0] + 1, _BLOCK):
        lo = hi - _BLOCK
        # the predicted optima: running sums over the block's own rows from
        # alpha, the previous block's last optimum, and info, minus phi's
        # Hessian there, so a row's start reads no outcome after its round
        w = 1.0 / (1.0 + X[lo:hi] @ alpha)
        grad = np.cumsum(X[lo:hi] * w[:, None], axis=0)
        H = info.ravel() + np.cumsum(P[lo:hi] * (w * w)[:, None], axis=0)
        start = alpha + np.linalg.solve(H.reshape(-1, d, d), grad[:, :, None])[:, :, 0]
        ends = np.arange(lo + 1, hi + 1)
        try:
            blocks.append(_newton_rows(X[:hi], P[:hi], ends, start, alpha))
        except SolverError as exc:
            n = ends[exc.row] - n0
            msg = f"solver failed at round {n}: {exc}"
            raise SolverError(msg, exc.alpha, exc.grad_norm) from exc
        alpha, info = blocks[-1][0][-1], blocks[-1][3][-1]
    alphas, phis, _, hess, its = (np.concatenate(col)[:N] for col in zip(*blocks))

    # the bet of round n is alpha*_{n-1}
    bets = np.vstack([sol0.alpha_star, alphas[:-1]])
    growth = 1.0 + np.einsum("ni,ni->n", bets, path)
    bad = np.flatnonzero(~(growth > 0.0))
    if bad.size:
        raise CollateralError(f"collateral violated at round {bad[0] + 1}")
    log_growth = np.log(growth)
    logK = np.cumsum(log_growth)
    # phi_{0,n}(alpha*_{n-1}) = phi_{0,n-1}(alpha*_{n-1}) + log growth_n
    delta_phi = phis - (np.concatenate([[phi00_alpha0], phis[:-1]]) + log_growth)
    bad = np.flatnonzero(~(delta_phi >= -1e-12))
    if bad.size:
        raise InvariantError(f"delta-phi negative at round {bad[0] + 1}: {delta_phi[bad[0]]}")

    # penalty accumulation: the round term is
    # log|I_n(a*_n)| - log|I_{n-1}(a*_n)| = -log(1 - h) with
    # h = x_n(a*_n)' I_n(a*_n)^{-1} x_n(a*_n) (rank-one downdate)
    xa = path / (1.0 + np.einsum("ni,ni->n", alphas, path))[:, None]
    h = np.einsum("ni,ni->n", xa, np.linalg.solve(hess, xa[:, :, None])[:, :, 0])
    log_info_sum = np.cumsum(-np.log1p(-h))

    # s_{0,n}, V_{0,n} for n = 0..N, and the determinant recursion
    # |V_{0,n}| = |V_{0,n-1}| (1 + a_n) with a_n = x_n' V_{0,n-1}^{-1} x_n
    s, V = running_moments(path, train.sum(axis=0), train.T @ train)
    sign, logdet_0 = np.linalg.slogdet(V[0])
    if not sign > 0.0:
        raise InvariantError("training second-moment matrix is not positive definite")
    a_seq = np.einsum("ni,ni->n", path, np.linalg.solve(V[:-1], path[:, :, None])[:, :, 0])
    logdet = logdet_0 + np.cumsum(np.log1p(a_seq))

    # independent check of the exact relation alpha* = V*^{-1} s, with each
    # checked round's residuals recomputed over its own history, and of the
    # determinants
    checked = np.arange(check_every, N + 1, check_every)
    for n in checked:
        a, m = alphas[n - 1], n0 + n
        Vstar = ((1.0 / (1.0 + X[:m] @ a)) @ P[:m]).reshape(d, d)
        resid = np.linalg.norm(a - np.linalg.solve(Vstar, s[n]))
        if not resid <= check_tol_28b:
            raise InvariantError(f"exact-relation residual {resid:.3e} at round {n}")
    sign, ld = np.linalg.slogdet(V[checked])
    drift = np.abs(ld - logdet[checked - 1])
    bad = np.flatnonzero(~((sign > 0.0) & (drift <= 1e-8 * np.maximum(1.0, np.abs(ld)))))
    if bad.size:
        raise InvariantError(f"determinant drift at round {checked[bad[0]]}")

    n = np.arange(1, N + 1)
    m = n + n0
    ledger = CapitalLedger(N)
    ledger.logK_true[:] = logK
    ledger.logK_hindsight[:] = phis
    ledger.logK_approx[:] = phis - 0.5 * log_info_sum
    ledger.LD1[:] = phis - logK - phi00_alpha0
    ledger.LD2[:] = 0.5 * log_info_sum
    ledger.LD3[:] = 1.5 * np.log(n)
    ledger.GR[:] = phis / m  # exact KL identity with the hindsight value
    ledger.QR[:] = np.einsum("ni,ni->n", alphas, s[1:]) / (2.0 * m)
    ledger.DR[:] = log_info_sum / (2.0 * n)

    return SosResult(
        ledger=ledger,
        config=config,
        outcomes=path,
        alpha_star=alphas,
        delta_phi=delta_phi,
        a_n=a_seq,
        iterations=its,
    )


def sos_capital_fast(path, training, alpha_box):
    """Per-round log gains of the first-order sequential strategy, and its next bet.

    For high-frequency embeddings (hundreds of thousands of tiny
    outcomes) the exact per-round re-optimization is replaced by the
    leading-order rule alpha = V^{-1} s over the raw second-moment
    statistics, clipped component-wise to alpha_box, which is the
    prudence box implied by axis training and keeps every growth factor
    positive.

    s and V are the training totals plus the running moments of the path,
    which do not depend on the bets.  They run column by column,
    _ROW_BLOCK rounds at a time (an empty path is one empty block), with
    the same bits as at once, and each block forms the rule on every row.

    Returns (gains, bet): the log gains log(1 + alpha_n . x_n), one per
    round, whose sum is the final log capital, and the rule after the last
    round, unclipped: bit for bit the bet of a round N + 1 before the box.
    """
    training = as_path(training)
    d = training.shape[1]
    path = as_path(path, d)
    train_s, train_V = training.sum(axis=0), training.T @ training
    bound = np.broadcast_to(np.asarray(alpha_box, dtype=float), (d,))
    gains = np.zeros(path.shape[0])  # a row sum starts from +0.0, as NumPy's does
    s = V = None
    for lo in range(0, max(path.shape[0], 1), _ROW_BLOCK):
        x = path[lo : lo + _ROW_BLOCK]
        s, V = running_moments(x, s, V)
        last = s[-1].copy(), V[-1].copy()  # the next block's start; copies free this one
        for i in range(d):
            s[:, i] += train_s[i]
            for j in range(d):
                V[:, i, j] += train_V[i, j]
        if d == 1:
            alpha = s / V[:, 0]
        else:
            alpha = np.linalg.solve(V, s[:, :, None])[:, :, 0]
        g = gains[lo : lo + x.shape[0]]
        for i in range(d):
            a = alpha[:-1, i]  # the bets of the block's rounds
            np.clip(a, -bound[i], bound[i], out=a)
            a *= x[:, i]
            g += a
        s, V = last
    return np.log1p(gains, out=gains), alpha[-1].copy()


def deficiency_constants(config: GameConfig):
    """(C1, C2, C3) from the domain and training set.

    C1 is the larger of the maximum one-round growth factor over prudent
    strategies, Domain.max_growth_constant, and the maximum of 1 + alpha.x_n
    over training points and alpha in the training polytope.
    C2 = C1^2 / epsilon0^2 and C3 = C2 (d tr V_{0,0} - log |V_{0,0}|).

    The training maximum is the growth constant of the box [lo, hi] that
    the points span, for the two shapes that make_training builds,
    recognised from the points: points on the coordinate axes (at most one
    nonzero component each), and the sign corners of [lo, hi], all 2^d of
    them, repeats allowed.  Either needs lo < 0 < hi; a training set of any
    other shape raises ValueError.
    """
    train = config.training.points
    d = config.domain.d
    c1 = max(config.domain.max_growth_constant(), _training_growth_constant(train))
    eps = config.training.epsilon0
    c2 = c1 * c1 / (eps * eps)
    V00 = train.T @ train
    sign, logdet = np.linalg.slogdet(V00)
    c3 = c2 * (d * float(np.trace(V00)) - logdet)
    return c1, c2, c3


def _training_growth_constant(train):
    """max over training points x_n of max_{alpha in P} 1 + alpha . x_n,
    where P = {alpha : 1 + alpha . x_i >= 0 for all training i}.

    With lo and hi the points' componentwise extremes, both shapes give
    max_j max(hi_j / |lo_j|, |lo_j| / hi_j) for the inner product, so the
    maximum is the max_growth_constant of the box [lo, hi], exactly 2 for
    +-c e_i.  Points on the axes make P the box
    -1/hi_j <= alpha_j <= 1/|lo_j|, and each point reads one coordinate of
    it.  Every corner of [lo, hi] makes P
    {sum_j max(alpha_j |lo_j|, -alpha_j hi_j) <= 1}, and a corner's best
    alpha spends that budget on the coordinate with the best gain per unit.
    """
    n0, d = train.shape
    lo, hi = train.min(axis=0), train.max(axis=0)
    if np.all(lo < 0.0) and np.all(hi > 0.0):
        on_axes = np.all(np.count_nonzero(train, axis=1) <= 1)
        corners = n0 >= 2**d and np.all((train == lo) | (train == hi))
        if corners:
            codes = (train == hi) @ (1 << np.arange(d))
            corners = np.unique(codes).size == 2**d
        if on_axes or corners:
            return Domain.box(lo, hi).max_growth_constant()
    raise ValueError(
        "training set must be points on the coordinate axes or the 2^d "
        "sign corners of a box [lo, hi], with lo < 0 < hi"
    )


def deficiency_bounds(result: SosResult):
    """Per-round cumulative deficiency and its two training-data bounds.

    Returns a dict of arrays: cum_delta_phi, lemma1_bound
    (C2 log|V_{0,n}|/|V_{0,0}|) and lemma2_bound
    (d C2 max(0, log tr V_n) + C3).  Raises InvariantError unless the
    second bound holds at every round.
    """
    config = result.config
    c1, c2, c3 = deficiency_constants(config)
    d = config.domain.d
    train = config.training.points
    cum = np.cumsum(result.delta_phi)
    sign, logdet_V00 = np.linalg.slogdet(train.T @ train)
    logdet = logdet_V00 + np.cumsum(np.log1p(result.a_n))
    lemma1 = c2 * (logdet - logdet_V00)
    tr_vn = np.trace(running_moments(result.outcomes)[1][1:], axis1=1, axis2=2)
    lemma2 = d * c2 * np.maximum(0.0, np.log(np.maximum(tr_vn, 1e-300))) + c3
    if np.any(cum > lemma2 + 1e-9):
        k = int(np.argmax(cum - lemma2))
        raise InvariantError(f"deficiency bound violated at round {k + 1}")
    return {
        "C1": c1,
        "C2": c2,
        "C3": c3,
        "cum_delta_phi": cum,
        "lemma1_bound": lemma1,
        "lemma2_bound": lemma2,
    }


def slln_ratio(outcomes):
    """||s_n|| / sqrt(max(1, tr V_n log tr V_n)) per round (no training)."""
    s, V = running_moments(outcomes)
    tr = np.trace(V[1:], axis1=1, axis2=2)
    with np.errstate(invalid="ignore"):
        denom = np.sqrt(np.maximum(1.0, tr * np.log(np.maximum(tr, 1e-300))))
    return np.linalg.norm(s[1:], axis=1) / denom


def slln2_ratio(outcomes):
    """s_n' V_n^{-1} s_n / log |V_n| per round; NaN where V_n is singular
    or the log determinant is non-positive (no training data involved)."""
    s, V = running_moments(outcomes)
    s, V = s[1:], V[1:]
    out = np.full(len(s), np.nan)
    sign, logdet = np.linalg.slogdet(V)
    ok = (sign > 0.0) & (logdet > 0.0)
    sol = np.linalg.solve(V[ok], s[ok][..., None])[..., 0]
    out[ok] = np.einsum("ni,ni->n", s[ok], sol) / logdet[ok]
    return out
