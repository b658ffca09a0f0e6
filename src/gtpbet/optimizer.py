"""Maximization of the log-capital objective and its dual objects.

The objective over a finite outcome history x_1..x_m (training included)
is phi(alpha) = sum_n log(1 + alpha.x_n), strictly concave on the open
polytope {alpha : 1 + alpha.x_n > 0 for all n}.  The maximizer alpha*
defines a reweighting of the empirical distribution under which the
outcomes have mean zero; the maximal value equals m times the KL
divergence between the empirical distribution and that reweighting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import as_path, running_moments

__all__ = [
    "PhiProblem",
    "PhiSolution",
    "RiskNeutralDist",
    "SolverError",
    "solve_phi",
    "risk_neutral",
    "kl_capital_identity",
    "appendix_yn",
]


class SolverError(RuntimeError):
    """Iteration cap exceeded; carries the last iterate and, in a
    batched solve, the index of its row."""

    def __init__(self, msg, alpha, grad_norm, row=0):
        super().__init__(msg)
        self.alpha = alpha
        self.grad_norm = grad_norm
        self.row = row


@dataclass(frozen=True)
class PhiProblem:
    """Outcome history, training points first.  outcomes has shape (m, d)."""

    outcomes: np.ndarray

    def __post_init__(self):
        X = as_path(self.outcomes)
        object.__setattr__(self, "outcomes", X)
        if np.linalg.matrix_rank(X) != X.shape[1]:
            raise ValueError("outcome history must have full column rank")

    @property
    def d(self) -> int:
        return self.outcomes.shape[1]

    @property
    def m(self) -> int:
        return self.outcomes.shape[0]


@dataclass(frozen=True)
class PhiSolution:
    alpha_star: np.ndarray
    phi_value: float
    hessian: np.ndarray  # observed information at alpha*, positive definite
    iterations: int


_GRAD_TOL = 1e-10  # the gradient norm at which every Newton solve stops
_MAX_ITER = 200  # and its iteration cap


def solve_phi(problem: PhiProblem) -> PhiSolution:
    """Damped Newton ascent by the self-concordant step rule.

    -phi is a sum of log barriers, so the Newton decrement
    lam = sqrt(grad.H^-1 grad) bounds how far a step moves each residual
    1 + alpha.x_n relative to itself.  The full step is taken while
    lam <= 0.68 and the step 1/(1 + lam) of it otherwise; both keep the
    iterates in the open feasible set and increase phi, with no function
    value and no line search.  Terminates when the gradient norm drops
    to _GRAD_TOL, starting at the origin.  This is the one-history case of
    the batched solve behind the exact run.
    """
    X = problem.outcomes
    origin = np.zeros(problem.d)
    alpha, phi, _, hess, its = _newton_rows(
        X, _outer_rows(X), np.array([problem.m]), origin, origin, _GRAD_TOL, _MAX_ITER
    )
    return PhiSolution(
        alpha_star=alpha[0],
        phi_value=float(phi[0]),
        hessian=hess[0],
        iterations=int(its[0]),
    )


def _outer_rows(X) -> np.ndarray:
    """vec(x x') for every row x of X, as an (m, d*d) array, so that a
    weighted sum of the outer products is one matrix product."""
    m, d = X.shape
    return (X[:, :, None] * X[:, None, :]).reshape(m, d * d)


def _mask_beyond(M, ends, fill):
    """Sets M[b, j] = fill for every column j >= ends[b], in place; only
    the columns from min(ends) on are touched."""
    lo = int(ends.min())
    tail = M[:, lo:]
    tail[np.arange(lo, M.shape[1]) >= ends[:, None]] = fill
    return M


# The largest Newton decrement at which solve_phi takes the full step.  For
# lam < 1 the full step moves each residual by at most lam of itself and
# gains at least lam**2 - w(lam) in phi, w(lam) = -lam - log(1 - lam); at
# 0.68 that still clears the Armijo bound 1e-4 lam**2 (at 0.69 it does not).
# Beyond it the step 1/(1 + lam) keeps each residual >= R / (1 + lam) and
# gains at least lam - log(1 + lam).
_FULL_STEP = 0.68


def _newton_rows(X, P, ends, start, fallback, tol, max_iter):
    """solve_phi's damped Newton, run on B histories at once.

    Row b maximises phi over X[:ends[b]]; P is _outer_rows(X).  start
    is one point for every row, shape (d,), as solve_phi passes it, or
    one per row, shape (B, d), as the exact run passes its predicted
    optima.  A row whose start is infeasible (or NaN) for its own history
    starts from fallback, one point (d,) feasible for every row: the
    origin for solve_phi, the previous block's last optimum for the exact
    run.  Every row follows solve_phi's step rule on its own, and takes no
    further step once its gradient norm is at most tol.  The products are
    taken over the whole block, so a row's arithmetic does not depend on
    the other rows.  Raises SolverError for the first row that fails.
    Returns alpha (B, d), phi (B,), gradient norms (B,), Hessians
    (B, d, d) and iteration counts (B,).

    The call allocates two (B, m) arrays once, for m = len(X): the
    residuals R = 1 + alpha.x, formed afresh from alpha after every
    step, and the weights 1/R, which are squared in place for the
    Hessian.  Columns past a row's history hold residual 1 and weight 0.
    phi is formed once, from the final residuals.
    """
    B, (m, d) = len(ends), X.shape
    lo = int(ends.min())
    beyond = np.arange(lo, m) >= ends[:, None]  # of the columns from lo on
    alpha = np.array(np.broadcast_to(start, (B, d)), dtype=float)
    R, W = np.empty((B, m)), np.empty((B, m))
    its = np.zeros(B, dtype=int)
    for it in range(max_iter + 1):
        np.matmul(alpha, X.T, out=R)
        R += 1.0
        R[:, lo:][beyond] = 1.0
        if it == 0:  # the min is NaN, and not > 0, for a NaN start
            bad = ~(R.min(axis=1) > 0.0)
            if np.any(bad):
                alpha[bad] = fallback
                R[bad] = 1.0 + X @ fallback
                R[:, lo:][beyond] = 1.0
        np.divide(1.0, R, out=W)
        W[:, lo:][beyond] = 0.0
        grad = W @ X
        gnorm = np.linalg.norm(grad, axis=1)
        active = ~(gnorm <= tol)  # a NaN row runs on to the iteration cap
        if not np.any(active):
            break
        if it == max_iter:
            i = int(np.argmax(active))
            raise SolverError(
                f"no convergence in {max_iter} iterations (|grad| = {gnorm[i]:.3e})",
                alpha[i],
                gnorm[i],
                i,
            )
        hess = (np.multiply(W, W, out=W) @ P).reshape(B, d, d)
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        # lam**2 = grad.step = sum((step.x / R)**2), which rounding can
        # leave just below 0 at the optimum
        lam = np.sqrt(np.maximum(np.sum(grad * step, axis=1), 0.0))
        t = np.where(lam <= _FULL_STEP, 1.0, 1.0 / (1.0 + lam))
        t[~active] = 0.0
        alpha += t[:, None] * step
        its[active] += 1
    hess = (np.multiply(W, W, out=W) @ P).reshape(B, d, d)
    phi = np.log(R, out=W).sum(axis=1)
    return alpha, phi, gnorm, hess, its


@dataclass(frozen=True)
class RiskNeutralDist:
    """Empirical distribution g and its mean-zero reweighting g*.

    Duplicate outcome values are grouped exactly (bit-pattern equality),
    so values and the weight vectors are over distinct outcomes.
    """

    values: np.ndarray  # (k, d) distinct outcomes
    g: np.ndarray  # empirical probabilities
    g_star: np.ndarray  # reweighted probabilities, proportional to 1/(1+a.x)


def risk_neutral(problem: PhiProblem, sol: PhiSolution) -> RiskNeutralDist:
    X = problem.outcomes
    m = problem.m
    r = 1.0 + X @ sol.alpha_star
    values, inverse, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True
    )
    g = counts / m
    g_star = np.zeros(len(values))
    np.add.at(g_star, inverse, 1.0 / r / m)
    return RiskNeutralDist(values=values, g=g, g_star=g_star)


def kl_capital_identity(problem: PhiProblem, sol: PhiSolution, dist: RiskNeutralDist):
    """KL divergence D(g || g*) and the residual of phi(alpha*) = m D.

    The returned check is |phi(alpha*) - m * kl|; it should be below
    1e-9 * m when the solver converged.
    """
    kl = float(np.sum(dist.g * np.log(dist.g / dist.g_star)))
    check = abs(sol.phi_value - problem.m * kl)
    return kl, check


def appendix_yn(outcomes):
    """Norms of y_n = (u_1 u_1' + ... + u_{n-1} u_{n-1}')^{-1} u_n.

    The matrices are the running moments of the outcomes after the first
    d, started from those d, and every y_n comes from one batched solve.
    Requires ||u_n|| <= 1 and the first d outcomes linearly independent.
    """
    U = as_path(outcomes)
    d = U.shape[1]
    if np.any(np.linalg.norm(U, axis=1) > 1.0 + 1e-12):
        raise ValueError("outcomes must satisfy ||u_n|| <= 1")
    head, tail = U[:d], U[d:]
    if np.linalg.matrix_rank(head) != d:
        raise ValueError("first d outcomes must be linearly independent")
    A = running_moments(tail, V0=head.T @ head)[1][:-1]
    y = np.linalg.solve(A, tail[:, :, None])[:, :, 0]
    return np.linalg.norm(y, axis=1)
