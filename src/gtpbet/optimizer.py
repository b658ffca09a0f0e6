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
    """Iteration cap exceeded or line search failed; carries the best
    iterate found and, in a batched solve, the index of its row."""

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
    gradient_norm: float
    hessian: np.ndarray  # observed information at alpha*, positive definite
    iterations: int


def solve_phi(
    problem: PhiProblem,
    warm_start=None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> PhiSolution:
    """Damped Newton ascent with Armijo backtracking.

    The iterates never leave the open feasible set: the first trial step
    is clipped so every residual 1 + alpha.x_n keeps at least 10% of its
    current value, and backtracking (shrink 0.5, slope 1e-4) does the
    rest, except that a Newton decrement at phi's rounding floor takes the
    full step.  Terminates when the gradient norm drops to tol.  This is
    the one-history case of the batched solve behind the exact run.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    X = problem.outcomes
    start = np.zeros(problem.d) if warm_start is None else np.asarray(warm_start, dtype=float)
    alpha, phi, gnorm, hess, its = _newton_rows(
        X, _outer_rows(X), np.array([problem.m]), start, tol, max_iter
    )
    return PhiSolution(
        alpha_star=alpha[0],
        phi_value=float(phi[0]),
        gradient_norm=float(gnorm[0]),
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


def _newton_rows(X, P, ends, start, tol, max_iter):
    """solve_phi's damped Newton, run on B histories at once.

    Row b maximises phi over X[:ends[b]]; P is _outer_rows(X).  start
    is one point for every row, shape (d,), as solve_phi passes it, or
    one per row, shape (B, d), as the exact run passes its predicted
    optima; a row whose start is infeasible (or NaN) for its own history
    starts from the origin instead.  Every row follows solve_phi's rules
    on its own: the 0.9 fraction-to-boundary step, Armijo backtracking,
    the full step at phi's rounding floor, and no further step once its
    gradient norm is at most tol.  The products are taken over the whole
    block, so a row's arithmetic does not depend on the other rows.  Raises
    SolverError for the first row that fails.  Returns alpha (B, d),
    phi (B,), gradient norms (B,), Hessians (B, d, d) and iteration
    counts (B,).

    The call allocates its four (B, m) arrays once, for m = len(X), and
    every iteration and trial writes into them: the residuals
    R = 1 + alpha.x, the weights 1/R (which also hold each line-search
    trial's residuals), the step's change of R, and one scratch array.
    Columns past a row's history hold residual 1 and weight 0.  A trial
    is taken over the whole block, with step length 0 on the rows that
    are not searching; those rows and the rows whose step is rejected
    copy their old residuals into it, and it becomes R.  A trial
    is feasible exactly where its phi is finite, since log is NaN or
    -inf at a residual <= 0.
    """
    B, (m, d) = len(ends), X.shape
    lo = int(ends.min())
    beyond = np.arange(lo, m) >= ends[:, None]  # of the columns from lo on
    alpha = np.array(np.broadcast_to(start, (B, d)), dtype=float)
    R, W, dR, S = (np.empty((B, m)) for _ in range(4))
    np.matmul(alpha, X.T, out=R)
    R += 1.0
    R[:, lo:][beyond] = 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.log(R, out=S).sum(axis=1)
    bad = ~np.isfinite(phi)
    if np.any(bad):  # infeasible start; the origin is always feasible
        alpha[bad] = 0.0
        R[bad] = 1.0
        phi[bad] = 0.0
    np.divide(1.0, R, out=W)
    W[:, lo:][beyond] = 0.0
    grad = W @ X
    gnorm = np.linalg.norm(grad, axis=1)
    its = np.zeros(B, dtype=int)
    for it in range(max_iter + 1):
        active = gnorm > tol
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
        hess = (np.multiply(W, W, out=S) @ P).reshape(B, d, d)
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        np.matmul(step, X.T, out=dR)
        dR[:, lo:][beyond] = 0.0
        # keep every residual >= 0.1 of its current value: t <= -0.9 r / dr
        # wherever dr < 0, and t <= 1
        t = -0.9 / np.minimum(np.divide(dR, R, out=S).min(axis=1), -0.9)
        slope = np.sum(grad * step, axis=1)
        # once the Newton decrement is at phi's rounding floor, Armijo would
        # compare values that differ only by rounding; phi is self-concordant,
        # so the full Newton step is the right one there
        full = slope <= 1e-13 * np.maximum(1.0, np.abs(phi))
        t[full] = 1.0
        searching = active
        while True:
            np.multiply(dR, np.where(searching, t, 0.0)[:, None], out=W)
            W += R
            with np.errstate(invalid="ignore", divide="ignore"):
                phi_new = np.log(W, out=S).sum(axis=1)
            ok = searching & np.isfinite(phi_new) & (
                full | (phi_new >= phi + 1e-4 * t * slope)
            )
            alpha[ok] += t[ok, None] * step[ok]
            phi[ok] = phi_new[ok]
            np.copyto(W, R, where=~ok[:, None])
            R, W = W, R
            searching = searching & ~ok
            if not np.any(searching):
                break
            t[searching] *= 0.5
            failed = np.flatnonzero(searching & (t <= 1e-18))
            if failed.size:
                i = int(failed[0])
                raise SolverError("line search failed", alpha[i], gnorm[i], i)
        np.divide(1.0, R, out=W)
        W[:, lo:][beyond] = 0.0
        grad = W @ X
        gnorm = np.linalg.norm(grad, axis=1)
        its[active] += 1
    hess = (np.multiply(W, W, out=S) @ P).reshape(B, d, d)
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


def appendix_yn(outcomes, with_tilde: bool = False):
    """Norms of y_n = (u_1 u_1' + ... + u_{n-1} u_{n-1}')^{-1} u_n.

    The matrices are the running moments of the outcomes after the first
    d, started from those d, and every y_n comes from one batched solve.
    Requires ||u_n|| <= 1 and the first d outcomes linearly independent.
    With with_tilde=True also returns u_n' y_n (the squared norm of the
    half-power analogue).
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
    norms = np.linalg.norm(y, axis=1)
    if with_tilde:
        return norms, np.einsum("ni,ni->n", tail, y)
    return norms
