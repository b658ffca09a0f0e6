"""Maximization of the log-capital objective and its dual objects.

The objective over a finite outcome history x_1..x_m (training included)
is phi(alpha) = sum_n log(1 + alpha.x_n), strictly concave on the open
polytope {alpha : 1 + alpha.x_n > 0 for all n}.  The maximizer alpha*
defines a reweighting of the empirical distribution under which the
outcomes have mean zero; the maximal value equals m times the KL
divergence between the empirical distribution and that reweighting.
"""

from __future__ import annotations

import math
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
    """Iteration cap exceeded; carries the best iterate found."""

    def __init__(self, msg, alpha, grad_norm):
        super().__init__(msg)
        self.alpha = alpha
        self.grad_norm = grad_norm


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


def _phi_terms(X, alpha):
    """Returns r = 1 + X @ alpha, or None if alpha is infeasible."""
    r = 1.0 + X @ alpha
    if np.any(r <= 0.0):
        return None
    return r


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
    full step.  Terminates when the gradient norm drops to tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    X = problem.outcomes
    d = problem.d
    alpha = np.zeros(d) if warm_start is None else np.array(warm_start, dtype=float)
    r = _phi_terms(X, alpha)
    if r is None:  # infeasible warm start; origin is always feasible
        alpha = np.zeros(d)
        r = 1.0 + X @ alpha
    phi = float(np.sum(np.log(r)))
    grad = X.T @ (1.0 / r)
    gnorm = float(np.linalg.norm(grad))
    it = 0
    while gnorm > tol:
        if it >= max_iter:
            raise SolverError(
                f"no convergence in {max_iter} iterations (|grad| = {gnorm:.3e})",
                alpha,
                gnorm,
            )
        w = 1.0 / r
        hess = (X * (w * w)[:, None]).T @ X
        step = np.linalg.solve(hess, grad)
        dr = X @ step
        # keep every residual >= 0.1 of its current value
        shrink = dr < 0.0
        t = 1.0
        if np.any(shrink):
            t = min(1.0, float(np.min(-0.9 * r[shrink] / dr[shrink])))
        slope = float(grad @ step)
        # once the Newton decrement is at phi's rounding floor, Armijo would
        # compare values that differ only by rounding; phi is self-concordant,
        # so the full Newton step is the right one there
        full = slope <= 1e-13 * max(1.0, abs(phi))
        if full:
            t = 1.0
        while t > 1e-18:
            r_new = r + t * dr
            if np.all(r_new > 0.0):
                phi_new = float(np.sum(np.log(r_new)))
                if full or phi_new >= phi + 1e-4 * t * slope:
                    break
            t *= 0.5
        else:
            raise SolverError("line search failed", alpha, gnorm)
        alpha = alpha + t * step
        r = r_new
        phi = phi_new
        grad = X.T @ (1.0 / r)
        gnorm = float(np.linalg.norm(grad))
        it += 1
    w = 1.0 / r
    hess = (X * (w * w)[:, None]).T @ X
    return PhiSolution(
        alpha_star=alpha,
        phi_value=phi,
        gradient_norm=gnorm,
        hessian=hess,
        iterations=it,
    )


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
