import math

import numpy as np
import pytest

from gtpbet import (
    PhiProblem,
    appendix_yn,
    kl_capital_identity,
    risk_neutral,
    solve_phi,
)
from gtpbet.optimizer import _FULL_STEP
from conftest import corner_game


def phi_value(X, alpha):
    return float(np.sum(np.log(1.0 + X @ np.atleast_1d(alpha))))


def grid_argmax(X, lo=-1.0 + 1e-6, hi=1.0 - 1e-6, res=1e-5):
    """Brute-force 1-d maximizer used as the solver oracle."""
    grid = np.arange(lo, hi + res, res)
    vals = np.log(np.maximum(1.0 + X[:, 0][:, None] * grid[None, :], 1e-300)).sum(
        axis=0
    )
    return float(grid[np.argmax(vals)])


def make_problem(xs, training=(-1.0, 1.0)):
    tr = np.asarray(training, dtype=float)
    X = np.concatenate([tr, np.asarray(xs, dtype=float)])[:, None]
    return PhiProblem(X)


def test_symmetric_data_has_zero_optimum():
    prob = make_problem([0.4, -0.4], training=(2.0, -2.0))
    sol = solve_phi(prob)
    assert abs(sol.alpha_star[0]) < 1e-9
    # the gradient at alpha*, formed as the solver forms it
    X = prob.outcomes
    assert np.linalg.norm((1.0 / (1.0 + sol.alpha_star[None] @ X.T)) @ X) <= 1e-10


def test_solution_interior_and_hessian_pd():
    rng = np.random.default_rng(11)
    prob = make_problem(rng.uniform(-0.9, 0.9, size=60))
    sol = solve_phi(prob)
    r = 1.0 + prob.outcomes @ sol.alpha_star
    assert np.all(r > 0.0)
    assert np.all(np.linalg.eigvalsh(sol.hessian) > 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_grid_search(seed):
    rng = np.random.default_rng(seed)
    prob = make_problem(rng.uniform(-0.9, 0.9, size=50))
    sol = solve_phi(prob)
    assert abs(sol.alpha_star[0] - grid_argmax(prob.outcomes)) < 2e-5


def test_imaginary_data_alpha_positive_increasing():
    xs = 1.0 / (np.arange(1, 2001) + 1.0)
    stars = []
    for ncp in (10, 100, 1000):
        sol = solve_phi(make_problem(xs[:ncp]))
        stars.append(sol.alpha_star[0])
    assert all(a > 0.0 for a in stars)
    assert stars[0] < stars[1] < stars[2]


def test_risk_neutral_zero_alpha_is_empirical():
    prob = make_problem([0.3, -0.3], training=(2.0, -2.0))
    sol = solve_phi(prob)
    dist = risk_neutral(prob, sol)
    np.testing.assert_allclose(dist.g_star, dist.g, atol=1e-9)


def test_risk_neutral_two_point_weights():
    X = np.array([[0.5], [-0.5]])
    prob = PhiProblem(X)
    sol = solve_phi(prob)
    dist = risk_neutral(prob, sol)
    np.testing.assert_allclose(sorted(dist.g_star), [0.5, 0.5], atol=1e-9)


def test_risk_neutral_invariants_random():
    rng = np.random.default_rng(5)
    prob = make_problem(rng.uniform(-0.8, 0.8, size=200))
    sol = solve_phi(prob)
    dist = risk_neutral(prob, sol)
    assert abs(dist.g_star.sum() - 1.0) < 1e-10
    mean = dist.g_star @ dist.values
    assert np.all(np.abs(mean) < 1e-8)


def test_kl_identity():
    rng = np.random.default_rng(9)
    prob = make_problem(rng.uniform(-0.8, 0.8, size=150))
    sol = solve_phi(prob)
    dist = risk_neutral(prob, sol)
    kl, check = kl_capital_identity(prob, sol, dist)
    assert kl > 0.0
    assert check < 1e-9 * prob.m
    # symmetric data: g = g*, divergence zero
    sym = make_problem([0.4, -0.4], training=(2.0, -2.0))
    ssol = solve_phi(sym)
    skl, _ = kl_capital_identity(sym, ssol, risk_neutral(sym, ssol))
    assert abs(skl) < 1e-12


def test_phi_concavity_random_points():
    rng = np.random.default_rng(21)
    X = np.concatenate([[-1.0, 1.0], rng.uniform(-0.7, 0.7, size=80)])[:, None]
    for _ in range(50):
        a, b = rng.uniform(-0.8, 0.8, size=2)
        t = rng.uniform(0.0, 1.0)
        mid = phi_value(X, t * a + (1 - t) * b)
        assert mid >= t * phi_value(X, a) + (1 - t) * phi_value(X, b) - 1e-10


def test_gradient_hessian_finite_differences():
    rng = np.random.default_rng(31)
    d = 2
    X = np.concatenate([np.eye(d), -np.eye(d), rng.uniform(-0.5, 0.5, (40, d))])
    h = 1e-5
    for _ in range(20):
        alpha = rng.uniform(-0.3, 0.3, size=d)
        r = 1.0 + X @ alpha
        grad = X.T @ (1.0 / r)
        hess = (X * (1.0 / r**2)[:, None]).T @ X
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (phi_value(X, alpha + e) - phi_value(X, alpha - e)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-7)
            gp = X.T @ (1.0 / (1.0 + X @ (alpha + e)))
            gm = X.T @ (1.0 / (1.0 + X @ (alpha - e)))
            fd_h = (gp - gm) / (2 * h)
            # hessian of phi is -I(alpha)
            np.testing.assert_allclose(fd_h, -hess[:, i], rtol=1e-4, atol=1e-6)


def test_permutation_invariance():
    rng = np.random.default_rng(41)
    xs = rng.uniform(-0.8, 0.8, size=120)
    sol1 = solve_phi(make_problem(xs))
    sol2 = solve_phi(make_problem(rng.permutation(xs)))
    assert abs(sol1.alpha_star[0] - sol2.alpha_star[0]) < 1e-8


def test_appendix_yn_constant_scalar():
    U = np.ones((30, 1))
    norms = appendix_yn(U)
    np.testing.assert_allclose(norms, 1.0 / np.arange(1, 30), atol=1e-12)


def test_appendix_yn_alternating_axes():
    n = 21
    U = np.array([[1.0, 0.0] if i % 2 == 0 else [0.0, 1.0] for i in range(n)])
    norms = appendix_yn(U)
    # closed form: 1 / (count of u_n's axis among the first n-1 outcomes)
    expect = []
    for i in range(2, n):
        axis = i % 2
        count = sum(1 for j in range(i) if j % 2 == axis)
        expect.append(1.0 / count)
    np.testing.assert_allclose(norms, expect, atol=1e-12)


def test_appendix_yn_decay_trend():
    rng = np.random.default_rng(17)
    U = rng.standard_normal((5000, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    norms = appendix_yn(U)
    assert np.median(norms[-500:]) < 0.1 * np.median(norms[:500])


def test_appendix_yn_rejects_bad_input():
    with pytest.raises(ValueError):
        appendix_yn(np.full((5, 1), 2.0))  # norms exceed 1
    with pytest.raises(ValueError):
        # first two outcomes parallel: rank-deficient head
        appendix_yn(np.array([[0.9, 0.0], [0.9, 0.0], [0.0, 0.9]]))


def test_full_step_bound_fixes_the_threshold():
    # the full step's guaranteed gain lam**2 - w(lam), w(lam) = -lam -
    # log(1 - lam), clears the Armijo bound 1e-4 lam**2 up to 0.68 only
    def margin(lam):
        return lam**2 + lam + math.log1p(-lam) - 1e-4 * lam**2

    assert margin(_FULL_STEP) > 0.0
    assert margin(0.69) < 0.0


def newton_step(X, alpha):
    """Residuals, Newton step and Newton decrement of phi at alpha."""
    R = 1.0 + X @ alpha
    Y = X / R[:, None]
    step = np.linalg.solve(Y.T @ Y, Y.sum(axis=0))
    return R, step, math.sqrt(Y.sum(axis=0) @ step)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_newton_decrement_certifies_the_step(d):
    # random histories, each started a random fraction in [0, 0.95) of the
    # way from its optimum to the edge of its feasible set: at decrement
    # lam <= 0.68 the full step keeps every residual positive and gains at
    # least 1e-4 lam**2, and beyond it the step 1/(1 + lam) keeps every
    # residual >= R / (1 + lam) and gains at least lam - log(1 + lam)
    rng = np.random.default_rng(30 + d)
    corners = corner_game(d).training.points
    counts = {"full": 0, "damped": 0}
    for _ in range(150):
        drift = rng.uniform(-0.6, 0.6, size=d)
        xs = np.clip(rng.uniform(-0.8, 0.8, size=(rng.integers(5, 300), d)) + drift, -1, 1)
        X = np.concatenate([corners, xs])
        a_star = solve_phi(PhiProblem(X)).alpha_star
        u = rng.standard_normal(d)
        v = X @ u
        reach = np.min((1.0 + X @ a_star)[v < 0.0] / -v[v < 0.0])
        alpha = a_star + rng.uniform(0.0, 0.95) * reach * u
        R, step, lam = newton_step(X, alpha)
        ratio = (X @ step) / R
        if lam <= _FULL_STEP:
            counts["full"] += 1
            assert np.all(1.0 + X @ (alpha + step) > 0.0)
            assert np.sum(np.log1p(ratio)) >= 1e-4 * lam**2
        else:
            counts["damped"] += 1
            t = 1.0 / (1.0 + lam)
            assert np.all(1.0 + t * ratio >= (1.0 - 1e-12) / (1.0 + lam))
            assert np.all(1.0 + X @ (alpha + t * step) > 0.0)
            gain = np.sum(np.log1p(t * ratio))
            assert gain >= (lam - math.log1p(lam)) * (1.0 - 1e-9)
    assert min(counts.values()) >= 20, counts
