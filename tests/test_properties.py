"""Property tests over random inputs: the running moments, the prefix
consistency of both strategies, the solvency of the exact run's optima,
the solver's KL identity and optimality, the crossing scan against its
definition, and the invariants of the crossing embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtpbet import (
    Domain,
    GameConfig,
    PhiProblem,
    continuous,
    PricePath,
    embed,
    kl_capital_identity,
    make_training,
    risk_neutral,
    running_moments,
    solve_phi,
    sos_capital_fast,
    sos_run,
)
from conftest import corner_game, reference_stops

# derandomized, so the suite gives the same verdict on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 3)


@PROPERTY
@given(seed=seeds, d=dims, n=st.integers(0, 40), start=st.booleans())
def test_running_moments_equal_a_per_round_loop(seed, d, n, start):
    rng = np.random.default_rng(seed)
    path = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    s0 = rng.standard_normal(d) if start else None
    V0 = rng.standard_normal((d, d)) if start else None
    s, V = running_moments(path, s0, V0)
    acc_s = np.zeros(d) if s0 is None else s0.copy()
    acc_V = np.zeros((d, d)) if V0 is None else V0.copy()
    np.testing.assert_array_equal(s[0], acc_s)
    np.testing.assert_array_equal(V[0], acc_V)
    for i, x in enumerate(path, start=1):
        acc_s = acc_s + x
        acc_V = acc_V + np.outer(x, x)
        np.testing.assert_array_equal(s[i], acc_s)
        np.testing.assert_array_equal(V[i], acc_V)


@PROPERTY
@given(seed=seeds, d=dims, n=st.integers(1, 200), data=st.data())
def test_fast_rule_is_prefix_consistent(seed, d, n, data):
    k = data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    path = rng.uniform(-0.05, 0.05, size=(n, d)) + rng.uniform(-0.02, 0.02, size=d)
    c = 0.05 * np.sqrt(d) / 0.9
    train = c * np.concatenate([np.eye(d), -np.eye(d)])
    gains = sos_capital_fast(path, train, 1.0 / c)
    assert gains.shape == (n,)
    np.testing.assert_array_equal(sos_capital_fast(path[:k], train, 1.0 / c), gains[:k])


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=seeds, d=dims, n=st.integers(1, 25), data=st.data())
def test_exact_run_is_prefix_consistent(seed, d, n, data):
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    path = rng.uniform(-0.9, 0.9, size=(n, d))
    full = sos_run(corner_game(d), path)
    part = sos_run(corner_game(d), path[:k])
    for col in ("logK_true", "logK_hindsight", "logK_approx", "QR", "DR"):
        np.testing.assert_array_equal(
            getattr(part.ledger, col), getattr(full.ledger, col)[:k]
        )
    np.testing.assert_array_equal(part.alpha_star, full.alpha_star[:k])


@PROPERTY
@given(seed=seeds, d=dims, n=st.integers(1, 60), corners=st.booleans())
def test_every_optimum_keeps_every_outcome_of_the_path_solvent(seed, d, n, corners):
    # the exact run restarts an infeasible Newton start from the previous
    # block's last optimum, which needs that optimum feasible for the
    # outcomes still to come: on a box skewed up to 100:1, whose outcomes
    # lean toward one end of each side, so the optima sit near the edge
    rng = np.random.default_rng(seed)
    side = 10.0 ** rng.uniform(-1, 1, size=d)
    ratio = 10.0 ** rng.uniform(-2, 2, size=d)
    dom = Domain.box(-side, side * ratio)
    game = GameConfig(domain=dom, training=make_training(
        dom, 0.1, "corners_2tod" if corners else "axis_2d"))
    u = rng.uniform(size=(n, d)) ** (10.0 ** rng.uniform(-1, 1, size=d))
    path = dom.lo + u * (dom.hi - dom.lo)
    alpha = sos_run(game, path).alpha_star
    assert np.all(1.0 + alpha @ path.T > 0.0)


@PROPERTY
@given(seed=seeds, d=dims, m=st.integers(0, 60), repeat=st.booleans())
def test_solver_meets_kl_identity_and_optimality(seed, d, m, repeat):
    rng = np.random.default_rng(seed)
    # the sign corners keep the feasible set bounded; the outcomes may repeat
    X = np.concatenate([corner_game(d).training.points, rng.uniform(-0.95, 0.95, (m, d))])
    if repeat and m:
        X = np.concatenate([X, X[-min(m, 5):]])
    problem = PhiProblem(X)
    sol = solve_phi(problem)
    # the gradient at alpha*, formed as the solver forms it
    Y = problem.outcomes
    assert np.linalg.norm((1.0 / (1.0 + sol.alpha_star[None] @ Y.T)) @ Y) <= 1e-10
    kl, check = kl_capital_identity(problem, sol, risk_neutral(problem, sol))
    assert check <= 1e-9 * problem.m
    assert kl >= 0.0
    # concave objective: no feasible point nearby does better
    for _ in range(5):
        alpha = sol.alpha_star + 1e-3 * rng.standard_normal(d)
        r = 1.0 + X @ alpha
        if np.all(r > 0.0):
            assert np.sum(np.log(r)) <= sol.phi_value + 1e-12


@PROPERTY
@given(seed=seeds, d=dims, delta=st.floats(0.005, 0.05), vol=st.floats(0.01, 0.1))
def test_embedding_lies_on_the_sphere_and_compounds(seed, d, delta, vol):
    # one-step returns of a tenth of delta or less, far inside the 2 delta
    # coarse-grid limit
    rng = np.random.default_rng(seed)
    steps = vol * delta * rng.standard_normal((2000, d))
    values = 2.0 * np.exp(np.concatenate([np.zeros((1, d)), np.cumsum(steps, axis=0)]))
    path = PricePath(values, T=2000)
    emb = embed(path, delta)
    assert emb.N == len(emb.stop_indices) == len(emb.outcomes)
    np.testing.assert_allclose(np.linalg.norm(emb.outcomes, axis=1), delta, rtol=1e-12)
    # the returns between stops compound to the prices at the stops, and
    # the outcomes are those returns rescaled to norm delta
    raws = values[emb.stop_indices] / values[np.concatenate([[0], emb.stop_indices[:-1]])] - 1.0
    compounded = values[0] * np.cumprod(1.0 + raws, axis=0)
    np.testing.assert_allclose(compounded, values[emb.stop_indices], rtol=1e-11)
    scaled = raws * (delta / np.linalg.norm(raws, axis=1))[:, None]
    np.testing.assert_allclose(emb.outcomes, scaled, rtol=1e-12)
    last = values[emb.stop_indices[-1]] if emb.N else values[0]
    np.testing.assert_allclose(last * (1.0 + emb.final_return), values[-1], rtol=1e-12)


@PROPERTY
@given(
    seed=seeds,
    d=dims,
    n=st.integers(1, 3000),
    delta=st.floats(0.003, 0.03),
    segment=st.sampled_from([0.05, 1.0, 8.0]),
    flat=st.booleans(),
)
def test_lockstep_scan_equals_the_definition_with_many_chains(
    seed, d, n, delta, segment, flat
):
    # a segment of a few stops or less puts a chain start every few grid
    # points, so the stops are spliced from many chains and merges, and
    # chains pause and resume often
    rng = np.random.default_rng(seed)
    steps = 0.004 / np.sqrt(d) * rng.standard_normal((n, d))
    if flat:
        steps[rng.integers(0, n) :] = 0.0  # a quiet tail
    values = np.exp(np.concatenate([np.zeros((1, d)), np.cumsum(steps, axis=0)]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuous, "_PILOT", 1)
        mp.setattr(continuous, "_SEGMENT", segment)
        stops, discarded = continuous._scan_crossings(values, delta * delta)
    assert stops.tolist() == reference_stops(values, delta)
    assert discarded >= 0
