import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gtpbet
from gtpbet import (
    Domain,
    GameConfig,
    PhiProblem,
    SolverError,
    TrainingSet,
    deficiency_bounds,
    deficiency_constants,
    make_training,
    slln2_ratio,
    slln_ratio,
    sos_capital_fast,
    solve_phi,
    sos_run,
)
from gtpbet.domain import LEDGER_COLUMNS, running_moments
from gtpbet.optimizer import _newton_rows, _outer_rows
from gtpbet.sos import _BLOCK, _training_growth_constant
from conftest import corner_game, unit_box_game


def test_all_zero_path():
    res = sos_run(unit_box_game(0.5), np.zeros((20, 1)))
    assert res.ledger.logK_true[-1] == 0.0
    np.testing.assert_allclose(res.alpha_star, 0.0, atol=1e-9)
    np.testing.assert_allclose(res.ledger.GR, 0.0, atol=1e-10)


def test_summation_by_parts_decomposition(rademacher_run):
    # hindsight minus realized capital = accumulated deficiency + the
    # training-only optimum, exactly, at every round
    res = rademacher_run
    led = res.ledger
    cum = np.cumsum(res.delta_phi)
    phi00 = solve_phi(PhiProblem(res.config.training.points)).phi_value
    for n in (1, 10, 500, 4999):
        lhs = led.logK_hindsight[n] - led.logK_true[n]
        assert lhs == pytest.approx(cum[n] + phi00, abs=1e-8)
        assert led.LD1[n] == pytest.approx(cum[n], abs=1e-8)


def test_determinant_recursion(rademacher_run):
    res = rademacher_run
    train = res.config.training.points
    X = np.concatenate([train, res.outcomes])
    n0 = train.shape[0]
    for n in (1, 7, 200, 3000):
        Vprev = X[: n0 + n - 1].T @ X[: n0 + n - 1]
        Vcur = X[: n0 + n].T @ X[: n0 + n]
        ratio = np.linalg.det(Vcur) / np.linalg.det(Vprev)
        assert 1.0 + res.a_n[n - 1] == pytest.approx(ratio, rel=1e-8)


def test_delta_phi_nonnegative_and_bounded(rademacher_run):
    res = rademacher_run
    assert np.all(res.delta_phi >= -1e-12)
    # per-round upper bound via the mixed-weight second-moment matrix
    train = res.config.training.points
    X = np.concatenate([train, res.outcomes])
    n0 = train.shape[0]
    for n in (2, 50, 1000, 4999):
        a_prev = res.alpha_star[n - 2]
        a_cur = res.alpha_star[n - 1]
        hist = X[: n0 + n - 1]
        rp = 1.0 + hist @ a_prev
        rc = 1.0 + hist @ a_cur
        Vmix = (hist / (rp * rc)[:, None]).T @ hist
        x = X[n0 + n - 1]
        xc = x / (1.0 + float(a_cur @ x))
        xp = x / (1.0 + float(a_prev @ x))
        bound = math.log(1.0 + float(xc @ np.linalg.solve(Vmix, xp)))
        assert res.delta_phi[n - 1] <= bound + 1e-10


def test_exact_relation_checked_tightly():
    # every round checked, strict tolerance
    rng = np.random.default_rng(12)
    path = rng.uniform(-0.8, 0.8, size=(300, 1))
    sos_run(unit_box_game(0.1), path, check_every=1, check_tol_28b=1e-7)


def test_delta_alpha_trend():
    rng = np.random.default_rng(23)
    path = rng.choice([-0.5, 0.5], size=(10_000, 1))
    res = sos_run(unit_box_game(0.1), path)
    d_alpha = np.linalg.norm(np.diff(res.alpha_star, axis=0), axis=1)
    head = np.median(d_alpha[:1000])
    tail = np.median(d_alpha[-1000:])
    assert tail < 0.25 * head


def test_outside_domain_rejected():
    with pytest.raises(ValueError, match="round 3"):
        sos_run(unit_box_game(0.1), np.array([[0.1], [0.2], [1.5]]))


def test_deficiency_constants_symmetric_interval():
    cfg = unit_box_game(0.5)  # training {+2, -2}
    c1, c2, c3 = deficiency_constants(cfg)
    # growth constant 2; over the polytope |alpha| <= 1/2 the training
    # inner product tops out at 1, so the training branch also gives 2
    assert c1 == pytest.approx(2.0)
    assert c2 == pytest.approx(16.0)
    assert c3 == pytest.approx(16.0 * (8.0 - math.log(8.0)))


def test_deficiency_constants_skewed_interval():
    from gtpbet import Domain, GameConfig, make_training

    dom = Domain.box([-0.1], [1.0])
    cfg = GameConfig(domain=dom, training=make_training(dom, 0.1))
    c1, _, _ = deficiency_constants(cfg)
    assert c1 >= 11.0


def _polytope_lp(train):
    """max_n max {alpha . x_n : 1 + alpha . x_i >= 0 for every i}, one
    linprog per training point."""
    from scipy.optimize import linprog

    n0, d = train.shape
    best = 0.0
    for x in train:
        res = linprog(-x, A_ub=-train, b_ub=np.ones(n0), bounds=[(None, None)] * d)
        assert res.success
        best = max(best, -res.fun)
    return best


def _training_shapes(rng):
    """Training sets of both closed-form shapes, d = 1-4."""
    for d in range(1, 5):
        for skew in (False, True):
            half = rng.uniform(0.2, 2.0, size=d)
            lo, hi = (-rng.uniform(0.2, 2.0, size=d), half) if skew else (-half, half)
            box = Domain.box(lo, hi)
            eps = rng.uniform(0.05, 0.9)
            yield make_training(box, eps, "corners_2tod").points
            yield make_training(box, eps).points
            yield make_training(Domain.sphere(d, float(half[0])), eps).points
            # select_dimension's projected corners: each corner 2^k times
            wide = np.concatenate([lo, -rng.uniform(0.2, 2.0, size=2)])
            tall = np.concatenate([hi, rng.uniform(0.2, 2.0, size=2)])
            signs = make_training(Domain.box(wide, tall), eps, "corners_2tod").points
            yield signs[:, :d]
            # axis points of both signs per axis, a few inside the extremes
            axis = np.diag(hi)
            inner = np.diag(lo) * rng.uniform(0.1, 1.0, size=(d, 1))
            yield np.vstack([axis, np.diag(lo), inner])


def test_closed_form_polytope_maximum_matches_lp():
    rng = np.random.default_rng(13)
    sets = [t for _ in range(2) for t in _training_shapes(rng)]
    want = [_polytope_lp(t) for t in sets]
    for train, lp in zip(sets, want):
        for order in range(3):
            got = _training_growth_constant(rng.permutation(train) if order else train)
            assert abs(got - 1.0 - lp) <= 1e-12 * lp, (train, got, lp)
    for d in range(1, 5):
        axis = make_training(Domain.sphere(d, 0.3), 0.4).points
        assert _training_growth_constant(axis) == 2.0
        game = corner_game(d)
        assert deficiency_constants(game)[0] == 2.0


@pytest.mark.parametrize(
    "train",
    [
        np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 2)),
        # three corners of the square [-1, 2]^2, alone and with a repeat
        np.array([[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0]]),
        np.array([[-1.0, -1.0], [2.0, -1.0], [-1.0, 2.0], [2.0, -1.0]]),
    ],
    ids=["path", "three_corners", "three_corners_one_twice"],
)
def test_deficiency_constants_refuse_other_shapes(train):
    ts = TrainingSet(epsilon0=0.1, points=train)
    game = GameConfig(domain=Domain.box(-np.ones(2), 2.0 * np.ones(2)), training=ts)
    with pytest.raises(ValueError, match="coordinate axes or the 2\\^d sign corners"):
        deficiency_constants(game)


def test_deficiency_bounds_hold(rademacher_run):
    out = deficiency_bounds(rademacher_run)  # asserts lemma2 internally
    cum = out["cum_delta_phi"]
    assert np.all(cum <= out["lemma1_bound"] + 1e-9)
    assert np.all(cum <= out["lemma2_bound"] + 1e-9)
    assert np.all(np.diff(cum) >= -1e-12)


def test_slln_ratio_examples():
    assert slln_ratio(np.zeros((5, 1)))[-1] == 0.0
    path = np.full((100, 1), 0.5)
    got = slln_ratio(path)[-1]
    assert got == pytest.approx(50.0 / math.sqrt(25.0 * math.log(25.0)))


def test_slln_ratio_fair_coin_bounded():
    rng = np.random.default_rng(2)
    path = rng.choice([-1.0, 1.0], size=(100_000, 1))
    ratios = slln_ratio(path)
    assert np.max(ratios[100:]) < 3.0


def test_slln2_scalar_formula():
    rng = np.random.default_rng(3)
    path = rng.choice([-1.0, 1.0], size=(5000, 1))
    ratios = slln2_ratio(path)
    n = 4999
    s = float(np.sum(path[: n + 1]))
    assert ratios[n] == pytest.approx(s * s / ((n + 1) * math.log(n + 1)))


def test_slln2_without_an_invertible_round():
    # small moves keep log |V_n| negative on every round, as does no round at all
    assert np.isnan(slln2_ratio(np.full((5, 2), 0.01))).all()
    assert slln2_ratio(np.zeros((0, 2))).shape == (0,)


def test_slln2_detects_drift():
    rng = np.random.default_rng(4)
    path = (rng.uniform(-0.5, 0.5, size=(10_000, 2)) + 0.2).clip(-0.9, 0.9)
    ratios = slln2_ratio(path)
    assert ratios[-1] > 10.0


def test_capital_blows_up_on_drift():
    rng = np.random.default_rng(5)
    path = (rng.uniform(-0.5, 0.5, size=(3000, 1)) + 0.2).clip(-0.9, 0.9)
    res = sos_run(unit_box_game(0.1), path)
    logk = np.asarray(res.ledger.logK_true)
    assert logk[-1] > 50.0
    # unbounded growth shows up as strictly increasing block averages
    blocks = logk.reshape(6, 500).mean(axis=1)
    assert np.all(np.diff(blocks) > 0.0)


def test_fast_rule_tracks_exact_run_on_small_outcomes():
    from gtpbet.continuous import game_config_for_embedding

    rng = np.random.default_rng(6)
    delta = 0.01
    path = rng.choice([-delta, delta], size=(2000, 1), p=[0.45, 0.55])
    cfg = game_config_for_embedding(delta, 1)
    res = sos_run(cfg, path)
    c = delta / 0.9
    fast = np.sum(sos_capital_fast(path, np.array([[c], [-c]]), 1.0 / c)[0])
    assert abs(fast - res.ledger.logK_true[-1]) < 0.05 * max(
        1.0, abs(res.ledger.logK_true[-1])
    )


def test_fast_rule_checkpoints_prefix_consistent():
    rng = np.random.default_rng(8)
    path = rng.uniform(-0.02, 0.02, size=(500, 3))
    train = 0.05 * np.concatenate([np.eye(3), -np.eye(3)])
    cps = np.cumsum(sos_capital_fast(path, train, 20.0)[0])
    full = np.sum(sos_capital_fast(path, train, 20.0)[0])
    part = np.sum(sos_capital_fast(path[:200], train, 20.0)[0])
    assert cps[199] == pytest.approx(part, abs=1e-12)
    assert cps[499] == pytest.approx(full, abs=1e-12)


def test_summary_fields(rademacher_run):
    out = rademacher_run.summary()
    for key in ("N", "logK_true", "logK_hindsight", "logK_approx", "C1", "C2"):
        assert key in out
    assert out["N"] == 5000


def reference_fast_rule(path, training, alpha_box):
    """The first-order rule played one round at a time: before round n,
    s and V sum the training and the outcomes of rounds 1..n-1, and the bet
    is V^{-1} s clipped to the box.  Returns the per-round log gains and
    the bets."""
    n, d = path.shape
    s0 = training.sum(axis=0)
    V0 = np.zeros((d, d))
    for t in training:
        V0 += np.outer(t, t)
    acc_s, acc_V = np.zeros(d), np.zeros((d, d))
    inner, alphas = [], []
    for x in path:
        s, V = s0 + acc_s, V0 + acc_V
        alpha = s / V[0] if d == 1 else np.linalg.solve(V, s)
        alpha = np.clip(alpha, -alpha_box, alpha_box)
        alphas.append(alpha)
        inner.append(alpha @ x)
        acc_s = acc_s + x
        acc_V = acc_V + np.outer(x, x)
    return np.log1p(np.array(inner)), np.array(alphas)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("drift", [0.0, 0.02])
def test_fast_rule_matches_per_round_reference(d, drift):
    rng = np.random.default_rng(40 + d)
    path = rng.uniform(-0.05, 0.05, size=(3000, d)) + drift
    c = 0.05 * math.sqrt(d) / 0.9
    train = c * np.concatenate([np.eye(d), -np.eye(d)])
    bound = 4.0
    gains, alphas = reference_fast_rule(path, train, bound)
    if drift:  # the drifting path pushes the bets onto the box
        assert np.any(np.abs(alphas) == bound)
    total = np.sum(sos_capital_fast(path, train, bound)[0])
    got = np.cumsum(sos_capital_fast(path, train, bound)[0])
    last = got[-1]
    running = np.cumsum(gains)
    if d == 1:
        # same arithmetic in the same order: bit-identical
        assert total == np.sum(gains)
        assert last == running[-1]
        np.testing.assert_array_equal(got, running)
    else:
        tol = 1e-10 * max(1.0, abs(running[-1]))
        assert abs(total - running[-1]) <= tol
        assert abs(last - running[-1]) <= tol
        np.testing.assert_allclose(got, running, rtol=0.0, atol=tol)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fast_rule_bit_identical_to_whole_array_reference(d):
    # the rule written out over whole arrays, each step a fresh array:
    # the fast rule must give the same bits however it stores them
    rng = np.random.default_rng(70 + d)
    path = rng.uniform(-0.05, 0.05, size=(4000, d)) + 0.01
    train = 0.06 * np.concatenate([np.eye(d), -np.eye(d)])
    box = np.linspace(3.0, 5.0, d)
    s, V = running_moments(path)
    s = train.sum(axis=0) + s[:-1]
    V = train.T @ train + V[:-1]
    if d == 1:
        alpha = s / V[:, 0]
    else:
        alpha = np.linalg.solve(V, s[:, :, None])[:, :, 0]
    alpha = np.clip(alpha, -box, box)
    assert np.any(np.abs(alpha) == box)  # the drift pushes bets onto the box
    expect = np.log1p((alpha * path).sum(axis=1))
    assert np.array_equal(sos_capital_fast(path, train, box)[0], expect)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fast_rule_blocks_bit_identical_to_whole_array_reference(d, monkeypatch):
    # the reference of test_fast_rule_bit_identical_to_whole_array_reference,
    # with the rounds in blocks of 64: the 4,000 rounds span 63 blocks, each
    # starting from the running moments of the one before.  Compared as
    # bytes, so that a gain of -0.0 where NumPy's row sum gives +0.0 fails
    monkeypatch.setattr(gtpbet.sos, "_ROW_BLOCK", 64)
    rng = np.random.default_rng(70 + d)
    path = rng.uniform(-0.05, 0.05, size=(4000, d)) + 0.01
    train = 0.06 * np.concatenate([np.eye(d), -np.eye(d)])
    box = np.linspace(3.0, 5.0, d)
    s, V = running_moments(path)
    s = train.sum(axis=0) + s[:-1]
    V = train.T @ train + V[:-1]
    if d == 1:
        alpha = s / V[:, 0]
    else:
        alpha = np.linalg.solve(V, s[:, :, None])[:, :, 0]
    alpha = np.clip(alpha, -box, box)
    assert np.any(np.abs(alpha) == box)
    expect = np.log1p((alpha * path).sum(axis=1))
    assert sos_capital_fast(path, train, box)[0].tobytes() == expect.tobytes()


def test_flat_path_in_one_dimensional_game():
    flat = np.array([0.1, -0.2, 0.3, 0.05])
    col = flat[:, None]
    res = sos_run(unit_box_game(0.1), flat)
    assert res.N == 4
    np.testing.assert_array_equal(
        res.ledger.logK_true, sos_run(unit_box_game(0.1), col).ledger.logK_true
    )
    train = np.array([[2.0], [-2.0]])
    np.testing.assert_array_equal(
        sos_capital_fast(flat, train, 0.5)[0], sos_capital_fast(col, train, 0.5)[0]
    )


def test_non_finite_outcome_names_round():
    path = np.array([[0.1], [np.nan], [0.2]])
    with pytest.raises(ValueError, match="non-finite outcome at round 2"):
        sos_run(unit_box_game(0.1), path)
    path[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite outcome at round 2"):
        sos_capital_fast(path, np.array([[2.0], [-2.0]]), 0.5)


def test_empty_path_rejected():
    with pytest.raises(ValueError, match="empty"):
        sos_run(unit_box_game(0.1), np.zeros((0, 1)))


@pytest.mark.parametrize("every", [0, -4])
def test_check_interval_must_be_positive(every):
    # a non-positive interval would leave the exact-relation and
    # determinant checks silently unrun
    with pytest.raises(ValueError, match="check_every"):
        sos_run(unit_box_game(0.1), np.full((8, 1), 0.2), check_every=every)


def test_invariant_checks_survive_optimize_flag():
    # a negative tolerance fails the exact-relation check at round 1; the
    # check must raise even with asserts stripped by python -O
    code = (
        "import numpy as np\n"
        "from gtpbet import Domain, GameConfig, InvariantError, make_training, sos_run\n"
        "dom = Domain.box([-1.0], [1.0])\n"
        "cfg = GameConfig(domain=dom, training=make_training(dom, 0.1))\n"
        "try:\n"
        "    sos_run(cfg, np.full((3, 1), 0.2), check_every=1, check_tol_28b=-1.0)\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    src = str(Path(gtpbet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "InvariantError: exact-relation residual" in proc.stdout


def reference_sos_run(config, path):
    """The exact run played one round at a time: solve_phi on the history
    through round n, and the ledger columns accumulated round by round.
    Returns (columns, alphas)."""
    train = config.training.points
    n0 = train.shape[0]
    sol = solve_phi(PhiProblem(train))
    phi00 = sol.phi_value
    cols = {c: [] for c in LEDGER_COLUMNS[1:]}
    alphas = []
    logk = log_info = 0.0
    s = train.sum(axis=0)
    for n, x in enumerate(path, start=1):
        growth = 1.0 + float(sol.alpha_star @ x)
        logk += math.log(growth)
        sol = solve_phi(PhiProblem(np.concatenate([train, path[:n]])))
        alpha = sol.alpha_star
        xa = x / (1.0 + float(alpha @ x))
        log_info += -math.log1p(-float(xa @ np.linalg.solve(sol.hessian, xa)))
        s = s + x
        m = n + n0
        hindsight = sol.phi_value
        for name, value in (
            ("logK_true", logk),
            ("logK_hindsight", hindsight),
            ("logK_approx", hindsight - 0.5 * log_info),
            ("LD1", hindsight - logk - phi00),
            ("LD2", 0.5 * log_info),
            ("LD3", 1.5 * math.log(n)),
            ("GR", hindsight / m),
            ("QR", float(alpha @ s) / (2.0 * m)),
            ("DR", log_info / (2.0 * n)),
        ):
            cols[name].append(value)
        alphas.append(alpha)
    return {k: np.array(v) for k, v in cols.items()}, np.array(alphas)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_batched_run_matches_per_round_reference(d, N):
    rng = np.random.default_rng(100 * d + N)
    path = np.clip(rng.uniform(-0.8, 0.8, size=(N, d)) + 0.1, -1.0, 1.0)
    game = corner_game(d)
    res = sos_run(game, path)
    cols, alphas = reference_sos_run(game, path)
    for name, want in cols.items():
        got = getattr(res.ledger, name)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want))), name
    np.testing.assert_allclose(res.alpha_star, alphas, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_run_prefix_consistent_across_blocks(d):
    rng = np.random.default_rng(60 + d)
    path = rng.uniform(-0.9, 0.9, size=(3 * _BLOCK + 5, d))
    full = sos_run(corner_game(d), path)
    for k in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK):
        part = sos_run(corner_game(d), path[:k])
        for col in LEDGER_COLUMNS[1:]:
            np.testing.assert_array_equal(
                getattr(part.ledger, col), getattr(full.ledger, col)[:k]
            )
        np.testing.assert_array_equal(part.alpha_star, full.alpha_star[:k])
        np.testing.assert_array_equal(part.delta_phi, full.delta_phi[:k])


@pytest.mark.parametrize("d, most", [(1, 2.05), (2, 2.636), (3, 2.626)])
def test_newton_iterations_per_round(d, most):
    # each round starts from one Newton step past the previous block's
    # optimum; starting from that optimum itself took one more iteration a
    # round (3.05, 3.636 and 3.626 on these paths)
    rng = np.random.default_rng(0)
    path = np.clip(rng.uniform(-0.8, 0.8, size=(500, d)) + 0.1, -1.0, 1.0)
    its = sos_run(corner_game(d), path).iterations
    assert its.shape == (500,)
    assert its.min() >= 1
    assert its.mean() <= most


def test_newton_rows_per_row_starts_and_fallback():
    d, B = 2, 9
    rng = np.random.default_rng(5)
    train = corner_game(d).training.points
    n0 = train.shape[0]
    X = np.concatenate([train, rng.uniform(-0.9, 0.9, size=(B, d))])
    ends = np.arange(n0 + 1, n0 + B + 1)
    own = [solve_phi(PhiProblem(X[:m])) for m in ends]
    start = np.array([sol.alpha_star for sol in own])
    for b in (1, 4, 7):  # 1 + alpha.x = -1 at the row's own last outcome
        x = X[ends[b] - 1]
        start[b] = -2.0 * x / (x @ x)
    start[5] = np.nan
    # the first row's optimum lies inside the training polytope, so it is
    # feasible for every row's history
    fallback = own[0].alpha_star
    alpha, phi, gnorm, hess, its = _newton_rows(X, _outer_rows(X), ends, start, fallback)
    for b, sol in enumerate(own):
        np.testing.assert_allclose(alpha[b], sol.alpha_star, rtol=0.0, atol=1e-9)
        assert abs(phi[b] - sol.phi_value) <= 1e-9 * max(1.0, abs(sol.phi_value))
        assert gnorm[b] <= 1e-10
        np.testing.assert_allclose(hess[b], sol.hessian, rtol=1e-8)
    # a row started at its own optimum takes no step
    assert np.all(its[[0, 2, 3, 6, 8]] == 0)
    assert np.all(its[[1, 4, 5, 7]] > 0)


def _mask_beyond(M, ends, fill):
    """Sets M[b, j] = fill for every column j >= ends[b], in place."""
    M[np.arange(M.shape[1]) >= ends[:, None]] = fill
    return M


def reference_newton_rows(X, P, ends, start, fallback, tol, max_iter):
    """_newton_rows with per-row gathers: each step updates only the rows
    still iterating, every array is fresh, and the start's feasibility is
    tested on the residuals themselves.  Returns _newton_rows' five
    results and each row's count of damped (shorter than full) steps."""
    B, d = len(ends), X.shape[1]
    alpha = np.array(np.broadcast_to(start, (B, d)), dtype=float)
    R = _mask_beyond(1.0 + alpha @ X.T, ends, 1.0)
    bad = ~np.all(R > 0.0, axis=1)
    if np.any(bad):
        alpha[bad] = fallback
        R[bad] = 1.0 + X @ fallback
        R = _mask_beyond(R, ends, 1.0)
    W = _mask_beyond(1.0 / R, ends, 0.0)
    grad = W @ X
    gnorm = np.linalg.norm(grad, axis=1)
    its = np.zeros(B, dtype=int)
    damped = np.zeros(B, dtype=int)
    for it in range(max_iter + 1):
        active = ~(gnorm <= tol)
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
        hess = ((W * W) @ P).reshape(B, d, d)
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        rows = np.flatnonzero(active)
        lam = np.sqrt(np.maximum(np.sum(grad[rows] * step[rows], axis=1), 0.0))
        full = lam <= 0.68
        t = np.where(full, 1.0, 1.0 / (1.0 + lam))
        alpha[rows] = alpha[rows] + t[:, None] * step[rows]
        damped[rows[~full]] += 1
        R = _mask_beyond(1.0 + alpha @ X.T, ends, 1.0)
        W = _mask_beyond(1.0 / R, ends, 0.0)
        grad = W @ X
        gnorm = np.linalg.norm(grad, axis=1)
        its[active] += 1
    hess = ((W * W) @ P).reshape(B, d, d)
    phi = np.sum(np.log(R), axis=1)
    return (alpha, phi, gnorm, hess, its), damped


def newton_rows_both(X, ends, start, fallback):
    """_newton_rows and its per-row reference on one block: asserts that
    alpha, phi, the gradient norms, the Hessians and the iteration counts
    are equal bit for bit, and returns the reference's counts of damped
    steps and iteration counts."""
    P = _outer_rows(X)
    want, damped = reference_newton_rows(X, P, ends, start, fallback, 1e-10, 200)
    got = _newton_rows(X, P, ends, start, fallback)
    for name, w, g in zip(("alpha", "phi", "gnorm", "hess", "its"), want, got):
        assert np.array_equal(w, g), name
    return damped, want[4]


def starts_toward_the_edge(X, ends, rng, lo=0.5, hi=0.95):
    """One start per row: a random fraction in [lo, hi) of the way from
    the origin to the edge of the row's feasible set, in a random
    direction."""
    B, d = len(ends), X.shape[1]
    u = rng.standard_normal((B, d))
    reach = np.array([1.0 / np.max(-(X[:m] @ v)) for m, v in zip(ends, u)])
    return (rng.uniform(lo, hi, size=B) * reach)[:, None] * u


def drifting_history(d, n, seed):
    """Corner training, then n outcomes of drift 0.5 clipped to the box."""
    rng = np.random.default_rng(seed)
    path = np.clip(rng.uniform(-0.8, 0.8, size=(n, d)) + 0.5, -1.0, 1.0)
    return np.concatenate([corner_game(d).training.points, path]), rng


def test_newton_rows_backtracking_matches_per_row_reference():
    # the imaginary path x_n = 1/(n + 1), every row starting from its own
    # point of (-1, 1): the rows that start far out take a damped step
    train = corner_game(1).training.points
    X = np.concatenate([train, (1.0 / (np.arange(1, 301) + 1.0))[:, None]])
    ends = np.repeat([len(train) + 50, len(train) + 200, len(X)], 11)
    start = np.tile(np.linspace(-0.9, 0.9, 11), 3)[:, None]
    damped, its = newton_rows_both(X, ends, start, np.zeros(1))
    assert 0 < np.sum(damped > 0) < len(ends)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_newton_rows_edge_starts_match_per_row_reference(d):
    X, rng = drifting_history(d, 300, 71)
    n0 = corner_game(d).training.n0
    ends = rng.integers(n0 + 1, len(X) + 1, size=32)
    # every row starts far enough out to take damped steps and ends with
    # full ones
    damped, its = newton_rows_both(X, ends, starts_toward_the_edge(X, ends, rng), np.zeros(d))
    assert np.all(damped > 0)
    assert np.all(damped < its)


def mixed_start_block(d):
    """A block of 16 rows whose starts are: the row's own optimum (rows
    0, 5), infeasible for the row's own history (rows 2, 9), NaN (rows 3,
    12) and, elsewhere, toward the edge of the feasible set.  Returns the
    block and a fallback: row 0's optimum, inside the training polytope
    and so feasible for every row."""
    X, rng = drifting_history(d, 80, 90 + d)
    n0 = corner_game(d).training.n0
    ends = np.sort(rng.integers(n0 + 1, len(X) + 1, size=16))
    start = starts_toward_the_edge(X, ends, rng)
    P = _outer_rows(X)
    (alpha, *_), _ = reference_newton_rows(X, P, ends, start, np.zeros(d), 1e-10, 200)
    start[[0, 5]] = alpha[[0, 5]]
    for b in (2, 9):  # 1 + alpha.x = -1 at the row's own last outcome
        x = X[ends[b] - 1]
        start[b] = -2.0 * x / (x @ x)
    start[[3, 12]] = np.nan
    return X, ends, start, alpha[0]


@pytest.mark.parametrize("d", [1, 2])
def test_newton_rows_mixed_starts_match_per_row_reference(d):
    X, ends, start, fallback = mixed_start_block(d)
    damped, its = newton_rows_both(X, ends, start, fallback)
    assert np.all(its[[0, 5]] == 0)
    assert np.all(its[[2, 3, 9, 12]] > 0)
    assert np.any(damped > 0)


@pytest.mark.parametrize("max_iter", [1, 2])
def test_newton_rows_iteration_cap_matches_per_row_reference(monkeypatch, max_iter):
    X, ends, start, fallback = mixed_start_block(2)
    P = _outer_rows(X)
    with pytest.raises(SolverError) as want:
        reference_newton_rows(X, P, ends, start, fallback, 1e-10, max_iter)
    monkeypatch.setattr(gtpbet.optimizer, "_MAX_ITER", max_iter)
    with pytest.raises(SolverError) as got:
        _newton_rows(X, P, ends, start, fallback)
    assert want.value.row == got.value.row > 0
    assert str(got.value) == str(want.value)
    assert np.array_equal(got.value.alpha, want.value.alpha)
    assert got.value.grad_norm == want.value.grad_norm


def test_newton_rows_working_memory():
    # the call's (B x m) arrays are two work arrays, reused by every
    # iteration
    B, m = 16, 2008
    X, rng = drifting_history(2, m - 4, 3)
    P = _outer_rows(X)
    ends = np.arange(m - B + 1, m + 1)
    start = starts_toward_the_edge(X, ends, rng, 0.0, 0.5)
    tracemalloc.start()
    try:
        _newton_rows(X, P, ends, start, np.zeros(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * B * m * 8


def skewed_run():
    """The exact run on a path where one predicted start, in the second
    block, is infeasible for its round's history."""
    dom = Domain.box([-0.01], [1.0])
    game = GameConfig(domain=dom, training=make_training(dom, 0.1, "corners_2tod"))
    path = np.random.default_rng(0).uniform(-0.01, 1.0, size=(120, 1))
    return sos_run(game, path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_run_keeps_rejected_trials_quiet():
    # the infeasible start restarts from the previous block's last optimum;
    # that may not leak a RuntimeWarning
    assert np.all(np.isfinite(skewed_run().ledger.logK_true))


def test_infeasible_start_restarts_from_the_previous_optimum():
    # restarted from the origin, the affected block took 34 iterations
    its = skewed_run().iterations
    assert its[_BLOCK : 2 * _BLOCK].max() <= 12


def test_solver_failure_keeps_its_type_and_names_the_round(monkeypatch):
    # no gradient norm reaches 1e-300 but one that rounds to exactly 0, which
    # at d = 1 happens often enough that some rounds converge; at d = 3 both
    # rounds here fail.  The training-only solve still converges: its
    # gradient at the origin, over the symmetric corners, is exactly 0
    monkeypatch.setattr(gtpbet.optimizer, "_GRAD_TOL", 1e-300)
    path = np.array([[0.3, 0.1, -0.2], [0.1, -0.4, 0.6]])
    with pytest.raises(SolverError, match="solver failed at round [12]: no convergence") as info:
        sos_run(corner_game(3), path)
    assert isinstance(info.value, RuntimeError)
    assert info.value.alpha.shape == (3,)
    assert info.value.grad_norm > 1e-300


def test_outside_sphere_domain_names_the_round():
    dom = Domain.sphere(2, 1.0)
    game = GameConfig(domain=dom, training=make_training(dom, 0.1))
    path = np.array([[0.5, 0.5], [0.6, -0.6], [0.8, 0.8], [2.0, 0.0]])
    with pytest.raises(ValueError, match="outcome at round 3 lies outside"):
        sos_run(game, path)
    assert sos_run(game, path[:2]).N == 2


def test_outcome_on_the_slack_boundary_accepted():
    # the membership test allows a slack of 1e-12 beyond the domain; a
    # point exactly there is in, the next float beyond it is out
    edge = 1.0 + 1e-12
    beyond = np.nextafter(edge, 2.0)
    box = unit_box_game(0.1)
    dom = Domain.sphere(2, 1.0)
    ball = GameConfig(domain=dom, training=make_training(dom, 0.1))
    for game, at, out in (
        (box, [edge], [beyond]),
        (box, [-edge], [-beyond]),
        (ball, [0.0, edge], [0.0, beyond]),
    ):
        assert game.domain.contains_rows(np.array([at, out])).tolist() == [True, False]
        assert sos_run(game, [[0.1] * len(at), at]).N == 2
        with pytest.raises(ValueError, match="outcome at round 2 lies outside"):
            sos_run(game, [[0.1] * len(at), out])
