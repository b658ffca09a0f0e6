import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtpbet
from gtpbet import (
    constant_strategy_capital,
    deficiency_bounds,
    deficiency_constants,
    slln2_ratio,
    slln_ratio,
    sos_capital_fast,
    sos_run,
)
from conftest import unit_box_game


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
    for n in (1, 10, 500, 4999):
        lhs = led.logK_hindsight[n] - led.logK_true[n]
        assert lhs == pytest.approx(cum[n] + res.phi00_alpha0, abs=1e-8)
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
    fast = np.sum(sos_capital_fast(path, np.array([[c], [-c]]), 1.0 / c))
    assert abs(fast - res.ledger.logK_true[-1]) < 0.05 * max(
        1.0, abs(res.ledger.logK_true[-1])
    )


def test_fast_rule_checkpoints_prefix_consistent():
    rng = np.random.default_rng(8)
    path = rng.uniform(-0.02, 0.02, size=(500, 3))
    train = 0.05 * np.concatenate([np.eye(3), -np.eye(3)])
    cps = np.cumsum(sos_capital_fast(path, train, 20.0))
    full = np.sum(sos_capital_fast(path, train, 20.0))
    part = np.sum(sos_capital_fast(path[:200], train, 20.0))
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
    total = np.sum(sos_capital_fast(path, train, bound))
    got = np.cumsum(sos_capital_fast(path, train, bound))
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
        sos_capital_fast(flat, train, 0.5), sos_capital_fast(col, train, 0.5)
    )
    assert constant_strategy_capital([0.3], flat) == constant_strategy_capital(
        [0.3], col
    )


def test_non_finite_outcome_names_round():
    path = np.array([[0.1], [np.nan], [0.2]])
    with pytest.raises(ValueError, match="non-finite outcome at round 2"):
        sos_run(unit_box_game(0.1), path)
    path[1, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite outcome at round 2"):
        sos_capital_fast(path, np.array([[2.0], [-2.0]]), 0.5)
    with pytest.raises(ValueError, match="non-finite outcome at round 2"):
        constant_strategy_capital([0.3], path)


def test_empty_path_rejected():
    with pytest.raises(ValueError, match="empty"):
        sos_run(unit_box_game(0.1), np.zeros((0, 1)))


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
