"""End-to-end acceptance suite.

Each test is one pass/fail gate with its tolerance stated inline; shared
runs are module-scoped fixtures so the whole file stays inside its time
budget.
"""

import math
import time

import numpy as np
import pytest

from gtpbet import (
    Domain,
    GameConfig,
    PhiProblem,
    TrainingSet,
    UniversalPortfolioConfig,
    deficiency_bounds,
    gen_fbm,
    girsanov_rate_experiment,
    holder_experiment,
    kl_capital_identity,
    make_training,
    risk_neutral,
    solve_phi,
    sos_run,
    universal_portfolio,
)
from conftest import unit_box_game


def _problem_1d(seed, n=50):
    rng = np.random.default_rng(seed)
    X = np.concatenate([[-1.0, 1.0], rng.uniform(-0.9, 0.9, size=n)])[:, None]
    return PhiProblem(X)


@pytest.fixture(scope="module")
def oracle_problems():
    return [_problem_1d(seed) for seed in range(20)]


@pytest.fixture(scope="module")
def synthetic_runs():
    """Ten seed-fixed runs, d cycling through {1, 2, 3}, N = 2000."""
    runs = []
    for i in range(10):
        d = i % 3 + 1
        rng = np.random.default_rng(100 + i)
        dom = Domain.box(-0.5 * np.ones(d), 0.5 * np.ones(d))
        cfg = GameConfig(domain=dom, training=make_training(dom, 0.1))
        drift = rng.uniform(0.0, 0.1, size=d)
        path = np.clip(
            rng.uniform(-0.5, 0.5, size=(2000, d)) + drift, -0.499, 0.499
        )
        runs.append(sos_run(cfg, path))
    return runs


def test_optimizer_matches_grid_oracle(oracle_problems):
    # exhaustive grid at resolution 1e-5; solver must agree within 2e-5
    grid = np.arange(-1.0 + 1e-6, 1.0 - 1e-6 + 1e-5, 1e-5)
    solve_time = 0.0
    for prob in oracle_problems:
        t0 = time.perf_counter()
        sol = solve_phi(prob)
        solve_time += time.perf_counter() - t0
        vals = np.log(
            np.maximum(1.0 + prob.outcomes[:, 0][:, None] * grid[None, :], 1e-300)
        ).sum(axis=0)
        best = grid[np.argmax(vals)]
        assert abs(sol.alpha_star[0] - best) < 2e-5
    assert solve_time < 1.0


def test_kl_identity_on_every_problem(oracle_problems):
    problems = list(oracle_problems)
    for d, seed in ((2, 7), (3, 8)):
        rng = np.random.default_rng(seed)
        X = np.concatenate(
            [2.0 * np.eye(d), -2.0 * np.eye(d), rng.uniform(-0.8, 0.8, (80, d))]
        )
        problems.append(PhiProblem(X))
    for prob in problems:
        sol = solve_phi(prob)
        _, check = kl_capital_identity(prob, sol, risk_neutral(prob, sol))
        assert check <= 1e-9 * prob.m


def test_exact_relation_over_long_run():
    # the per-64-round identity check (tolerance 1e-6) raises on failure
    rng = np.random.default_rng(7)
    path = rng.choice([-0.5, 0.5], size=(5000, 1))
    sos_run(unit_box_game(0.1), path, check_every=64, check_tol_28b=1e-6)


def test_deficiency_bound_never_violated(synthetic_runs):
    for res in synthetic_runs:
        out = deficiency_bounds(res)  # asserts the bound at every round
        assert np.all(out["cum_delta_phi"] <= out["lemma2_bound"] + 1e-9)


def test_capital_approximation_accuracy(synthetic_runs):
    for res in synthetic_runs:
        lt = res.ledger.logK_true[-1]
        la = res.ledger.logK_approx[-1]
        assert abs(lt - la) <= 0.1 * max(1.0, abs(lt))


def test_sum_growth_rate_bound():
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        path = rng.choice([-1.0, 1.0], size=100_000)
        s = float(path.sum())
        n = path.size
        assert s * s / (n * math.log(n)) < 1.5
    assert time.perf_counter() - t0 < 10.0


def test_drift_growth_rate_matches_analytic():
    t0 = time.perf_counter()
    target = 0.5 * 0.1**2 / 0.3**2  # 0.05556
    rates = [
        girsanov_rate_experiment([0.1], [[0.3]], 200.0, 0.005, seed)[
            "logK_over_T"
        ]
        for seed in (1, 6, 16, 26, 27)
    ]
    mean = float(np.mean(rates))
    assert abs(mean - target) <= 0.30 * target
    assert time.perf_counter() - t0 < 60.0


def test_roughness_forces_capital_growth():
    t0 = time.perf_counter()
    deltas = [0.02, 0.01, 0.005]
    increases = {}
    for hurst, scale, grid in ((0.3, 0.38, 2.0**-26), (0.5, 0.25, 1e-6), (0.7, 0.4, 1e-5)):
        increases[hurst] = []
        for seed in (2, 3):
            dtype = np.float32 if grid < 1e-7 else np.float64
            path = gen_fbm(hurst, scale, 1.0, grid, seed, dtype=dtype)
            rows, _ = holder_experiment(path, deltas)
            logk = [r["logK"] for r in rows]
            if hurst != 0.5:
                assert np.all(np.diff(logk) > 0.0), (hurst, seed, logk)
            increases[hurst].append(logk[-1] - logk[0])
    for i in range(2):
        assert increases[0.5][i] < increases[0.3][i]
        assert increases[0.5][i] < increases[0.7][i]
    assert time.perf_counter() - t0 < 120.0


def test_universal_portfolio_bit_level_oracle():
    for seed, n, m in ((0, 200, 100), (1, 500, 37), (2, 50, 8)):
        rng = np.random.default_rng(seed)
        path = rng.uniform(-0.9, 0.9, size=(n, 1))
        cfg = UniversalPortfolioConfig(M=m)
        got = universal_portfolio(cfg, path)
        accounts = np.stack(
            [np.cumprod(1.0 + a * path[:, 0]) for a in cfg.account_alphas],
            axis=1,
        )
        np.testing.assert_array_equal(got, accounts.mean(axis=1))


def test_harmonic_data_log_capital_slope():
    path = (1.0 / (np.arange(1, 2001) + 1.0))[:, None]
    dom = Domain.box([-1.0], [1.0])
    cfg = GameConfig(
        domain=dom,
        training=TrainingSet(epsilon0=0.1, points=np.array([[-1.0], [1.0]])),
    )
    res = sos_run(cfg, path)
    n = np.arange(1, 2001)
    mask = n >= 200
    slope = np.polyfit(
        np.log(n[mask]), np.asarray(res.ledger.logK_true)[mask], 1
    )[0]
    assert 0.0 < slope < 1.0


def test_projection_norms_decay():
    from gtpbet import appendix_yn

    for d, seed in ((1, 0), (2, 1), (3, 2)):
        rng = np.random.default_rng(seed)
        U = rng.standard_normal((5000, d))
        U /= np.maximum(np.linalg.norm(U, axis=1, keepdims=True), 1.0) * 1.001
        norms = appendix_yn(U)
        assert np.median(norms[-500:]) < 0.25 * np.median(norms[:500])


def test_nested_fit_term_monotone():
    from gtpbet import select_dimension

    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        drift = rng.uniform(0.0, 0.15, size=5)
        paths = np.clip(
            rng.uniform(-0.5, 0.5, size=(300, 5)) + drift, -0.9, 0.9
        )
        rep = select_dimension(paths)
        assert np.all(np.diff(rep.kl_term) >= -1e-8)
