import math
import tracemalloc

import numpy as np
import pytest

from gtpbet import (
    CollateralError,
    PhiProblem,
    UniversalPortfolioConfig,
    constant_strategy_capital,
    kelly_gbm_rate,
    solve_phi,
    universal_portfolio,
)


def test_constant_strategy_basics():
    rng = np.random.default_rng(0)
    path = rng.uniform(-0.5, 0.5, size=(50, 1))
    assert constant_strategy_capital([0.0], path) == 0.0
    # symmetry: negating both alpha and the path leaves capital unchanged
    assert constant_strategy_capital([0.3], path) == pytest.approx(
        constant_strategy_capital([-0.3], -path)
    )
    with pytest.raises(CollateralError):
        constant_strategy_capital([2.0], np.array([[0.1], [-0.6]]))


def test_constant_strategy_matches_hindsight_optimum():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-0.8, 0.8, size=100)
    X = np.concatenate([[-1.0, 1.0], xs])[:, None]
    sol = solve_phi(PhiProblem(X))
    live = constant_strategy_capital(sol.alpha_star, xs[:, None])
    training_part = math.log(1.0 - sol.alpha_star[0]) + math.log(
        1.0 + sol.alpha_star[0]
    )
    assert live == pytest.approx(sol.phi_value - training_part, abs=1e-10)


def test_universal_portfolio_trivial_paths():
    cfg = UniversalPortfolioConfig(M=10)
    out = universal_portfolio(cfg, np.zeros((8, 1)))
    np.testing.assert_allclose(out, 1.0, atol=1e-15)
    # M=2 accounts at +-0.5, single outcome 0.2: (1.1 + 0.9)/2 = 1
    cfg2 = UniversalPortfolioConfig(M=2)
    out2 = universal_portfolio(cfg2, np.array([[0.2]]))
    assert out2[0] == pytest.approx(1.0, abs=1e-15)


def test_universal_portfolio_definitional_oracle():
    rng = np.random.default_rng(5)
    path = rng.uniform(-0.9, 0.9, size=(300, 1))
    cfg = UniversalPortfolioConfig(M=37)
    got = universal_portfolio(cfg, path)
    # reproduce from M independent per-account runs, same summation order
    accounts = np.stack(
        [np.cumprod(1.0 + a * path[:, 0]) for a in cfg.account_alphas], axis=1
    )
    np.testing.assert_array_equal(got, accounts.mean(axis=1))


def test_universal_portfolio_trained_variant():
    rng = np.random.default_rng(6)
    path = rng.uniform(-0.8, 0.8, size=(100, 1))
    cfg = UniversalPortfolioConfig(M=20, include_training=True)
    got = universal_portfolio(cfg, path)
    alphas = cfg.account_alphas
    accounts = np.stack(
        [
            (1.0 - a) * (1.0 + a) * np.cumprod(1.0 + a * path[:, 0])
            for a in alphas
        ],
        axis=1,
    )
    np.testing.assert_allclose(got, accounts.mean(axis=1), rtol=1e-12)


def test_universal_portfolio_within_log_m_of_best_account():
    rng = np.random.default_rng(7)
    path = rng.uniform(-0.7, 0.7, size=(400, 1))
    cfg = UniversalPortfolioConfig(M=25)
    got = universal_portfolio(cfg, path)
    best = np.max(
        np.stack(
            [np.cumprod(1.0 + a * path[:, 0]) for a in cfg.account_alphas],
            axis=1,
        ),
        axis=1,
    )
    assert np.all(got >= best / cfg.M - 1e-12)


def test_universal_portfolio_refinement_stability():
    rng = np.random.default_rng(8)
    path = rng.uniform(-0.7, 0.7, size=(500, 1))
    k1 = universal_portfolio(UniversalPortfolioConfig(M=50), path)[-1]
    k2 = universal_portfolio(UniversalPortfolioConfig(M=100), path)[-1]
    assert abs(math.log(k2) - math.log(k1)) < math.log(2.0)


def test_universal_portfolio_working_memory():
    # one (N, M) array: the growth factors, turned into capitals in place
    N, M = 2_000, 100
    path = np.random.default_rng(9).uniform(-0.8, 0.8, size=(N, 1))
    tracemalloc.start()
    try:
        universal_portfolio(UniversalPortfolioConfig(M=M, include_training=True), path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * N * M * 8


def test_universal_portfolio_rejects_multidim():
    with pytest.raises(ValueError):
        universal_portfolio(UniversalPortfolioConfig(), np.zeros((5, 2)))


def test_kelly_rate_values():
    assert kelly_gbm_rate([0.0, 0.0], np.eye(2)) == 0.0
    assert kelly_gbm_rate([0.1], [[0.3]]) == pytest.approx(0.1**2 / (2 * 0.09))
    rate, part = kelly_gbm_rate(
        [0.1, 0.2], np.diag([0.3, 0.5]), partition=[[0], [1]]
    )
    assert part == pytest.approx(rate)
    with pytest.raises(np.linalg.LinAlgError):
        kelly_gbm_rate([0.1, 0.1], np.ones((2, 2)))
