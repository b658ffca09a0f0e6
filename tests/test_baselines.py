import math
import re
import tracemalloc

import numpy as np
import pytest

from gtpbet import (
    CollateralError,
    PhiProblem,
    UniversalPortfolioConfig,
    kelly_gbm_rate,
    solve_phi,
    universal_portfolio,
    universal_portfolio_curves,
)
from gtpbet.baselines import _UP_ROWS


def test_constant_strategy_matches_hindsight_optimum():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-0.8, 0.8, size=100)
    X = np.concatenate([[-1.0, 1.0], xs])[:, None]
    sol = solve_phi(PhiProblem(X))
    live = float(np.sum(np.log1p(sol.alpha_star[0] * xs)))
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


def _whole_array_curves(M, path):
    """np.cumprod over the whole (N, M) array of growth factors, then the
    mean over accounts, with the training factor first for the trained
    curve."""
    alphas = UniversalPortfolioConfig(M=M).account_alphas
    caps = np.cumprod(1.0 + np.multiply.outer(path[:, 0], alphas), axis=0)
    return caps.mean(axis=1), (caps * ((1.0 - alphas) * (1.0 + alphas))).mean(axis=1)


@pytest.mark.parametrize("N", [1, _UP_ROWS - 1, _UP_ROWS, _UP_ROWS + 1, 2_000])
def test_universal_curves_match_whole_array_bit_for_bit(N):
    path = np.random.default_rng(N).uniform(-0.9, 0.9, size=(N, 1))
    plain, trained = universal_portfolio_curves(37, path)
    want_plain, want_trained = _whole_array_curves(37, path)
    np.testing.assert_array_equal(plain, want_plain)
    np.testing.assert_array_equal(trained, want_trained)
    for include_training, want in ((False, want_plain), (True, want_trained)):
        cfg = UniversalPortfolioConfig(M=37, include_training=include_training)
        np.testing.assert_array_equal(universal_portfolio(cfg, path), want)


def test_universal_curves_reject_negative_growth_factor():
    # an outcome below -1 makes the top accounts' factor 1 + alpha x < 0,
    # here in the second block
    path = np.full((_UP_ROWS + 5, 1), 0.1)
    path[_UP_ROWS + 2] = -1.5
    with pytest.raises(CollateralError, match="negative"):
        universal_portfolio_curves(10, path)
    with pytest.raises(CollateralError, match="negative"):
        universal_portfolio(UniversalPortfolioConfig(M=10), path)


def test_universal_curves_working_memory_is_a_few_blocks():
    # both curves, plus block arrays that do not grow with the path
    N, M = 20_000, 100
    path = np.random.default_rng(10).uniform(-0.8, 0.8, size=(N, 1))
    tracemalloc.start()
    try:
        universal_portfolio_curves(M, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * N * 8 + 4 * (_UP_ROWS + 1) * M * 8


def test_universal_portfolio_rejects_multidim():
    with pytest.raises(ValueError):
        universal_portfolio(UniversalPortfolioConfig(), np.zeros((5, 2)))


def test_kelly_rate_values():
    assert kelly_gbm_rate([0.0, 0.0], np.eye(2)) == 0.0
    assert kelly_gbm_rate([0.1], [[0.3]]) == pytest.approx(0.1**2 / (2 * 0.09))
    # independent items: the rate is the sum of the one-item rates
    assert kelly_gbm_rate([0.1, 0.2], np.diag([0.3, 0.5])) == pytest.approx(
        kelly_gbm_rate([0.1], [[0.3]]) + kelly_gbm_rate([0.2], [[0.5]])
    )
    with pytest.raises(np.linalg.LinAlgError):
        kelly_gbm_rate([0.1, 0.1], np.ones((2, 2)))


@pytest.mark.parametrize(
    "mu, sigma, name", [([math.nan], [[0.3]], "mu"), ([0.1], [[math.inf]], "sigma")]
)
def test_kelly_rate_refuses_non_finite_parameters(mu, sigma, name):
    # gen_gbm's check and message; the rate used to be nan for a NaN mu and
    # 0.0 for an infinite sigma
    bad = mu if name == "mu" else sigma
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {re.escape(str(bad))}$"):
        kelly_gbm_rate(mu, sigma)
