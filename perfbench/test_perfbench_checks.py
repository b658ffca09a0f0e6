"""The benchmark's checks accept gtpbet's outputs and reject corrupted copies.

Small inputs only, so these add a few seconds at most to the test suite.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from gtpbet import (  # noqa: E402
    UniversalPortfolioConfig,
    continuous,
    embed,
    gen_fbm,
    gen_gbm,
    girsanov_rate_experiment,
    holder_experiment,
    sos_run,
    transform_returns,
    universal_portfolio,
)

H, SCALE, STEP, DELTA = 0.3, 0.1, 2.0**-16, 0.01


@pytest.fixture(scope="module")
def fbm():
    path = gen_fbm(H, SCALE, 1.0, STEP, 3)
    (row,), _ = holder_experiment(path, [DELTA])
    return path, embed(path, DELTA), row


@pytest.fixture(scope="module")
def trading():
    rng = np.random.default_rng(4)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((120, 2)), axis=0))
    outcomes, game, _ = transform_returns(prices, 0.17)
    return prices, sos_run(game, outcomes)


def _corrupt(a, i, by):
    a = np.array(a, dtype=float)
    a[i] += by
    return a


def test_stops_accepts_the_scan(fbm):
    path, emb, _ = fbm
    assert emb.N > 50
    checks.stops(path.values, emb.stop_indices, DELTA, emb.N)


@pytest.mark.parametrize("corrupt", [
    lambda t, K: np.delete(t, len(t) // 2),
    lambda t, K: _corrupt(t, len(t) // 2, 1).astype(np.int64),
    lambda t, K: _corrupt(t, len(t) // 2, -1).astype(np.int64),
    lambda t, K: np.append(t, K),
    lambda t, K: t[:-1],
])
def test_stops_rejects_a_moved_missing_or_extra_stop(fbm, corrupt):
    path, emb, _ = fbm
    bad = corrupt(emb.stop_indices, path.values.shape[0] - 1)
    with pytest.raises(checks.CheckError):
        checks.stops(path.values, bad, DELTA, len(bad))


def test_stops_rejects_a_wrong_count(fbm):
    path, emb, _ = fbm
    with pytest.raises(checks.CheckError):
        checks.stops(path.values, emb.stop_indices, DELTA, emb.N + 1)


def test_fast_logk_one_dimension(fbm):
    path, emb, row = fbm
    checks.fast_logk(path.values, emb.stop_indices, DELTA, row["logK"], row["delta_alpha_norm"])
    with pytest.raises(checks.CheckError):
        checks.fast_logk(path.values, emb.stop_indices, DELTA, row["logK"] + 1e-6)
    with pytest.raises(checks.CheckError):
        checks.fast_logk(path.values, emb.stop_indices, DELTA, row["logK"],
                         row["delta_alpha_norm"] * (1 + 1e-6))


def test_fast_logk_two_dimensions():
    mu, sigma, T, delta, seed = [0.1, 0.1], 0.3 * np.eye(2), 2.0, 0.01, 5
    out = girsanov_rate_experiment(mu, sigma, T, delta, seed)
    path = gen_gbm(mu, sigma, T, (delta / 1.5) ** 2, seed)
    emb = embed(path, delta)
    assert emb.N == out["N"] > 100
    checks.fast_logk(path.values, emb.stop_indices, delta, out["logK_over_T"] * T)
    with pytest.raises(checks.CheckError):
        checks.fast_logk(path.values, emb.stop_indices, delta, out["logK_over_T"] * T + 1e-6)
    checks.kelly_target(mu, sigma, out["target"])
    with pytest.raises(checks.CheckError):
        checks.kelly_target(mu, sigma, out["target"] * (1 + 1e-9))


def test_fgn_moments(fbm):
    path = fbm[0]
    checks.fgn_moments(path.values, H, SCALE, STEP)
    with pytest.raises(checks.CheckError):
        checks.fgn_moments(path.values, 0.5, SCALE, STEP)
    with pytest.raises(checks.CheckError):
        checks.fgn_moments(path.values, H, 1.1 * SCALE, STEP)


def test_return_transform_matches_the_program(trading):
    prices, res = trading
    training, outcomes = checks.return_transform(prices, 0.17)
    np.testing.assert_allclose(outcomes, res.outcomes, rtol=0, atol=1e-13)
    assert sorted(map(tuple, np.round(training, 12))) == sorted(
        map(tuple, np.round(res.config.training.points, 12)))


def test_ld1(trading):
    led = trading[1].ledger
    checks.ld1(led.LD1)
    with pytest.raises(checks.CheckError):
        checks.ld1(_corrupt(led.LD1, 40, -0.1))
    with pytest.raises(checks.CheckError):
        checks.ld1(_corrupt(led.LD1, 0, -1.0))


def test_hindsight(trading):
    prices, res = trading
    training, outcomes = checks.return_transform(prices, 0.17)
    lt, lh = res.ledger.logK_true, res.ledger.logK_hindsight
    n = len(outcomes)
    rounds = (1, n // 2, n)
    checks.hindsight(training, outcomes, lt, lh, rounds)
    with pytest.raises(checks.CheckError, match="hindsight"):
        checks.hindsight(training, outcomes, lt, _corrupt(lh, n // 2 - 1, 1e-6), rounds)
    with pytest.raises(checks.CheckError, match="gain"):
        checks.hindsight(training, outcomes, _corrupt(lt, n - 1, 1e-6), lh, rounds)


def test_universal():
    path = np.random.default_rng(7).uniform(-0.8, 0.8, size=(50, 1))
    ku0 = universal_portfolio(UniversalPortfolioConfig(M=10), path)
    ku1 = universal_portfolio(UniversalPortfolioConfig(M=10, include_training=True), path)
    checks.universal(path, 10, ku0, ku1, ku0[-1], ku1[-1])
    with pytest.raises(checks.CheckError, match="KU0"):
        checks.universal(path, 10, ku0 * (1 + 1e-6), ku1, ku0[-1], ku1[-1])
    with pytest.raises(checks.CheckError, match="KU1"):
        checks.universal(path, 10, ku0, ku1, ku0[-1], ku1[-1] * (1 + 1e-6))


def test_tracer_wraps_lookup_sites_and_restores(fbm):
    path = fbm[0]
    original = continuous.sos_capital_fast
    tr = tracer.Tracer()
    tr.install()
    try:
        continuous.holder_experiment(path, [DELTA])
    finally:
        tr.uninstall()
    assert continuous.sos_capital_fast is original
    names = [s[0] for s in tr.spans]
    root = names.index("continuous.holder_experiment")
    for child in ("continuous.embed", "sos.sos_capital_fast"):
        assert tr.spans[names.index(child)][3] == root
    totals = tracer.layer_totals(tr.spans)
    holder = totals["continuous.holder_experiment"]
    children = sum(s[2] - s[1] for s in tr.spans if s[3] == root)
    assert math.isclose(holder["self_s"], holder["s"] - children, abs_tol=1e-9)
    assert totals["continuous.embed"]["stops"] == fbm[1].N


def test_run_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text((HERE / "run.py").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roughness", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
