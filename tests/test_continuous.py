import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft

from gtpbet import (
    InvariantError,
    PricePath,
    continuous,
    embed,
    gen_fbm,
    gen_gbm,
    girsanov_rate_experiment,
    holder_experiment,
    sos_capital_fast,
)
from conftest import peak_rss_ratio, reference_stops, run_python


def _definition_stops(values, delta, stops):
    """The indices j >= 1 with sum((S_j/S_a - 1)**2) >= delta * delta, where
    a is the last of `stops` before j (0 before the first), in the scan's
    arithmetic and whole-array.  `stops` is the greedy scan's stops exactly
    when this returns it."""
    S = np.asarray(values, dtype=float)
    stops = np.asarray(stops, dtype=np.int64)
    j = np.arange(1, S.shape[0])
    anchor = np.concatenate([[0], stops])[np.searchsorted(stops, j)]
    acc = np.zeros(j.size)
    for col in range(S.shape[1]):
        r = S[j, col] / S[anchor, col]
        r -= 1.0
        r *= r
        acc += r
    return j[acc >= delta * delta].tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_embed_matches_definition_on_random_paths(d):
    rng = np.random.default_rng(40 + d)
    for k in (1, 300, 3000):
        incr = 0.0005 * rng.standard_normal((k, d))
        incr[k // 3 : k // 3 + k // 4] = 0.0  # a flat stretch of long gaps
        values = np.exp(np.vstack([np.zeros(d), np.cumsum(incr, axis=0)]))
        path = PricePath(values, T=k)
        for delta in (0.003, 0.006, 0.02):
            got = embed(path, delta).stop_indices
            assert got.dtype == np.int64
            assert got.tolist() == reference_stops(values, delta)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_embed_crossing_threshold_is_inclusive(sign):
    # with a power-of-two anchor and delta, S_j/S_i - 1 and delta**2 are
    # exact, so a point on |S_j/S_i - 1| = delta is a stop and the
    # neighbouring double on the inside is not
    delta = 2.0**-7
    for anchor in (1.0, 0.25, 8.0):
        edge = anchor * (1.0 + sign * delta)
        inside = np.nextafter(edge, anchor)
        outside = np.nextafter(edge, edge + sign)
        for values, stops in (
            ([anchor, inside, inside, inside], []),
            ([anchor, inside, edge, edge], [2]),
            ([anchor, inside, outside, outside], [2]),
        ):
            path = PricePath(np.array(values)[:, None], T=3)
            assert embed(path, delta).stop_indices.tolist() == stops
            assert reference_stops(path.values, delta) == stops


def test_embed_matches_definition_near_threshold():
    # every other point lies within 2 ulp of the crossing threshold of the
    # anchor the scan holds at that time, on a random side
    delta = 0.01
    rng = np.random.default_rng(5)
    values, anchor = [1.0], 1.0
    for _ in range(2000):
        values.append(anchor * (1.0 + 0.5 * delta * rng.uniform(-1.0, 1.0)))
        x = anchor * (1.0 + delta * rng.choice([-1.0, 1.0]))
        for _ in range(abs(int(rng.integers(-2, 3)))):
            x = np.nextafter(x, rng.choice([0.0, 2.0 * x]))
        values.append(x)
        r = x / anchor - 1.0
        if r * r >= delta * delta:
            anchor = x
    values = np.array(values)[:, None]
    path = PricePath(values, T=values.shape[0] - 1)
    expect = reference_stops(values, delta)
    assert 500 < len(expect) < 1500  # near-threshold points on both sides
    assert embed(path, delta).stop_indices.tolist() == expect


def _walk(rng, k, d, vol):
    """Prices of a d-column log random walk of k steps of sd vol."""
    incr = vol * rng.standard_normal((k, d))
    return np.exp(np.vstack([np.zeros(d), np.cumsum(incr, axis=0)]))


def _many_chains(monkeypatch, segment):
    """Cut the path after a pilot of one stop into segments of `segment`
    stops, so that short paths run many chains."""
    monkeypatch.setattr(continuous, "_PILOT", 1)
    monkeypatch.setattr(continuous, "_SEGMENT", segment)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lockstep_scan_matches_definition_on_long_paths(d):
    # 200,000 grid points and 8,000 to 32,000 stops: tens to a hundred
    # chains at the default segment length, spliced at their merges
    rng = np.random.default_rng(60 + d)
    values = _walk(rng, 200_000, d, 0.002 / math.sqrt(d))
    path = PricePath(values, T=200_000)
    for delta in (0.005, 0.01):
        stops, discarded = continuous._scan_crossings(values, delta * delta)
        assert discarded > 0  # chains after the first ran
        assert _definition_stops(values, delta, stops) == stops.tolist()
        assert np.array_equal(embed(path, delta).stop_indices, stops)


def test_lockstep_scan_near_threshold_on_a_long_path():
    # the near-threshold path of the test above, 50 times longer (about
    # 25,000 stops); its construction tracks the stops as it goes
    delta = 0.01
    rng = np.random.default_rng(6)
    values, anchor, expect = [1.0], 1.0, []
    for _ in range(50_000):
        values.append(anchor * (1.0 + 0.5 * delta * rng.uniform(-1.0, 1.0)))
        x = anchor * (1.0 + delta * rng.choice([-1.0, 1.0]))
        for _ in range(abs(int(rng.integers(-2, 3)))):
            x = np.nextafter(x, rng.choice([0.0, 2.0 * x]))
        values.append(x)
        r = x / anchor - 1.0
        if r * r >= delta * delta:
            anchor = x
            expect.append(len(values) - 1)
    values = np.array(values)[:, None]
    stops, discarded = continuous._scan_crossings(values, delta * delta)
    assert discarded > 0
    assert stops.tolist() == expect
    assert _definition_stops(values, delta, stops) == expect


@pytest.mark.parametrize("segment", [256, 3])
def test_lockstep_scan_flat_stretches_and_a_quiet_tail(monkeypatch, segment):
    # flat stretches far longer than a window, some holding chain starts,
    # and no crossing from the last stop to the horizon
    if segment != 256:
        _many_chains(monkeypatch, segment)
    incr = 0.002 * np.random.default_rng(8).standard_normal(100_000)
    for start in range(5_000, 80_000, 15_000):
        incr[start : start + 4_000] = 0.0
    incr[90_000:] = 0.0
    values = np.exp(np.concatenate([[0.0], np.cumsum(incr)]))[:, None]
    stops, discarded = continuous._scan_crossings(values, 0.01**2)
    assert discarded > 0
    assert stops[-1] <= 90_000
    assert _definition_stops(values, 0.01, stops) == stops.tolist()


def test_lockstep_chains_landing_on_one_index_in_one_step(monkeypatch):
    # a step of 1.5 delta every 50 grid points and flat in between, so every
    # step is a stop; with about ten chain starts to a flat stretch, the
    # chains started on one stretch land on its step together
    _many_chains(monkeypatch, 0.1)
    delta = 0.01
    jumps = np.arange(50, 20_000, 50)
    log_step = np.zeros(20_000)
    log_step[jumps - 1] = np.log1p(1.5 * delta) * np.where(np.arange(jumps.size) % 3, 1.0, -1.0)
    values = np.exp(np.concatenate([[0.0], np.cumsum(log_step)]))[:, None]
    stops, discarded = continuous._scan_crossings(values, delta * delta)
    assert discarded > 0
    assert stops.tolist() == jumps.tolist()


def test_lockstep_scan_with_more_chains_than_grid_steps(monkeypatch):
    _many_chains(monkeypatch, 1e-3)
    rng = np.random.default_rng(9)
    for k in range(1, 40):
        values = _walk(rng, k, 2, 0.01)
        for delta in (0.005, 0.01, 0.03):
            stops, _ = continuous._scan_crossings(values, delta * delta)
            assert stops.tolist() == reference_stops(values, delta)


def test_lockstep_scan_follows_a_successor_past_its_merge(monkeypatch):
    # with segments of 16 stops a chain often meets the scan ahead only
    # after the chain after it has merged on; it then lands on stops of a
    # chain further ahead and must merge there, not scan on alone to the
    # horizon, which computes some 30 times the stops kept
    _many_chains(monkeypatch, 16)
    values = gen_fbm(0.3, 0.16, 1.0, 2.0**-20, 2).values
    stops, discarded = continuous._scan_crossings(values, 0.01**2)
    assert 0 < discarded <= stops.size
    assert _definition_stops(values, 0.01, stops) == stops.tolist()


def test_lockstep_scan_merges_into_any_chain_at_a_coarse_delta(monkeypatch):
    # at delta = 0.02 a 16-stop segment is short of the merge length, so a
    # chain first lands on stops of a chain several segments ahead; merging
    # only into the next chain discarded 12 times the stops kept
    _many_chains(monkeypatch, 16)
    values = gen_fbm(0.3, 0.16, 1.0, 2.0**-20, 2).values
    stops, discarded = continuous._scan_crossings(values, 0.02**2)
    assert _definition_stops(values, 0.02, stops) == stops.tolist()
    assert discarded <= 3 * stops.size


def test_lockstep_scan_resumes_the_paused_chain_that_the_first_joins(monkeypatch):
    # exp(t), whose scans never meet, with one upward step of 1.5 delta in
    # the middle that every scan reaching it stops at.  The chain started
    # last before the step lands on it first and pauses two segments later,
    # long before the first chain arrives; the first chain's scan then goes
    # on as the paused chain's, which must resume to reach the horizon
    _many_chains(monkeypatch, 16)
    delta = 1e-3
    K = 2**17
    log_path = np.linspace(0.0, 1.0, K + 1)
    log_path[K // 2 :] += math.log1p(1.5 * delta)
    values = np.exp(log_path)[:, None]
    stops, discarded = continuous._scan_crossings(values, delta * delta)
    assert K // 2 in stops.tolist()
    assert stops[-1] > K - 2 * K // stops.size
    assert _definition_stops(values, delta, stops) == stops.tolist()
    assert discarded <= 3 * stops.size


def _steps_every_50(delta):
    log_step = np.zeros(20_000)
    log_step[49:-1:50] = np.log1p(1.5 * delta) * np.where(np.arange(399) % 3, 1.0, -1.0)
    return np.exp(np.concatenate([[0.0], np.cumsum(log_step)]))[:, None]


def _exp_with_a_step(delta):
    log_path = np.linspace(0.0, 1.0, 2**17 + 1)
    log_path[2**16 :] += math.log1p(1.5 * delta)
    return np.exp(log_path)[:, None]


@pytest.mark.parametrize(
    "make, delta, segment, kept, discarded",
    [
        (_steps_every_50, 0.01, 0.1, 399, 1001),
        (lambda delta: gen_fbm(0.3, 0.16, 1.0, 2.0**-20, 2).values, 0.01, 16, 23_270, 8_848),
        (_exp_with_a_step, 1e-3, 16, 993, 1_998),
    ],
    ids=["one-index-in-one-step", "successor-past-its-merge", "resumed-paused-chain"],
)
def test_lockstep_discard_count_is_every_landing_off_the_lineage(
    monkeypatch, make, delta, segment, kept, discarded
):
    # the paths of the three tests above, with the discard counts of the
    # scan that recorded every chain's anchor at every step: the landings
    # off the lineage must number the same
    _many_chains(monkeypatch, segment)
    stops, got = continuous._scan_crossings(make(delta), delta * delta)
    assert (stops.size, got) == (kept, discarded)


def test_lockstep_scan_bounds_the_waste_on_a_smooth_path():
    # scans of exp(t) from different starts never meet, so every chain but
    # the first pauses two segments after its start; without that rule the
    # chains computed 27 times the 9,986 stops kept
    t = np.linspace(0.0, 1.0, 2**20 + 1)
    values = np.exp(t)[:, None]
    delta = 1e-4
    stops, discarded = continuous._scan_crossings(values, delta * delta)
    assert stops.size == pytest.approx(1.0 / math.log1p(delta), rel=0.01)
    assert 0 < discarded <= 5 * stops.size
    assert _definition_stops(values, delta, stops) == stops.tolist()


def test_embed_exponential_spacing():
    t = np.linspace(0.0, 1.0, 200_001)
    path = PricePath(np.exp(t)[:, None], T=1.0)
    emb = embed(path, 0.01)
    spacing = np.diff(np.concatenate([[0], emb.stop_indices])) * (t[1] - t[0])
    assert np.all(np.abs(spacing - math.log(1.01)) < 2 * (t[1] - t[0]))
    assert emb.N == pytest.approx(1.0 / math.log(1.01), abs=1)


def test_embed_constant_path():
    path = PricePath(np.ones((101, 1)), T=1.0)
    emb = embed(path, 0.01)
    assert emb.N == 0
    assert emb.outcomes.shape == (0, 1)


@pytest.mark.parametrize("d", [1, 2])
def test_embed_without_a_stop(d):
    # every move stays far inside delta, so the path has no stop
    t = np.linspace(0.0, 1.0, 101)
    values = 1.0 + 0.01 * np.sin(np.outer(t, np.arange(1, d + 1)) + 0.3)
    emb = embed(PricePath(values, T=1.0), 0.5)
    assert emb.N == 0
    assert emb.stop_indices.size == 0 and emb.stop_indices.dtype == np.int64
    assert emb.outcomes.shape == (0, d)
    assert np.array_equal(emb.final_return, values[-1] / values[0] - 1.0)
    logK, alpha = continuous._run_embedded_sos(emb)
    assert logK == 0.0 and not math.copysign(1.0, logK) < 0.0
    assert np.array_equal(alpha, np.zeros(d)) and not np.signbit(alpha).any()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fast_rule_bet_is_the_next_rounds_and_the_residual_periods(d):
    # 20,000 drifting outcomes on the sphere span three blocks of the fast
    # rule, and the drift pushes the late bets beyond the box
    delta = 0.01
    rng = np.random.default_rng(80 + d)
    g = rng.standard_normal((20000, d)) + 2.0
    x = g * (delta / np.linalg.norm(g, axis=1))[:, None]
    train = continuous.game_config_for_embedding(delta, d).training.points
    box = 1.0 / train.max()
    gains, last = sos_capital_fast(x, train, box)
    beyond = False
    for k in (0, 1, 2, 8191, 8192, 8193, 16384, 19999):
        bet = sos_capital_fast(x[:k], train, box)[1]
        assert bet.shape == (d,)
        beyond |= bool(np.any(np.abs(bet) > box))  # returned unclipped
        # round k + 1's gain: the clipped bet times x, summed in column
        # order from +0.0, as the rule sums it
        acc = 0.0
        for i in range(d):
            acc += np.clip(bet[i], -box, box) * x[k, i]
        assert np.log1p(acc).tobytes() == gains[k].tobytes()
    assert beyond
    final = rng.uniform(-delta, delta, d) / math.sqrt(d)
    emb = continuous.Embedding(delta, np.arange(1, x.shape[0] + 1), x, final, x.shape[0])
    logK, alpha = continuous._run_embedded_sos(emb)
    assert alpha.tobytes() == last.tobytes()
    residual = math.log1p(float(np.clip(last, -box, box) @ final))
    assert logK == pytest.approx(float(np.sum(gains)) + residual, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_row_norms_bit_identical_to_linalg_norm(d):
    rng = np.random.default_rng(60 + d)
    x = rng.standard_normal((5000, d)) * np.exp(rng.uniform(-30.0, 30.0, (5000, d)))
    x[::7, -1] = -0.0
    x[::13] = 0.0
    assert continuous._row_norms(x).tobytes() == np.linalg.norm(x, axis=1).tobytes()


def _embed_reference(S, stops, delta):
    """embed's returns over whole arrays, each step a fresh array: outcomes,
    final return and the index of the first worst single step."""
    prev = np.concatenate([[0], stops])
    raws = S[stops] / S[prev[:-1]] - 1.0
    steps = np.linalg.norm(S[stops] / S[stops - 1] - 1.0, axis=1)
    nrm = np.linalg.norm(raws, axis=1)
    outcomes = raws * (delta / nrm)[:, None]
    return outcomes, S[-1] / S[prev[-1]] - 1.0, int(stops[np.argmax(steps)])


def test_embed_blocks_bit_identical_to_whole_array_reference(monkeypatch):
    # blocks of 64 stops, so that about 35 of them carry the previous stop
    # over a block boundary
    monkeypatch.setattr(continuous, "_ROW_BLOCK", 64)
    sigma = np.array([[0.3, 0.1], [-0.05, 0.2]])
    path = gen_gbm([0.1, -0.05], sigma, 2.0, (0.01 / 1.5) ** 2, 17)
    emb = embed(path, 0.01)
    stops, _ = continuous._scan_crossings(path.values, 0.01 * 0.01)
    assert emb.N > 30 * 64 and np.array_equal(emb.stop_indices, stops)
    assert emb.stop_indices.dtype == stops.dtype == np.int64  # though recorded narrower
    outcomes, final, _ = _embed_reference(path.values, stops, 0.01)
    assert emb.outcomes.tobytes() == outcomes.tobytes()
    assert emb.final_return.tobytes() == final.tobytes()
    # a grid so coarse that single steps exceed 2 delta in many blocks
    coarse = gen_gbm([0.1, -0.05], sigma, 3.0, 1e-3, 17)
    stops, _ = continuous._scan_crossings(coarse.values, 0.01 * 0.01)
    *_, k = _embed_reference(coarse.values, stops, 0.01)
    assert np.searchsorted(stops, k) >= 64
    with pytest.raises(ValueError, match=f"at index {k};"):
        embed(coarse, 0.01)


def test_embed_names_the_earliest_of_equal_worst_steps(monkeypatch):
    # every step crosses delta; from index 300 on the up steps of 3 % are
    # the worst, all equal, and the first of them lies in the fifth block
    monkeypatch.setattr(continuous, "_ROW_BLOCK", 64)
    col = np.where(np.arange(601) % 2 == 1, np.where(np.arange(601) < 300, 1.012, 1.03), 1.0)
    path = PricePath(np.column_stack([col, np.ones(601)]), T=1.0)
    assert embed(path, 0.016).N == 300  # only the 3 % steps cross 0.016
    with pytest.raises(ValueError, match="at index 301;"):
        embed(path, 0.01)


@pytest.mark.parametrize("delta", [0.0, -0.1, math.nan, math.inf])
def test_embed_refuses_degenerate_delta(delta):
    path = gen_gbm([0.0], [[0.3]], 1.0, 1e-3, 1)
    with pytest.raises(ValueError, match="^delta must be positive and finite, got"):
        embed(path, delta)


@pytest.mark.parametrize("delta", [0.0, math.nan, math.inf])
def test_girsanov_refuses_degenerate_delta(delta):
    # refused before the grid step is formed from it
    with pytest.raises(ValueError, match="^delta must be positive and finite, got"):
        girsanov_rate_experiment([0.1], [[0.3]], 1.0, delta, 7)


@pytest.mark.parametrize("T, delta", [(50.0, 1e-10), (1.0, 1e-200), (2.0**62, 1.5)])
def test_girsanov_refuses_a_delta_too_fine_for_its_grid(monkeypatch, T, delta):
    # 2^62 grid steps or more, refused by delta and T before the path is
    # made; gen_gbm's own check would name a grid step the caller never set.
    # At 1e-200 the grid step underflows to 0
    monkeypatch.setattr(continuous, "gen_gbm", lambda *a, **k: pytest.fail("path made"))
    message = f"delta must give fewer than 2^62 grid steps over T, got delta = {delta!r} and T = {T!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        girsanov_rate_experiment([0.1], [[0.3]], T, delta, 7)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_girsanov_names_a_degenerate_horizon_before_its_grid(monkeypatch, T):
    monkeypatch.setattr(continuous, "gen_gbm", lambda *a, **k: pytest.fail("path made"))
    with pytest.raises(ValueError, match=f"^T must be positive and finite, got {T!r}$"):
        girsanov_rate_experiment([0.1], [[0.3]], T, 1e-10, 7)


@pytest.mark.parametrize(
    "mu, sigma, name",
    [
        ([math.nan], [[0.3]], "mu"),
        ([math.inf], [[0.3]], "mu"),
        ([0.1], [[math.inf]], "sigma"),
        ([0.1], [[math.nan]], "sigma"),
    ],
)
def test_gbm_refuses_non_finite_drift_or_volatility(mu, sigma, name):
    # refused before the grid step is formed from sigma or det warns on it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            girsanov_rate_experiment(mu, sigma, 1.0, 0.5, 7)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
            gen_gbm(mu, sigma, 1.0, 0.01, 7)


@pytest.mark.parametrize("sigma", [[[0.0]], [[0.3, 0.0], [0.0, 0.0]], [[0.3, 0.3], [0.3, 0.3]]])
def test_gbm_refuses_a_singular_volatility_before_the_grid(sigma):
    # a zero volatility would divide by zero in girsanov's grid step
    d = len(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^volatility matrix is singular$"):
            girsanov_rate_experiment([0.1] * d, sigma, 1.0, 0.05, 7)
        with pytest.raises(np.linalg.LinAlgError, match="^volatility matrix is singular$"):
            gen_gbm([0.1] * d, sigma, 1.0, 0.01, 7)


@pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
def test_gen_fbm_refuses_a_non_finite_scale_before_the_noise(monkeypatch, scale):
    monkeypatch.setattr(continuous, "_fgn_davies_harte", lambda *a, **k: pytest.fail("noise made"))
    with pytest.raises(ValueError, match=f"^scale must be finite, got {scale!r}$"):
        gen_fbm(0.3, scale, 1.0, 2.0**-10, 1)


def test_gen_fbm_accepts_a_scale_of_zero_or_below():
    flat = gen_fbm(0.3, 0.0, 1.0, 2.0**-8, 1)
    assert np.array_equal(flat.values, np.ones((257, 1)))
    up, down = gen_fbm(0.3, 0.1, 1.0, 2.0**-8, 1), gen_fbm(0.3, -0.1, 1.0, 2.0**-8, 1)
    np.testing.assert_allclose(down.values * up.values, 1.0, rtol=1e-12)


def test_embed_gbm_crossing_count():
    path = gen_gbm([0.0], [[0.3]], 1.0, 1e-6, 42)
    emb = embed(path, 0.005)
    expect = 0.3**2 * 1.0 / 0.005**2  # 3600
    assert abs(emb.N - expect) / expect < 0.20


def test_embed_outcomes_on_sphere_and_compounding():
    path = gen_gbm([0.05, -0.02], np.diag([0.2, 0.3]), 1.0, 1e-5, 3)
    delta = 0.01
    emb = embed(path, delta)
    norms = np.linalg.norm(emb.outcomes, axis=1)
    np.testing.assert_allclose(norms, delta, rtol=1e-12)
    assert emb.N * delta**2 == pytest.approx(np.sum(emb.outcomes**2), rel=1e-12)
    # the outcomes are the returns between stops, which compound to the
    # true prices at the stops, rescaled to norm delta
    S = path.values
    raws = S[emb.stop_indices] / S[np.concatenate([[0], emb.stop_indices[:-1]])] - 1.0
    compounded = S[0] * np.cumprod(1.0 + raws, axis=0)
    np.testing.assert_allclose(compounded, S[emb.stop_indices], rtol=1e-9)
    scaled = raws * (delta / np.linalg.norm(raws, axis=1))[:, None]
    np.testing.assert_allclose(emb.outcomes, scaled, rtol=1e-12)


def test_embed_grid_too_coarse():
    v = np.ones(11)
    v[5:] = 1.5  # a 50% single-step jump
    with pytest.raises(ValueError, match="finely"):
        embed(PricePath(v[:, None], T=1.0), 0.01)


def test_embed_refinement_invariance():
    def sample(k):
        t = np.linspace(0.0, 1.0, k + 1)
        s = np.exp(0.08 * np.sin(7.0 * t) + 0.05 * t)
        return PricePath(s[:, None], T=1.0), t

    coarse_path, tc = sample(40_000)
    fine_path, tf = sample(400_000)
    delta = 0.01
    ec = embed(coarse_path, delta)
    ef = embed(fine_path, delta)
    assert ec.N == ef.N
    shift = np.abs(tc[ec.stop_indices] - tf[ef.stop_indices])
    # the first crossing is localized to within one coarse step; later
    # stops inherit anchor drift but stay within a few steps of it
    coarse_step = tc[1] - tc[0]
    assert shift[0] <= coarse_step
    assert np.max(shift) < 20 * coarse_step
    np.testing.assert_allclose(
        ef.outcomes, ec.outcomes, atol=len(shift) * coarse_step
    )


def test_gen_gbm_deterministic_and_moments():
    a = gen_gbm([0.1], [[0.3]], 1.0, 0.01, 5)
    b = gen_gbm([0.1], [[0.3]], 1.0, 0.01, 5)
    np.testing.assert_array_equal(a.values, b.values)

    # near-zero volatility collapses to the deterministic exponential
    c = gen_gbm([0.1], [[1e-12]], 1.0, 0.01, 5)
    assert c.values[-1, 0] == pytest.approx(math.exp(0.1), rel=1e-6)

    finals = [
        math.log(gen_gbm([0.1], [[0.3]], 1.0, 0.05, seed).values[-1, 0])
        for seed in range(4000)
    ]
    mean = np.mean(finals)
    se = np.std(finals) / math.sqrt(len(finals))
    assert abs(mean - (0.1 - 0.5 * 0.09)) < 3 * se


def test_gen_gbm_covariance():
    sigma = np.array([[0.3, 0.0], [0.1, 0.2]])
    rets = []
    for seed in range(4000):
        p = gen_gbm([0.0, 0.0], sigma, 1.0, 0.5, seed)
        rets.append(np.diff(np.log(p.values), axis=0).ravel())
    cov = np.cov(np.asarray(rets).reshape(-1, 2).T) / 0.5
    target = sigma @ sigma.T
    err = np.linalg.norm(cov - target) / np.linalg.norm(target)
    assert err < 0.05


def test_gen_fbm_basics():
    p = gen_fbm(0.5, 0.2, 1.0, 1e-4, 9)
    assert p.values[0, 0] == 1.0  # B_H(0) = 0 exactly
    inc = np.diff(np.log(p.values[:, 0]))
    k = inc.size
    lag1 = np.corrcoef(inc[1:], inc[:-1])[0, 1]
    assert abs(lag1) < 3.0 / math.sqrt(k)

    q = gen_fbm(0.7, 0.2, 1.0, 1e-4, 9)
    inc = np.diff(np.log(q.values[:, 0]))
    lag1 = np.corrcoef(inc[1:], inc[:-1])[0, 1]
    assert abs(lag1 - (2**0.4 - 1.0)) < 0.05

    r = gen_fbm(0.7, 0.2, 1.0, 1e-4, 9)
    np.testing.assert_array_equal(q.values, r.values)


def test_gen_fbm_float32_matches_statistics():
    p64 = gen_fbm(0.3, 0.2, 1.0, 1e-4, 4)
    p32 = gen_fbm(0.3, 0.2, 1.0, 1e-4, 4, dtype=np.float32)
    v64 = np.var(np.diff(np.log(p64.values[:, 0])))
    v32 = np.var(np.diff(np.log(p32.values[:, 0])))
    assert v32 == pytest.approx(v64, rel=0.05)


def _reference_fgn(n, hurst, rng, dtype):
    """Plain Davies-Harte synthesis: the autocovariance from three power
    passes, complex scipy.fft transforms, and both normal blocks drawn whole."""
    e = 2.0 * hurst
    k = np.arange(n + 1, dtype=np.float64)
    acf = (0.5 * ((k + 1.0) ** e + np.abs(k - 1.0) ** e - 2.0 * k**e)).astype(dtype)
    m = 2 * n
    eig = fft.rfft(np.concatenate([acf, acf[-2:0:-1]])).real
    amp = np.sqrt(np.maximum(eig, 0.0) * (m / 2.0))
    wr = rng.standard_normal(n + 1, dtype=dtype)
    wi = rng.standard_normal(n + 1, dtype=dtype)
    wr[0] *= math.sqrt(2.0)
    wr[-1] *= math.sqrt(2.0)
    wi[0] = wi[-1] = 0.0
    spec = np.empty(n + 1, dtype=np.result_type(dtype, np.complex64))
    spec.real = wr * amp
    spec.imag = wi * amp
    return fft.irfft(spec, n=m)[:n]


def _reference_fbm(noise, hurst, scale, T):
    """exp of the scaled running sum of the noise, as one column."""
    K = noise.size
    col = np.concatenate([[0.0], np.cumsum(noise, dtype=np.float64)]) * (T / K) ** hurst
    return np.linspace(0.0, T, K + 1), np.exp(scale * col[:, None])


def _reference_gbm(mu, sigma, T, grid_step, seed):
    """Plain log-Euler GBM: increments, their stacked running sum, exp."""
    mu = np.asarray(mu, dtype=float)
    K = int(math.ceil(T / grid_step))
    h = T / K
    z = np.random.default_rng(seed).standard_normal((K, mu.size))
    drift = (mu - 0.5 * np.diag(sigma @ sigma.T)) * h
    incr = drift[None, :] + math.sqrt(h) * z @ sigma.T
    logS = np.vstack([np.zeros(mu.size), np.cumsum(incr, axis=0)])
    return np.linspace(0.0, T, K + 1), np.exp(logS)


# d is the path's width: gen_fbm makes one column.  K = 1, 2, 3 and 7 are
# prime, a single transform; 4097 = 17 * 241 leaves a part block of columns
# in the draws; 10**6 + 1 = 101 * 9901 has columns longer than _ROW_BLOCK
_FBM_CASES = [
    (K, hurst, 1, dtype)
    for K in (1, 2, 3, 7)
    for hurst in (0.25, 0.3, 0.5, 0.8)
    for dtype in (np.float64, np.float32)
] + [
    (K, hurst, 1, dtype)
    for K, hursts in ((4097, (0.3,)), (2**16, (0.3,)), (10**6 + 1, (0.3, 0.5, 0.8)))
    for hurst in hursts
    for dtype in (np.float64, np.float32)
]


@pytest.mark.parametrize("K, hurst, dtype", [(K, hurst, dtype) for K, hurst, _, dtype in _FBM_CASES])
def test_fgn_matches_plain_synthesis_within_rounding(K, hurst, dtype):
    # the four-step transforms round differently from the plain length-2K
    # real ones, so the noise is compared within a bound fixed beforehand:
    # 4 eps log2(2K), relative to the larger of 1 and the largest value.
    # At most 0.17 of it measured here.  H = 0.25 and 0.5 hit NumPy's sqrt and
    # identity shortcuts for ** 0.5 and ** 1
    ref = _reference_fgn(K, hurst, np.random.default_rng(17), dtype)
    got = continuous._fgn_davies_harte(K, hurst, np.random.default_rng(17), np.dtype(dtype))
    assert got.dtype == dtype and got.shape == (K,)
    bound = 4.0 * np.finfo(dtype).eps * math.log2(2 * K) * max(1.0, float(np.abs(ref).max()))
    assert float(np.abs(got.astype(np.float64) - ref).max()) <= bound


@pytest.mark.parametrize("K, hurst, d, dtype", _FBM_CASES)
def test_gen_fbm_bit_identical_to_plain_synthesis(K, hurst, d, dtype):
    # the path is the plain running sum, scale and exp of the noise that
    # _fgn_davies_harte makes from the same seed, bit for bit; a
    # power-of-two step makes T / grid_step exactly K
    step = 2.0**-20
    p = gen_fbm(hurst, 0.2, K * step, step, 17, dtype=dtype)
    noise = continuous._fgn_davies_harte(K, hurst, np.random.default_rng(17), np.dtype(dtype))
    times, values = _reference_fbm(noise, hurst, 0.2, K * step)
    assert p.values.shape == (times.size, d) and p.T == times[-1]
    assert np.array_equal(p.values, values)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gen_fbm_widens_the_noise_in_place_into_the_path(monkeypatch, dtype):
    # K = 100,003 is prime, so the copy from the top down ends in a part
    # block.  Just before the running sum, the buffer holds 0 and then the
    # noise widened to float64, and nothing else: shrunk to the path in
    # float64, and 2K + 2 values in float32, whose bytes hold K + 1 float64
    K = 100_003
    noise = continuous._fgn_davies_harte(K, 0.3, np.random.default_rng(5), np.dtype(dtype))
    summed = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        summed.append(a.base.view(np.float64).copy())
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    gen_fbm(0.3, 0.1, 1.0, 1.0 / K, 5, dtype)
    monkeypatch.undo()
    assert len(summed) == 1
    assert np.array_equal(summed[0], np.concatenate([[0.0], noise.astype(np.float64)]))


def test_gen_fbm_leaves_no_view_dangling(monkeypatch):
    # gen_fbm shrinks the noise's buffer to the path with resize's default
    # reference check, which refuses while a second view of the buffer
    # exists: the shrink would leave it pointing at freed memory.  The path
    # then stays in the whole buffer, bit for bit the same, and the view
    # still reads it.  (In float32 the buffer already has the path's size.)
    fgn = continuous._fgn_davies_harte
    held = []

    def leaky(*args):
        noise = fgn(*args)
        held.append(noise.base[-1:])
        return noise

    monkeypatch.setattr(continuous, "_fgn_davies_harte", leaky)
    p = gen_fbm(0.3, 0.1, 1.0, 2.0**-10, 1)
    monkeypatch.undo()
    assert np.array_equal(p.values, gen_fbm(0.3, 0.1, 1.0, 2.0**-10, 1).values)
    assert p.values.base.size == 2 * 2**10 and np.shares_memory(held[0], p.values.base)


def test_gen_fbm_under_a_tracer_that_reads_its_locals():
    # a debugger's or profiler's frame.f_locals holds its own reference to
    # the buffer (before Python 3.13), so resize refuses there too; the path
    # is the same
    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        p = gen_fbm(0.3, 0.1, 1.0, 2.0**-10, 1)
    finally:
        sys.settrace(previous)
    assert np.array_equal(p.values, gen_fbm(0.3, 0.1, 1.0, 2.0**-10, 1).values)


# gen_fbm's paths, as SHA-256, in a fresh interpreter held to one CPU or
# left with all of this process's CPUs: (K, hurst, dtype) cases on stdin,
# and the count of threads the calls started
_WORKER_COUNT_CHILD = """
import hashlib, json, os, sys, threading
import numpy as np
if sys.argv[1] == "one":
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as e:
        print(json.dumps({"skip": str(e)}))
        sys.exit()
from gtpbet import gen_fbm
started = []
start = threading.Thread.start
def counted(thread):
    started.append(thread)
    start(thread)
threading.Thread.start = counted
digests = []
for K, hurst, dtype in json.load(sys.stdin):
    step = 2.0**-20
    p = gen_fbm(hurst, 0.2, K * step, step, 17, dtype=dtype)
    digests.append(hashlib.sha256(p.values.tobytes()).hexdigest())
print(json.dumps({"threads": len(started), "digests": digests}))
"""


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or continuous._workers() < 2,
    reason="compares two workers with one: needs two CPUs and sched_setaffinity",
)
def test_gen_fbm_bits_do_not_depend_on_the_worker_count():
    # each stage of the synthesis runs in two halves on two CPUs and whole
    # in the caller on one; every element and transform line gets the same
    # arithmetic, so the paths are the same bytes
    cases = [(K, hurst, np.dtype(dtype).name) for K, hurst, _, dtype in _FBM_CASES]
    cases += [(2**20, 0.3, "float64"), (2**20, 0.3, "float32")]
    runs = {}
    for cpus in ("one", "all"):
        runs[cpus] = json.loads(run_python(_WORKER_COUNT_CHILD, cpus, stdin=json.dumps(cases)))
        if "skip" in runs[cpus]:
            pytest.skip(f"affinity cannot be set: {runs[cpus]['skip']}")
    assert runs["one"]["threads"] == 0 < runs["all"]["threads"]
    assert len(runs["one"]["digests"]) == len(cases)
    assert runs["one"]["digests"] == runs["all"]["digests"]


def test_gen_fbm_leaves_no_thread_and_no_view_behind():
    # every worker is joined before its stage returns, and none keeps a
    # view of the buffer, which resize would refuse: the buffer is shrunk
    # to the path
    K = 2**12
    before = threading.active_count()
    p = gen_fbm(0.3, 0.1, 1.0, 1.0 / K, 1)
    assert threading.active_count() == before
    assert p.values.base.nbytes == 8 * (K + 1)


@pytest.mark.skipif(
    continuous._workers() < 2,
    reason="on one CPU every stage runs in the caller, with no worker to fail",
)
@pytest.mark.parametrize("side", ["worker", "caller"])
def test_gen_fbm_joins_its_worker_when_a_half_raises(monkeypatch, side):
    # the first transform stage runs in two halves; one side's transform
    # raises, and the other's waits a moment first, so a worker left
    # unjoined would still be running when the error arrives
    fft = np.fft.fft

    def failing(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (side == "caller"):
            raise FloatingPointError(f"the {side}'s transform failed")
        time.sleep(0.2)
        return fft(*args, **kwargs)

    before = threading.active_count()
    monkeypatch.setattr(np.fft, "fft", failing)
    with pytest.raises(FloatingPointError, match=f"^the {side}'s transform failed$"):
        gen_fbm(0.3, 0.1, 1.0, 2.0**-12, 1)
    assert threading.active_count() == before


def test_gen_fbm_called_from_several_threads_at_once():
    # each call keeps its workers and halves to itself: four callers at
    # once, each with its own worker and switched every microsecond, get
    # the paths that one caller at a time gets
    seeds = range(4)
    expected = [gen_fbm(0.3, 0.1, 1.0, 2.0**-14, seed).values for seed in seeds]
    got = {}

    def call(seed):
        got[seed] = gen_fbm(0.3, 0.1, 1.0, 2.0**-14, seed).values

    threads = [threading.Thread(target=call, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(got[seed], path) for seed, path in zip(seeds, expected))


@pytest.mark.parametrize("dtype", [np.float16, np.complex128, np.int64, np.longdouble])
def test_gen_fbm_refuses_a_dtype_other_than_float32_or_float64(monkeypatch, dtype):
    # before any allocation; each used to fail deep in the synthesis with
    # an error that named neither the dtype nor the parameter
    monkeypatch.setattr(continuous, "_grid", lambda *a, **k: pytest.fail("grid sized"))
    message = f"dtype must be float32 or float64, got {np.dtype(dtype)}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_fbm(0.3, 0.1, 1.0, 2.0**-10, 1, dtype)


@pytest.mark.parametrize("K", [1, 64, 4097])
def test_fgn_refuses_an_indefinite_embedding(K):
    # H outside (0, 1) gives a circulant with negative eigenvalues; at K = 1
    # the negative one is mode K, kept in slot 0 next to mode 0
    with pytest.raises(InvariantError, match="not positive semidefinite"):
        continuous._fgn_davies_harte(K, 1.5, np.random.default_rng(0), np.dtype(np.float64))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gen_gbm_bit_identical_to_plain_synthesis(d):
    sigma = np.array([[0.3, 0.1, 0.0], [-0.05, 0.2, 0.02], [0.1, -0.1, 0.25]])[:d, :d]
    mu = [0.1, -0.05, 0.02][:d]
    for T, grid_step in ((1.0, 0.01), (3.0, 1e-5)):
        p = gen_gbm(mu, sigma, T, grid_step, 9)
        times, values = _reference_gbm(mu, sigma, T, grid_step, 9)
        assert p.values.shape[0] == times.size and p.T == times[-1]
        assert np.array_equal(p.values, values)


@pytest.mark.parametrize(
    "T, grid_step, name",
    [
        (0.0, 0.01, "T"),
        (-1.0, 0.01, "T"),
        (math.nan, 0.01, "T"),
        (math.inf, 0.01, "T"),
        (1.0, 0.0, "grid_step"),
        (1.0, -0.01, "grid_step"),
        (1.0, math.nan, "grid_step"),
        (1.0, math.inf, "grid_step"),
    ],
)
def test_generators_reject_degenerate_grids(T, grid_step, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        gen_fbm(0.3, 0.1, T, grid_step, 0)
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
        gen_gbm([0.1], [[0.3]], T, grid_step, 0)


def _holder_run(T, grid_step, outdir):
    from gtpbet.cli import run_scenario

    cfg = {"scenario": "holder", "T": repr(T), "grid_step": repr(grid_step)}
    run_scenario(cfg, outdir)


@pytest.mark.parametrize(
    "make",
    [
        lambda T, grid_step, outdir: gen_fbm(0.3, 0.1, T, grid_step, 0),
        lambda T, grid_step, outdir: gen_gbm([0.1], [[0.3]], T, grid_step, 0),
        _holder_run,
    ],
    ids=["gen_fbm", "gen_gbm", "holder"],
)
def test_generators_refuse_a_grid_too_fine_to_index(tmp_path, make):
    # 2^62 steps or more: the 2K fBm buffer would not be indexable, and
    # these raised OverflowError or NumPy's "Maximum allowed dimension"
    for T, grid_step in ((1.0, 5e-324), (1e300, 1e-10), (1.0, 1e-300), (2.0**62, 1.0)):
        message = f"T / grid_step must be below 2^62, got T = {T!r} and grid_step = {grid_step!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(T, grid_step, tmp_path / "out")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "make, grid_step",
    [
        (lambda T, grid_step, outdir: gen_fbm(0.3, 0.1, T, grid_step, 0), 2.0**-60),
        (lambda T, grid_step, outdir: gen_fbm(0.3, 0.1, T, grid_step, 0, np.float32), 2.0**-60),
        (lambda T, grid_step, outdir: gen_gbm([0.1, 0.1], 0.3 * np.eye(2), T, grid_step, 0),
         2.0**-59),
        (_holder_run, 2.0**-60),
    ],
    ids=["gen_fbm", "gen_fbm-float32", "gen_gbm-d2", "holder"],
)
def test_generators_refuse_a_grid_numpy_cannot_allocate(tmp_path, make, grid_step):
    # below 2^62 steps, but arrays of 2^63 bytes or more, where NumPy raised
    # its unnamed "array is too big"; refused before any allocation
    message = f"T / grid_step must give arrays NumPy can allocate, got T = 1.0 and grid_step = {grid_step!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make(1.0, grid_step, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("d", [1, 2])
def test_girsanov_refuses_a_path_numpy_cannot_allocate(monkeypatch, d):
    # delta = 1.5 and sigma = 0.3 give a unit grid step, so T = 2^61 makes
    # 2^61 steps: below 2^62, but a path of 2^64 bytes or more
    monkeypatch.setattr(continuous, "gen_gbm", lambda *a, **k: pytest.fail("path made"))
    message = f"delta must give a path over T that NumPy can allocate, got delta = 1.5 and T = {2.0**61!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        girsanov_rate_experiment([0.0] * d, 0.3 * np.eye(d), 2.0**61, 1.5, 7)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mu", [0.1, 0.0])
def test_girsanov_with_a_delta_no_price_move_reaches(mu, d):
    # delta = 1e200: the noise step (delta / 1.5)^2 overflowed Python's float
    # power.  The step is capped at T, one step that crosses no radius: no
    # stop, no bet and log capital 0, found without the fast rule, whose V
    # holds squares of c = delta sqrt(d) / 0.9 that overflow to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = girsanov_rate_experiment([mu] * d, 0.3 * np.eye(d), 50.0, 1e200, 1)
    assert out["N"] == 0
    assert out["logK_over_T"] == 0.0
    assert out["target"] == pytest.approx(0.5 * d * (mu / 0.3) ** 2)


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_gen_fbm_peak_memory():
    # the transform buffer of 2K values of dtype is the path's home, shrunk
    # to it after the noise is widened in place: two path sizes in float64
    # (2.17 measured here) and one in float32 (1.15).  The rest is the
    # four-step transform's tables and plans of about K^(3/4) values.  A
    # separate float64 path on top of the buffer read 3.06 and 2.12; the old
    # length-2K real transforms held a plan and a scratch the buffer's size
    # (6.07 in float64).  The float32 case also guards the transforms'
    # scaled norms: unscaled, NumPy runs complex64 through its complex128
    # loop and a copy, 5.12 path sizes before the path moved into the buffer
    assert peak_rss_ratio("gen_fbm(0.3, 0.1, 1.0, 2**-21, 1)") <= 2.30
    assert peak_rss_ratio("gen_fbm(0.3, 0.1, 1.0, 2**-21, 1, np.float32)") <= 1.30


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_holder_peaks_where_synthesis_does():
    # the three scans' owner maps and windows stay below the synthesis
    # buffer, so a holder run over the 2^21 float64 path peaks as gen_fbm
    # does (2.16 path sizes measured here, 3.05 when the path had its own
    # array beside the buffer)
    call = "holder_experiment(gen_fbm(0.3, 0.1, 1.0, 2**-21, 1), (0.02, 0.01, 0.005))"
    assert peak_rss_ratio(call, path_bytes=(2**21 + 1) * 8) <= 2.30


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_gen_gbm_peak_memory():
    # the increments are written into the path itself and the normals
    # pass through one small block: about one path size (1.06 measured
    # here); a whole-path array of draws or increments would reach two
    call = "gen_gbm([0.1, 0.1], 0.3 * np.eye(2), 100.0, 4.4e-5, 1)"
    assert peak_rss_ratio(call) <= 1.5


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_girsanov_peak_memory():
    # the d = 2 path of 2,250,001 points, then the scan's owner map of two
    # bytes a point, freed before the splice of its narrow records; the
    # embedding's returns and the embedded run's moments are formed in blocks
    # of 2^13 rows.  1.31 path sizes measured here, against 1.52 with blocks
    # of 2^16 rows and int64 splice records, 1.60 when the run's moments
    # covered the whole path at once and 2.2 when synthesis also held the
    # draws and increments
    K, _ = continuous._grid(100.0, (0.01 / 1.5) ** 2, 16)  # the experiment's grid
    call = "girsanov_rate_experiment([0.1, 0.1], 0.3 * np.eye(2), 100.0, 0.01, 1)"
    assert peak_rss_ratio(call, path_bytes=(K + 1) * 2 * 8) <= 1.40


def test_scan_peak_memory():
    # the int16 owner map of two bytes a grid point, then the stops read
    # from it into 8 bytes a landing: 9.6 bytes a stop above the map
    # measured here, against 13 when every step recorded each chain's id
    # and anchor and the records were sorted and spliced
    path = gen_gbm([0.1, 0.1], 0.3 * np.eye(2), 10.0, (0.01 / 1.5) ** 2, 1)
    assert path.values.shape[0] == 225_001
    tracemalloc.start()
    try:
        stops, _ = continuous._scan_crossings(path.values, 0.01 * 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stops.size > 14_000
    assert peak <= 2 * path.values.shape[0] + 12 * stops.size


def test_gen_fbm_rejects_bad_hurst(monkeypatch):
    monkeypatch.setattr(continuous, "_fgn_davies_harte", lambda *a, **k: pytest.fail("noise made"))
    for hurst in (1.5, 0.0, 1.0, -0.2, math.nan):
        message = f"hurst must be in (0, 1), got {hurst!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_fbm(hurst, 0.1, 1.0, 0.01, 0)


def test_holder_experiment_gbm_estimates():
    path = gen_gbm([0.0], [[0.3]], 1.0, 2e-6, 11)
    rows, hs = holder_experiment(path, [0.02, 0.01, 0.005])
    assert all(0.4 <= h <= 0.6 for h in hs)
    for r in rows:
        assert r["trV_N"] == pytest.approx(r["N"] * r["delta"] ** 2)


def test_holder_estimates_come_from_the_counts():
    # radii 0.05 / 0.049, 0.04 / 0.039 and 0.02 / 0.0199 stop equally often
    # on this path; from tr V_N their estimates were rounding noise
    # (-1.1e15, 8.8e13, -3.6e13)
    path = gen_fbm(0.4, 0.1, 0.5, 1e-4, 1)
    deltas = [0.05, 0.049, 0.04, 0.039, 0.02, 0.0199, 0.01]
    rows, hs = holder_experiment(path, deltas)
    counts = [r["N"] for r in rows]
    assert counts[0::2][:3] == counts[1::2]
    assert all(math.isnan(h) for h in hs[0::2])
    for a, b, h in zip(rows[:-1], rows[1:], hs):
        if a["N"] != b["N"]:
            assert h == math.log(a["delta"] / b["delta"]) / math.log(b["N"] / a["N"])
            assert 0.2 < h < 0.7
    assert math.isnan(holder_experiment(path, [0.05, 0.05])[1][0])


def test_girsanov_grid_bounds_the_drift_step(monkeypatch):
    # with mu = 5 and sigma = 0.01 the noise alone would allow a step of 1,
    # whose drift moves the price by a factor e^5 in one step
    out = girsanov_rate_experiment([5.0], [[0.01]], 1.0, 0.05, 1)
    assert out["N"] > 0
    steps = []
    real = continuous.gen_gbm

    def spy(mu, sigma, T, grid_step, seed):
        steps.append(grid_step)
        return real(mu, sigma, T, grid_step, seed)

    monkeypatch.setattr(continuous, "gen_gbm", spy)
    girsanov_rate_experiment([5.0, -6.0], 0.01 * np.eye(2), 0.1, 0.05, 1)
    girsanov_rate_experiment([0.1, 0.0], 0.3 * np.eye(2), 1.0, 0.05, 1)
    girsanov_rate_experiment([0.0], [[0.3]], 1.0, 0.05, 1)
    # the drift bound where it is the smaller; the noise bound, as it was,
    # elsewhere
    assert steps == [0.05 / 30.0, (0.05 / 1.5) ** 2, (0.05 / 1.5) ** 2]


def test_girsanov_zero_drift():
    out = girsanov_rate_experiment([0.0], [[0.3]], 20.0, 0.01, 13)
    assert out["target"] == 0.0
    # without drift there is nothing to win; the strategy pays only the
    # learning cost, about half a log of the round count
    T = 20.0
    cost = 0.5 * math.log(out["N"]) / T
    assert out["logK_over_T"] < 0.05
    assert out["logK_over_T"] > -cost - 5.0 / T


def test_price_path_validation():
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match="^T must be positive and finite"):
            PricePath(np.ones((3, 1)), T)
    with pytest.raises(ValueError, match="strictly positive"):
        PricePath(np.array([[1.0], [-1.0]]), 1.0)


def test_price_path_rows_must_match_times():
    # the grid of [0, T] has both ends, so a path has at least two rows
    for rows in (np.ones((0, 1)), np.ones(1)):
        with pytest.raises(ValueError, match="price rows; a grid of"):
            PricePath(rows, 1.0)
    # a (1, T) table is one row of T items, not a column to transpose
    with pytest.raises(ValueError, match=r"^1 price rows; a grid of \[0, T\] has at least 2$"):
        PricePath(np.ones((1, 3)), 2.0)
    flat = PricePath([1.0, 1.1, 1.2], 2.0)
    assert flat.values.shape == (3, 1) and flat.T == 2.0
    assert PricePath(np.ones((5, 1)), 2).T == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_price_path_rejects_non_finite_price(bad):
    values = np.exp(0.1 * np.arange(6.0))
    values[2] = bad
    with pytest.raises(ValueError, match="non-finite price at row 2"):
        PricePath(values, T=5.0)
    with pytest.raises(ValueError, match="^T must be positive and finite"):
        PricePath(np.ones(3), T=bad)
