import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft

from gtpbet import (
    PricePath,
    continuous,
    embed,
    gen_fbm,
    gen_gbm,
    girsanov_rate_experiment,
    holder_experiment,
)
from conftest import peak_rss_ratio, reference_stops


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


def _reference_fbm(hurst, scale, T, grid_step, seed, dtype):
    """exp of the scaled running sum of the plain noise, as one column."""
    K = int(math.ceil(T / grid_step))
    h = T / K
    noise = _reference_fgn(K, hurst, np.random.default_rng(seed), dtype)
    col = np.concatenate([[0.0], np.cumsum(noise, dtype=np.float64)]) * h**hurst
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


# d is the path's width: gen_fbm makes one column
_FBM_CASES = [
    (K, hurst, 1, dtype)
    for K in (1, 2, 3, 7)
    for hurst in (0.25, 0.3, 0.5, 0.8)
    for dtype in (np.float64, np.float32)
] + [(10**6 + 1, hurst, 1, dtype) for hurst in (0.3, 0.5, 0.8) for dtype in (np.float64, np.float32)]


@pytest.mark.parametrize("K, hurst, d, dtype", _FBM_CASES)
def test_gen_fbm_bit_identical_to_plain_synthesis(K, hurst, d, dtype):
    # a power-of-two step makes T / grid_step exactly K; 10**6 + 1 gives a
    # transform length with large prime factors, and H = 0.25 and 0.5 hit
    # NumPy's sqrt and identity shortcuts for ** 0.5 and ** 1
    step = 2.0**-20
    p = gen_fbm(hurst, 0.2, K * step, step, 17, dtype=dtype)
    times, values = _reference_fbm(hurst, 0.2, K * step, step, 17, dtype)
    assert p.values.shape == (times.size, d) and p.T == times[-1]
    assert np.array_equal(p.values, values)


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


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_gen_fbm_peak_memory():
    # the transform buffer of 2K doubles, pocketfft's plan and its scratch
    # make six path sizes (6.07 measured here); a second copy of the
    # spectrum would reach ten
    assert peak_rss_ratio("gen_fbm(0.3, 0.1, 1.0, 2**-21, 1)") <= 8.0


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
    K, _ = continuous._grid(100.0, (0.01 / 1.5) ** 2)  # the experiment's grid
    call = "girsanov_rate_experiment([0.1, 0.1], 0.3 * np.eye(2), 100.0, 0.01, 1)"
    assert peak_rss_ratio(call, path_bytes=(K + 1) * 2 * 8) <= 1.40


def test_scan_peak_memory():
    # the int16 owner map of two bytes a grid point, then chain ids of two
    # bytes and anchors of four per step and chain, spliced after the map is
    # freed: 13 bytes a stop above the map measured here, against 57 when
    # the records were int64 and the map stayed alive through the splice
    path = gen_gbm([0.1, 0.1], 0.3 * np.eye(2), 10.0, (0.01 / 1.5) ** 2, 1)
    assert path.values.shape[0] == 225_001
    tracemalloc.start()
    try:
        stops, _ = continuous._scan_crossings(path.values, 0.01 * 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stops.size > 14_000
    assert peak <= 2 * path.values.shape[0] + 32 * stops.size


def test_gen_fbm_rejects_bad_hurst():
    with pytest.raises(ValueError):
        gen_fbm(1.5, 0.1, 1.0, 0.01, 0)


def test_holder_experiment_gbm_estimates():
    path = gen_gbm([0.0], [[0.3]], 1.0, 2e-6, 11)
    rows, hs = holder_experiment(path, [0.02, 0.01, 0.005])
    assert all(0.4 <= h <= 0.6 for h in hs)
    for r in rows:
        assert r["trV_N"] == pytest.approx(r["N"] * r["delta"] ** 2)


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
