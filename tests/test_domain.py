import io
import math
import re

import numpy as np
import pytest

from gtpbet import (
    CapitalLedger,
    Domain,
    GameConfig,
    PhiProblem,
    TrainingSet,
    UniversalPortfolioConfig,
    appendix_yn,
    as_path,
    make_training,
    select_dimension,
    slln2_ratio,
    slln_ratio,
    sos_capital_fast,
    universal_portfolio,
)
from gtpbet.domain import LEDGER_COLUMNS, as_prices, running_moments


def test_box_requires_origin_interior():
    with pytest.raises(ValueError):
        Domain.box([0.1], [1.0])
    with pytest.raises(ValueError):
        Domain.box([-1.0], [-0.5])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Domain.box([-math.inf], [1.0]), "lo must be negative and finite"),
        (lambda: Domain.box([-1.0, math.nan], [1.0, 1.0]), "lo must be negative and finite"),
        (lambda: Domain.box([-1.0], [math.inf]), "hi must be positive and finite"),
        (lambda: Domain.sphere(2, math.nan), "radius must be positive and finite"),
        (lambda: Domain.sphere(2, math.inf), "radius must be positive and finite"),
        (lambda: Domain.sphere(2, 0.0), "radius must be positive and finite"),
    ],
)
def test_domain_refuses_non_finite_geometry(make, message):
    with pytest.raises(ValueError, match=f"^{message}, got"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Domain(d=0, kind="sphere", radius=1.0), "dimension must be positive"),
        (lambda: Domain(d=2, kind="box", lo=[-1.0], hi=[1.0, 1.0]), r"box bounds must have shape \(d,\)"),
        (lambda: Domain(d=1, kind="ball", radius=1.0), "unknown domain kind 'ball'"),
        (lambda: make_training(Domain.box([-1.0], [1.0]), 0.5, "axis"), "unknown training scheme 'axis'"),
        (
            lambda: GameConfig(Domain.box([-1.0, -1.0], [1.0, 1.0]), make_training(Domain.box([-1.0], [1.0]))),
            "training dimension does not match domain",
        ),
        (lambda: UniversalPortfolioConfig(M=1), "need at least two accounts"),
        (lambda: PhiProblem(np.array([[0.5, 0.5], [-0.5, -0.5]])), "outcome history must have full column rank"),
    ],
)
def test_constructors_refuse_what_they_cannot_hold(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_delta_bar_closed_forms():
    assert Domain.box([-1.0, -1.0], [1.0, 1.0]).delta_bar == pytest.approx(
        math.sqrt(2.0)
    )
    assert Domain.box([-0.3], [0.7]).delta_bar == 0.7
    assert Domain.sphere(3, 0.25).delta_bar == 0.25


def test_contains_with_boundary_slack():
    dom = Domain.box([-1.0], [1.0])
    assert dom.contains_rows(np.array([[1.0 + 5e-13], [1.0 + 1e-6]])).tolist() == [True, False]
    sph = Domain.sphere(2, 1.0)
    assert sph.contains_rows(np.array([[1.0, 0.0], [0.8, 0.8]])).tolist() == [True, False]


def test_max_growth_constant_symmetric_is_two():
    assert Domain.box([-1.0], [1.0]).max_growth_constant() == 2.0
    assert Domain.sphere(2, 0.5).max_growth_constant() == 2.0


def test_max_growth_constant_skewed_interval():
    # [-0.1, 1]: the prudent alpha reaches -1/0.1 against the downside,
    # and 1 + (-10)(-1) gives the factor 11 on the other end
    assert Domain.box([-0.1], [1.0]).max_growth_constant() == pytest.approx(11.0)


def test_axis_training_d1():
    dom = Domain.box([-1.0], [1.0])
    tr = make_training(dom, 0.5)
    assert tr.n0 == 2
    assert sorted(tr.points[:, 0]) == [-2.0, 2.0]


def test_axis_training_d2_sphere():
    dom = Domain.sphere(2, 1.0)
    tr = make_training(dom, 0.5)
    c = math.sqrt(2.0) / 0.5
    got = {tuple(p) for p in tr.points}
    assert got == {(c, 0.0), (-c, 0.0), (0.0, c), (0.0, -c)}


def test_corner_training_d1():
    dom = Domain.box([-1.0], [1.0])
    tr = make_training(dom, 0.1, "corners_2tod")
    assert sorted(tr.points[:, 0]) == [-1.0, 1.0]


def test_corner_training_rejections():
    with pytest.raises(ValueError):
        make_training(Domain.sphere(2, 1.0), 0.1, "corners_2tod")
    with pytest.raises(ValueError):
        make_training(Domain.box(-np.ones(21), np.ones(21)), 0.1, "corners_2tod")
    with pytest.raises(ValueError):
        make_training(Domain.box([-1.0], [1.0]), 1.5)


def test_training_must_span():
    with pytest.raises(ValueError):
        TrainingSet(epsilon0=0.1, points=np.zeros((2, 2)))


@pytest.mark.parametrize("epsilon0", [0.0, 1.0, -0.2, 1.5, math.nan, math.inf, -math.inf])
def test_training_margin_is_checked_where_it_is_held(epsilon0):
    # TrainingSet used to take any margin: 0 ran a whole sos_run and then
    # divided by zero in summary()'s C2 = C1^2 / epsilon0^2, NaN wrote
    # "C2": null and 1.5 a C2 of 1.78.  make_training refuses it the same
    # way, before c divides by 1 - epsilon0
    message = f"^{re.escape(f'epsilon0 must be in (0, 1), got {epsilon0!r}')}$"
    with pytest.raises(ValueError, match=message):
        TrainingSet(epsilon0=epsilon0, points=[[1.0], [-1.0]])
    for scheme in ("axis_2d", "corners_2tod"):
        with pytest.raises(ValueError, match=message):
            make_training(Domain.box([-1.0], [1.0]), epsilon0, scheme)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_axis_training_certifies_margin(d):
    # any alpha prudent on the training points keeps 1 + alpha.x >= eps0
    # on the whole domain; sampled over random prudent alphas and outcomes
    eps0 = 0.3
    dom = Domain.box(-np.ones(d), np.ones(d))
    tr = make_training(dom, eps0)
    c = tr.points.max()
    rng = np.random.default_rng(0)
    alphas = rng.uniform(-1.0 / c, 1.0 / c, size=(50, d))
    xs = rng.uniform(-1.0, 1.0, size=(1000, d))
    worst = float(np.min(1.0 + xs @ alphas.T))
    assert worst >= eps0 - 1e-12


def test_ledger_csv_format(tmp_path):
    led = CapitalLedger(1)
    led.logK_true[0] = math.log(1.125)
    led.logK_hindsight[0] = 0.125
    led.GR[0] = 1.0 / 3.0
    out = tmp_path / "ledger.csv"
    led.to_csv(out)
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(LEDGER_COLUMNS)
    assert "\r" not in text
    fields = lines[1].split(",")
    assert fields[0] == "1"
    # 17 significant digits round-trip exactly
    assert float(fields[1]) == led.logK_true[0]
    assert float(fields[LEDGER_COLUMNS.index("GR")]) == 1.0 / 3.0


def test_ledger_csv_bytes_equal_per_value_format(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, -1e300, 1.0 / 3.0]
    led = CapitalLedger(len(specials))
    for k, col in enumerate(LEDGER_COLUMNS[1:]):
        getattr(led, col)[:] = np.roll(specials, k)
    out = tmp_path / "ledger.csv"
    led.to_csv(out)
    want = ",".join(LEDGER_COLUMNS) + "\n"
    for i in range(len(led)):
        row = [getattr(led, col)[i] for col in LEDGER_COLUMNS[1:]]
        want += f"{i + 1}," + ",".join(format(float(v), ".17g") for v in row) + "\n"
    assert out.read_bytes() == want.encode()


def test_as_path_width_from_the_array():
    np.testing.assert_array_equal(as_path([0.1, 0.2]), [[0.1], [0.2]])
    assert as_path(np.zeros((4, 3))).shape == (4, 3)
    assert as_path([0.1, 0.2], 2).shape == (1, 2)
    with pytest.raises(ValueError, match="not"):
        as_path(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="not"):
        as_path(np.zeros((4, 3)), 2)


@pytest.mark.parametrize(
    "rows, cause",
    [
        # a NaN after a non-positive row: the non-finite message wins
        ([[1.0, 2.0], [1.0, 0.0], [np.nan, 1.0]], "non-finite price at row 2"),
        ([[1.0, 2.0], [-1.0, 1.0], [1.0, np.inf]], "non-finite price at row 2"),
        ([[1.0, 2.0], [1.0, -np.inf], [1.0, 1.0]], "non-finite price at row 1"),
        ([[1.0, 2.0], [1.0, 3.0], [-0.0, 1.0]], r"prices must be strictly positive \(row 2\)"),
        ([[1.0, 2.0], [0.0, 3.0], [-1.0, 1.0]], r"prices must be strictly positive \(row 1\)"),
        # a table of one more axis is refused by its shape, before any row
        (np.ones((2, 2, 2)), r"price table of shape \(2, 2, 2\) is not \(T, d\)$"),
    ],
)
def test_as_prices_names_the_first_bad_row(rows, cause):
    with pytest.raises(ValueError, match=f"^{cause}"):
        as_prices(np.array(rows))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_running_moments_bit_identical_to_broadcast_products(d):
    # the outer products as one (N, d, 1) x (N, 1, d) broadcast, summed over
    # the whole path at once; the path run in three pieces, each starting
    # from the last rows of the one before, gives the same bits too
    rng = np.random.default_rng(90 + d)
    path = rng.standard_normal((3000, d)) * np.exp(rng.uniform(-8.0, 8.0, (3000, d)))
    path[::11, 0] = -0.0
    s0 = rng.standard_normal(d)
    V0 = np.eye(d) + 0.1
    want_s = np.cumsum(np.vstack([s0, path]), axis=0)
    want_V = np.concatenate([V0[None], path[:, :, None] * path[:, None, :]])
    np.cumsum(want_V, axis=0, out=want_V)
    s, V = running_moments(path, s0, V0)
    assert s.tobytes() == want_s.tobytes() and V.tobytes() == want_V.tobytes()
    pieces_s, pieces_V = [s0[None]], [V0[None]]
    for piece in (path[:1000], path[1000:1001], path[1001:]):
        ps, pV = running_moments(piece, pieces_s[-1][-1], pieces_V[-1][-1])
        pieces_s.append(ps[1:])
        pieces_V.append(pV[1:])
    assert np.concatenate(pieces_s).tobytes() == want_s.tobytes()
    assert np.concatenate(pieces_V).tobytes() == want_V.tobytes()


def test_as_prices_takes_an_empty_table():
    assert as_prices(np.zeros((0, 3))).shape == (0, 3)
    assert as_prices([]).shape == (0, 1)


def _select(path):
    rep = select_dimension(path)
    return np.concatenate([rep.kl_term, rep.penalty, rep.logK_true, [rep.selected]])


# every entry point that takes an outcome path, as path -> array
ENTRY_POINTS = {
    "slln_ratio": slln_ratio,
    "slln2_ratio": slln2_ratio,
    "appendix_yn": appendix_yn,
    "select_dimension": _select,
    "universal_portfolio": lambda p: universal_portfolio(UniversalPortfolioConfig(M=10), p),
    "PhiProblem": lambda p: PhiProblem(p).outcomes,
    "TrainingSet": lambda p: TrainingSet(epsilon0=0.1, points=p).points,
    "sos_capital_fast training": lambda p: sos_capital_fast(np.full(5, 0.01), p, 1.0)[0],
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_reads_flat_path_as_column(name):
    fn = ENTRY_POINTS[name]
    flat = np.array([0.5, -0.25, 0.75, -0.5, 0.25, 0.3])
    got = fn(flat)
    assert got.size > 1
    np.testing.assert_array_equal(got, fn(flat[:, None]))


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_entry_point_rejects_non_finite(name, bad):
    path = np.array([[0.5], [-0.25], [0.75], [bad], [0.25]])
    with pytest.raises(ValueError, match="non-finite outcome at round 4"):
        ENTRY_POINTS[name](path)
