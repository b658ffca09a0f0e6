import re

import numpy as np
import pytest

from gtpbet import read_price_csv, transform_returns


def test_hand_worked_example():
    prices = np.array([100.0, 110.0, 99.0, 104.5])
    # returns 0.10, -0.10, 0.0555...; extremes +-0.10
    outcomes, cfg, tr = transform_returns(prices, 0.26)  # F = floor(0.26*4) = 1
    assert tr.F == 1
    # the extreme returns map to -1 and +1: the min is the first live round,
    # and the max, in the forecast block, enters rho below
    assert outcomes[0, 0] + tr.rho[0] == pytest.approx(-1.0)
    # the unit returns z are 1, -1, 0.555...: rho averages the corner block
    # {-1, +1} with the first F=1 value z=1
    assert tr.rho[0] == pytest.approx((0.0 + 1.0) / 3.0)
    # live outcomes are the centered remaining rounds
    np.testing.assert_allclose(
        outcomes[:, 0], [-1.0 - tr.rho[0], 0.55555555555555 - tr.rho[0]], atol=1e-9
    )


def test_extreme_return_maps_to_unit():
    rng = np.random.default_rng(0)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.05, 0.05, size=30))
    outcomes, _, tr = transform_returns(prices, 0.2)
    rets = prices[1:] / prices[:-1] - 1.0
    # both extremes fall after the forecast block, among the outcomes
    hi, lo = int(np.argmax(rets)) - tr.F, int(np.argmin(rets)) - tr.F
    assert hi >= 0 and lo >= 0
    assert outcomes[hi, 0] + tr.rho[0] == pytest.approx(1.0, abs=1e-12)
    assert outcomes[lo, 0] + tr.rho[0] == pytest.approx(-1.0, abs=1e-12)


def test_outcomes_lie_in_shifted_box():
    rng = np.random.default_rng(2)
    prices = 10.0 * np.cumprod(1.0 + rng.uniform(-0.03, 0.03, size=(60, 2)), axis=0)
    outcomes, cfg, tr = transform_returns(prices, 0.17)
    lo, hi = -1.0 - tr.rho, 1.0 - tr.rho
    assert np.all(outcomes >= lo - 1e-12) and np.all(outcomes <= hi + 1e-12)
    assert cfg.domain.contains_rows(outcomes).all()
    # round count: N = T - 1 - F live outcomes
    assert outcomes.shape[0] == 60 - 1 - tr.F


def test_forecast_horizon_variants():
    rng = np.random.default_rng(3)
    prices = 10.0 * np.cumprod(1.0 + rng.uniform(-0.03, 0.03, size=100))
    o17, _, t17 = transform_returns(prices, 0.17)
    o25, _, t25 = transform_returns(prices, 0.25)
    assert t17.F != t25.F
    assert t17.rho[0] != t25.rho[0]
    assert o17.shape[0] > o25.shape[0]


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        transform_returns(np.array([100.0, 100.0, 100.0, 100.0]), 0.2)
    with pytest.raises(ValueError):
        transform_returns(np.array([100.0, -1.0, 100.0]), 0.2)
    with pytest.raises(ValueError):
        transform_returns(np.array([100.0, 101.0, 102.0]), 0.9)


@pytest.mark.parametrize("c", [1.5, 0.0, 1.0, -0.2, float("nan")])
def test_transform_refuses_c_outside_the_unit_interval(c):
    prices = 100.0 * np.cumprod(1.0 + np.random.default_rng(4).uniform(-0.05, 0.05, size=30))
    message = f"c must be in (0, 1), got {c!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        transform_returns(prices, c)


def test_read_price_csv(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("date,A,B\n2020-01-01,100,50\n2020-01-02,101,49\n")
    got = read_price_csv(f)
    np.testing.assert_array_equal(got, [[100.0, 50.0], [101.0, 49.0]])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_price_csv(empty)
    empty.write_text("date,A\n")
    with pytest.raises(ValueError, match="^no price rows found$"):
        read_price_csv(empty)


@pytest.mark.parametrize(
    "row, cause",
    [
        ("2020-01-03,102,48,7", "line 4: 4 columns where the header has 3"),
        ("2020-01-03,102", "line 4: 2 columns where the header has 3"),
        ("2020-01-03,102,x", "line 4: non-numeric cell 'x' in column 3"),
        ("2020-01-03,1e,48", "line 4: non-numeric cell '1e' in column 2"),
        ("2020-01-03,,48", "line 4: empty cell in column 2"),
    ],
)
def test_bad_price_row_names_its_line(tmp_path, row, cause):
    f = tmp_path / "prices.csv"
    f.write_text(f"date,A,B\n2020-01-01,100,50\n\n{row}\n2020-01-04,101,49\n")
    with pytest.raises(ValueError, match=f"^{cause}$"):
        read_price_csv(f)


@pytest.mark.parametrize(
    "row, cause",
    [
        ("2020-01-03,nan,48", "line 4: non-finite value nan in column 2"),
        ("2020-01-03,102,inf", "line 4: non-finite value inf in column 3"),
        ("2020-01-03,102, -Infinity", "line 4: non-finite value -inf in column 3"),
        ("2020-01-03,1e999,48", "line 4: non-finite value inf in column 2"),
    ],
)
def test_non_finite_price_cell_names_its_line(tmp_path, row, cause):
    f = tmp_path / "prices.csv"
    f.write_text(f"date,A,B\n2020-01-01,100,50\n\n{row}\n2020-01-04,101,49\n")
    with pytest.raises(ValueError, match=f"^{cause}$"):
        read_price_csv(f)


@pytest.mark.parametrize(
    "text, cause",
    [
        ("day,A\n0,100\n1,-1\n2,99\n", "line 3: non-positive price -1.0 in column 2"),
        ("day,A,B\n0,100,5\n\n2,101,0\n3,nan,5\n", "line 4: non-positive price 0.0 in column 3"),
        ("day,A,B\n0,100,5\n1,inf,-0.0\n", "line 3: non-finite value inf in column 2"),
    ],
    ids=["negative", "zero-after-a-blank-line", "non-finite-first"],
)
def test_non_positive_price_names_its_line(tmp_path, text, cause):
    # refused by the reader, by file line, before transform_returns sees it;
    # the first bad cell in file order is named
    f = tmp_path / "prices.csv"
    f.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(cause)}$"):
        read_price_csv(f)


def test_price_header_without_price_column(tmp_path):
    f = tmp_path / "prices.csv"
    f.write_text("date\n2020-01-01\n")
    with pytest.raises(ValueError, match="^line 1: the header names no price column$"):
        read_price_csv(f)


def test_non_finite_price_names_row():
    prices = np.array([100.0, 101.0, np.nan, 102.0, 103.0])
    with pytest.raises(ValueError, match="non-finite price at row 2"):
        transform_returns(prices, 0.2)
    with pytest.raises(ValueError, match="row 1"):
        transform_returns(np.array([[100.0, 5.0], [101.0, 0.0], [99.0, 5.0]]), 0.2)
    # a 2-D table keeps its shape: one row of three items is too short
    with pytest.raises(ValueError, match="three price rows"):
        transform_returns(np.array([[100.0, 101.0, 102.0]]), 0.2)
