import io
import math

import numpy as np
import pytest

from gtpbet import CapitalLedger, Domain, TrainingSet, make_training
from gtpbet.domain import LEDGER_COLUMNS


def test_box_requires_origin_interior():
    with pytest.raises(ValueError):
        Domain.box([0.1], [1.0])
    with pytest.raises(ValueError):
        Domain.box([-1.0], [-0.5])


def test_delta_bar_closed_forms():
    assert Domain.box([-1.0, -1.0], [1.0, 1.0]).delta_bar == pytest.approx(
        math.sqrt(2.0)
    )
    assert Domain.box([-0.3], [0.7]).delta_bar == 0.7
    assert Domain.sphere(3, 0.25).delta_bar == 0.25


def test_contains_with_boundary_slack():
    dom = Domain.box([-1.0], [1.0])
    assert dom.contains([1.0 + 5e-13])
    assert not dom.contains([1.0 + 1e-6])
    sph = Domain.sphere(2, 1.0)
    assert sph.contains([1.0, 0.0])
    assert not sph.contains([0.8, 0.8])


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
        TrainingSet(epsilon0=0.1, points=np.zeros((2, 2)), scheme="axis_2d")


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
