import warnings

import numpy as np
import pytest

from gtpbet import select_dimension, sos_run
from conftest import corner_game


def test_degenerate_second_item():
    rng = np.random.default_rng(0)
    x1 = (rng.uniform(-0.5, 0.5, size=400) + 0.15).clip(-0.9, 0.9)
    paths = np.column_stack([x1, np.zeros(400)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = select_dimension(paths)
    assert rep.selected == 1
    assert rep.criterion[1] <= rep.criterion[0] + 1e-8
    # a zero item cannot improve the hindsight fit
    assert rep.kl_term[1] == pytest.approx(rep.kl_term[0], abs=1e-6)


def test_two_drifted_items():
    rng = np.random.default_rng(1)
    paths = (rng.uniform(-0.5, 0.5, size=(600, 2)) + [0.15, 0.2]).clip(-0.9, 0.9)
    rep = select_dimension(paths)
    assert rep.criterion[1] > rep.criterion[0]
    assert rep.selected == 2


def test_report_arithmetic_and_csv(tmp_path):
    rng = np.random.default_rng(2)
    paths = (rng.uniform(-0.5, 0.5, size=(200, 3)) + 0.1).clip(-0.9, 0.9)
    rep = select_dimension(paths)
    np.testing.assert_array_equal(rep.criterion, rep.kl_term - rep.penalty)
    assert np.all(rep.penalty >= -1e-8)
    assert np.all(np.diff(rep.kl_term) >= -1e-8)
    out = tmp_path / "report.csv"
    rep.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,kl_term,penalty,criterion,logK_true,selected"
    assert len(lines) == 4
    flags = [int(line.split(",")[-1]) for line in lines[1:]]
    assert sum(flags) == 1
    assert flags[rep.selected - 1] == 1


def test_report_csv_bytes_equal_per_value_format(tmp_path):
    rng = np.random.default_rng(2)
    paths = (rng.uniform(-0.5, 0.5, size=(200, 3)) + 0.1).clip(-0.9, 0.9)
    rep = select_dimension(paths)
    out = tmp_path / "report.csv"
    rep.to_csv(out)
    want = "d,kl_term,penalty,criterion,logK_true,selected\n" + "".join(
        f"{'%d' % d},{format(k, '.17g')},{format(p, '.17g')},{format(c, '.17g')},"
        f"{format(lk, '.17g')},{'%d' % (d == rep.selected)}\n"
        for d, k, p, c, lk in zip(
            rep.d.tolist(), rep.kl_term.tolist(), rep.penalty.tolist(),
            rep.criterion.tolist(), rep.logK_true.tolist(),
        )
    )
    assert out.read_bytes() == want.encode()


def test_penalty_not_monotone_warns():
    # the model_select scenario's inputs (d_max = 3, N = 1,000) at seed 12,
    # where the penalties run 0.875, 0.578, 0.842: each d-game's LD2 is
    # taken along its own bets, so the penalty is not nested
    rng = np.random.default_rng(12)
    drift = rng.uniform(0.05, 0.2, size=3)
    paths = np.clip(rng.uniform(-0.5, 0.5, size=(1000, 3)) + drift, -0.9, 0.9)
    with pytest.warns(UserWarning, match="^penalty not monotone between d=1 and d=2$") as seen:
        rep = select_dimension(paths)
    assert len(seen) == 1
    assert rep.penalty[1] < rep.penalty[0] and rep.penalty[1] < rep.penalty[2]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        select_dimension(np.zeros((0, 2)))


def test_more_items_than_the_nested_games_converge_on_refused(monkeypatch):
    # at 12 items each of the 4,096 corners appears up to 2^11 times in a
    # game's training, and the Newton gradient's rounding floor stalls it
    from gtpbet import model_select

    monkeypatch.setattr(model_select, "sos_run", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError, match="^12 items; the nested games stall beyond 11, "):
        select_dimension(np.zeros((5, 12)))


def test_solver_converges_past_the_rounding_floor():
    # the model_select scenario's inputs at seed 28: a line search that
    # compares phi values (Armijo) stalled here at |grad| ~ 1e-9 near round
    # 199 of the d = 3 game
    rng = np.random.default_rng(28)
    drift = rng.uniform(0.05, 0.2, size=3)
    paths = np.clip(rng.uniform(-0.5, 0.5, size=(1000, 3)) + drift, -0.9, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = select_dimension(paths)
    assert rep.selected == 3
    assert np.all(np.diff(rep.kl_term) >= -1e-8)


@pytest.mark.parametrize("seed", [28, 40, 50, 52, 63, 82, 305, 307])
def test_solver_converges_on_every_input_that_stalled(seed):
    # the model_select scenario's inputs (d_max = 3, N = 1,000) on which a
    # line search comparing phi values stalled at |grad| ~ 1e-9 and raised
    # SolverError; the step rule reads no phi value and converges on all.
    # Armijo alone, from predicted starts, no longer fails here but still
    # takes 11-28 iterations in some round of the d = 3 game, against at
    # most 7 with the step rule
    rng = np.random.default_rng(seed)
    drift = rng.uniform(0.05, 0.2, size=3)
    paths = np.clip(rng.uniform(-0.5, 0.5, size=(1000, 3)) + drift, -0.9, 0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = select_dimension(paths)
    assert np.all(np.isfinite(rep.criterion))
    assert 1 <= rep.selected <= 3
    assert sos_run(corner_game(3), paths).iterations.max() <= 10
