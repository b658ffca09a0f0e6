import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtpbet
from gtpbet import CapitalLedger, UniversalPortfolioConfig, universal_portfolio
from gtpbet.cli import SCENARIOS, main, parse_config, run_scenario
from gtpbet.domain import _CSV_ROWS, LEDGER_COLUMNS
from gtpbet.transform import read_price_csv, transform_returns


def write_config(tmp_path, text):
    f = tmp_path / "run.cfg"
    f.write_text(text)
    return f


def test_parse_config(tmp_path):
    f = write_config(
        tmp_path, "scenario = imaginary  # comment\n\nN=50\n# full comment\n"
    )
    cfg = parse_config(f)
    assert cfg == {"scenario": "imaginary", "N": "50"}
    bad = write_config(tmp_path, "no equals sign here\n")
    with pytest.raises(ValueError):
        parse_config(bad)
    # a key set twice is refused, naming both lines, not read as its last value
    twice = write_config(tmp_path, "scenario = imaginary\nN = 50\n\nN = 70\n")
    with pytest.raises(ValueError, match="^config key N is set on lines 2 and 4$"):
        parse_config(twice)
    blank = write_config(tmp_path, "scenario = imaginary\n= 5\n")
    with pytest.raises(ValueError, match="^config line 2 has no key: = 5$"):
        parse_config(blank)


def test_run_imaginary(tmp_path, capsys):
    f = write_config(tmp_path, "scenario = imaginary\nN = 100\n")
    assert main(["run", str(f), "--outdir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["N"] == 100
    ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
    assert len(ledger) == 101
    series = (tmp_path / "out" / "series.csv").read_text().split("\n")
    assert series[0] == "series,n,value"


def test_run_sos_csv_and_transform(tmp_path):
    rng = np.random.default_rng(0)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.03, 0.03, size=60))
    pf = tmp_path / "prices.csv"
    pf.write_text(
        "date,A\n" + "\n".join(f"{i},{p:.10f}" for i, p in enumerate(prices)) + "\n"
    )
    f = write_config(tmp_path, f"scenario = sos_csv\ninput = {pf}\nc = 0.17\n")
    assert main(["run", str(f), "--outdir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "ledger.csv").exists()

    out = tmp_path / "x.csv"
    assert main(["transform", str(pf), "--c", "0.17", "--output", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1"
    # header plus T - 1 - F outcome rows
    assert len(lines) == 1 + 60 - 1 - int(0.17 * 60)


def test_run_universal_compare(tmp_path):
    f = write_config(tmp_path, "scenario = universal_compare\nN = 60\nM = 10\n")
    assert main(["run", str(f), "--outdir", str(tmp_path / "out")]) == 0
    head = (tmp_path / "out" / "universal.csv").read_text().split("\n")[0]
    assert head == "n,K1,KU0,KU1"


def test_universal_csv_bytes_equal_per_value_format(tmp_path):
    f = write_config(tmp_path, "scenario = universal_compare\nN = 60\nM = 10\nseed = 4\n")
    assert main(["run", str(f), "--outdir", str(tmp_path / "out")]) == 0
    # the scenario's own path; 17 significant digits read back exactly
    path = np.random.default_rng(4).uniform(-0.8, 0.8, size=(60, 1))
    up0 = universal_portfolio(UniversalPortfolioConfig(M=10), path)
    up1 = universal_portfolio(UniversalPortfolioConfig(M=10, include_training=True), path)
    logk = [float(line.split(",")[1]) for line in
            (tmp_path / "out" / "ledger.csv").read_text().split("\n")[1:-1]]
    want = "n,K1,KU0,KU1\n" + "".join(
        f"{i + 1},{format(math.exp(k), '.17g')},{format(a, '.17g')},{format(b, '.17g')}\n"
        for i, (k, a, b) in enumerate(zip(logk, up0, up1))
    )
    assert (tmp_path / "out" / "universal.csv").read_bytes() == want.encode()


def test_ledger_series_bytes_equal_per_value_format(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 1.0 / 3.0]
    rows = np.random.default_rng(2).standard_normal(2 * _CSV_ROWS + 3)
    for values in (specials, rows):
        led = CapitalLedger(len(values))
        for k, col in enumerate(LEDGER_COLUMNS[1:]):
            getattr(led, col)[:] = np.roll(values, k)
        series = {"a": "LD2", "b%d": "logK_true", "c": "LD2"}
        led.to_csv(tmp_path / "l.csv", series=series)
        want = "series,n,value\n" + "".join(
            f"{name},{i},{format(float(v), '.17g')}\n"
            for name, col in series.items()
            for i, v in enumerate(getattr(led, col), start=1)
        )
        assert (tmp_path / "series.csv").read_bytes() == want.encode()
        led.to_csv(tmp_path / "alone.csv")
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_holder_csv_bytes_equal_per_value_format(tmp_path):
    # the first radius has no stop; an empty grid writes the header alone
    base = {"scenario": "holder", "H": "0.3", "scale": "0.1", "grid_step": repr(2.0**-16),
            "seed": "3"}
    for name, deltas in (("grid", "0.9 0.04 0.02"), ("empty", "")):
        rows = run_scenario({**base, "delta": deltas}, tmp_path / name)["rows"]
        want = "delta,N,trV_N,logK,delta_alpha_norm\n" + "".join(
            f"{format(r['delta'], '.17g')},{'%d' % r['N']},{format(r['trV_N'], '.17g')},"
            f"{format(r['logK'], '.17g')},{format(r['delta_alpha_norm'], '.17g')}\n"
            for r in rows
        )
        assert (tmp_path / name / "holder.csv").read_bytes() == want.encode()
        if rows:  # the stopless radius reads N, trV_N, logK and delta * |alpha| as 0
            first = (tmp_path / name / "holder.csv").read_text().splitlines()[1]
            assert rows[0]["N"] == 0 and first == f"{0.9:.17g},0,0,0,0"
    assert rows == []


def test_transform_csv_bytes_equal_per_value_format(tmp_path):
    rng = np.random.default_rng(5)
    prices = 100.0 * np.cumprod(1.0 + rng.uniform(-0.03, 0.03, (50, 2)), axis=0)
    pf = tmp_path / "prices.csv"
    pf.write_text("day,A,B\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(prices.tolist())))
    out = tmp_path / "x.csv"
    assert main(["transform", str(pf), "--c", "0.2", "--output", str(out)]) == 0
    outcomes, _game, _tr = transform_returns(read_price_csv(pf), 0.2)
    want = "x1,x2\n" + "".join(
        f"{format(a, '.17g')},{format(b, '.17g')}\n" for a, b in outcomes.tolist()
    )
    assert out.read_bytes() == want.encode()


def test_every_scenario_runs_without_scipy(tmp_path):
    # a fresh interpreter in which any import of SciPy fails
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from gtpbet.cli import run_scenario\n"
        "out = Path(sys.argv[1])\n"
        "prices = 100.0 * np.cumprod(1.0 + np.random.default_rng(0).uniform(-0.03, 0.03, (80, 2)), axis=0)\n"
        "(out / 'p.csv').write_text('day,A,B\\n' + ''.join(f'{i},{a},{b}\\n' for i, (a, b) in enumerate(prices)))\n"
        "for cfg in ({'scenario': 'sos_csv', 'input': str(out / 'p.csv')},\n"
        "            {'scenario': 'universal_compare', 'N': '50', 'M': '10'},\n"
        "            {'scenario': 'imaginary', 'N': '50'},\n"
        "            {'scenario': 'sos_synthetic', 'd': '2', 'N': '50'},\n"
        "            {'scenario': 'model_select', 'N': '50', 'd_max': '2'},\n"
        "            {'scenario': 'holder', 'H': '0.4', 'delta': '0.05 0.02', 'scale': '0.1',\n"
        "             'T': '0.5', 'grid_step': '1e-4'},\n"
        "            {'scenario': 'girsanov', 'd': '2', 'mu': '0.05', 'sigma': '0.2', 'T': '1',\n"
        "             'delta': '0.05'}):\n"
        "    run_scenario(cfg, out / cfg['scenario'])\n"
    )
    src = str(Path(gtpbet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.parent.name for p in tmp_path.glob("*/summary.json")) == sorted(SCENARIOS)


def test_str_outdir_writes_what_a_path_does(tmp_path):
    cfg = {"scenario": "holder", "delta": "0.05 0.02", "T": "0.5", "grid_step": "1e-4"}
    assert run_scenario(cfg, str(tmp_path / "s")) == run_scenario(cfg, tmp_path / "p")
    files = sorted(f.name for f in (tmp_path / "p").iterdir())
    assert files == ["holder.csv", "summary.json"]
    assert sorted(f.name for f in (tmp_path / "s").iterdir()) == files
    for name in files:
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_summary_writes_non_finite_floats_as_null(tmp_path, capsys):
    # the first radius is wider than any move of the path, so it has no
    # stop and the roughness estimate between it and the next is NaN
    cfg = {"scenario": "holder", "H": "0.3", "scale": "0.1", "grid_step": repr(2.0**-18),
           "delta": "0.9 0.02 0.01", "seed": "1"}
    summary = run_scenario(cfg, tmp_path / "out")
    assert summary["rows"][0]["N"] == 0
    assert np.isnan(summary["H_estimates"][0])
    written = _strict_json((tmp_path / "out" / "summary.json").read_text())
    assert written["H_estimates"][0] is None
    assert written["H_estimates"][1] == summary["H_estimates"][1]
    assert written["rows"] == summary["rows"]
    f = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    assert main(["run", str(f), "--outdir", str(tmp_path / "cli")]) == 0
    assert _strict_json(capsys.readouterr().out) == written


def test_run_model_select(tmp_path):
    f = write_config(tmp_path, "scenario = model_select\nN = 80\nd_max = 2\n")
    assert main(["run", str(f), "--outdir", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["selected"] in (1, 2)


def test_seed_env_override(tmp_path, monkeypatch):
    f = write_config(tmp_path, "scenario = sos_synthetic\nN = 50\nseed = 1\n")
    main(["run", str(f), "--outdir", str(tmp_path / "a")])
    monkeypatch.setenv("GTPBET_SEED", "99")
    main(["run", str(f), "--outdir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "ledger.csv").read_text()
    b = (tmp_path / "b" / "ledger.csv").read_text()
    assert a != b
    # same seed reruns are byte-identical
    main(["run", str(f), "--outdir", str(tmp_path / "c")])
    monkeypatch.delenv("GTPBET_SEED")
    main(["run", str(f), "--outdir", str(tmp_path / "d")])
    assert (tmp_path / "a" / "ledger.csv").read_text() == (
        tmp_path / "d" / "ledger.csv"
    ).read_text()


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"scenario": "holder", "grid_step": "0.001", "delta": "0.02 inf"}, "delta must be positive"),
        ({"scenario": "sos_synthetic", "N": "50", "halfwidth": "inf"}, "halfwidth must be positive"),
    ],
)
def test_scenarios_refuse_non_finite_geometry(tmp_path, cfg, message):
    with pytest.raises(ValueError, match=f"^{message} and finite, got"):
        run_scenario(cfg, tmp_path / "out")


@pytest.mark.parametrize("delta", ["0.02 0.01 inf", "nan 0.02", "0.02 -0.01", "0"])
def test_holder_checks_every_delta_before_the_path(tmp_path, monkeypatch, delta):
    import gtpbet.cli as cli

    def no_path(*args, **kwargs):
        raise AssertionError("the fBm path was synthesized before delta was checked")

    monkeypatch.setattr(cli, "gen_fbm", no_path)
    with pytest.raises(ValueError, match="^delta must be positive and finite, got"):
        run_scenario({"scenario": "holder", "delta": delta}, tmp_path / "out")


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
def test_holder_refuses_a_non_finite_scale_before_the_noise(tmp_path, monkeypatch, scale):
    from gtpbet import continuous

    def no_noise(*args, **kwargs):
        raise AssertionError("the fBm noise was synthesized before scale was checked")

    monkeypatch.setattr(continuous, "_fgn_davies_harte", no_noise)
    cfg = {"scenario": "holder", "scale": scale, "grid_step": repr(2.0**-10)}
    with pytest.raises(ValueError, match=f"^scale must be finite, got {scale}$"):
        run_scenario(cfg, tmp_path / "out")


def test_girsanov_refuses_a_zero_volatility(tmp_path):
    # refused as singular before the grid step (delta / (5 |sigma|))**2 is formed
    for d in ("1", "2"):
        cfg = {"scenario": "girsanov", "d": d, "sigma": "0", "T": "1", "delta": "0.05"}
        with pytest.raises(np.linalg.LinAlgError, match="^volatility matrix is singular$"):
            run_scenario(cfg, tmp_path / "out")


@pytest.mark.parametrize(
    "cfg, error, message",
    [
        ({"scenario": "girsanov", "delta": "1e-10"}, ValueError,
         "delta must give fewer than 2^62 grid steps over T, got delta = 1e-10 and T = 50.0"),
        ({"scenario": "holder", "grid_step": "0.01", "delta": "0.005"}, ValueError,
         "grid too coarse: single-step return"),
        ({"scenario": "sos_csv", "input": "bad.csv"}, ValueError,
         "line 3: non-numeric cell 'abc' in column 2"),
        ({"scenario": "sos_csv", "input": "missing.csv"}, FileNotFoundError, "[Errno 2]"),
    ],
    ids=["girsanov-delta", "holder-coarse", "sos_csv-cell", "sos_csv-missing"],
)
def test_a_run_that_fails_in_its_runner_leaves_no_outdir(tmp_path, cfg, error, message):
    # the directory appears with the first output, and every runner does all
    # its work before that
    (tmp_path / "bad.csv").write_text("day,A\n0,100\n1,abc\n")
    if "input" in cfg:
        cfg = cfg | {"input": str(tmp_path / cfg["input"])}
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"scenario": "imaginary", "N": "20.5"}, "N"),
        ({"scenario": "imaginary", "N": 20.5}, "N"),
        ({"scenario": "sos_synthetic", "N": "50", "d": "1.7"}, "d"),
        ({"scenario": "model_select", "d_max": "2.5"}, "d_max"),
        ({"scenario": "universal_compare", "N": "50", "M": "ten"}, "M"),
        ({"scenario": "sos_synthetic", "N": "50", "seed": "3.5"}, "seed"),
    ],
)
def test_integer_keys_refuse_a_non_integer(tmp_path, monkeypatch, cfg, key):
    monkeypatch.delenv("GTPBET_SEED", raising=False)
    message = f"{key} must be an integer, got {cfg[key]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "cfg, key, value",
    [
        ({"scenario": "holder", "delta": "0.02,0.01"}, "delta", "0.02,0.01"),
        ({"scenario": "holder", "delta": "0.02 0.01x"}, "delta", "0.01x"),
        ({"scenario": "sos_synthetic", "N": "50", "halfwidth": "0.5x"}, "halfwidth", "0.5x"),
    ],
)
def test_float_keys_refuse_a_non_number(tmp_path, monkeypatch, cfg, key, value):
    import gtpbet.cli as cli

    # refused before any path is made
    monkeypatch.setattr(cli, "gen_fbm", lambda *a, **k: pytest.fail("path made"))
    message = f"{key} must be a number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"scenario": "sos_synthetic", "N": "-3"}, "N must be at least 1, got -3"),
        ({"scenario": "sos_synthetic", "halfwidth": "-0.5"},
         "halfwidth must be positive and finite, got -0.5"),
        ({"scenario": "sos_synthetic", "epsilon0": "0"}, "epsilon0 must be in (0, 1), got 0.0"),
        pytest.param({"scenario": "sos_synthetic", "epsilon0": "1"},
                     "epsilon0 must be in (0, 1), got 1.0", id="sos_synthetic-epsilon0-one"),
        pytest.param({"scenario": "sos_synthetic", "epsilon0": "nan"},
                     "epsilon0 must be in (0, 1), got nan", id="sos_synthetic-epsilon0-nan"),
        ({"scenario": "girsanov", "d": "0"}, "d must be at least 1, got 0"),
        ({"scenario": "universal_compare", "M": "1"}, "M must be at least 2, got 1"),
        ({"scenario": "imaginary", "N": "-5"}, "N must be at least 1, got -5"),
        ({"scenario": "model_select", "N": "0"}, "N must be at least 1, got 0"),
        ({"scenario": "model_select", "d_max": "0"}, "d_max must be at least 1, got 0"),
        ({"scenario": "holder", "H": "1.5"}, "H must be in (0, 1), got 1.5"),
        ({"scenario": "sos_csv", "input": "prices.csv", "c": "1.5"}, "c must be in (0, 1), got 1.5"),
        pytest.param({"scenario": "sos_csv", "c": "0.2"}, "scenario sos_csv needs key input",
                     id="sos_csv-input"),
    ],
    ids=lambda v: v["scenario"] if isinstance(v, dict) else v.split()[0],
)
def test_scenario_values_are_checked_before_any_work(tmp_path, monkeypatch, cfg, message):
    import gtpbet.cli as cli
    from gtpbet import continuous

    for module, name in ((cli, "gen_fbm"), (continuous, "gen_gbm"), (cli, "sos_run")):
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scenario(cfg | {"seed": "3"}, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_d_max_beyond_the_corner_limit_refused_before_outdir(tmp_path, monkeypatch):
    # the nested runs stall from d_max = 12 on, well inside the limit of
    # 2^d_max training corners that make_training keeps
    import gtpbet.cli as cli
    from gtpbet.domain import _MAX_CORNER_D, Domain, make_training

    monkeypatch.setattr(cli, "select_dimension", lambda *a, **k: pytest.fail("ran"))
    for d_max in (12, 13, _MAX_CORNER_D + 1, 25):
        message = f"d_max must be between 1 and 11, got {d_max}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_scenario({"scenario": "model_select", "d_max": str(d_max)}, tmp_path / "out")
        assert not (tmp_path / "out").exists()
    dom = Domain.box(-np.ones(_MAX_CORNER_D + 1), np.ones(_MAX_CORNER_D + 1))
    with pytest.raises(ValueError, match=f"^corners_2tod limited to d <= {_MAX_CORNER_D}$"):
        make_training(dom, 0.1, "corners_2tod")


@pytest.mark.parametrize("delta", ["0.05 0.049", "0.05 0.05"])
def test_holder_estimate_is_null_for_equal_counts(tmp_path, delta):
    # both radii stop equally often on this path (3 stops), so the counts
    # say nothing of H; a repeated radius used to divide by zero
    cfg = {"scenario": "holder", "H": "0.4", "scale": "0.1", "T": "0.5",
           "grid_step": "1e-4", "delta": delta, "seed": "1"}
    summary = run_scenario(cfg, tmp_path / "out")
    assert [r["N"] for r in summary["rows"]] == [3, 3]
    assert np.isnan(summary["H_estimates"][0])
    written = _strict_json((tmp_path / "out" / "summary.json").read_text())
    assert written["H_estimates"] == [None]


def test_seed_env_refuses_a_non_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("GTPBET_SEED", "1e-3")
    with pytest.raises(ValueError, match="^GTPBET_SEED must be an integer, got '1e-3'$"):
        run_scenario({"scenario": "imaginary", "N": "20"}, tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["config", "GTPBET_SEED"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_negative_seed_refused_before_outdir(tmp_path, monkeypatch, scenario, source):
    cfg = {"scenario": scenario} | ({"input": "prices.csv"} if scenario == "sos_csv" else {})
    if source == "config":
        monkeypatch.delenv("GTPBET_SEED", raising=False)
        cfg["seed"] = "-1"
    else:
        monkeypatch.setenv("GTPBET_SEED", "-1")
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_integer_keys_take_whole_numbers_in_any_form(tmp_path, monkeypatch):
    monkeypatch.delenv("GTPBET_SEED", raising=False)
    plain = {"scenario": "sos_synthetic", "d": "2", "N": "50", "seed": "3"}
    run_scenario(plain, tmp_path / "a")
    run_scenario(plain | {"d": "2.0", "N": "5e1", "seed": " 3 "}, tmp_path / "b")
    monkeypatch.setenv("GTPBET_SEED", "3.0")
    run_scenario(plain | {"seed": "8"}, tmp_path / "c")
    want = (tmp_path / "a" / "ledger.csv").read_bytes()
    assert (tmp_path / "b" / "ledger.csv").read_bytes() == want
    assert (tmp_path / "c" / "ledger.csv").read_bytes() == want


MODULES = [gtpbet.baselines, gtpbet.continuous, gtpbet.domain, gtpbet.model_select,
           gtpbet.optimizer, gtpbet.sos, gtpbet.transform]


def test_package_exports_every_module_list():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert gtpbet.__all__ == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gtpbet, name) is getattr(module, name)


def test_every_public_name_has_a_caller_beyond_the_unit_tests():
    # a public name is kept only while the package's code, a demo, a
    # perfbench file or the acceptance suite uses it: a name or attribute
    # in their code counts, its def or class statement, its __all__ entry,
    # an import and a docstring do not.  A dataclass field or a property of
    # a public class is kept only while such code reads it as an attribute.
    # An optional parameter of a public function, method or constructor is
    # kept only while such code passes it, by position or by keyword, to a
    # call of that name; a dataclass's constructor is its fields
    root = Path(__file__).resolve().parent.parent
    files = [*Path(gtpbet.__file__).parent.glob("*.py"), *root.glob("demos/*.py"),
             *root.glob("perfbench/*.py"), root / "tests" / "test_acceptance.py"]
    names, attrs, passed = set(), set(), {}
    for f in files:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            if isinstance(node, ast.Call):
                # per callee name: the most positional arguments and every keyword
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                n, kw = passed.get(callee, (0, set()))
                passed[callee] = max(n, len(node.args)), kw | {k.arg for k in node.keywords}
    assert sorted(set(gtpbet.__all__) - names - attrs) == []
    members = []
    for c in (c for c in map(gtpbet.__dict__.get, gtpbet.__all__) if isinstance(c, type)):
        fields = [f.name for f in dataclasses.fields(c)] if dataclasses.is_dataclass(c) else []
        props = [k for k, v in vars(c).items() if isinstance(v, property)]
        members += [f"{c.__name__}.{m}" for m in fields + props if m not in attrs]
    assert members == []
    calls = []  # (callee name, function, leading parameters a call does not pass)
    for name, obj in ((n, getattr(gtpbet, n)) for n in gtpbet.__all__):
        if inspect.isfunction(obj):
            calls.append((name, obj, 0))
        for m, v in vars(obj).items() if isinstance(obj, type) else ():
            v = getattr(v, "__func__", v)  # a classmethod's function
            init = m == "__init__" and not dataclasses.is_dataclass(obj)
            if inspect.isfunction(v) and (init or not m.startswith("_")):
                calls.append((name if init else m, v, 1))
    unpassed = []
    for callee, fn, skip in calls:
        n, kw = passed.get(callee, (0, set()))
        for i, p in enumerate(list(inspect.signature(fn).parameters.values())[skip:]):
            by_position = i < n and p.kind != p.KEYWORD_ONLY
            if p.default is not p.empty and not by_position and p.name not in kw:
                unpassed.append(f"{fn.__qualname__}({p.name})")
    assert unpassed == []


def test_package_source_has_no_assert():
    # the paper's checks raise named exceptions, so python -O keeps them
    for f in sorted(Path(gtpbet.__file__).parent.glob("*.py")):
        found = [n.lineno for n in ast.walk(ast.parse(f.read_text())) if isinstance(n, ast.Assert)]
        assert found == [], f"assert statement in {f.name} at line {found[0]}"


def test_scenario_refuses_a_key_it_does_not_read(tmp_path):
    cfg = {"scenario": "model_select", "N": "50", "dmax": "1"}
    with pytest.raises(ValueError, match="^scenario model_select reads no key dmax$"):
        run_scenario(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="^scenario imaginary reads no key M, d$"):
        run_scenario({"scenario": "imaginary", "d": "2", "M": "3", "seed": "1"}, tmp_path / "out")


@pytest.mark.parametrize(
    "cfg",
    [
        {"scenario": "sos_csv", "input": "prices.csv", "c": "0.2"},
        {"scenario": "sos_synthetic", "d": "2", "N": "30", "halfwidth": "0.4", "epsilon0": "0.2"},
        {"scenario": "universal_compare", "N": "30", "M": "5"},
        {"scenario": "holder", "H": "0.4", "delta": "0.05 0.02", "scale": "0.1", "T": "0.5",
         "grid_step": "1e-4"},
        {"scenario": "girsanov", "d": "2", "mu": "0.05", "sigma": "0.2", "T": "1", "delta": "0.05"},
        {"scenario": "model_select", "d_max": "2", "N": "40"},
        {"scenario": "imaginary", "N": "30"},
    ],
    ids=lambda cfg: cfg["scenario"],
)
def test_every_scenario_runs_with_every_key_it_reads(cfg, tmp_path):
    assert set(cfg) - {"scenario"} == set(SCENARIOS[cfg["scenario"]][1])
    prices = 100.0 * np.cumprod(1.0 + np.random.default_rng(2).uniform(-0.03, 0.03, (40, 2)), axis=0)
    pf = tmp_path / "prices.csv"
    pf.write_text("day,A,B\n" + "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(prices.tolist())))
    cfg = cfg | {"seed": "3"} | ({"input": str(pf)} if "input" in cfg else {})
    run_scenario(cfg, tmp_path / "out")
    assert (tmp_path / "out" / "summary.json").exists()


def test_unknown_scenario(tmp_path):
    f = write_config(tmp_path, "scenario = nope\n")
    with pytest.raises(ValueError):
        main(["run", str(f)])


def test_selftest_without_test_suite(tmp_path, monkeypatch, capsys):
    # an installed package has no tests/ next to its source tree
    import gtpbet.cli as cli

    fake = tmp_path / "site-packages" / "gtpbet" / "cli.py"
    monkeypatch.setattr(cli, "__file__", str(fake))
    assert main(["selftest"]) != 0
    assert "no test suite" in capsys.readouterr().err
