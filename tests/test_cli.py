import json

import numpy as np
import pytest

from gtpbet.cli import main, parse_config, run_scenario


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
