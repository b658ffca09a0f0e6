"""Command-line front end: scenario runner, return transform, self test.

Scenarios are described by flat key=value config files, e.g.::

    scenario = girsanov
    seed = 7
    mu = 0.1
    sigma = 0.3
    T = 50
    delta = 0.01

Outputs (ledger CSV, summary JSON, long-format plot series) land next to
the config or in --outdir.  The environment variable GTPBET_SEED
overrides the configured seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import UniversalPortfolioConfig, universal_portfolio
from .continuous import gen_gbm, girsanov_rate_experiment, gen_fbm, holder_experiment
from .domain import Domain, GameConfig, make_training
from .model_select import select_dimension
from .sos import sos_run
from .transform import read_price_csv, transform_returns


def parse_config(path) -> dict:
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            cfg[key] = value
    return cfg


def _fnum(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise KeyError(f"missing config key {key!r}")
        return default
    return float(cfg[key])


def _seed(cfg) -> int:
    env = os.environ.get("GTPBET_SEED")
    if env is not None:
        return int(env)
    return int(cfg.get("seed", "0"))


def _write_long_series(path, series: dict) -> None:
    """Long format: series,n,value - one row per point, gnuplot/vega ready."""
    with open(path, "w", newline="") as fh:
        fh.write("series,n,value\n")
        for name, values in series.items():
            for i, v in enumerate(values.tolist(), start=1):
                fh.write(f"{name},{i},{v:.17g}\n")


def _imaginary_path(n_rounds: int) -> np.ndarray:
    return (1.0 / (np.arange(1, n_rounds + 1) + 1.0))[:, None]


def _unit_corner_game() -> GameConfig:
    dom = Domain.box([-1.0], [1.0])
    return GameConfig(domain=dom, training=make_training(dom, 0.1, "corners_2tod"))


def _imaginary(cfg, seed, outdir):
    res = sos_run(_unit_corner_game(), _imaginary_path(int(_fnum(cfg, "N", 2000))))
    res.ledger.to_csv(outdir / "ledger.csv")
    _write_long_series(
        outdir / "series.csv",
        {"LK1": res.ledger.logK_true, "LK0": res.ledger.logK_hindsight},
    )
    return res.summary()


def _sos_csv(cfg, seed, outdir):
    prices = read_price_csv(cfg["input"])
    outcomes, game, _tr = transform_returns(prices, _fnum(cfg, "c", 0.17))
    res = sos_run(game, outcomes)
    led = res.ledger
    led.to_csv(outdir / "ledger.csv")
    _write_long_series(
        outdir / "series.csv",
        {
            "LK0": led.logK_hindsight,
            "LK1": led.logK_true,
            "LK2": led.logK_approx,
            "LD1": led.LD1,
            "LD2": led.LD2,
            "LD3": led.LD3,
        },
    )
    return res.summary()


def _sos_synthetic(cfg, seed, outdir):
    d = int(_fnum(cfg, "d", 1))
    n_rounds = int(_fnum(cfg, "N", 1000))
    half = _fnum(cfg, "halfwidth", 0.5)
    rng = np.random.default_rng(seed)
    dom = Domain.box(-half * np.ones(d), half * np.ones(d))
    game = GameConfig(
        domain=dom, training=make_training(dom, _fnum(cfg, "epsilon0", 0.1))
    )
    path = rng.choice([-half, half], size=(n_rounds, d))
    res = sos_run(game, path)
    res.ledger.to_csv(outdir / "ledger.csv")
    return res.summary()


def _universal_compare(cfg, seed, outdir):
    n_rounds = int(_fnum(cfg, "N", 500))
    rng = np.random.default_rng(seed)
    path = rng.uniform(-0.8, 0.8, size=(n_rounds, 1))
    res = sos_run(_unit_corner_game(), path)
    M = int(_fnum(cfg, "M", 100))
    up0 = universal_portfolio(UniversalPortfolioConfig(M=M), path)
    up1 = universal_portfolio(
        UniversalPortfolioConfig(M=M, include_training=True), path
    )
    res.ledger.to_csv(outdir / "ledger.csv")
    with open(outdir / "universal.csv", "w", newline="") as fh:
        fh.write("n,K1,KU0,KU1\n")
        for i, logk in enumerate(res.ledger.logK_true.tolist()):
            fh.write(
                f"{i + 1},{math.exp(logk):.17g},{up0[i]:.17g},{up1[i]:.17g}\n"
            )
    summary = res.summary()
    summary["KU0_final"] = float(up0[-1])
    summary["KU1_final"] = float(up1[-1])
    return summary


def _holder(cfg, seed, outdir):
    hurst = _fnum(cfg, "H", 0.5)
    path = gen_fbm(
        hurst,
        _fnum(cfg, "scale", 0.12),
        _fnum(cfg, "T", 1.0),
        _fnum(cfg, "grid_step", 1e-5),
        seed,
    )
    deltas = [float(v) for v in cfg.get("delta", "0.02 0.01 0.005").split()]
    rows, hs = holder_experiment(path, deltas)
    with open(outdir / "holder.csv", "w", newline="") as fh:
        fh.write("delta,N,trV_N,logK,delta_alpha_norm\n")
        for r in rows:
            fh.write(
                f"{r['delta']:.17g},{r['N']},{r['trV_N']:.17g},"
                f"{r['logK']:.17g},{r['delta_alpha_norm']:.17g}\n"
            )
    return {"H": hurst, "rows": rows, "H_estimates": hs}


def _girsanov(cfg, seed, outdir):
    d = int(_fnum(cfg, "d", 1))
    mu = np.full(d, _fnum(cfg, "mu", 0.1))
    sigma = np.eye(d) * _fnum(cfg, "sigma", 0.3)
    return girsanov_rate_experiment(
        mu, sigma, _fnum(cfg, "T", 50.0), _fnum(cfg, "delta", 0.01), seed
    )


def _model_select(cfg, seed, outdir):
    d_max = int(_fnum(cfg, "d_max", 3))
    n_rounds = int(_fnum(cfg, "N", 300))
    rng = np.random.default_rng(seed)
    drift = rng.uniform(0.05, 0.2, size=d_max)
    path = np.clip(
        rng.uniform(-0.5, 0.5, size=(n_rounds, d_max)) + drift, -0.9, 0.9
    )
    report = select_dimension(path)
    report.to_csv(outdir / "model_select.csv")
    return {"selected": report.selected, "criterion": report.criterion.tolist()}


# scenario name -> runner(cfg, seed, outdir) that writes its own outputs and
# returns the summary that run_scenario writes to summary.json
SCENARIOS = {
    "sos_csv": _sos_csv,
    "sos_synthetic": _sos_synthetic,
    "universal_compare": _universal_compare,
    "holder": _holder,
    "girsanov": _girsanov,
    "model_select": _model_select,
    "imaginary": _imaginary,
}


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which JSON writes
    as null: NaN and Infinity are not JSON, and strict parsers reject them
    (a holder radius with no stop leaves its H estimate NaN)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def _summary_json(summary: dict) -> str:
    return json.dumps(_finite_or_null(summary), indent=2, allow_nan=False)


def run_scenario(cfg: dict, outdir: Path) -> dict:
    scenario = cfg.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = SCENARIOS[scenario](cfg, _seed(cfg), outdir)
    with open(outdir / "summary.json", "w") as fh:
        fh.write(_summary_json(summary) + "\n")
    return summary


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    outdir = Path(args.outdir) if args.outdir else Path(args.config).parent / "out"
    print(_summary_json(run_scenario(cfg, outdir)))
    return 0


def _cmd_transform(args) -> int:
    prices = read_price_csv(args.prices)
    outcomes, _game, tr = transform_returns(prices, args.c)
    out = Path(args.output) if args.output else Path(args.prices).with_suffix(".outcomes.csv")
    d = outcomes.shape[1]
    with open(out, "w", newline="") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(d)) + "\n")
        for row in outcomes:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"wrote {out} ({outcomes.shape[0]} rounds, d={d}, F={tr.F})")
    print("rho = " + " ".join(format(v, ".6g") for v in tr.rho))
    return 0


def _cmd_selftest(args) -> int:
    tests = Path(__file__).resolve().parent.parent.parent / "tests"
    if not tests.is_dir():
        print(
            f"gtpbet selftest: no test suite at {tests}; the tests ship with "
            "the source tree, so run this from a source checkout",
            file=sys.stderr,
        )
        return 2
    import pytest

    return pytest.main(["-q", str(tests)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gtpbet", description="sequential optimizing betting strategies"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--outdir")
    p_run.set_defaults(func=_cmd_run)
    p_tr = sub.add_parser("transform", help="transform a price CSV to outcomes")
    p_tr.add_argument("prices")
    p_tr.add_argument("--c", type=float, default=0.17)
    p_tr.add_argument("--output")
    p_tr.set_defaults(func=_cmd_transform)
    p_st = sub.add_parser("selftest", help="run the invariant test suite")
    p_st.set_defaults(func=_cmd_selftest)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
