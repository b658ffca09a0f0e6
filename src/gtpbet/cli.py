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
overrides the configured seed; either must be a whole number, at least 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .baselines import universal_portfolio_curves
from .continuous import gen_gbm, girsanov_rate_experiment, gen_fbm, holder_experiment
from .domain import Domain, GameConfig, make_training, write_csv
from .model_select import select_dimension
from .sos import sos_run
from .transform import read_price_csv, transform_returns


def parse_config(path) -> dict:
    cfg, lines = {}, {}
    with open(path) as fh:
        for number, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            if not key:
                raise ValueError(f"config line {number} has no key: {raw.rstrip()}")
            if key in lines:
                raise ValueError(f"config key {key} is set on lines {lines[key]} and {number}")
            cfg[key], lines[key] = value, number
    return cfg


def _float(key, value):
    with contextlib.suppress(ValueError):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _floats(key, value):
    """A whitespace-separated list of numbers, each parsed by _float, as a tuple."""
    return tuple(_float(key, v) for v in value.split())


def _int(key, value):
    """value as an int: a whole number such as 7, 7.0 or 7e0 (an integer
    literal exactly, whatever its size); any other value raises ValueError
    naming the key and the value."""
    with contextlib.suppress(ValueError):
        return int(str(value))
    with contextlib.suppress(ValueError):
        if float(value).is_integer():
            return int(float(value))
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _text(key, value):
    return value


def _imaginary_path(n_rounds: int) -> np.ndarray:
    return (1.0 / (np.arange(1, n_rounds + 1) + 1.0))[:, None]


def _unit_corner_game() -> GameConfig:
    dom = Domain.box([-1.0], [1.0])
    return GameConfig(domain=dom, training=make_training(dom, 0.1, "corners_2tod"))


def _imaginary(p, seed, outdir):
    res = sos_run(_unit_corner_game(), _imaginary_path(p["N"]))
    res.ledger.to_csv(outdir / "ledger.csv", series={"LK1": "logK_true", "LK0": "logK_hindsight"})
    return res.summary()


def _sos_csv(p, seed, outdir):
    prices = read_price_csv(p["input"])
    outcomes, game, _tr = transform_returns(prices, p["c"])
    res = sos_run(game, outcomes)
    res.ledger.to_csv(outdir / "ledger.csv", series={
        "LK0": "logK_hindsight", "LK1": "logK_true", "LK2": "logK_approx",
        "LD1": "LD1", "LD2": "LD2", "LD3": "LD3"})
    return res.summary()


def _sos_synthetic(p, seed, outdir):
    d, half = p["d"], p["halfwidth"]
    rng = np.random.default_rng(seed)
    dom = Domain.box(-half * np.ones(d), half * np.ones(d))
    game = GameConfig(domain=dom, training=make_training(dom, p["epsilon0"]))
    path = rng.choice([-half, half], size=(p["N"], d))
    res = sos_run(game, path)
    res.ledger.to_csv(outdir / "ledger.csv")
    return res.summary()


def _universal_compare(p, seed, outdir):
    rng = np.random.default_rng(seed)
    path = rng.uniform(-0.8, 0.8, size=(p["N"], 1))
    res = sos_run(_unit_corner_game(), path)
    up0, up1 = universal_portfolio_curves(p["M"], path)
    res.ledger.to_csv(outdir / "ledger.csv")
    # K1 by math.exp per value: np.exp rounds some values differently
    write_csv(outdir / "universal.csv", {
        "n": res.ledger.n,
        "K1": np.array([math.exp(v) for v in res.ledger.logK_true.tolist()]),
        "KU0": up0,
        "KU1": up1,
    })
    summary = res.summary()
    summary["KU0_final"] = float(up0[-1])
    summary["KU1_final"] = float(up1[-1])
    return summary


def _holder(p, seed, outdir):
    path = gen_fbm(p["H"], p["scale"], p["T"], p["grid_step"], seed)
    rows, hs = holder_experiment(path, p["delta"])
    # names from a fixed tuple, so that an empty grid writes the header
    write_csv(outdir / "holder.csv", {
        k: np.array([r[k] for r in rows])
        for k in ("delta", "N", "trV_N", "logK", "delta_alpha_norm")
    })
    return {"H": p["H"], "rows": rows, "H_estimates": hs}


def _girsanov(p, seed, outdir):
    d = p["d"]
    return girsanov_rate_experiment(
        np.full(d, p["mu"]), np.eye(d) * p["sigma"], p["T"], p["delta"], seed
    )


def _model_select(p, seed, outdir):
    d_max = p["d_max"]
    rng = np.random.default_rng(seed)
    drift = rng.uniform(0.05, 0.2, size=d_max)
    path = np.clip(
        rng.uniform(-0.5, 0.5, size=(p["N"], d_max)) + drift, -0.9, 0.9
    )
    report = select_dimension(path)
    report.to_csv(outdir / "model_select.csv")
    return {"selected": report.selected, "criterion": report.criterion.tolist()}


# Boundary checks, (test, condition): a value that fails the test raises
# "<key> must be <condition>, got <value>" before any work.  A key that the
# library refuses by name and value before any work has none.
_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "positive and finite")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")
_AT_LEAST_2 = (lambda v: v >= 2, "at least 2")

# scenario name -> (runner(params, seed, outdir), {key: (parse, default,
# check)} for each key it reads besides scenario and seed); a key without a
# default is required, a tuple is checked item by item, and the runner
# writes its outputs and returns the summary
SCENARIOS = {
    "sos_csv": (_sos_csv, {"input": (_text, None, None), "c": (_float, 0.17, _UNIT)}),
    "sos_synthetic": (_sos_synthetic, {
        "d": (_int, 1, _AT_LEAST_1), "N": (_int, 1000, _AT_LEAST_1),
        "halfwidth": (_float, 0.5, _POSITIVE), "epsilon0": (_float, 0.1, _UNIT)}),
    "universal_compare": (_universal_compare, {
        "N": (_int, 500, _AT_LEAST_1), "M": (_int, 100, _AT_LEAST_2)}),
    "holder": (_holder, {
        "H": (_float, 0.5, _UNIT), "delta": (_floats, (0.02, 0.01, 0.005), _POSITIVE),
        "scale": (_float, 0.12, None), "T": (_float, 1.0, None),
        "grid_step": (_float, 1e-5, None)}),
    "girsanov": (_girsanov, {
        "d": (_int, 1, _AT_LEAST_1), "mu": (_float, 0.1, None), "sigma": (_float, 0.3, None),
        "T": (_float, 50.0, None), "delta": (_float, 0.01, None)}),
    "model_select": (_model_select, {
        "d_max": (_int, 3, _AT_LEAST_1), "N": (_int, 300, _AT_LEAST_1)}),
    "imaginary": (_imaginary, {"N": (_int, 2000, _AT_LEAST_1)}),
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
    runner, keys = SCENARIOS[scenario]
    unread = sorted(set(cfg) - {"scenario", "seed", *keys})
    if unread:
        raise ValueError(f"scenario {scenario} reads no key {', '.join(unread)}")
    params = {}  # every key parsed and checked before outdir is made
    for key, (parse, default, check) in keys.items():
        if key not in cfg and default is None:
            raise ValueError(f"scenario {scenario} needs key {key}")
        value = parse(key, cfg[key]) if key in cfg else default
        for v in value if isinstance(value, tuple) else [value]:
            if check and not check[0](v):
                raise ValueError(f"{key} must be {check[1]}, got {v!r}")
        params[key] = value
    if "GTPBET_SEED" in os.environ:
        seed = _int("GTPBET_SEED", os.environ["GTPBET_SEED"])
    else:
        seed = _int("seed", cfg.get("seed", 0))
    if seed < 0:  # NumPy's generators take none, so no scenario does
        raise ValueError(f"seed must be at least 0, got {seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = runner(params, seed, outdir)
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
    write_csv(out, {f"x{j + 1}": x for j, x in enumerate(outcomes.T)})
    print(f"wrote {out} ({outcomes.shape[0]} rounds, d={outcomes.shape[1]}, F={tr.F})")
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
