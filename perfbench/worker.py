"""One cold pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <pass_id> <traced 0|1> <workdir>

The first thing the process does is the set-up every ``gtpbet run`` pays:
import ``gtpbet.cli`` and the SciPy modules the first pass would import
lazily.  It then prints ``ready``, so that the parent can time the set-up.
Next it makes the workload's inputs from the seed, times the scenario calls
through ``gtpbet.cli.run_scenario`` (the pass), reads the high-water RSS,
and only then runs the checks.  The last line it prints is one JSON object.
"""

import sys
import time

import gtpbet.cli
import scipy.fft  # noqa: F401
import scipy.optimize  # noqa: F401

print("ready", flush=True)

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from gtpbet import continuous  # noqa: E402

# roughness: H = 0.3 fBm on 2^23 + 1 grid points.  The one-step log return
# has sd 0.16 * 2^(-23 * 0.3) = 0.00134, so the 2 delta = 0.01 coarse-grid
# limit of the finest delta sits 7.5 sd out and no seed trips it.
FBM = {"H": 0.3, "scale": 0.16, "T": 1.0, "grid_step": 2.0**-23, "deltas": (0.02, 0.01, 0.005)}
GBM = {"d": 2, "mu": 0.1, "sigma": 0.3, "T": 100.0, "delta": 0.01}
PRICES = {"days": 3000, "assets": 3, "c": 0.17}
UNIVERSAL = {"N": 2000, "M": 100}


class Tap:
    """Keeps what a module attribute returns, for the checks after the pass."""

    def __init__(self):
        self.results = {}

    def install(self, module, name):
        fn = getattr(module, name)
        kept = self.results.setdefault(name, [])

        def tapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            kept.append(result)
            return result

        setattr(module, name, tapped)


def _cfg(**kv):
    return {k: str(v) for k, v in kv.items()}


def roughness(seed, work, tap):
    tap.install(gtpbet.cli, "gen_fbm")
    tap.install(continuous, "embed")
    cfg = _cfg(scenario="holder", H=FBM["H"], scale=FBM["scale"], T=FBM["T"],
               grid_step=repr(FBM["grid_step"]),
               delta=" ".join(map(str, FBM["deltas"])), seed=seed)

    def check_list(summary):
        path = tap.results["gen_fbm"][0]
        if len(summary["rows"]) != len(FBM["deltas"]) or len(tap.results["embed"]) != len(FBM["deltas"]):
            raise checks.CheckError("holder rows do not match the delta grid")
        out = []
        for row, emb in zip(summary["rows"], tap.results["embed"]):
            out.append((f"stops delta={row['delta']}",
                        lambda row=row, emb=emb: checks.stops(
                            path.values, emb.stop_indices, row["delta"], row["N"])))
            out.append((f"first-order logK delta={row['delta']}",
                        lambda row=row, emb=emb: checks.fast_logk(
                            path.values, emb.stop_indices, row["delta"], row["logK"],
                            row["delta_alpha_norm"])))
        out.append(("fGn moments", lambda: checks.fgn_moments(
            path.values, FBM["H"], FBM["scale"], FBM["T"] / (path.values.shape[0] - 1))))
        return out

    return [(cfg, check_list)]


def drift_multi(seed, work, tap):
    tap.install(continuous, "gen_gbm")
    tap.install(continuous, "embed")
    d = GBM["d"]
    cfg = _cfg(scenario="girsanov", d=d, mu=GBM["mu"], sigma=GBM["sigma"], T=GBM["T"],
               delta=GBM["delta"], seed=seed)

    def check_list(out):
        path = tap.results["gen_gbm"][0]
        emb = tap.results["embed"][0]
        return [
            ("stops", lambda: checks.stops(path.values, emb.stop_indices, GBM["delta"], out["N"])),
            ("first-order logK", lambda: checks.fast_logk(
                path.values, emb.stop_indices, GBM["delta"], out["logK_over_T"] * GBM["T"])),
            ("analytic target", lambda: checks.kelly_target(
                np.full(d, GBM["mu"]), GBM["sigma"] * np.eye(d), out["target"])),
        ]

    return [(cfg, check_list)]


def price_table(seed):
    """Daily closes of correlated assets: log returns with 1 % daily
    volatility, pairwise correlation 0.4 and a small positive drift."""
    rng = np.random.default_rng(seed)
    n = PRICES["assets"]
    corr = np.full((n, n), 0.4) + 0.6 * np.eye(n)
    z = rng.standard_normal((PRICES["days"] - 1, n)) @ np.linalg.cholesky(corr).T
    logp = np.vstack([np.zeros(n), np.cumsum(0.0003 + 0.01 * z, axis=0)])
    return 100.0 * np.exp(logp)


def _columns(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return {name: np.atleast_1d(data[name]) for name in data.dtype.names}


def exact_trading(seed, work, tap):
    prices = price_table(seed)
    csv = work / "prices.csv"
    with open(csv, "w") as fh:
        fh.write("day," + ",".join(f"A{j + 1}" for j in range(prices.shape[1])) + "\n")
        for i, row in enumerate(prices):
            fh.write(f"{i}," + ",".join(format(v, ".17g") for v in row) + "\n")

    def sos_csv_checks(out):
        ledger = _columns(work / "sos_csv" / "ledger.csv")
        training, outcomes = checks.return_transform(prices, PRICES["c"])
        n = len(outcomes)
        if out["N"] != n or ledger["n"].size != n:
            raise checks.CheckError(f"{out['N']} rounds played, {n} expected")
        return [
            ("LD1 nondecreasing", lambda: checks.ld1(ledger["LD1"])),
            ("hindsight re-solve", lambda: checks.hindsight(
                training, outcomes, ledger["logK_true"], ledger["logK_hindsight"],
                (1, n // 3, 2 * n // 3, n))),
        ]

    def universal_checks(out):
        # the scenario's own input recipe, redrawn from the same seed
        path = np.random.default_rng(seed).uniform(-0.8, 0.8, size=(UNIVERSAL["N"], 1))
        table = _columns(work / "universal_compare" / "universal.csv")
        return [("universal portfolio", lambda: checks.universal(
            path, UNIVERSAL["M"], table["KU0"], table["KU1"], out["KU0_final"], out["KU1_final"]))]

    return [
        (_cfg(scenario="sos_csv", input=csv, c=PRICES["c"], seed=seed), sos_csv_checks),
        (_cfg(scenario="universal_compare", seed=seed, **UNIVERSAL), universal_checks),
    ]


WORKLOADS = {"roughness": roughness, "drift_multi": drift_multi, "exact_trading": exact_trading}


def main(workload, seed, pass_id, traced, work):
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer(pass_id)
    if traced:
        tr.install()
    tap = Tap()
    scenarios = WORKLOADS[workload](seed, work, tap)

    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for cfg, _ in scenarios:
        try:
            results.append(gtpbet.cli.run_scenario(cfg, work / cfg["scenario"]))
        except Exception as exc:  # a failed call is counted, not fatal
            results.append(exc)
    pass_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    rss_mib = tracer.maxrss_mib()
    tr.uninstall()

    attempted = failed_calls = failed_checks = 0
    failures = []
    for (cfg, check_list), out in zip(scenarios, results):
        attempted += 1
        if isinstance(out, Exception):
            failed_calls += 1
            failures.append(f"{cfg['scenario']}: call failed: {out!r}")
            continue
        try:
            named = check_list(out)
        except Exception as exc:  # outputs missing or malformed
            attempted += 1
            failed_checks += 1
            failures.append(f"{cfg['scenario']}: outputs: {exc!r}")
            continue
        for name, check in named:
            attempted += 1
            try:
                check()
            except Exception as exc:
                failed_checks += 1
                failures.append(f"{cfg['scenario']}: {name}: {exc}")

    spans = [[n, s - t0, e - t0, p, i, c] for n, s, e, p, i, c in tr.spans]
    print(json.dumps({
        "pass_s": pass_s,
        "cpu_s": cpu_s,
        "rss_mib": rss_mib,
        "attempted": attempted,
        "failed": failed_calls + failed_checks,
        "failed_checks": failed_checks,
        "failures": failures,
        "layers": tracer.layer_totals(tr.spans),
        "spans": spans,
    }))


if __name__ == "__main__":
    wl, sd, pid, trc, wd = sys.argv[1:6]
    main(wl, int(sd), int(pid), trc == "1", wd)
