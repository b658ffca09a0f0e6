"""gtpbet benchmark: cold `gtpbet run` passes of one workload, timed end to end.

    python3 perfbench/run.py --workload roughness --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each pass runs in a fresh interpreter (perfbench/worker.py), so it
pays the same set-up and keeps no state from an earlier pass.  Passes run one
after another until ``--seconds`` have passed, and always whole: the last
pass starts before the deadline and runs to its end.

``--trace 0`` prints the end-to-end metrics (medians over the passes):

* ``setup_s``: time from starting a fresh interpreter until it has imported
  ``gtpbet.cli``, ``scipy.fft`` and ``scipy.optimize``, one sample per pass;
* ``pass_s``: wall time of the workload's scenario calls;
* ``peak_rss_mib``: high-water RSS of the process that ran the pass.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see perfbench/README.md), the traced
spans going to ``perfbench/out/trace-<workload>-seed<seed>.json``.

The last line printed is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when every pass ran to its end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("roughness", "drift_multi", "exact_trading")
RUN_LIMIT_S = 170.0  # a run, set-up and last pass included, ends before this

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}

# per-layer metric -> (span name, total, unit); totals come from
# tracer.layer_totals, and rates are derived below
PER_LAYER = {
    "continuous.gen_fbm.s": ("continuous.gen_fbm", "s", "s"),
    "continuous.gen_fbm.points": ("continuous.gen_fbm", "points", "count"),
    "continuous.gen_fbm.rss_mib": ("continuous.gen_fbm", "rss_mib", "MiB"),
    "continuous.gen_gbm.s": ("continuous.gen_gbm", "s", "s"),
    "continuous.gen_gbm.rss_mib": ("continuous.gen_gbm", "rss_mib", "MiB"),
    "continuous.embed.s": ("continuous.embed", "s", "s"),
    "continuous.embed.calls": ("continuous.embed", "calls", "count"),
    "continuous.embed.points_scanned": ("continuous.embed", "points_scanned", "count"),
    "continuous.embed.stops": ("continuous.embed", "stops", "count"),
    "continuous.embed.us_per_stop": ("continuous.embed", "us_per_stop", "us"),
    "continuous.holder_experiment.self_s": ("continuous.holder_experiment", "self_s", "s"),
    "continuous.girsanov_rate_experiment.self_s": ("continuous.girsanov_rate_experiment", "self_s", "s"),
    "sos.sos_capital_fast.s": ("sos.sos_capital_fast", "s", "s"),
    "sos.sos_capital_fast.us_per_round": ("sos.sos_capital_fast", "us_per_round", "us"),
    "sos.sos_run.s": ("sos.sos_run", "s", "s"),
    "sos.sos_run.self_s": ("sos.sos_run", "self_s", "s"),
    "sos.sos_run.rounds": ("sos.sos_run", "rounds", "count"),
    "sos.sos_run.us_per_round": ("sos.sos_run", "us_per_round", "us"),
    "sos.SosResult.summary.calls": ("sos.SosResult.summary", "calls", "count"),
    "sos.SosResult.summary.s": ("sos.SosResult.summary", "s", "s"),
    "sos.deficiency_constants.calls": ("sos.deficiency_constants", "calls", "count"),
    "sos.deficiency_constants.s": ("sos.deficiency_constants", "s", "s"),
    "optimizer.solve_phi.s": ("optimizer.solve_phi", "s", "s"),
    "optimizer.solve_phi.calls": ("optimizer.solve_phi", "calls", "count"),
    "optimizer.solve_phi.iterations": ("optimizer.solve_phi", "iterations", "count"),
    "optimizer.solve_phi.rows": ("optimizer.solve_phi", "rows", "count"),
    "optimizer.PhiProblem.s": ("optimizer.PhiProblem", "s", "s"),
    "domain.CapitalLedger.to_csv.s": ("domain.CapitalLedger.to_csv", "s", "s"),
    "domain.CapitalLedger.to_csv.bytes": ("domain.CapitalLedger.to_csv", "bytes", "bytes"),
    "transform.read_price_csv.s": ("transform.read_price_csv", "s", "s"),
    "transform.transform_returns.s": ("transform.transform_returns", "s", "s"),
    "baselines.universal_portfolio.s": ("baselines.universal_portfolio", "s", "s"),
    "cli.run_scenario.self_s": ("cli.run_scenario", "self_s", "s"),
}
RATES = {"us_per_stop": ("s", "stops"), "us_per_round": ("s", "rounds")}


class PassError(RuntimeError):
    """A worker did not run its pass to the end."""


def run_pass(workload, seed, pass_id, traced, work, env, deadline):
    """One worker process; returns (setup_s, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(pass_id), "1" if traced else "0", str(work)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise PassError(f"{workload} pass {pass_id} exited with code {proc.returncode}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def layer_metrics(layers):
    out = {}
    for metric, (span, total, _unit) in PER_LAYER.items():
        row = layers.get(span, {})
        if total in RATES:
            num, den = RATES[total]
            out[metric] = 1e6 * row[num] / row[den] if row.get(den) else 0.0
        else:
            out[metric] = row.get(total, 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gtpbet" / "cli.py").is_file():
        print(f"perfbench: no gtpbet source under {src}", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "GTPBET_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    outdir = HERE / "out"
    work = outdir / f"work-{os.getpid()}"

    # fill the file cache (and the bytecode cache, where one is written) before the first sample
    subprocess.run([sys.executable, "-c", "import gtpbet.cli, scipy.fft, scipy.optimize"],
                   cwd=ROOT, env=env, check=True)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes = []  # (traced, setup_s, result)
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            setup_s, res = run_pass(args.workload, args.seed, len(passes), traced,
                                    work, env, deadline)
            passes.append((traced, setup_s, res))
            if res["failures"]:
                print("\n".join(res["failures"]), file=sys.stderr)
            if time.perf_counter() - start >= args.seconds and len(passes) >= 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for t, _, r in passes if not t]
    traced = [r for t, _, r in passes if t]
    med = statistics.median
    if args.trace:
        values = {}
        per_pass = [layer_metrics(r["layers"]) for r in traced]
        for metric in PER_LAYER:
            values[metric] = med(p[metric] for p in per_pass)
        values["pass.cpu_s"] = med(r["cpu_s"] for r in plain)
        values["trace.overhead_s"] = med(r["pass_s"] for r in traced) - med(r["pass_s"] for r in plain)
        units = {m: u for m, (_, _, u) in PER_LAYER.items()}
        units.update({"pass.cpu_s": "s", "trace.overhead_s": "s"})
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start_s_from_pass_start", "end_s_from_pass_start",
                                  "parent_index_in_pass", "pass", "counts"],
                       "spans": [s for r in traced for s in r["spans"]]}, fh)
    else:
        values = {
            "setup_s": med(s for _, s, _ in passes),
            "pass_s": med(r["pass_s"] for r in plain),
            "peak_rss_mib": med(r["rss_mib"] for r in plain),
        }
        units = END_TO_END

    attempted = sum(r["attempted"] for _, _, r in passes)
    failed = sum(r["failed"] for _, _, r in passes)
    correct = not any(r["failed_checks"] for _, _, r in passes)
    print(f"{args.workload}, seed {args.seed}: {len(plain)} untraced and {len(traced)} traced passes")
    for i, (t, s, r) in enumerate(passes):
        print(f"  pass {i}{' (traced)' if t else ''}: setup {s:.3f} s, pass {r['pass_s']:.3f} s, "
              f"cpu {r['cpu_s']:.3f} s, rss {r['rss_mib']:.1f} MiB")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
