"""Golden outputs: every scenario at its default keys, at seeds 0 and 1.

sos_csv, which has no default input, reads a price table made from the
same seed.  test_golden.py runs these cases and compares a sample of what
they write with golden.json: every 16th row and the last row of each CSV,
and every summary.json value.

Run as a script, from the repository root:

    PYTHONPATH=src python3 tests/golden.py          # SHA-256 manifest of the outputs
    PYTHONPATH=src python3 tests/golden.py --write  # regenerate golden.json

The manifest is one "digest  case/file" line per output, then NumPy's BLAS
configuration.  Its bytes hold per host and BLAS kernel only: the exact
run's files move in their last digits under another OpenBLAS kernel, which
the sample's float tolerance allows for.

What the sample cannot catch: a change to the text of a number that keeps
its value, a move below the tolerance, and a move confined to rows between
the sampled ones of a ledger column that does not accumulate (LD3, GR, QR,
DR).  The cumulative columns (logK_true, LD1, LD2, the universal
portfolio's capitals, ...) carry a change in one round to every later row.
"""

import ctypes
import glob
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from gtpbet.cli import SCENARIOS, run_scenario

SEEDS = (0, 1)
EVERY = 16  # the sample keeps rows 0, 16, 32, ... and the last row of a CSV
REFERENCE = Path(__file__).with_name("golden.json")


def write_prices(path, seed):
    """A 200-day table of two assets' closes with 1 % daily log volatility."""
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((200, 2)), axis=0))
    rows = "".join(f"{i},{a!r},{b!r}\n" for i, (a, b) in enumerate(prices.tolist()))
    Path(path).write_text("day,A,B\n" + rows)


def run_cases(work):
    """Run every case under the directory work; returns {case: outdir}.
    A case is named <scenario>-<seed>."""
    work = Path(work)
    out = {}
    for seed in SEEDS:
        for scenario in sorted(SCENARIOS):
            cfg = {"scenario": scenario, "seed": str(seed)}
            if scenario == "sos_csv":
                cfg["input"] = str(work / f"prices-{seed}.csv")
                write_prices(cfg["input"], seed)
            case = f"{scenario}-{seed}"
            run_scenario(cfg, work / case)
            out[case] = work / case
    return out


def sample(outdir):
    """{file: sample} for every output of one case: a CSV's header, row
    count and kept rows (by index, as text), or summary.json's values."""
    files = {}
    for f in sorted(Path(outdir).iterdir()):
        if f.suffix == ".csv":
            header, *rows = f.read_text().splitlines()
            keep = sorted({*range(0, len(rows), EVERY), len(rows) - 1} - {-1})
            files[f.name] = {"header": header, "rows": len(rows),
                             "sample": {str(i): rows[i] for i in keep}}
        else:
            files[f.name] = json.loads(f.read_text())
    return files


def _blas():
    """NumPy's BLAS build and the OpenBLAS kernel it picked at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [f"{k}: {blas.get(k)}" for k in ("name", "version", "openblas configuration")]
    lines.append(f"OPENBLAS_CORETYPE: {os.environ.get('OPENBLAS_CORETYPE', '(unset)')}")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        fn = getattr(ctypes.CDLL(libs[0]), name, None) if libs else None
        if fn is not None:
            fn.restype = ctypes.c_char_p
            lines.append(f"kernel: {fn().decode()}")
            break
    return lines


def main(argv):
    os.environ.pop("GTPBET_SEED", None)  # it would override every case's seed
    with tempfile.TemporaryDirectory() as work:
        cases = run_cases(work)
        if argv == ["--write"]:
            ref = {case: sample(outdir) for case, outdir in cases.items()}
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {REFERENCE}")
            return 0
        for case, outdir in cases.items():
            for f in sorted(outdir.iterdir()):
                print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {case}/{f.name}")
    print("\n".join(_blas()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
