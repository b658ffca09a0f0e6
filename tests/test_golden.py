import json
import math

import pytest

from golden import REFERENCE, run_cases, sample

# Bound on a float's move, relative to max(1, |reference|): ten times the
# largest move measured between OpenBLAS kernels (1.1e-13, exact-run files)
RTOL = 1e-12


def _cell(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _mismatch(ref, got):
    """Why got differs from ref, or None: floats within RTOL (NaN equals
    NaN), and everything else, integers and strings included, exactly."""
    if isinstance(ref, float) or isinstance(got, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (ref, got))
        if numbers and (ref == got or abs(ref - got) <= RTOL * max(1.0, abs(ref))
                        or math.isnan(ref) and math.isnan(got)):
            return None
        return f"{got!r} against {ref!r}"
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"keys {sorted(got)} against {sorted(ref)}"
        return next((f"{k}: {m}" for k in ref if (m := _mismatch(ref[k], got[k]))), None)
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{len(got)} items against {len(ref)}"
        return next((f"[{i}] {m}" for i, (r, g) in enumerate(zip(ref, got))
                     if (m := _mismatch(r, g))), None)
    return None if type(ref) is type(got) and ref == got else f"{got!r} against {ref!r}"


def _parsed(files):
    """Each CSV sample's rows split into cells and parsed, so that _mismatch
    compares numbers, not their text."""
    return {
        name: {**f, "sample": {i: [_cell(c) for c in row.split(",")]
                               for i, row in f["sample"].items()}}
        if name.endswith(".csv") else f
        for name, f in files.items()
    }


def test_every_scenario_matches_its_golden_outputs(tmp_path, monkeypatch):
    # references written at the parent of the change that added this test,
    # by tests/golden.py --write; regenerate them only for a change that
    # means to move an output, and say which and by how much
    monkeypatch.delenv("GTPBET_SEED", raising=False)
    ref = json.loads(REFERENCE.read_text())
    cases = run_cases(tmp_path)
    assert sorted(cases) == sorted(ref)
    for case, outdir in cases.items():
        assert _mismatch(_parsed(ref[case]), _parsed(sample(outdir))) is None, case


@pytest.mark.parametrize(
    "ref, got, ok",
    [
        (1.0, 1.0 + 9e-13, True),
        (1e3, 1e3 * (1 + 9e-13), True),
        (1e3, 1e3 + 2e-9, False),
        (0.0, 1e-9, False),
        (2, 2.0 + 1e-13, True),
        (2, 3, False),
        ("a", "b", False),
        (None, 0.0, False),
        (math.nan, math.nan, True),
        ([1.0, 2], [1.0, 2, 3], False),
        ({"selected": 2}, {"selected": 3}, False),
    ],
)
def test_golden_comparison_rules(ref, got, ok):
    assert (_mismatch(ref, got) is None) is ok
