"""Every demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtpbet

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    src = str(Path(gtpbet.__file__).resolve().parent.parent)
    # the working directory and the temp dir are both the test's own, so a
    # demo's files land there
    env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
