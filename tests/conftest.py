import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gtpbet
from gtpbet import Domain, GameConfig, TrainingSet, make_training


def unit_box_game(epsilon0=0.5):
    """d=1 game on [-1, 1] with axis training {+c, -c}."""
    dom = Domain.box([-1.0], [1.0])
    return GameConfig(domain=dom, training=make_training(dom, epsilon0))


def corner_game(d=1):
    """Box [-1,1]^d with the sign-corner training block."""
    dom = Domain.box(-np.ones(d), np.ones(d))
    return GameConfig(
        domain=dom, training=make_training(dom, 0.1, "corners_2tod")
    )


@pytest.fixture(scope="session")
def rademacher_run():
    """One shared 5000-round d=1 run reused by several diagnostics tests."""
    from gtpbet import sos_run

    rng = np.random.default_rng(7)
    path = rng.choice([-0.5, 0.5], size=(5000, 1))
    return sos_run(unit_box_game(0.1), path)


def reference_stops(values, delta):
    """The embed docstring's definition, one grid index at a time: the
    stop after i is the first j with sum((S_j/S_i - 1)**2) >= delta * delta."""
    d2 = delta * delta
    S = np.asarray(values, dtype=float).tolist()
    stops, i = [], 0
    for j in range(1, len(S)):
        acc = 0.0
        for sj, si in zip(S[j], S[i]):
            r = sj / si - 1.0
            acc += r * r
        if acc >= d2:
            stops.append(j)
            i = j
    return stops


def peak_rss_ratio(call, path_bytes=None):
    """Rise of the peak RSS over one path-generating call, divided by the
    bytes of the path it returns, or by path_bytes for a call that makes
    its path inside and returns something else.

    `call` is an expression over `gen_fbm`, `gen_gbm`,
    `girsanov_rate_experiment`, `holder_experiment` and `np`, run in a
    fresh interpreter once numpy is imported, with numpy.random and
    numpy.fft, which NumPy loads on first use (numpy.random adds about
    6 MiB), so the rise is the call's own working memory.  The peak is VmHWM from /proc/self/status
    (Linux only), the high-water mark of the interpreter's own memory.
    ru_maxrss would not do: Linux carries it over from the process that
    started the interpreter, so under a test run that peaked higher the
    rise would read 0.
    """
    code = (
        "import numpy as np, numpy.fft, numpy.random\n"
        "from gtpbet.continuous import gen_fbm, gen_gbm, girsanov_rate_experiment, holder_experiment\n"
        "def peak():  # KiB\n"
        "    with open('/proc/self/status') as f:\n"
        "        return next(int(line.split()[1]) for line in f if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        f"path = {call}\n"
        "rise = peak() - before\n"
        f"print(rise * 1024 / {path_bytes or 'path.values.nbytes'})\n"
    )
    return float(run_python(code))


def run_python(code, *args, stdin=None):
    """Standard output of `code` run with args in a fresh interpreter that
    imports gtpbet from this checkout; fails the test if it exits non-zero."""
    src = str(Path(gtpbet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
