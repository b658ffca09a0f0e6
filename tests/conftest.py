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


def peak_rss_ratio(call):
    """Rise of the peak RSS over one path-generating call, divided by the
    bytes of the path it returns.

    `call` is an expression over `gen_fbm`, `gen_gbm` and `np`, run in a
    fresh interpreter once numpy, scipy.fft and scipy.fftpack are imported,
    so the rise is the call's own working memory.  Linux only: ru_maxrss
    is in KiB there.
    """
    code = (
        "import resource\n"
        "import numpy as np, scipy.fft, scipy.fftpack\n"
        "from gtpbet.continuous import gen_fbm, gen_gbm\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"path = {call}\n"
        "rise = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(rise * 1024 / path.values.nbytes)\n"
    )
    src = str(Path(gtpbet.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)
