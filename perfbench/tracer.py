"""Spans around every call into the public functions of gtpbet's modules.

The tracer replaces each public function, and each public method and
constructor of a public class, at every module attribute where a caller
looks it up (``gtpbet.sos.solve_phi``, ``gtpbet.continuous.sos_capital_fast``,
``gtpbet.cli.gen_fbm``, ...).  A span is named after the module that defines
the function (``sos.sos_capital_fast``), whichever module calls it.  Spans
live in a list in memory; the caller writes them out when the run ends.
Nothing under ``src/`` is changed: the wrappers exist only in the process
that installed them, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import resource
import time
from collections import defaultdict

LAYERS = (
    "continuous",
    "sos",
    "optimizer",
    "domain",
    "transform",
    "model_select",
    "baselines",
    "cli",
)


def maxrss_mib() -> float:
    """High-water RSS of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Work counts recorded at the same boundaries as the spans, keyed by span
# name.  Each maps (args, kwargs, result) to the counts of one call.
COUNTS = {
    "continuous.gen_fbm": lambda a, k, r: {"points": r.values.size},
    "continuous.embed": lambda a, k, r: {
        "points_scanned": _arg(a, k, 0, "path").values.shape[0],
        "stops": r.N,
    },
    "sos.sos_capital_fast": lambda a, k, r: {
        "rounds": len(_arg(a, k, 0, "path")),
    },
    "sos.sos_run": lambda a, k, r: {"rounds": r.N},
    "optimizer.solve_phi": lambda a, k, r: {
        "iterations": r.iterations,
        "rows": _arg(a, k, 0, "problem").m,
    },
    "domain.CapitalLedger.to_csv": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
    },
}

# Calls whose rise in the process's high-water RSS is recorded.
RSS = frozenset({"continuous.gen_fbm", "continuous.gen_gbm"})


class Tracer:
    """Span recorder.  A span is [name, start, end, parent, pass_id, counts],
    start and end in perf_counter seconds, parent the index of the
    enclosing span or -1."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)
        rss = name in RSS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            rss0 = maxrss_mib() if rss else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            counts = count(args, kwargs, result) if count else {}
            if rss:
                counts["rss_mib"] = maxrss_mib() - rss0
            span[5] = counts
            return result

        return traced

    def install(self, package: str = "gtpbet") -> None:
        """Wrap every public callable of every layer module."""
        mods = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{m}") for m in LAYERS
        ]
        wrapped = {}  # id(original) -> wrapper, one per function
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, name, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(obj):
                self._set(cls, attr, self.wrap(f"{name}.{attr}", obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(f"{name}.{attr}", obj.__func__)))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def layer_totals(spans) -> dict:
    """Per span name: calls, s (summed duration), self_s (duration minus
    the time covered by direct children) and every recorded count."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, _pass, counts) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[i]
        for key, value in (counts or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}
