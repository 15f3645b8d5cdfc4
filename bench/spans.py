"""In-memory spans around the public functions of the tailfocal modules.

A span is (name, start, end, parent): parent is the index of the span that
was open when this one started, or -1 for a root. Spans stay in a list for
the whole run and are written out once it ends.

Wrapping happens at every namespace a function is looked up from: the
defining module, the package, and each module that bound its own copy with
`from .x import y`. A call made through any of those names is recorded
under one span name, "<module>.<function>".
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from functools import wraps

import numpy as np

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][END] = self.clock()

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, package: str, modules) -> None:
        """Wrap each public function of `package.<m>` for m in `modules`,
        wherever under `package` it is bound."""
        originals = {}
        for short in modules:
            mod = sys.modules[f"{package}.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    originals[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            p = spans[s[PARENT]]
            children[s[PARENT]].append((max(s[START], p[START]), min(s[END], p[END])))
    return [s[END] - s[START] - _covered(children[i]) for i, s in enumerate(spans)]


def roots(spans) -> list[int]:
    """For each span, the index of its root span."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def subtree_self_error(spans, selfs, root: int) -> float:
    """|duration(root) - sum of self times over root's subtree|: zero up to
    rounding exactly when children nest inside their parents and do not
    overlap each other."""
    top = roots(spans)
    total = sum(t for i, t in enumerate(selfs) if top[i] == root)
    return abs(spans[root][END] - spans[root][START] - total)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def distribution(values) -> dict:
    """p50, and the highest listed percentile with at least ten samples beyond
    it (p50 when there are too few samples for any), with the sample count."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    pct = next((q for q in TAIL_PERCENTILES if arr.size * (100.0 - q) / 100.0 >= 10), 50.0)
    return {
        "p50": float(np.percentile(arr, 50)),
        "tail": float(np.percentile(arr, pct)),
        "tail_pct": pct,
        "n": int(arr.size),
    }
