"""Span bookkeeping, self-time arithmetic and wrapping of the traced run.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

import sys
import types

import pytest

import spans as sp


class FakeClock:
    """Returns the scripted times in order, so spans get exact bounds."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_nested_spans_record_parent_and_bounds():
    tr = sp.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    with tr.span("op"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    assert tr.spans == [["op", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 6.0, 0]]
    assert sp.roots(tr.spans) == [0, 0, 0]


def test_self_time_subtracts_children_and_sums_to_parent():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["b", 4.0, 6.0, 0],
        ["other", 20.0, 21.0, -1],
    ]
    selfs = sp.self_times(spans)
    assert selfs == pytest.approx([6.0, 1.5, 0.5, 2.0, 1.0])
    assert sp.subtree_self_error(spans, selfs, 0) == pytest.approx(0.0)
    assert sp.subtree_self_error(spans, selfs, 4) == pytest.approx(0.0)


def test_overlapping_children_count_once_and_fail_the_sum():
    spans = [["p", 0.0, 10.0, -1], ["c1", 1.0, 5.0, 0], ["c2", 3.0, 7.0, 0], ["c3", 8.0, 9.0, 0]]
    selfs = sp.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert sp.subtree_self_error(spans, selfs, 0) == pytest.approx(2.0)


def test_self_time_check_catches_a_child_outside_its_parent():
    spans = [["p", 0.0, 10.0, -1], ["c", 8.0, 12.0, 0]]
    selfs = sp.self_times(spans)
    assert sp.subtree_self_error(spans, selfs, 0) == pytest.approx(2.0)


def test_distribution_picks_highest_percentile_with_ten_beyond():
    d = sp.distribution(range(1000))
    assert (d["tail_pct"], d["n"]) == (99.0, 1000)
    assert d["p50"] == pytest.approx(499.5)
    assert sp.distribution(range(200))["tail_pct"] == 95.0
    assert sp.distribution(range(40))["tail_pct"] == 75.0
    assert sp.distribution(range(5))["tail_pct"] == 50.0
    assert sp.distribution([]) == {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}


def test_install_wraps_every_binding_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def inner(x):
        return x + 1

    low.inner = inner
    low.__all__ = ["inner"]
    high.inner = inner  # a copy bound by "from .low import inner"
    high.outer = lambda x: high.inner(x) * 2
    high.__all__ = ["outer"]
    pkg.inner = inner
    mods = {"fakepkg": pkg, "fakepkg.low": low, "fakepkg.high": high}
    sys.modules.update(mods)
    try:
        tr = sp.Tracer()
        tr.install("fakepkg", ("low", "high"))
        assert pkg.inner(1) == 2 and high.outer(1) == 4
        assert [s[sp.NAME] for s in tr.spans] == ["low.inner", "high.outer", "low.inner"]
        assert [s[sp.PARENT] for s in tr.spans] == [-1, -1, 1]
        tr.uninstall()
        assert low.inner is inner and high.inner is inner and pkg.inner is inner
    finally:
        for name in mods:
            del sys.modules[name]
