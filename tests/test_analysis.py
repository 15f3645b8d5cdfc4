"""Gradient-vanishing thresholds, Lambert W, and loss curve tables."""

import math
import re
import sys

import numpy as np
import pytest

from tailfocal import (
    ConfigError,
    LossSpec,
    class_stats_from_counts,
    curve_table,
    fl_vanishing_threshold,
    lambert_w0,
    loss_on_probs,
    tail_partition,
    tfl_vanishing_threshold,
    write_curve,
)


def _bisect_w(x, iters=200):
    """Solve w * exp(w) = x on the principal branch by bisection."""
    lo, hi = -1.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _bisect_crossover(gamma, beta, iters=200):
    """Solve gamma*ln(P) = (beta - P)/P, which is monotone increasing in P."""
    f = lambda p: gamma * math.log(p) - (beta - p) / p
    lo, hi = 1e-9, 1.0
    while f(hi) < 0:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert abs(lambert_w0(math.e) - 1.0) <= 1e-12
        assert lambert_w0(1.0) == pytest.approx(0.567143290409784, abs=1e-12)

    def test_branch_point(self):
        x = -1.0 / math.e
        assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-6)

    def test_round_trip_identity(self):
        for x in np.linspace(-0.9 / math.e, 10.0, 200):
            w = lambert_w0(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-10 * max(1.0, abs(x))

    def test_large_arguments(self):
        for x in (1e2, 1e6, 1e12):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-10 * x

    def test_matches_bisection(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            x = float(rng.uniform(-0.99 / math.e, 20.0))
            assert lambert_w0(x) == pytest.approx(_bisect_w(x), abs=1e-11)

    def test_log_identity_up_to_float_maximum(self):
        xs = [*np.geomspace(3.0, 1e308, 300), 3e305, 8.24e307, sys.float_info.max]
        for x in xs:
            w = lambert_w0(float(x))
            assert abs(w + math.log(w) - math.log(x)) <= 1e-12 * math.log(x)

    def test_rejects_argument_below_branch_point(self):
        with pytest.raises(ConfigError):
            lambert_w0(-1.0)


class TestVanishingThresholds:
    def test_focal_closed_form(self):
        assert fl_vanishing_threshold(2.0).crossover_p == pytest.approx(
            math.exp(-0.5), abs=1e-15
        )
        assert fl_vanishing_threshold(1.0).crossover_p == pytest.approx(
            math.exp(-1.0), abs=1e-15
        )
        assert fl_vanishing_threshold(2.0).crossover_p == pytest.approx(
            0.6065306597126334, abs=1e-12
        )

    def test_focal_threshold_rises_with_gamma(self):
        prev = 0.0
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0):
            p = fl_vanishing_threshold(gamma).crossover_p
            assert p > prev
            assert fl_vanishing_threshold(gamma).in_unit_interval
            prev = p

    def test_tailed_matched_coefficients_give_unity(self):
        report = tfl_vanishing_threshold(2.0, 1.0)
        assert report.crossover_p == pytest.approx(1.0, abs=1e-9)
        assert report.in_unit_interval

    def test_tailed_reference_point(self):
        report = tfl_vanishing_threshold(2.0, 3.0)
        assert report.crossover_p == pytest.approx(1.5734890516291506, abs=1e-9)
        assert not report.in_unit_interval

    def test_tailed_self_consistency(self):
        for gamma in (0.5, 1.0, 2.0, 3.0):
            for beta in (0.5, 1.0, 2.0, 3.0):
                p = tfl_vanishing_threshold(gamma, beta).crossover_p
                residual = gamma * math.log(p) - (beta - p) / p
                assert abs(residual) <= 1e-10

    def test_tailed_matches_bisection(self):
        for gamma in (0.5, 1.0, 2.0, 3.0):
            for beta in (0.5, 1.0, 2.0, 3.0):
                got = tfl_vanishing_threshold(gamma, beta).crossover_p
                assert got == pytest.approx(_bisect_crossover(gamma, beta), abs=1e-10)

    def test_tailed_exceeds_focal_threshold(self):
        for gamma in (1.0, 2.0, 3.0):
            for beta in (1.0, 2.0, 3.0):
                assert (
                    tfl_vanishing_threshold(gamma, beta).crossover_p
                    > fl_vanishing_threshold(gamma).crossover_p
                )

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ConfigError):
            fl_vanishing_threshold(0.0)
        with pytest.raises(ConfigError):
            tfl_vanishing_threshold(2.0, 0.0)

    @pytest.mark.parametrize("gamma, beta, name", [
        (math.inf, 2.0, "gamma"),
        (math.nan, 2.0, "gamma"),
        (-1.0, 2.0, "gamma"),
        (2.0, math.inf, "beta"),
        (2.0, math.nan, "beta"),
    ])
    def test_rejects_non_finite_parameters(self, gamma, beta, name):
        with pytest.raises(ConfigError, match=name):
            tfl_vanishing_threshold(gamma, beta)
        with pytest.raises(ConfigError, match=name):
            curve_table("tfl", gamma=gamma, beta=beta)  # not NaN rows
        if name == "gamma":
            with pytest.raises(ConfigError, match=name):
                fl_vanishing_threshold(gamma)
            with pytest.raises(ConfigError, match=name):
                curve_table("fl", gamma=gamma)

    def test_crossover_with_lambert_argument_near_float_maximum(self):
        # the Lambert W argument is (1e308 / 2) * exp(1/2) = 8.24e307
        report = tfl_vanishing_threshold(2.0, 1e308)
        assert report.crossover_p == pytest.approx(_bisect_crossover(2.0, 1e308), rel=1e-12)
        assert not report.in_unit_interval

    @pytest.mark.parametrize("gamma, beta", [
        (0.001, 2.0),  # exp(1/gamma) overflows
        (0.5, 1e308),  # Lambert W argument overflows to inf
        (1e308, 1e-308),  # Lambert W argument underflows to 0
    ])
    def test_out_of_float_range_crossover_is_config_error(self, gamma, beta):
        with pytest.raises(ConfigError, match=re.escape(f"gamma={gamma:g}, beta={beta:g}")):
            tfl_vanishing_threshold(gamma, beta)


class TestCurveTable:
    def test_default_grid_shape(self):
        table = curve_table("fl", gamma=2.0)
        assert table.shape == (512, 3)
        assert table[0, 0] == pytest.approx(0.001)
        assert table[-1, 0] == pytest.approx(0.999)

    def test_ce_row_values(self):
        table = curve_table("ce", grid=np.array([0.5]))
        assert table[0, 1] == pytest.approx(math.log(2.0), abs=1e-15)
        assert table[0, 2] == pytest.approx(-2.0, abs=1e-15)

    def test_matches_loss_module_gradients(self):
        grid = np.linspace(0.01, 0.99, 49)
        stats = class_stats_from_counts([100, 1])
        tail = tail_partition(stats, 0.995)
        fl_table = curve_table("fl", grid=grid, gamma=2.0)
        tfl_table = curve_table("tfl", grid=grid, gamma=2.0, beta=2.0)
        fl = LossSpec(kind="fl", gamma=2.0)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=2.0, tail=tail)
        for i, py in enumerate(grid):
            # class 1 is the tail class of a [100, 1] count profile
            p = np.array([1.0 - py, py])
            f = loss_on_probs(fl, p, 1)
            t = loss_on_probs(tfl, p, 1)
            assert fl_table[i, 1] == pytest.approx(f.value, rel=1e-12, abs=1e-15)
            assert fl_table[i, 2] == pytest.approx(f.grad_p, rel=1e-12, abs=1e-15)
            assert tfl_table[i, 1] == pytest.approx(t.value, rel=1e-12, abs=1e-15)
            assert tfl_table[i, 2] == pytest.approx(t.grad_p, rel=1e-12, abs=1e-15)

    def test_tailed_gradient_floor_near_certainty(self):
        table = curve_table("tfl", grid=np.array([0.999]), gamma=2.0, beta=2.0)
        assert table[0, 2] == pytest.approx(-2.0, rel=5e-3)

    def test_focal_gradient_vanishes_near_certainty(self):
        table = curve_table("fl", grid=np.array([0.999]), gamma=2.0)
        assert abs(table[0, 2]) < 1e-2

    def test_rejects_grid_outside_open_interval(self):
        with pytest.raises(ConfigError):
            curve_table("ce", grid=np.array([0.0, 0.5]))
        with pytest.raises(ConfigError):
            curve_table("ce", grid=np.array([0.5, 1.0]))

    @pytest.mark.parametrize(
        "grid", [[0.5, np.nan], [0.5, np.inf], [0.5, "0.3"]], ids=["nan", "inf", "text"]
    )
    def test_rejects_a_grid_that_is_not_finite_reals(self, grid):
        with pytest.raises(ConfigError, match="grid"):
            curve_table("fl", grid=grid)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            curve_table("wce")

    def test_write_curve_format(self, tmp_path):
        table = curve_table("ce", grid=np.array([0.25, 0.5]))
        path = tmp_path / "curve.csv"
        write_curve(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,loss,grad"
        assert len(lines) == 3
        first = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(first, table[0], rtol=1e-14)
