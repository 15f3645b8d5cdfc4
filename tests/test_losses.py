"""Loss values and gradients for the seven classification losses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tailfocal import (
    LOSS_KINDS,
    ConfigError,
    LossSpec,
    batch_loss,
    class_stats_from_counts,
    loss_on_logits,
    loss_on_probs,
    softmax,
    tail_partition,
)

LN2 = math.log(2.0)
CE = LossSpec(kind="ce")
FL = LossSpec(kind="fl", gamma=2.0)


def _fd_grad_z(fn, z, h=1e-6):
    """Central finite differences of a scalar function of the logits."""
    g = np.zeros_like(z)
    for j in range(z.size):
        zp = z.copy()
        zp[j] += h
        zm = z.copy()
        zm[j] -= h
        g[j] = (fn(zp) - fn(zm)) / (2.0 * h)
    return g


def _assert_close_fd(analytic, numeric, rtol=1e-5, atol=1e-8):
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bound = np.maximum(atol, rtol * scale)
    assert np.all(np.abs(analytic - numeric) <= bound)


def _spec_for(kind, stats, tail, gamma=2.0, beta=2.0):
    return LossSpec(
        kind=kind, gamma=gamma, beta=beta, lam=0.999, margin_c=0.5,
        stats=stats, tail=tail,
    )


class TestSoftmax:
    def test_shift_invariance_example(self):
        np.testing.assert_allclose(
            softmax(np.array([1000.0, 1000.0 + math.log(3.0)])),
            [0.25, 0.75], rtol=0, atol=1e-13,
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(size=rng.integers(1, 12)) * 10
            p = softmax(z)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    @pytest.mark.parametrize("z", [np.array([0.0, np.inf]), ["1.0", "2.0"]], ids=["inf", "text"])
    def test_rejects_non_finite_or_text(self, z):
        with pytest.raises(ConfigError, match="logits"):
            softmax(z)


class TestPointValues:
    """Hand-derived values at simple operating points."""

    def test_ce_example(self):
        out = loss_on_probs(CE, np.array([0.25, 0.75]), 1)
        assert out.value == pytest.approx(-math.log(0.75), abs=1e-15)
        assert out.grad_p == pytest.approx(-4.0 / 3.0, abs=1e-15)
        np.testing.assert_allclose(out.grad_z, [0.25, -0.25], atol=1e-15)

    def test_wce_rescales_by_inverse_frequency(self):
        stats = class_stats_from_counts([90, 10])
        out = loss_on_probs(LossSpec(kind="wce", stats=stats), np.array([0.5, 0.5]), 1)
        assert out.value == pytest.approx(6.931471805599453, abs=1e-12)

    def test_wce_uniform_two_class_doubles_ce(self):
        stats = class_stats_from_counts([50, 50])
        p = np.array([0.3, 0.7])
        wce = LossSpec(kind="wce", stats=stats)
        assert loss_on_probs(wce, p, 1).value == pytest.approx(
            2.0 * loss_on_probs(CE, p, 1).value, abs=1e-15
        )

    def test_focal_downweights_confident_example(self):
        p_easy = np.array([0.1, 0.9])
        p_hard = np.array([0.9, 0.1])
        easy = loss_on_probs(FL, p_easy, 1)
        hard = loss_on_probs(FL, p_hard, 1)
        assert easy.value == pytest.approx(0.001053605156578263, abs=1e-15)
        assert easy.value / loss_on_probs(CE, p_easy, 1).value == pytest.approx(0.01, abs=1e-12)
        assert hard.value / loss_on_probs(CE, p_hard, 1).value == pytest.approx(0.81, abs=1e-12)

    def test_cb_weight_at_thousand_samples(self):
        stats = class_stats_from_counts([1000, 1000])
        out = loss_on_probs(LossSpec(kind="cb", lam=0.999, stats=stats), np.array([0.5, 0.5]), 0)
        assert out.value == pytest.approx(0.0010962235728072518, abs=1e-15)

    def test_cb_weight_matches_exact_arithmetic_on_small_counts(self):
        # 1 - lam**n cancels for small n; the weight must stay within a few ulp
        counts = list(range(1, 200))
        stats = class_stats_from_counts(counts)
        p = np.full(len(counts), 1.0 / len(counts))
        ce = -math.log(p[0])
        lam = Fraction(0.999)
        cb = LossSpec(kind="cb", lam=0.999, stats=stats)
        for y, n in enumerate(counts):
            want = float((1 - lam) / (1 - lam**n)) * ce
            got = loss_on_probs(cb, p, y).value
            assert abs(got - want) <= 1e-15 * want, n

    def test_bs_uniform_logits_skewed_counts(self):
        stats = class_stats_from_counts([99, 1])
        out = loss_on_logits(LossSpec(kind="bs", stats=stats), np.array([0.0, 0.0]), 1)
        assert out.value == pytest.approx(math.log(100.0), abs=1e-12)

    def test_ldam_margins_shrink_with_count(self):
        stats = class_stats_from_counts([16, 1])
        ldam = LossSpec(kind="ldam", margin_c=0.5, stats=stats)
        out = loss_on_logits(ldam, np.array([0.0, 0.0]), 1)
        assert out.value == pytest.approx(0.8259394198788437, abs=1e-12)

    def test_tfl_tail_point(self):
        stats = class_stats_from_counts([100, 10, 2])
        tail = tail_partition(stats, 0.9)
        p = np.array([0.5, 0.25, 0.25])
        out = loss_on_probs(LossSpec(kind="tfl", gamma=2.0, beta=2.0, tail=tail), p, 2)
        expect = (0.75**2) * (-math.log(0.25)) + 2.0 * (-math.log(0.25))
        assert out.value == pytest.approx(expect, abs=1e-12)

    def test_tfl_tail_half_probability(self):
        stats = class_stats_from_counts([9, 1])
        tail = tail_partition(stats, 0.9)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=2.0, tail=tail)
        out = loss_on_probs(tfl, np.array([0.5, 0.5]), 1)
        assert out.value == pytest.approx(1.559581156259877, abs=1e-12)


class TestReductions:
    """Parameter settings under which one loss collapses into another."""

    def _grid(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            z = rng.normal(size=n) * 3
            y = int(rng.integers(0, n))
            yield softmax(z), z, y

    def test_focal_gamma_zero_is_ce(self):
        fl, ce = LossSpec(kind="fl", gamma=0.0), LossSpec(kind="ce")
        for p, z, y in self._grid():
            far = z.copy()
            far[y] = z.max() - 60.0  # the true class 60 below the top logit
            pairs = [(loss_on_probs(fl, p, y), loss_on_probs(ce, p, y))]
            pairs += [(loss_on_logits(fl, v, y), loss_on_logits(ce, v, y)) for v in (z, far)]
            for a, b in pairs:
                assert a.value == b.value
                assert a.grad_p == b.grad_p
                np.testing.assert_allclose(a.grad_z, b.grad_z, rtol=0, atol=0)

    def test_tfl_on_head_class_is_focal(self):
        stats = class_stats_from_counts([100, 10, 2])
        tail = tail_partition(stats, 0.9)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=2.0, tail=tail)
        rng = np.random.default_rng(6)
        for _ in range(40):
            p = softmax(rng.normal(size=3) * 2)
            a = loss_on_probs(tfl, p, 0)
            b = loss_on_probs(FL, p, 0)
            assert a.value == b.value
            assert a.grad_p == b.grad_p

    def test_tfl_beta_zero_is_focal(self):
        stats = class_stats_from_counts([100, 10, 2])
        tail = tail_partition(stats, 0.9)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=0.0, tail=tail)
        rng = np.random.default_rng(7)
        for _ in range(40):
            p = softmax(rng.normal(size=3) * 2)
            y = int(rng.integers(0, 3))
            a = loss_on_probs(tfl, p, y)
            b = loss_on_probs(FL, p, y)
            assert abs(a.value - b.value) <= 1e-12
            assert abs(a.grad_p - b.grad_p) <= 1e-12

    def test_tfl_threshold_one_is_focal(self):
        stats = class_stats_from_counts([100, 10, 2])
        tail = tail_partition(stats, 1.0)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=3.0, tail=tail)
        rng = np.random.default_rng(8)
        for _ in range(40):
            p = softmax(rng.normal(size=3) * 2)
            y = int(rng.integers(0, 3))
            a = loss_on_probs(tfl, p, y)
            b = loss_on_probs(FL, p, y)
            assert a.value == b.value

    def test_wce_single_class_is_ce(self):
        stats = class_stats_from_counts([25])
        p = np.array([1.0])
        a = loss_on_probs(LossSpec(kind="wce", stats=stats), p, 0)
        b = loss_on_probs(CE, p, 0)
        assert a.value == b.value

    def test_cb_unit_count_is_ce(self):
        stats = class_stats_from_counts([1, 1])
        cb = LossSpec(kind="cb", lam=0.999, stats=stats)
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = softmax(rng.normal(size=2) * 2)
            y = int(rng.integers(0, 2))
            a = loss_on_probs(cb, p, y)
            b = loss_on_probs(CE, p, y)
            assert abs(a.value - b.value) <= 1e-12

    def test_bs_uniform_counts_is_ce(self):
        stats = class_stats_from_counts([50, 50, 50])
        bs = LossSpec(kind="bs", stats=stats)
        rng = np.random.default_rng(10)
        for _ in range(40):
            z = rng.normal(size=3) * 3
            y = int(rng.integers(0, 3))
            a = loss_on_logits(bs, z, y)
            b = loss_on_logits(_spec_for("ce", None, None), z, y)
            assert abs(a.value - b.value) <= 1e-12
            np.testing.assert_allclose(a.grad_z, b.grad_z, rtol=0, atol=1e-12)

    def test_ldam_uniform_counts_is_ce(self):
        stats = class_stats_from_counts([10, 10, 10, 10])
        ldam = LossSpec(kind="ldam", margin_c=0.5, stats=stats)
        rng = np.random.default_rng(11)
        for _ in range(40):
            z = rng.normal(size=4) * 3
            y = int(rng.integers(0, 4))
            a = loss_on_logits(ldam, z, y)
            b = loss_on_logits(_spec_for("ce", None, None), z, y)
            assert abs(a.value - b.value) <= 1e-12

    def test_bs_equals_ce_on_shifted_logits(self):
        stats = class_stats_from_counts([70, 20, 10])
        bs = LossSpec(kind="bs", stats=stats)
        rng = np.random.default_rng(12)
        for _ in range(40):
            z = rng.normal(size=3) * 3
            y = int(rng.integers(0, 3))
            a = loss_on_logits(bs, z, y)
            b = loss_on_logits(
                _spec_for("ce", None, None), z + np.log(stats.counts), y
            )
            assert abs(a.value - b.value) <= 1e-12


class TestTailDominance:
    """On tail classes the tailed loss majorizes the focal loss."""

    def test_value_and_gradient_magnitude(self):
        stats = class_stats_from_counts([9, 1])
        tail = tail_partition(stats, 0.9)
        grid = np.linspace(0.001, 0.999, 512)
        for gamma in (1.0, 2.0, 3.0):
            fl = LossSpec(kind="fl", gamma=gamma)
            for beta in (1.0, 2.0, 3.0):
                tfl = LossSpec(kind="tfl", gamma=gamma, beta=beta, tail=tail)
                for py in grid:
                    p = np.array([1.0 - py, py])
                    t = loss_on_probs(tfl, p, 1)
                    f = loss_on_probs(fl, p, 1)
                    assert t.value >= f.value
                    assert abs(t.grad_p) >= abs(f.grad_p)

    def test_excess_is_beta_scaled_ce(self):
        stats = class_stats_from_counts([9, 1])
        tail = tail_partition(stats, 0.9)
        tfl = LossSpec(kind="tfl", gamma=2.0, beta=1.5, tail=tail)
        rng = np.random.default_rng(13)
        for _ in range(40):
            p = softmax(rng.normal(size=2) * 2)
            t = loss_on_probs(tfl, p, 1)
            f = loss_on_probs(FL, p, 1)
            c = loss_on_probs(CE, p, 1)
            assert t.value - f.value == pytest.approx(1.5 * c.value, rel=1e-12)


class TestGradients:
    """Analytic logit gradients against central finite differences."""

    def _cases(self):
        rng = np.random.default_rng(20)
        stats4 = class_stats_from_counts([500, 100, 20, 4])
        tail4 = tail_partition(stats4, 0.9)
        specs = [
            _spec_for("ce", None, None),
            _spec_for("wce", stats4, None),
            _spec_for("fl", None, None, gamma=2.0),
            _spec_for("fl", None, None, gamma=0.5),
            LossSpec(kind="cb", lam=0.999, stats=stats4),
            LossSpec(kind="bs", stats=stats4),
            LossSpec(kind="ldam", margin_c=0.5, stats=stats4),
            _spec_for("tfl", stats4, tail4, gamma=2.0, beta=2.0),
            _spec_for("tfl", stats4, tail4, gamma=3.0, beta=1.0),
        ]
        for spec in specs:
            for _ in range(30):
                z = rng.normal(size=4) * 2.5
                y = int(rng.integers(0, 4))
                yield spec, z, y

    def test_grad_z_matches_finite_differences(self):
        for spec, z, y in self._cases():
            out = loss_on_logits(spec, z, y)
            fd = _fd_grad_z(lambda zz: loss_on_logits(spec, zz, y).value, z)
            _assert_close_fd(out.grad_z, fd)

    def test_grad_z_sums_to_zero(self):
        for spec, z, y in self._cases():
            out = loss_on_logits(spec, z, y)
            assert abs(out.grad_z.sum()) < 1e-10

    def test_true_class_gradient_is_negative(self):
        for spec, z, y in self._cases():
            out = loss_on_logits(spec, z, y)
            assert out.grad_z[y] < 0


class TestInputForms:
    def test_probs_are_logits_ln_p_for_every_kind(self):
        stats = class_stats_from_counts([60, 25, 10, 5])
        tail = tail_partition(stats, 0.9)
        p = np.array([0.1, 0.2, 0.3, 0.4])
        for kind in LOSS_KINDS:
            spec = _spec_for(kind, stats, tail)
            for y in range(4):
                a, b = loss_on_probs(spec, p, y), loss_on_logits(spec, np.log(p), y)
                assert (a.value, a.grad_p) == (b.value, b.grad_p), (kind, y)
                np.testing.assert_array_equal(a.grad_z, b.grad_z)


class TestBatchLoss:
    def test_matches_mean_of_single_samples(self):
        rng = np.random.default_rng(30)
        stats = class_stats_from_counts([60, 25, 10, 5])
        tail = tail_partition(stats, 0.9)
        for kind in LOSS_KINDS:
            spec = _spec_for(kind, stats, tail)
            Z = rng.normal(size=(16, 4)) * 2
            Y = rng.integers(0, 4, size=16)
            value, grad = batch_loss(spec, Z, Y)
            singles = [loss_on_logits(spec, Z[i], int(Y[i])) for i in range(16)]
            assert value == pytest.approx(
                np.mean([s.value for s in singles]), rel=1e-12, abs=1e-14
            )
            np.testing.assert_allclose(
                grad, np.stack([s.grad_z for s in singles]) / 16, rtol=1e-12, atol=1e-15
            )

    def test_repeated_sample_equals_single(self):
        stats = class_stats_from_counts([60, 25, 10, 5])
        tail = tail_partition(stats, 0.9)
        z = np.array([0.4, -1.2, 0.3, 2.0])
        spec = _spec_for("tfl", stats, tail)
        single = loss_on_logits(spec, z, 3)
        value, grad = batch_loss(spec, np.tile(z, (8, 1)), np.full(8, 3))
        assert value == pytest.approx(single.value, rel=1e-12)
        np.testing.assert_allclose(grad.sum(axis=0), single.grad_z, rtol=1e-12)

    @pytest.mark.parametrize(
        "logits, labels",
        [(np.zeros((0, 3)), np.zeros(0, dtype=int)), ([["a", "b"]], [0])],
        ids=["empty", "text"],
    )
    def test_rejects_empty_or_text_batch(self, logits, labels):
        spec = _spec_for("ce", None, None)
        with pytest.raises(ConfigError, match="logits"):
            batch_loss(spec, logits, labels)

    def test_rejects_label_out_of_range(self):
        spec = _spec_for("ce", None, None)
        with pytest.raises(ConfigError):
            batch_loss(spec, np.zeros((2, 3)), np.array([0, 3]))


class TestValidation:
    def test_spec_requires_stats_for_count_weighted_kinds(self):
        for kind in ("wce", "cb", "bs", "ldam"):
            with pytest.raises(ConfigError):
                LossSpec(kind=kind)

    def test_spec_requires_tail_for_tfl(self):
        stats = class_stats_from_counts([9, 1])
        with pytest.raises(ConfigError):
            LossSpec(kind="tfl", stats=stats)

    def test_spec_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            LossSpec(kind="hinge")

    def test_spec_rejects_bad_hyperparameters(self):
        stats = class_stats_from_counts([9, 1])
        with pytest.raises(ConfigError):
            LossSpec(kind="fl", gamma=-1.0)
        with pytest.raises(ConfigError):
            LossSpec(kind="cb", lam=1.0, stats=stats)
        with pytest.raises(ConfigError):
            LossSpec(kind="ldam", margin_c=0.0, stats=stats)

    @pytest.mark.parametrize("kind, field", [
        ("fl", "gamma"), ("tfl", "gamma"), ("tfl", "beta"), ("cb", "lam"),
        ("ldam", "margin_c"), ("ce", "gamma"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.5"])
    def test_spec_rejects_non_finite_hyperparameters(self, kind, field, value):
        stats = class_stats_from_counts([9, 1])
        with pytest.raises(ConfigError, match=field):
            LossSpec(kind=kind, stats=stats, tail=tail_partition(stats, 0.9), **{field: value})

    def test_label_out_of_range_is_config_error_on_every_path(self):
        stats = class_stats_from_counts([9, 1])
        with pytest.raises(ConfigError, match="out of range"):
            loss_on_probs(CE, np.array([0.5, 0.5]), 5)
        with pytest.raises(ConfigError, match="out of range"):
            loss_on_logits(CE, np.zeros(2), -1)
        with pytest.raises(ConfigError, match="out of range"):
            loss_on_logits(LossSpec(kind="bs", stats=stats), np.zeros(2), 2)

    def test_rejects_probability_vector_not_summing_to_one(self):
        with pytest.raises(ConfigError):
            loss_on_probs(CE, np.array([0.2, 0.2]), 0)

    def test_rejects_stats_of_wrong_width(self):
        stats = class_stats_from_counts([9, 1])
        spec = LossSpec(kind="wce", stats=stats)
        with pytest.raises(ConfigError):
            loss_on_logits(spec, np.zeros(3), 0)

    def test_clamp_keeps_extreme_probabilities_finite(self):
        p = np.array([1.0, 0.0])
        out = loss_on_probs(CE, p, 1)
        assert np.isfinite(out.value)
        assert np.isfinite(out.grad_p)
