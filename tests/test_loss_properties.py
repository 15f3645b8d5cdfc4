"""Property tests for the loss core over randomly drawn loss configurations."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import (
    LOSS_KINDS,
    LossSpec,
    batch_loss,
    class_stats_from_counts,
    loss_on_logits,
    tail_partition,
)

from test_losses import _fd_grad_z

PROPS = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def cases(draw):
    """A random LossSpec with logits and labels of a matching width."""
    counts = draw(st.lists(st.integers(1, 1000), min_size=2, max_size=6))
    stats = class_stats_from_counts(counts)
    spec = LossSpec(
        kind=draw(st.sampled_from(LOSS_KINDS)),
        gamma=draw(st.floats(0.0, 5.0)),
        beta=draw(st.floats(0.0, 5.0)),
        lam=draw(st.floats(0.01, 0.9999)),
        margin_c=draw(st.floats(0.01, 1.0)),
        stats=stats,
        tail=tail_partition(stats, draw(st.floats(0.0, 1.0))),
    )
    n = len(counts)
    b = draw(st.integers(1, 8))
    z = draw(st.lists(st.floats(-5.0, 5.0), min_size=b * n, max_size=b * n))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=b, max_size=b))
    return spec, np.array(z).reshape(b, n), np.array(labels)


@PROPS
@given(cases())
def test_logit_gradient_matches_finite_differences(case):
    spec, Z, Y = case
    for z, y in zip(Z, Y):
        out = loss_on_logits(spec, z, y)
        fd = _fd_grad_z(lambda v: loss_on_logits(spec, v, y).value, z)
        # central differences lose about eps * |loss| / h to rounding
        np.testing.assert_allclose(out.grad_z, fd, rtol=1e-5, atol=1e-6 * max(1.0, out.value))


@PROPS
@given(cases())
def test_batch_is_mean_of_rows(case):
    spec, Z, Y = case
    value, grad = batch_loss(spec, Z, Y)
    singles = [loss_on_logits(spec, z, y) for z, y in zip(Z, Y)]
    assert value == pytest.approx(np.mean([s.value for s in singles]), rel=1e-12, abs=1e-14)
    np.testing.assert_allclose(
        grad, np.stack([s.grad_z for s in singles]) / len(Y), rtol=1e-12, atol=1e-15
    )


@st.composite
def gap_cases(draw):
    """A random LossSpec, a batch of logit rows and labels, and increasing
    gaps by which each row's true class is put below its top logit."""
    spec, Z, Y = draw(cases())
    # a threshold at a class's position leaves both head and tail classes
    ts = draw(st.sampled_from(sorted(spec.tail.normalized_position)[:-1]))
    spec = replace(spec, tail=tail_partition(spec.stats, ts))
    gaps = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=6, unique=True))
    return spec, Z, Y, np.sort(gaps) / 1e3


def _limit(spec, y):
    """The true-class logit gradient of one row as its gap grows without bound."""
    stats, tail = spec.stats, spec.tail
    n_y = float(stats.counts[y])
    return {
        "wce": -stats.total / n_y,
        "cb": -(1.0 - spec.lam) / (1.0 - spec.lam**n_y),
        "tfl": -1.0 - spec.beta * tail.is_tail[y],
    }.get(spec.kind, -1.0)


@PROPS
@given(gap_cases())
def test_gradient_is_exact_at_any_gap(case):
    spec, Z, Y, gaps = case
    rows = np.arange(len(Y))
    values = []
    for gap in gaps:
        Z[rows, Y] = -np.inf
        Z[rows, Y] = Z.max(axis=1) - gap
        value, grad = batch_loss(spec, Z, Y)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        values.append(value)
        if gap > 40:
            true = grad[rows, Y] * len(Y)
            limits = np.array([_limit(spec, y) for y in Y])
            np.testing.assert_allclose(true, limits, rtol=0, atol=1e-9)
    assert np.all(np.diff(values) > 0)
