"""Property tests for the ranking metrics on tie-heavy score matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import metrics_report, pr_auc_ovr, roc_auc_ovr
from tailfocal.metrics import _midranks

from test_metrics import _brute_ap, _brute_auc, _brute_confusion

PROPS = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def cases(draw):
    """Quantized scores with many ties, and labels that may skip classes.

    Each row holds integer levels 0..L in the first c - 1 columns and the
    remainder to c * L in the last, divided by c * L, so equal levels give
    bit-equal scores. One column may be tied throughout; labels are drawn
    from a subset of the classes, which leaves classes absent and, with a
    single drawn class, one class without negatives.
    """
    n = draw(st.integers(1, 25))
    c = draw(st.integers(2, 5))
    levels = draw(st.integers(1, 4))
    q = np.array(
        draw(st.lists(st.lists(st.integers(0, levels), min_size=c - 1, max_size=c - 1),
                      min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, c - 1)
    tied = draw(st.none() | st.integers(0, c - 2))
    if tied is not None:
        q[:, tied] = draw(st.integers(0, levels))
    total = c * levels
    scores = np.column_stack([q, total - q.sum(axis=1)]) / total
    present = draw(st.lists(st.integers(0, c - 1), min_size=1, max_size=c, unique=True))
    labels = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))
    return scores, labels


def _assert_matches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if math.isnan(w):
            assert math.isnan(g)
        else:
            assert g == pytest.approx(w, abs=1e-12)


def _macro(values):
    defined = [v for v in values if not math.isnan(v)]
    return sum(defined) / len(defined) if defined else math.nan


@PROPS
@given(cases())
def test_auc_and_ap_match_brute_force(case):
    scores, labels = case
    true = labels.tolist()
    cols = [scores[:, c].tolist() for c in range(scores.shape[1])]
    want_auc = [_brute_auc(col, true, c) for c, col in enumerate(cols)]
    want_ap = [_brute_ap(col, true, c) for c, col in enumerate(cols)]

    auc, macro_auc = roc_auc_ovr(scores, labels)
    ap, macro_ap = pr_auc_ovr(scores, labels)
    _assert_matches(auc, want_auc)
    _assert_matches(ap, want_ap)
    _assert_matches([macro_auc, macro_ap], [_macro(want_auc), _macro(want_ap)])


@PROPS
@given(cases())
def test_report_matches_brute_force(case):
    scores, labels = case
    n_classes = scores.shape[1]
    true = labels.tolist()
    cols = [scores[:, c].tolist() for c in range(n_classes)]
    want_auc = [_brute_auc(col, true, c) for c, col in enumerate(cols)]
    want_ap = [_brute_ap(col, true, c) for c, col in enumerate(cols)]
    pred = np.argmax(scores, axis=1).tolist()
    prec, rec, f1, m_prec, m_rec, m_f1, acc = _brute_confusion(pred, true, n_classes)

    rep = metrics_report(scores, labels)
    _assert_matches(rep.auc, want_auc)
    _assert_matches(rep.aupr, want_ap)
    _assert_matches([rep.macro_auc, rep.macro_aupr], [_macro(want_auc), _macro(want_ap)])
    _assert_matches(rep.precision, prec)
    _assert_matches(rep.recall, rec)
    _assert_matches(rep.f1, f1)
    _assert_matches(
        [rep.macro_precision, rep.macro_recall, rep.macro_f1, rep.accuracy],
        [m_prec, m_rec, m_f1, acc],
    )


def test_midranks_hand_case():
    ranks, order, edges = _midranks(np.array([2.0, 1.0, 2.0, 2.0, 0.0]))
    np.testing.assert_array_equal(ranks, [4.0, 2.0, 4.0, 4.0, 1.0])
    np.testing.assert_array_equal(order, [4, 1, 0, 2, 3])
    np.testing.assert_array_equal(edges, [0, 1, 2, 5])
