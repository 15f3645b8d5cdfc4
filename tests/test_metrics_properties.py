"""Property tests for the ranking metrics on tie-heavy score matrices, and a
bit-exact oracle: the stable-argsort AUC/AP that the value sorts replaced."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import metrics_report
from tailfocal.metrics import _ovr_auc_ap

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


@st.composite
def near_tie_cases(draw):
    """Unquantized scores with near-ties, and long-tailed labels.

    Rows are normalized draws from [0.01, 1]. Some rows copy an earlier one
    with one entry a ulp higher and another a ulp lower, so columns hold
    ties and values one ulp apart. Labels give a head class most rows, and
    one row each to up to c - 1 tail classes.
    """
    n = draw(st.integers(2, 25))
    c = draw(st.integers(2, 6))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n * c, max_size=n * c))
    scores = np.array(raw).reshape(n, c)
    scores /= scores.sum(axis=1, keepdims=True)
    for j in range(1, n):
        if draw(st.booleans()):
            i = draw(st.integers(0, j - 1))
            up, down = draw(st.permutations(range(c)))[:2]
            scores[j] = scores[i]
            scores[j, up] = np.nextafter(scores[i, up], 1.0)
            scores[j, down] = np.nextafter(scores[i, down], 0.0)
    tail = draw(st.integers(1, min(c, n) - 1))
    head = draw(st.integers(0, c - 1))
    singles = [k for k in range(c) if k != head][:tail]
    labels = np.array(draw(st.permutations(singles + [head] * (n - tail))))
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
@given(near_tie_cases())
def test_auc_and_ap_match_brute_force(case):
    scores, labels = case
    true = labels.tolist()
    cols = [scores[:, c].tolist() for c in range(scores.shape[1])]
    want_auc = [_brute_auc(col, true, c) for c, col in enumerate(cols)]
    want_ap = [_brute_ap(col, true, c) for c, col in enumerate(cols)]

    report = metrics_report(scores, labels)
    auc, macro_auc = report.auc, report.macro_auc
    ap, macro_ap = report.aupr, report.macro_aupr
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


def _stable_argsort_auc_ap(s, true):
    """Per-class AUC and AP from one stable argsort per column: each tie
    group's midrank spread over its members, and a cumulative count of
    positives down the reversed order, read at each descending group's end."""
    n, n_classes = s.shape
    auc = np.full(n_classes, np.nan)
    ap = np.full(n_classes, np.nan)
    for c in range(n_classes):
        pos = true == c
        n_pos = int(pos.sum())
        if n_pos == 0:
            continue
        order = np.argsort(s[:, c], kind="stable")
        sx = s[order, c]
        edges = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1], [True])))
        ranks = np.empty(n)
        ranks[order] = np.repeat(0.5 * (edges[:-1] + edges[1:] + 1), np.diff(edges))
        n_neg = n - n_pos
        if n_neg:
            auc[c] = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        tp = np.cumsum(pos[order[::-1]], dtype=float)
        idx = n - 1 - edges[-2::-1]
        prec = tp[idx] / (idx + 1.0)
        rec = tp[idx] / n_pos
        ap[c] = float(np.sum(np.diff(np.concatenate(([0.0], rec))) * prec))
    return auc, ap


def _assert_bit_identical(scores, labels):
    got = _ovr_auc_ap(scores, labels)
    want = _stable_argsort_auc_ap(scores, labels)
    for g, w in zip(got, want):
        assert np.array_equal(g, w, equal_nan=True)


@PROPS
@given(cases())
def test_ranking_matches_the_stable_argsort_bit_for_bit(case):
    _assert_bit_identical(*case)


def test_long_tailed_matrix_matches_the_stable_argsort_bit_for_bit():
    rng = np.random.default_rng(20)
    n, n_classes = 8000, 65
    freq = 1.0 / np.arange(1, n_classes + 1) ** 1.5
    labels = rng.choice(n_classes, size=n, p=freq / freq.sum())
    logits = rng.normal(size=(n, n_classes))
    logits[np.arange(n), labels] += 1.5
    scores = np.exp(logits)
    scores /= scores.sum(axis=1, keepdims=True)
    scores[:, ::4] = np.round(scores[:, ::4], 3)  # tie groups in every fourth column
    assert 0 < np.bincount(labels, minlength=n_classes).min() < 5
    _assert_bit_identical(scores, labels)


def test_tied_hand_case():
    # rows 0 and 1, one of each class, tie at 0.75 in column 0; class 2 never occurs
    scores = np.array([[0.75, 0.25, 0.0], [0.75, 0.25, 0.0], [0.5, 0.5, 0.0], [0.25, 0.75, 0.0]])
    labels = np.array([0, 1, 1, 0])
    report = metrics_report(scores, labels)
    auc, macro_auc = report.auc, report.macro_auc
    ap, macro_ap = report.aupr, report.macro_aupr
    assert np.array_equal(auc, [0.375, 0.375, np.nan], equal_nan=True)
    assert np.array_equal(ap, [0.5, 0.5, np.nan], equal_nan=True)
    assert (macro_auc, macro_ap) == (0.375, 0.5)
