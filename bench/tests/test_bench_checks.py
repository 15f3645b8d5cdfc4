"""The benchmark's output checks, against hand-computed cases.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import checks


def test_brute_force_auc_counts_pairs_and_half_ties():
    scores = np.array([0.9, 0.4, 0.4, 0.1, 0.8])
    positive = np.array([True, True, False, False, False])
    # pairs (pos, neg): 0.9 beats all 3; 0.4 ties 0.4, beats 0.1, loses to 0.8
    assert checks.brute_force_auc(scores, positive) == pytest.approx((3 + 1.5) / 6)


def _midrank_auc(scores, positive):
    # the rank-sum formula, computed independently of the pairwise count
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    for v in np.unique(scores):
        tie = scores == v
        ranks[tie] = ranks[tie].mean()
    n_pos = positive.sum()
    n_neg = positive.size - n_pos
    return (ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)


def test_brute_force_auc_matches_rank_sum_on_tied_scores():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 6, size=300) / 5.0
    positive = rng.random(300) < 0.1
    assert checks.brute_force_auc(scores, positive) == pytest.approx(_midrank_auc(scores, positive), abs=1e-12)


def _scores(n=400, k=6, seed=1):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(k), size=n)
    labels = rng.choice(k, size=n, p=[0.5, 0.3, 0.1, 0.05, 0.03, 0.02])
    return probs, labels


def _step_ap(scores, positive):
    # precision summed at each recall step, walking tie groups from the top
    order = np.argsort(-scores, kind="stable")
    hits = np.cumsum(positive[order])
    ends = np.flatnonzero(np.append(scores[order][1:] != scores[order][:-1], True))
    recall = hits[ends] / positive.sum()
    return np.sum(np.diff(np.append(0.0, recall)) * hits[ends] / (ends + 1.0))


def test_brute_force_ap_by_hand_and_on_tied_scores():
    scores = np.array([0.9, 0.8, 0.4, 0.4, 0.1])
    positive = np.array([True, False, True, False, True])
    # thresholds 0.9: 1/1; 0.4: 2/4; 0.1: 3/5, each a third of the recall
    assert checks.brute_force_ap(scores, positive) == pytest.approx((1.0 + 0.5 + 0.6) / 3)
    rng = np.random.default_rng(3)
    scores = rng.integers(0, 8, size=300) / 7.0
    positive = rng.random(300) < 0.1
    assert checks.brute_force_ap(scores, positive) == pytest.approx(_step_ap(scores, positive), abs=1e-12)


def test_smallest_classes_pass_correct_values_and_flag_a_wrong_one():
    probs, labels = _scores()
    auc = np.array([_midrank_auc(probs[:, c], labels == c) for c in range(probs.shape[1])])
    aupr = np.array([_step_ap(probs[:, c], labels == c) for c in range(probs.shape[1])])
    assert checks.check_smallest_classes(probs, labels, auc, aupr, k=5) == []
    smallest = np.argmin(np.bincount(labels, minlength=6))
    for i, name in enumerate(("auc", "aupr")):
        wrong = [auc.copy(), aupr.copy()]
        wrong[i][smallest] += 1e-6
        problems = checks.check_smallest_classes(probs, labels, *wrong, k=5)
        assert len(problems) == 1 and f"{name}[{smallest}]" in problems[0]


def _confusion_report(probs, labels, **overrides):
    k = probs.shape[1]
    pred = probs.argmax(axis=1)
    support = np.array([(labels == c).sum() for c in range(k)])
    hits = np.array([((labels == c) & (pred == c)).sum() for c in range(k)])
    predicted = np.array([(pred == c).sum() for c in range(k)])
    precision = np.array([h / p if p else 0.0 for h, p in zip(hits, predicted)])
    recall = np.array([h / s if s else 0.0 for h, s in zip(hits, support)])
    f1 = np.array([2.0 * p * r / (p + r) if p + r else 0.0 for p, r in zip(precision, recall)])
    present = support > 0
    auc = np.linspace(0.5, 0.9, k)
    base = dict(
        support=support, precision=precision, recall=recall, f1=f1,
        accuracy=float(np.mean(pred == labels)), macro_precision=precision[present].mean(),
        macro_recall=recall[present].mean(), macro_f1=f1[present].mean(),
        auc=auc, aupr=auc / 2, macro_auc=auc.mean(), macro_aupr=(auc / 2).mean(),
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def test_confusion_recount_passes_the_true_report_and_flags_wrong_values():
    probs, labels = _scores()
    labels[labels == 5] = 4  # a class without support takes no part in the macro means
    report = _confusion_report(probs, labels)
    assert checks.check_confusion(probs, labels, report) == []
    for name, value in (("macro_f1", report.macro_f1 * 1.01), ("accuracy", report.accuracy + 1e-9),
                        ("recall", report.recall[::-1]), ("macro_auc", report.macro_auc + 1e-9)):
        problems = checks.check_confusion(probs, labels, _confusion_report(probs, labels, **{name: value}))
        assert len(problems) == 1 and problems[0].startswith(name)


def _report(**overrides):
    base = dict(
        accuracy=0.5, macro_precision=0.4, macro_recall=0.3, macro_f1=0.2, macro_auc=0.6, macro_aupr=0.1,
        support=np.array([3, 0]), precision=np.array([0.5, 0.0]), recall=np.array([0.5, 0.0]),
        f1=np.array([0.5, 0.0]), auc=np.array([0.7, np.nan]), aupr=np.array([0.4, np.nan]),
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def test_check_report_allows_nan_only_for_unsupported_classes():
    assert checks.check_report(_report()) == []
    assert checks.check_report(_report(macro_f1=1.2))
    assert checks.check_report(_report(macro_auc=float("nan")))
    assert checks.check_report(_report(auc=np.array([np.nan, np.nan])))


def test_round_trip_tolerates_nine_digit_rounding_only():
    rng = np.random.default_rng(2)
    x = {"g": rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-5, 5, size=(50, 4))}
    labels = np.arange(50)
    y = {"g": np.array([[float(f"{v:.9g}") for v in row] for row in x["g"]])}
    assert checks.check_round_trip((x, x, labels), (y, y, labels)) == []
    z = {"g": np.array([[float(f"{v:.8g}") for v in row] for row in x["g"]])}
    assert checks.check_round_trip((x, x, labels), (z, z, labels))
    assert checks.check_round_trip((x, x, labels), (y, y, labels[::-1]))


def test_fingerprint_sees_single_bit_changes():
    a = np.linspace(0.0, 1.0, 10)
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert checks.fingerprint(a, [("tfl", [0.5])]) == checks.fingerprint(a.copy(), [("tfl", [0.5])])
    assert checks.fingerprint(a) != checks.fingerprint(b)
