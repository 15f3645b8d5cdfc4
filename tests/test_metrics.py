"""Evaluation metrics against brute-force reimplementations."""

import math
from dataclasses import fields

import numpy as np
import pytest

from tailfocal import (
    ConfigError,
    ConfusionMetrics,
    MetricsReport,
    confusion_metrics,
    format_per_class,
    format_summary,
    metrics_report,
)


def _brute_confusion(pred, true, n_classes):
    precision, recall, f1, support = [], [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(pred, true) if p == c and t == c)
        fp = sum(1 for p, t in zip(pred, true) if p == c and t != c)
        fn = sum(1 for p, t in zip(pred, true) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(f)
        support.append(tp + fn)
    present = [c for c in range(n_classes) if support[c] > 0]
    macro = lambda xs: sum(xs[c] for c in present) / len(present)
    acc = sum(1 for p, t in zip(pred, true) if p == t) / len(true)
    return precision, recall, f1, macro(precision), macro(recall), macro(f1), acc


def _brute_auc(col, true, c):
    pos = [s for s, t in zip(col, true) if t == c]
    neg = [s for s, t in zip(col, true) if t != c]
    if not pos or not neg:
        return float("nan")
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def _brute_ap(col, true, c):
    n_pos = sum(1 for t in true if t == c)
    if n_pos == 0:
        return float("nan")
    ap, prev_rec = 0.0, 0.0
    for thr in sorted(set(col), reverse=True):
        tp = sum(1 for s, t in zip(col, true) if s >= thr and t == c)
        flagged = sum(1 for s in col if s >= thr)
        prec = tp / flagged
        rec = tp / n_pos
        ap += (rec - prev_rec) * prec
        prev_rec = rec
    return ap


def _random_instance(rng, max_n=10, max_c=4):
    n = int(rng.integers(1, max_n + 1))
    c = int(rng.integers(2, max_c + 1))
    scores = rng.uniform(size=(n, c))
    # quantize so score ties actually occur
    scores = np.round(scores * 4) / 4.0 + 0.125
    scores /= scores.sum(axis=1, keepdims=True)
    true = rng.integers(0, c, size=n)
    return scores, true


class TestConfusion:
    def test_perfect_predictions(self):
        m = confusion_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert m.accuracy == 1.0
        assert m.macro_precision == 1.0
        assert m.macro_recall == 1.0
        assert m.macro_f1 == 1.0

    def test_never_predicted_class_scores_zero(self):
        m = confusion_metrics([0, 0, 0], [0, 0, 1], 2)
        assert m.precision[1] == 0.0
        assert m.recall[1] == 0.0
        assert m.f1[1] == 0.0
        assert m.macro_f1 == pytest.approx(0.4)  # mean of 0.8 and 0

    def test_absent_class_excluded_from_macro(self):
        m = confusion_metrics([0, 1, 0, 1], [0, 1, 1, 0], 3)
        assert m.support[2] == 0
        assert m.macro_precision == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            c = int(rng.integers(2, 5))
            true = rng.integers(0, c, size=n)
            pred = rng.integers(0, c, size=n)
            m = confusion_metrics(pred, true, c)
            bp, br, bf, mp, mr, mf, acc = _brute_confusion(list(pred), list(true), c)
            np.testing.assert_allclose(m.precision, bp, atol=1e-15)
            np.testing.assert_allclose(m.recall, br, atol=1e-15)
            np.testing.assert_allclose(m.f1, bf, atol=1e-15)
            assert m.macro_precision == pytest.approx(mp, abs=1e-15)
            assert m.macro_recall == pytest.approx(mr, abs=1e-15)
            assert m.macro_f1 == pytest.approx(mf, abs=1e-15)
            assert m.accuracy == pytest.approx(acc, abs=1e-15)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ConfigError):
            confusion_metrics([0, 1], [0], 2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ConfigError):
            confusion_metrics([0, 2], [0, 1], 2)


class TestRankingMetrics:
    def test_perfect_ranking_auc_is_one(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        true = np.array([0, 0, 1, 1])
        report = metrics_report(scores, true)
        per_class, macro = report.auc, report.macro_auc
        np.testing.assert_allclose(per_class, [1.0, 1.0])
        assert macro == 1.0

    def test_constant_scores_auc_is_half(self):
        scores = np.full((6, 2), 0.5)
        true = np.array([0, 1, 0, 1, 0, 1])
        report = metrics_report(scores, true)
        per_class, macro = report.auc, report.macro_auc
        np.testing.assert_allclose(per_class, [0.5, 0.5])
        assert macro == 0.5

    def test_single_class_truth_gives_nan_auc(self):
        scores = np.array([[0.7, 0.3], [0.6, 0.4]])
        report = metrics_report(scores, np.array([0, 0]))
        per_class, macro = report.auc, report.macro_auc
        assert math.isnan(per_class[0])
        assert math.isnan(per_class[1])
        assert math.isnan(macro)

    def test_aupr_with_no_positives_is_nan(self):
        scores = np.array([[0.7, 0.3], [0.6, 0.4]])
        report = metrics_report(scores, np.array([0, 0]))
        per_class, macro = report.aupr, report.macro_aupr
        assert math.isnan(per_class[1])
        assert per_class[0] == 1.0
        assert macro == 1.0

    def test_random_scores_match_brute_force(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            scores, true = _random_instance(rng)
            report = metrics_report(scores, true)
            auc, ap = report.auc, report.aupr
            for c in range(scores.shape[1]):
                col = list(scores[:, c])
                b_auc = _brute_auc(col, list(true), c)
                b_ap = _brute_ap(col, list(true), c)
                if math.isnan(b_auc):
                    assert math.isnan(auc[c])
                else:
                    assert auc[c] == pytest.approx(b_auc, abs=1e-12)
                if math.isnan(b_ap):
                    assert math.isnan(ap[c])
                else:
                    assert ap[c] == pytest.approx(b_ap, abs=1e-12)


class TestReport:
    def test_argmax_prefers_first_of_tied_scores(self):
        scores = np.array([[0.5, 0.5]])
        report = metrics_report(scores, np.array([0]))
        assert report.accuracy == 1.0
        report = metrics_report(scores, np.array([1]))
        assert report.accuracy == 0.0

    def test_report_consistent_with_parts(self):
        rng = np.random.default_rng(31)
        scores, true = _random_instance(rng, max_n=10, max_c=4)
        report = metrics_report(scores, true)
        pred = np.argmax(scores, axis=1)
        conf = confusion_metrics(pred, true, scores.shape[1])
        assert report.accuracy == conf.accuracy
        assert report.macro_f1 == conf.macro_f1
        assert report.n_samples == true.size
        assert report.n_classes == scores.shape[1]

    def test_report_extends_the_confusion_metrics(self):
        own = set(MetricsReport.__annotations__)
        assert issubclass(MetricsReport, ConfusionMetrics)
        assert own.isdisjoint(f.name for f in fields(ConfusionMetrics))
        rng = np.random.default_rng(32)
        scores, true = _random_instance(rng, max_n=12, max_c=5)
        report = metrics_report(scores, true)
        conf = confusion_metrics(np.argmax(scores, axis=1), true, scores.shape[1])
        for f in fields(ConfusionMetrics):
            assert np.array_equal(getattr(report, f.name), getattr(conf, f.name)), f.name

    @pytest.mark.parametrize(
        "scores", [np.array([[1.2, -0.2]]), [["0.5", "x"]]], ids=["negative", "text"]
    )
    def test_rejects_negative_or_text_scores(self, scores):
        with pytest.raises(ConfigError, match="scores"):
            metrics_report(scores, np.array([0]))

    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(ConfigError):
            metrics_report(np.array([[0.4, 0.4]]), np.array([0]))


class TestFormatting:
    def _report(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        return metrics_report(scores, np.array([0, 1, 1]))

    def test_summary_layout(self):
        text = format_summary(self._report())
        lines = text.splitlines()
        assert lines[0] == "n_samples = 3"
        assert lines[1] == "n_classes = 2"
        assert any(line.startswith("accuracy = ") for line in lines)
        assert any(line.startswith("macro_aupr = ") for line in lines)
        assert text == format_summary(self._report())

    def test_per_class_layout(self):
        text = format_per_class(self._report())
        lines = text.splitlines()
        assert lines[0] == "class,support,precision,recall,f1,auc,aupr"
        assert len(lines) == 3
        assert lines[1].startswith("0,1,")
        assert lines[2].startswith("1,2,")
