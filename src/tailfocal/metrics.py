"""Multiclass evaluation: one-vs-rest P/R/F1, ranking AUC, and AUPR.

Macro averages are unweighted means over classes, with deliberate
exclusions. Classes absent from the ground truth carry no evaluable signal,
so they stay out of every macro mean; a class that is present but never
predicted stays *in* (contributing zeros), which is exactly the penalty a
long-tail evaluation needs. AUC additionally requires at least one positive
and one negative, AUPR at least one positive; per-class slots that cannot
be computed hold NaN.

Zero-denominator conventions: precision and recall fall back to 0, as does
F1 when both components are 0. AUC_c is the Mann-Whitney statistic of
class c's score column, the probability that a random positive outscores
a random negative, ties counting 0.5; AUPR is the step-summed average
precision sum_k (R_k - R_{k-1}) * P_k over the column's distinct values,
descending. `metrics_report` gives both, per class and as macro means.
Both are read from a value sort of each class's score column and of its
positives' scores: midranks from where a positive's tie group starts and
ends in the column, and each threshold's true positives from where it
falls among the positives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imbalance import _count, _labels, _prob_rows

__all__ = [
    "ConfusionMetrics",
    "MetricsReport",
    "confusion_metrics",
    "metrics_report",
    "format_summary",
    "format_per_class",
]


@dataclass(frozen=True)
class ConfusionMetrics:
    support: np.ndarray
    predicted: np.ndarray
    tp: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


@dataclass(frozen=True)
class MetricsReport(ConfusionMetrics):
    """Full evaluation of probability scores against integer labels: the
    confusion metrics of the row argmax plus the ranking metrics."""

    n_samples: int
    n_classes: int
    macro_auc: float
    macro_aupr: float
    auc: np.ndarray
    aupr: np.ndarray


# the headline metrics, in the order of the summary and of every metrics table
_HEADLINE = ("accuracy", "macro_precision", "macro_recall", "macro_f1", "macro_auc", "macro_aupr")
# the per-class table's columns after the class id
_PER_CLASS = ("support", "precision", "recall", "f1", "auc", "aupr")


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(num.shape, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


def confusion_metrics(pred, true, n_classes: int) -> ConfusionMetrics:
    """Per-class one-vs-rest precision/recall/F1 plus plain top-1 accuracy.

    Macro means run over classes with support > 0 only.
    """
    _count(n_classes, "n_classes", 1)
    true = _labels(true, "true labels", n_classes)
    pred = _labels(pred, "predictions", n_classes, size=true.size)

    support = np.bincount(true, minlength=n_classes)
    predicted = np.bincount(pred, minlength=n_classes)
    tp = np.bincount(true[pred == true], minlength=n_classes)

    precision = _safe_div(tp.astype(float), predicted)
    recall = _safe_div(tp.astype(float), support)
    f1 = _safe_div(2.0 * precision * recall, precision + recall)

    present = support > 0
    return ConfusionMetrics(
        support=support,
        predicted=predicted,
        tp=tp,
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=float(np.mean(pred == true)),
        macro_precision=float(precision[present].mean()),
        macro_recall=float(recall[present].mean()),
        macro_f1=float(f1[present].mean()),
    )


def _check_inputs(scores, true) -> tuple[np.ndarray, np.ndarray]:
    s = _prob_rows(scores, "scores")
    return s, _labels(true, "true labels", s.shape[1], size=s.shape[0])


def _macro(per_class: np.ndarray) -> float:
    valid = ~np.isnan(per_class)
    return float(per_class[valid].mean()) if valid.any() else float("nan")


def _ovr_auc_ap(s: np.ndarray, true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class AUC and AP of validated inputs, NaN where undefined.

    Column by column, for classes with positives: a value v's tie group
    spans the 1-based ranks left + 1 .. right of the sorted column, with
    left and right the counts of scores below v and at or below it, so a
    positive's midrank is 0.5 * (left + right + 1). The half-integer rank
    sum and the true-positive counts are exact, so the result has the bits
    a stable argsort of each column gives.
    """
    n, n_classes = s.shape
    auc = np.full(n_classes, np.nan)
    ap = np.full(n_classes, np.nan)
    counts = np.bincount(true, minlength=n_classes)
    rows_of = np.split(np.argsort(true), np.cumsum(counts)[:-1])
    for c in np.flatnonzero(counts):
        n_pos = int(counts[c])
        n_neg = n - n_pos
        col = np.sort(s[:, c])
        pos = np.sort(s[rows_of[c], c])
        if n_neg:
            left, right = np.searchsorted(col, pos, "left"), np.searchsorted(col, pos, "right")
            rank_sum = (0.5 * (left + right + 1)).sum()
            auc[c] = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        # the distinct values, descending, and the samples scored at or above each
        starts = np.flatnonzero(np.concatenate(([True], col[1:] != col[:-1])))[::-1]
        tp = (n_pos - np.searchsorted(pos, col[starts], "left")).astype(float)
        prec = tp / (n - starts)
        rec = tp / n_pos
        ap[c] = float(np.sum(np.diff(np.concatenate(([0.0], rec))) * prec))
    return auc, ap


def metrics_report(scores, true) -> MetricsReport:
    """Evaluate probability scores end to end; predictions are row argmax (first max wins)."""
    s, true = _check_inputs(scores, true)
    conf = confusion_metrics(np.argmax(s, axis=1), true, s.shape[1])
    auc, aupr = _ovr_auc_ap(s, true)
    return MetricsReport(
        **vars(conf),
        n_samples=int(true.size),
        n_classes=int(s.shape[1]),
        macro_auc=_macro(auc),
        macro_aupr=_macro(aupr),
        auc=auc,
        aupr=aupr,
    )


def _fmt(v) -> str:
    """One report cell: floats as %.12g, None empty, text and integers as they are."""
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return "" if v is None else str(v)


def _csv(rows) -> str:
    """Comma-separated lines, one per row, each cell printed by _fmt."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def format_summary(report: MetricsReport) -> str:
    """Flat key-value text block; deterministic, no timestamps here."""
    names = ("n_samples", "n_classes", *_HEADLINE)
    return "".join(f"{name} = {_fmt(getattr(report, name))}\n" for name in names)


def format_per_class(report: MetricsReport) -> str:
    """Delimited per-class table, one row per class id."""
    columns = [getattr(report, name) for name in _PER_CLASS]
    return _csv([("class", *_PER_CLASS), *zip(range(report.n_classes), *columns)])
