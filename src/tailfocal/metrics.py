"""Multiclass evaluation: one-vs-rest P/R/F1, ranking AUC, and AUPR.

Macro averages are unweighted means over classes, with deliberate
exclusions. Classes absent from the ground truth carry no evaluable signal,
so they stay out of every macro mean; a class that is present but never
predicted stays *in* (contributing zeros), which is exactly the penalty a
long-tail evaluation needs. AUC additionally requires at least one positive
and one negative, AUPR at least one positive; per-class slots that cannot
be computed hold NaN.

Zero-denominator conventions: precision and recall fall back to 0, as does
F1 when both components are 0. AUC uses the Mann-Whitney rank statistic
with midranks for ties; AUPR is the step-summed average precision
sum_k (R_k - R_{k-1}) * P_k over descending score thresholds. Both come
from one stable sort per class: the midranks are read off its tie groups,
and the descending thresholds are the same groups walked in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "ConfusionMetrics",
    "MetricsReport",
    "confusion_metrics",
    "roc_auc_ovr",
    "pr_auc_ovr",
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
class MetricsReport:
    """Full evaluation of probability scores against integer labels."""

    n_samples: int
    n_classes: int
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_auc: float
    macro_aupr: float
    support: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    auc: np.ndarray
    aupr: np.ndarray


def _check_labels(labels, n_classes: int, name: str) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a non-empty 1-D sequence")
    arr = arr.astype(np.int64)
    if np.any(arr < 0) or np.any(arr >= n_classes):
        raise ConfigError(f"{name} contain values outside [0, {n_classes})")
    return arr


def _check_scores(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    if s.ndim != 2 or s.shape[0] == 0 or s.shape[1] == 0:
        raise ConfigError("scores must be a non-empty (samples, classes) array")
    if not np.all(np.isfinite(s)):
        raise ConfigError("scores contain non-finite values")
    if np.any(s < -1e-9) or np.any(np.abs(s.sum(axis=1) - 1.0) > 1e-6):
        raise ConfigError("score rows must be probability distributions")
    return s


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(num.shape, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


def confusion_metrics(pred, true, n_classes: int) -> ConfusionMetrics:
    """Per-class one-vs-rest precision/recall/F1 plus plain top-1 accuracy.

    Macro means run over classes with support > 0 only.
    """
    if n_classes < 1:
        raise ConfigError(f"n_classes must be >= 1, got {n_classes}")
    true = _check_labels(true, n_classes, "true labels")
    pred = _check_labels(pred, n_classes, "predictions")
    if pred.shape != true.shape:
        raise ConfigError("pred and true must have the same length")

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


def _midranks(x: np.ndarray):
    """1-based ranks with ties sharing their average rank.

    Also returns the stable ascending order and the tie-group edges in it:
    group k is order[edges[k]:edges[k + 1]].
    """
    order = np.argsort(x, kind="stable")
    sx = x[order]
    edges = np.flatnonzero(np.concatenate(([True], sx[1:] != sx[:-1], [True])))
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (edges[:-1] + edges[1:] + 1), np.diff(edges))
    return ranks, order, edges


def _check_inputs(scores, true) -> tuple[np.ndarray, np.ndarray]:
    s = _check_scores(scores)
    true = _check_labels(true, s.shape[1], "true labels")
    if true.size != s.shape[0]:
        raise ConfigError("scores and labels disagree on sample count")
    return s, true


def _macro(per_class: np.ndarray) -> float:
    valid = ~np.isnan(per_class)
    return float(per_class[valid].mean()) if valid.any() else float("nan")


def _ovr_auc_ap(s: np.ndarray, true: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class AUC and AP of validated inputs, from one sort per column."""
    n, n_classes = s.shape
    auc = np.full(n_classes, np.nan)
    ap = np.full(n_classes, np.nan)
    for c in range(n_classes):
        pos = true == c
        n_pos = int(pos.sum())
        if n_pos == 0:
            continue
        ranks, order, edges = _midranks(s[:, c])
        n_neg = n - n_pos
        if n_neg:
            auc[c] = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        # descending tie groups end where the ascending ones start
        tp = np.cumsum(pos[order[::-1]], dtype=float)
        idx = n - 1 - edges[-2::-1]
        prec = tp[idx] / (idx + 1.0)
        rec = tp[idx] / n_pos
        ap[c] = float(np.sum(np.diff(np.concatenate(([0.0], rec))) * prec))
    return auc, ap


def roc_auc_ovr(scores, true) -> tuple[np.ndarray, float]:
    """One-vs-rest AUC per class (NaN where undefined) and the macro mean.

    AUC_c is the Mann-Whitney statistic of column c's scores: the
    probability a random positive outranks a random negative, ties at 0.5.
    Classes lacking positives or negatives are NaN and skipped in the macro.
    """
    auc, _ = _ovr_auc_ap(*_check_inputs(scores, true))
    return auc, _macro(auc)


def pr_auc_ovr(scores, true) -> tuple[np.ndarray, float]:
    """One-vs-rest average precision per class (NaN where undefined), macro mean.

    Thresholds sweep the distinct score values of column c in descending
    order; AP accumulates precision at each recall step.
    """
    _, ap = _ovr_auc_ap(*_check_inputs(scores, true))
    return ap, _macro(ap)


def metrics_report(scores, true) -> MetricsReport:
    """Evaluate probability scores end to end; predictions are row argmax (first max wins)."""
    s, true = _check_inputs(scores, true)
    conf = confusion_metrics(np.argmax(s, axis=1), true, s.shape[1])
    auc, aupr = _ovr_auc_ap(s, true)
    return MetricsReport(
        n_samples=int(true.size),
        n_classes=int(s.shape[1]),
        accuracy=conf.accuracy,
        macro_precision=conf.macro_precision,
        macro_recall=conf.macro_recall,
        macro_f1=conf.macro_f1,
        macro_auc=_macro(auc),
        macro_aupr=_macro(aupr),
        support=conf.support,
        precision=conf.precision,
        recall=conf.recall,
        f1=conf.f1,
        auc=auc,
        aupr=aupr,
    )


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def format_summary(report: MetricsReport) -> str:
    """Flat key-value text block; deterministic, no timestamps here."""
    lines = [
        f"n_samples = {report.n_samples}",
        f"n_classes = {report.n_classes}",
        f"accuracy = {_fmt(report.accuracy)}",
        f"macro_precision = {_fmt(report.macro_precision)}",
        f"macro_recall = {_fmt(report.macro_recall)}",
        f"macro_f1 = {_fmt(report.macro_f1)}",
        f"macro_auc = {_fmt(report.macro_auc)}",
        f"macro_aupr = {_fmt(report.macro_aupr)}",
    ]
    return "\n".join(lines) + "\n"


def format_per_class(report: MetricsReport) -> str:
    """Delimited per-class table, one row per class id."""
    lines = ["class,support,precision,recall,f1,auc,aupr"]
    for c in range(report.n_classes):
        lines.append(
            f"{c},{int(report.support[c])},{_fmt(report.precision[c])},"
            f"{_fmt(report.recall[c])},{_fmt(report.f1[c])},"
            f"{_fmt(report.auc[c])},{_fmt(report.aupr[c])}"
        )
    return "\n".join(lines) + "\n"
