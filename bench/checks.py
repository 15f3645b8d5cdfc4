"""Output checks for the benchmark. Each returns a list of problems; empty means
the output passed. Nothing here calls tailfocal, so a check never adds spans
and never shares a defect with the code it checks."""

from __future__ import annotations

import hashlib

import numpy as np

MACRO_FIELDS = ("accuracy", "macro_precision", "macro_recall", "macro_f1", "macro_auc", "macro_aupr")
PER_CLASS_FIELDS = ("precision", "recall", "f1", "auc", "aupr")


def fingerprint(*parts) -> str:
    """Digest of arrays and plain values; equal digests mean bit-identical outputs."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str((part.dtype, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def unit_interval(name: str, values) -> list[str]:
    arr = np.asarray(values, dtype=float)
    bad = ~np.isfinite(arr) | (arr < 0.0) | (arr > 1.0)
    if bad.any():
        return [f"{name}: {int(bad.sum())} value(s) not finite or outside [0, 1]"]
    return []


def check_report(report, where: str = "report") -> list[str]:
    """Macro metrics finite and in [0, 1]; per-class metrics too, except the
    NaN that marks a class with no test support."""
    problems = []
    for f in MACRO_FIELDS:
        problems += unit_interval(f"{where}.{f}", getattr(report, f))
    present = np.asarray(report.support) > 0
    for f in PER_CLASS_FIELDS:
        problems += unit_interval(f"{where}.{f}[supported]", np.asarray(getattr(report, f))[present])
    return problems


def check_confusion(probs, labels, report) -> list[str]:
    """Recompute accuracy and per-class and macro precision, recall and F1
    from the row argmax of `probs` (first maximum wins), and require the
    report to match them exactly. Macro means run over supported classes."""
    labels = np.asarray(labels)
    k = probs.shape[1]
    pred = np.argmax(probs, axis=1)
    support = np.bincount(labels, minlength=k)
    predicted = np.bincount(pred, minlength=k)
    tp = np.bincount(labels[pred == labels], minlength=k)
    precision = np.divide(tp, predicted, out=np.zeros(k), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(k), where=support > 0)
    f1 = np.divide(2.0 * precision * recall, precision + recall, out=np.zeros(k), where=precision + recall > 0)
    present = support > 0
    want = {
        "support": support,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "accuracy": tp.sum() / labels.size,
        "macro_precision": precision[present].mean(),
        "macro_recall": recall[present].mean(),
        "macro_f1": f1[present].mean(),
    }
    problems = []
    for name, value in want.items():
        got = np.asarray(getattr(report, name))
        if got.shape != np.shape(value) or not np.array_equal(got, value):
            problems.append(f"{name} differs from the recount of the argmax predictions")
    for name, per_class in (("macro_auc", report.auc), ("macro_aupr", report.aupr)):
        per_class = np.asarray(per_class)
        mean = per_class[~np.isnan(per_class)].mean()
        if not abs(getattr(report, name) - mean) <= 1e-12:
            problems.append(f"{name} = {getattr(report, name)!r} is not the mean of its defined classes, {mean!r}")
    return problems


def brute_force_auc(scores, positive) -> float:
    """Mann-Whitney AUC by counting every (positive, negative) pair: a pair
    scores 1 when the positive ranks higher, 0.5 on a tie."""
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    pos, neg = scores[positive], scores[~positive]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)


def brute_force_ap(scores, positive) -> float:
    """Average precision from its definition: for each distinct score v held
    by a positive, the share of positives scoring exactly v times the
    precision of the rows scoring at least v."""
    scores = np.asarray(scores, dtype=float)
    positive = np.asarray(positive, dtype=bool)
    pos = scores[positive]
    total = 0.0
    for v in np.unique(pos):
        total += (pos == v).sum() / pos.size * ((pos >= v).sum() / (scores >= v).sum())
    return total


def check_smallest_classes(probs, labels, auc, aupr, k: int = 5, tol: float = 1e-12) -> list[str]:
    """Compare the reported AUC and average precision of the k smallest-support
    classes (those with at least one positive and one negative) with the
    brute-force values."""
    labels = np.asarray(labels)
    support = np.bincount(labels, minlength=probs.shape[1])
    candidates = np.flatnonzero((support > 0) & (support < labels.size))
    chosen = candidates[np.argsort(support[candidates], kind="stable")[:k]]
    problems = []
    for c in chosen:
        for name, got, brute in (("auc", auc, brute_force_auc), ("aupr", aupr, brute_force_ap)):
            want = brute(probs[:, c], labels == c)
            if not abs(got[c] - want) <= tol:
                problems.append(f"{name}[{c}] = {got[c]!r}, brute force gives {want!r}")
    return problems


def check_round_trip(written, read, rtol: float = 5e-9) -> list[str]:
    """Arrays read back from a dataset file against the generated ones: labels
    equal, features equal to the nine significant digits the file stores."""
    (wa, wb, wl), (ra, rb, rl) = written, read
    if not np.array_equal(wl, rl):
        return ["labels read back differ from the labels written"]
    problems = []
    for side, w, r in (("a", wa, ra), ("b", wb, rb)):
        for m in w:
            x, y = w[m], r[m]
            # one rounding to nine digits, then one to the nearest double
            if x.shape != y.shape or not np.all(np.abs(x - y) <= rtol * np.abs(x) + 2.3e-16 * np.abs(y)):
                problems.append(f"drug {side} modality {m} differs beyond 9 significant digits")
    return problems
