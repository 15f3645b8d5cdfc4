"""Class-frequency bookkeeping for long-tailed label distributions.

Everything downstream (re-weighted losses, the tail-aware focal loss,
synthetic data generation) needs the same handful of facts about the label
distribution: per-class counts, the imbalance ratio, and which classes sit
in the distribution's tail. This module computes them once, deterministically.

A class is a *tail* class when its normalized cumulative position exceeds a
split threshold ``t_s``: sort classes by count descending, accumulate counts,
and divide by the total. Head classes absorb the bulk of the mass early, so
they land at small positions; rare classes land near 1.

The module also holds the rules for each kind of outside input, which every
entry point calls where the input enters rather than keeping its own copy:
`_count` for a count setting such as epochs or a seed (a whole number in
a range), `_real` for a real-valued one such as gamma (a finite number in an
interval), `_path` for a file path (a str or an os.PathLike), `_labels`
for class labels (and counts), `_widths` for the four modality or
classifier widths, `_finite` for non-empty finite vectors or (rows,
classes) arrays such as logits, `_prob_rows` for rows of class
probabilities, and `_feature_pair` for a drug pair's per-modality feature
blocks, which both `Dataset` and the fusion model's entry points apply.
Each raises ConfigError naming the field, so bad input reaches no training
step.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ClassStats", "TailPartition", "class_stats_from_counts", "tail_partition"]


def _count(value, what: str, least: int, most: int = 2**64 - 1) -> None:
    """A ConfigError naming `what` unless `value` is a whole number from
    `least` to `most`, by default the largest one numpy holds. A whole
    number is of integer type, Python's or numpy's, as for `_widths`: a
    bool, a float such as 8.0, text or None is refused."""
    whole = not np.ndim(value) and (type(value) is int or np.asarray(value).dtype.kind in "iu")
    if not whole or value < least:
        raise ConfigError(f"{what} must be >= {least}, a whole number, got {value!r}")
    if value > most:
        raise ConfigError(f"{what} must be at most {most}, got {value!r}")


def _real(value, what: str, lo: float = -np.inf, hi: float = np.inf, ends: str = "[]") -> None:
    """A ConfigError naming `what` unless `value` is a finite real number
    (not a bool or text) in the interval from `lo` to `hi`, each end closed
    ("[" or "]") or open ("(" or ")") as `ends` says. An infinite end admits
    every finite value."""
    if np.ndim(value) or np.asarray(value).dtype.kind not in "iuf" or not np.isfinite(value):
        raise ConfigError(f"{what} must be finite and real, got {value!r}")
    if not lo <= value <= hi or (value, ends[0]) == (lo, "(") or (value, ends[1]) == (hi, ")"):
        if hi < np.inf:
            span = f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
        else:
            span = (">= " if ends[0] == "[" else "> ") + f"{lo:g}"
        raise ConfigError(f"{what} must be {span}, got {value}")


def _path(value, what: str):
    """`value`, once it is a str or an os.PathLike; a ConfigError naming
    `what` otherwise, so a number is refused rather than opened as a file
    descriptor that the caller owns."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{what} must be a str or an os.PathLike, got {value!r}")
    return value


def _integers(values, what: str) -> np.ndarray:
    """`values` as a new int64 array; a ConfigError naming `what` if any
    entry is not a finite whole number, so 1.7 is refused rather than cut to
    1, and text or None is refused rather than left to fail in numpy."""
    arr = np.asarray(values)
    whole = arr.dtype.kind in "bui" or (
        arr.dtype.kind == "f" and np.all(np.isfinite(arr) & (arr == np.floor(arr)))
    )
    if not whole:
        raise ConfigError(f"{what} must be integers")
    return arr.astype(np.int64)


def _labels(values, what: str, n_classes: int | None = None, size: int | None = None) -> np.ndarray:
    """`values` as a non-empty 1-D int64 array of whole numbers; a
    ConfigError naming `what` otherwise, or when `size` is given and the
    length differs, or `n_classes` is given and a value is outside
    [0, n_classes)."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{what} must be a non-empty 1-D sequence")
    arr = _integers(arr, what)
    if size is not None and arr.size != size:
        raise ConfigError(f"{what} has {arr.size} entries for {size} rows")
    if n_classes is not None and (np.any(arr < 0) or np.any(arr >= n_classes)):
        raise ConfigError(f"{what} out of range: values must lie in [0, {n_classes})")
    return arr


def _widths(dims, what: str) -> tuple[int, int, int, int]:
    """`dims` as a tuple of four ints; a ConfigError naming `what` unless
    they are four positive whole numbers, by `_count`'s notion of one."""
    arr = np.asarray(dims)
    if arr.shape != (4,) or arr.dtype.kind not in "iu" or np.any(arr < 1):
        raise ConfigError(f"{what} must be four positive widths")
    return tuple(arr.tolist())


def _finite(x, ndim: int, what: str) -> np.ndarray:
    """`x` as a non-empty float array of `ndim` (1 or 2) dimensions, all
    finite; a ConfigError naming `what` otherwise, so text is refused rather
    than parsed or left to fail in numpy."""
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise ConfigError(f"{what} must hold real numbers")
    x = x.astype(float, copy=False)
    if x.ndim != ndim or x.size == 0:
        shape = "1-D vector" if ndim == 1 else "(rows, classes) array"
        raise ConfigError(f"{what} must be a non-empty {shape}")
    if not np.all(np.isfinite(x)):
        raise ConfigError(f"non-finite values in {what}")
    return x


def _prob_rows(values, what: str) -> np.ndarray:
    """`values` as a non-empty 2-D float array whose rows are probability
    distributions: finite, no entry below -1e-9, each sum within 1e-6 of 1;
    a ConfigError naming `what` otherwise."""
    s = _finite(values, 2, what)
    if np.any(s < -1e-9) or np.any(np.abs(s.sum(axis=1) - 1.0) > 1e-6):
        raise ConfigError(f"{what} rows must be probability distributions")
    return s


def _feature_pair(feats_a, feats_b, modalities, widths=None) -> int:
    """The row count of a drug pair's features; a ConfigError naming the
    side and the modality unless each side maps every one of `modalities`
    to a 2-D array of finite real numbers, with one row count throughout
    and one width per modality on both sides, equal to its entry of
    `widths` (in the order of `modalities`) when given."""
    want = dict(zip(modalities, widths)) if widths is not None else {}
    n = None
    for side, feats in (("a", feats_a), ("b", feats_b)):
        if not isinstance(feats, Mapping):
            got = type(feats).__name__
            raise ConfigError(f"drug {side} must map each modality to an array, got {got}")
        for m in modalities:
            if m not in feats:
                raise ConfigError(f"drug {side} lacks modality {m!r}")
            arr, where = np.asarray(feats[m]), f"drug {side} modality {m}"
            if arr.ndim != 2:
                raise ConfigError(f"{where} must be (rows, width), got shape {arr.shape}")
            n = arr.shape[0] if n is None else n
            width = want.setdefault(m, arr.shape[1])
            if arr.shape != (n, width):
                raise ConfigError(f"{where} has shape {arr.shape}, expected {n} rows of {width}")
            if arr.dtype.kind not in "biuf" or not np.isfinite(arr).all():
                raise ConfigError(f"{where} must hold finite real numbers")
    return n


@dataclass(frozen=True)
class ClassStats:
    """Per-class sample counts plus derived aggregates.

    counts        : int array, counts[c] = samples of class c, all >= 1
    n_classes     : len(counts)
    total         : counts.sum()
    cir           : class imbalance ratio, max(counts) / min(counts)
    desc_order    : class indices sorted by count descending, ties broken
                    by ascending class index
    """

    counts: np.ndarray
    n_classes: int
    total: int
    cir: float
    desc_order: np.ndarray


@dataclass(frozen=True)
class TailPartition:
    """Result of splitting classes into head and tail at threshold t_s.

    normalized_position[c] is the cumulative count fraction of class c when
    classes are scanned in descending-count order; the last class scanned
    always sits at exactly 1.0. is_tail[c] is True iff
    normalized_position[c] > t_s (strict).
    """

    t_s: float
    normalized_position: np.ndarray
    is_tail: np.ndarray
    n_tail: int


def class_stats_from_counts(counts) -> ClassStats:
    """Build ClassStats from a per-class count vector.

    Raises ConfigError on empty input, zero/negative counts, or non-integer
    entries. Zero-count classes are rejected outright rather than silently
    skipped: every ratio downstream divides by a class count.
    """
    arr = _labels(counts, "class counts")
    if np.any(arr <= 0):
        bad = int(np.argmax(arr <= 0))
        raise ConfigError(f"class {bad} has count {arr[bad]}; every class needs >= 1 sample")

    # stable argsort on negated counts: descending count, ascending index on ties
    order = np.argsort(-arr, kind="stable")
    return ClassStats(
        counts=arr,
        n_classes=int(arr.size),
        total=int(arr.sum()),
        cir=float(arr.max() / arr.min()),
        desc_order=order,
    )


def tail_partition(stats: ClassStats, t_s: float) -> TailPartition:
    """Split classes into head and tail at normalized position t_s.

    t_s must lie in [0, 1]. t_s = 1 yields no tail classes (the last
    position is exactly 1, and the comparison is strict); t_s = 0 marks
    every class as tail.
    """
    _real(t_s, "ts", 0, 1)

    # integer cumsum first, one float division after: the final entry is
    # total/total = 1.0 exactly, and scaling all counts by a constant
    # leaves every position bit-identical.
    cum = np.cumsum(stats.counts[stats.desc_order])
    pos_sorted = cum / stats.total

    position = np.empty(stats.n_classes, dtype=float)
    position[stats.desc_order] = pos_sorted
    is_tail = position > t_s
    return TailPartition(
        t_s=float(t_s),
        normalized_position=position,
        is_tail=is_tail,
        n_tail=int(is_tail.sum()),
    )
