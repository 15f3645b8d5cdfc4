"""Class-frequency bookkeeping for long-tailed label distributions.

Everything downstream (re-weighted losses, the tail-aware focal loss,
synthetic data generation) needs the same handful of facts about the label
distribution: per-class counts, the imbalance ratio, and which classes sit
in the distribution's tail. This module computes them once, deterministically.

A class is a *tail* class when its normalized cumulative position exceeds a
split threshold ``t_s``: sort classes by count descending, accumulate counts,
and divide by the total. Head classes absorb the bulk of the mass early, so
they land at small positions; rare classes land near 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["ClassStats", "TailPartition", "class_stats_from_counts", "tail_partition"]


def _check_ts(t_s: float) -> None:
    """A ConfigError unless the split threshold `t_s` (config key loss.ts) is in [0, 1]."""
    if not 0.0 <= t_s <= 1.0:
        raise ConfigError(f"ts must be in [0, 1], got {t_s}")


def _integers(values, what: str) -> np.ndarray:
    """`values` as a new int64 array; a ConfigError naming `what` if any
    entry is not a finite whole number, so 1.7 is refused rather than cut to 1."""
    arr = np.asarray(values)
    if not np.issubdtype(arr.dtype, np.integer) and not np.all(
        np.isfinite(arr) & (arr == np.floor(arr))
    ):
        raise ConfigError(f"{what} must be integers")
    return arr.astype(np.int64)


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
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError("counts must be a non-empty 1-D sequence")
    arr = _integers(arr, "class counts")
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
    _check_ts(t_s)

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
