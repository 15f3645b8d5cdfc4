"""Property tests for the invariants of split_indices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import class_stats_from_counts, split_indices
from tailfocal.datagen import _round_half_up

PROPS = settings(derandomize=True, deadline=None, max_examples=300)

LABELS = st.lists(st.integers(0, 6), min_size=1, max_size=80)
# a few classes anywhere in int64: negative, with gaps, past 2**31
CLASSES = st.integers(-(2**40), 2**40) | st.sampled_from([-1, 2**31, 2**31 + 1, 2**62])
WIDE_LABELS = st.lists(CLASSES, min_size=1, max_size=7, unique=True).flatmap(
    lambda classes: st.lists(st.sampled_from(classes), min_size=1, max_size=80)
)
FRACTIONS = st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)


def _partition(labels, train, test):
    n = len(labels)
    assert np.all(np.diff(train) > 0) and np.all(np.diff(test) > 0)
    assert np.intersect1d(train, test).size == 0
    assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))


@PROPS
@given(LABELS, FRACTIONS, st.integers(0, 2**32 - 1))
def test_stratified_split_invariants(labels, test_fraction, seed):
    labels = np.array(labels)
    train, test = split_indices(labels, test_fraction, seed=seed)
    _partition(labels, train, test)
    for c, count in zip(*np.unique(labels, return_counts=True)):
        n_test = np.count_nonzero(labels[test] == c)
        if count == 1:
            assert n_test == 0  # a singleton class goes entirely to train
        elif test_fraction > 0:
            assert 1 <= n_test <= count - 1
        else:
            assert n_test == 0


@PROPS
@given(LABELS, FRACTIONS, FRACTIONS, st.integers(0, 2**32 - 1))
def test_every_class_keeps_a_training_row_after_test_and_validation(
    labels, test_fraction, val_fraction, seed
):
    # run_training's two splits: the test rows, then validation out of the rest
    labels = np.array(labels)
    train, _ = split_indices(labels, test_fraction, seed=seed)
    sub_train, _ = split_indices(labels[train], val_fraction, seed=seed + 3)
    present = np.unique(labels)
    tally = np.bincount(labels[train[sub_train]], minlength=present.max() + 1)[present]
    class_stats_from_counts(tally)  # a ConfigError if a class has no training row


def _split_by_class(labels, test_fraction, seed):
    """split_indices as one `labels == c` pass per class, classes ascending."""
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1 or test_fraction == 0.0:
            train_parts.append(idx)
            continue
        shuffled = idx[rng.permutation(idx.size)]
        n_test = min(idx.size - 1, max(1, _round_half_up(idx.size * test_fraction)))
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts)) if test_parts else np.array([], dtype=np.int64)
    return train, test


@PROPS
@given(WIDE_LABELS | LABELS, FRACTIONS, st.integers(0, 2**32 - 1))
def test_split_matches_the_per_class_loop(labels, test_fraction, seed):
    labels = np.array(labels, dtype=np.int64)
    got = split_indices(labels, test_fraction, seed=seed)
    for g, w in zip(got, _split_by_class(labels, test_fraction, seed)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
