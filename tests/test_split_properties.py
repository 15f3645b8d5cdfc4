"""Property tests for the invariants of split_indices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfocal import class_stats_from_counts, split_indices

PROPS = settings(derandomize=True, deadline=None, max_examples=300)

LABELS = st.lists(st.integers(0, 6), min_size=1, max_size=80)
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
