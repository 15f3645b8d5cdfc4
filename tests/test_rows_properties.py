"""Property test: a split handed to the private training and prediction
cores as rows of the whole columns trains and predicts exactly as the public
calls on a fancy-indexed copy of the same rows do."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfocal import LossSpec, ModelConfig, OptimConfig, init_params, predict_proba, train
from tailfocal import fusion
from tailfocal.fusion import _predict, _rows, _Training

PROPS = settings(derandomize=True, deadline=None, max_examples=40)

CONFIG = ModelConfig(
    n_classes=3, embed_dims=(4, 4, 4, 4), hidden_dim=3, k_stages=2,
    classifier_dims=(5, 4, 3, 3), pool_window=2,
)
N = 12
_rng = np.random.default_rng(90)
FEATS_A = {m: _rng.normal(size=(N, CONFIG.embed_dim(m))) for m in CONFIG.modalities}
FEATS_B = {m: _rng.normal(size=(N, CONFIG.embed_dim(m))) for m in CONFIG.modalities}
LABELS = _rng.integers(0, CONFIG.n_classes, size=N)

# unsorted, with repeats, or a single row
ROWS = st.lists(st.integers(0, N - 1), min_size=1, max_size=3 * N).map(np.array)


PAIR = _rows(CONFIG, FEATS_A, FEATS_B)


def _copies(rows):
    return (*({m: v[rows] for m, v in f.items()} for f in (FEATS_A, FEATS_B)), LABELS[rows])


@pytest.mark.parametrize("predict_rows", [1, 3, 7, 1024])
@PROPS
@given(ROWS, ROWS)
@example(np.array([5]), np.array([0]))
@example(np.array([7, 2, 7, 7, 0, 11, 2]), np.array([3, 3, 1]))
def test_rows_train_and_predict_as_their_copies(predict_rows, train_rows, val_rows):
    opt = OptimConfig(lr=1e-2, batch_size=4, epochs=3, patience=1)
    spec = LossSpec(kind="ce")
    with mock.patch.object(fusion, "_PREDICT_ROWS", predict_rows):
        p1 = init_params(CONFIG, seed=17)
        split, val = PAIR._replace(rows=train_rows), PAIR._replace(rows=val_rows)
        state = _Training(CONFIG, p1, opt, seed=8)
        while not state.done:
            state.run_epoch(split, LABELS[train_rows], spec, (val, LABELS[val_rows]))
        t1, p1 = state.trace, state.params()
        probs1 = _predict(CONFIG, p1, val)
        p2 = init_params(CONFIG, seed=17)
        copies = _copies(val_rows)
        t2 = train(CONFIG, p2, _copies(train_rows), spec, opt, val_data=copies, seed=8)
        probs2 = predict_proba(CONFIG, p2, *copies[:2])
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)
    assert t1 == t2 and t1[0].val_macro_f1 is not None
    assert probs1.shape == (val_rows.size, CONFIG.n_classes)
    assert np.array_equal(probs1, probs2)
