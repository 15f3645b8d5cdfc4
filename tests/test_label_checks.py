"""Labels that are not whole numbers in range are refused where they enter,
before any training step, not cut to integers or left to fail in numpy."""

import numpy as np
import pytest

from tailfocal import (
    ConfigError,
    LossSpec,
    ModelConfig,
    OptimConfig,
    batch_loss,
    class_stats_from_counts,
    confusion_metrics,
    init_params,
    metrics_report,
    pr_auc_ovr,
    roc_auc_ovr,
    split_indices,
    train,
)
from tailfocal import fusion

LABELS = np.array([0.5, 1.7, 0.2])  # cut to [0, 1, 0], they would score accuracy 1.0
GOOD = LABELS.astype(int)
SCORES = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
# the sample that train's seed-0 shuffle of three puts in its last one-row batch
LAST = np.random.default_rng(0).permutation(3)[-1]


def _train(labels, val_labels=GOOD):
    config = ModelConfig(n_classes=2, embed_dims=(4, 4, 4, 4), modalities=("g",), hidden_dim=2)
    feats = {"g": np.zeros((3, 4))}
    train(config, init_params(config, seed=0), (feats, feats, labels), LossSpec(kind="ce"),
          OptimConfig(epochs=1, batch_size=1), val_data=(feats, feats, val_labels), seed=0)


ENTRY_POINTS = {
    "metrics_report": lambda y: metrics_report(SCORES, y),
    "confusion_metrics true": lambda y: confusion_metrics([0, 1, 0], y, 2),
    "confusion_metrics pred": lambda y: confusion_metrics(y, [0, 1, 0], 2),
    "roc_auc_ovr": lambda y: roc_auc_ovr(SCORES, y),
    "pr_auc_ovr": lambda y: pr_auc_ovr(SCORES, y),
    "batch_loss": lambda y: batch_loss(LossSpec(kind="ce"), np.zeros((3, 2)), y),
    "split_indices": lambda y: split_indices(y, 0.5, seed=0),
    "train": _train,
    "train validation": lambda y: _train(GOOD, y),
}
NOT_INTEGERS = {"fractional": LABELS, "text": ["a", "b", "a"], "none": [0, None, 1]}

CASES = [
    *(
        pytest.param(entry, GOOD, bad, "integers", id=name if bad is LABELS else f"{name} {kind}")
        for name, entry in ENTRY_POINTS.items()
        for kind, bad in NOT_INTEGERS.items()
    ),
    pytest.param(class_stats_from_counts, [3, 4], ["3", "4"], "integers", id="class counts text"),
    pytest.param(
        ENTRY_POINTS["train validation"], GOOD, [0, 1], "validation labels",
        id="train validation one short",
    ),
    pytest.param(
        ENTRY_POINTS["train validation"], GOOD, [0, 2, 0], "out of range",
        id="train validation out of range",
    ),
    pytest.param(
        _train, GOOD, np.where(np.arange(3) == LAST, 2, GOOD), "out of range",
        id="train out of range in the last batch",
    ),
]


@pytest.fixture
def steps(monkeypatch):
    """The list of _Training._steps calls, one entry per epoch of steps run."""
    calls = []
    real = fusion._Training._steps

    def counted(self, *args):
        calls.append(len(self.trace))
        return real(self, *args)

    monkeypatch.setattr(fusion._Training, "_steps", counted)
    return calls


@pytest.mark.parametrize("entry, good, bad, match", CASES)
def test_fractional_labels_are_refused(entry, good, bad, match, steps):
    entry(good)  # whole numbers in range are accepted
    steps.clear()
    with pytest.raises(ConfigError, match=match):
        entry(bad)
    assert steps == []  # refused before any training step
