"""Labels that are not whole numbers are refused where they enter, not cut to integers."""

import numpy as np
import pytest

from tailfocal import (
    ConfigError,
    LossSpec,
    ModelConfig,
    OptimConfig,
    batch_loss,
    confusion_metrics,
    init_params,
    metrics_report,
    pr_auc_ovr,
    roc_auc_ovr,
    split_indices,
    train,
)

LABELS = np.array([0.5, 1.7, 0.2])  # cut to [0, 1, 0], they would score accuracy 1.0
SCORES = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])


def _train(labels, val_labels=(0, 1, 0)):
    config = ModelConfig(n_classes=2, embed_dims=(4, 4, 4, 4), modalities=("g",), hidden_dim=2)
    feats = {"g": np.zeros((3, 4))}
    train(config, init_params(config, seed=0), (feats, feats, labels), LossSpec(kind="ce"),
          OptimConfig(epochs=1), val_data=(feats, feats, val_labels))


ENTRY_POINTS = {
    "metrics_report": lambda y: metrics_report(SCORES, y),
    "confusion_metrics true": lambda y: confusion_metrics([0, 1, 0], y, 2),
    "confusion_metrics pred": lambda y: confusion_metrics(y, [0, 1, 0], 2),
    "roc_auc_ovr": lambda y: roc_auc_ovr(SCORES, y),
    "pr_auc_ovr": lambda y: pr_auc_ovr(SCORES, y),
    "batch_loss": lambda y: batch_loss(LossSpec(kind="ce"), np.zeros((3, 2)), y),
    "split_indices": lambda y: split_indices(y, 0.5, seed=0),
    "train": _train,
    "train validation": lambda y: _train([0, 1, 0], y),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_fractional_labels_are_refused(entry):
    entry(LABELS.astype(int))  # the same labels cut to integers are accepted
    with pytest.raises(ConfigError, match="integers"):
        entry(LABELS)
