"""Training the multimodal fusion classifier on a generated dataset.

The model encodes each drug of a pair through per-modality affine stages
(the sequence block reinforces the graph block, the enzyme block
reinforces the target block), keeps a max-pooled shortcut of the raw
features, concatenates both drugs, and classifies with a four-layer head.
Everything below is numpy; gradients are hand-derived and verified
against finite differences in the test suite.
"""

import tempfile
from pathlib import Path

import numpy as np

from tailfocal import (
    LossSpec,
    ModelConfig,
    class_stats_from_counts,
    load_model,
    metrics_report,
    predict_proba,
    save_model,
    tail_partition,
)
from tailfocal import DataConfig, LossConfig, NetConfig, OptimConfig, RunConfig, SplitConfig
from tailfocal import load_run_data, run_training

# One call does the whole pipeline: generate, split, train, evaluate.
run = RunConfig(
    data=DataConfig(n_classes=5, n_samples=1500, cir=60.0, n_drugs=40,
                    embed_dims=(12, 12, 12, 12), noise_scale=1.2),
    loss=LossConfig(kind="tfl", gamma=2.0, beta=2.0, ts=0.8),
    model=NetConfig(hidden_dim=16, k_stages=2, classifier_dims=(32, 32, 32, 5),
                    pool_window=4),
    optim=OptimConfig(batch_size=64, epochs=25, patience=None),
    split=SplitConfig(test_fraction=0.2, val_fraction=0.0),
    seed=5,
)
result = run_training(run)

rep = result.report
print(f"test accuracy {rep.accuracy:.4f}, macro F1 {rep.macro_f1:.4f}, "
      f"macro AUC {rep.macro_auc:.4f}")
print()

# Tail classes are where the loss choice shows. Compare per-class recall
# against the head.
print("class  support  recall  f1      tail?")
for c in range(rep.n_classes):
    flag = "tail" if result.tail.is_tail[c] else "head"
    print(f"{c:5d} {rep.support[c]:8d} {rep.recall[c]:7.4f} {rep.f1[c]:7.4f}  {flag}")
print()

# The training trace records per-epoch mean loss (and validation F1 when
# a validation split is configured).
losses = [e.train_loss for e in result.trace]
print(f"epoch loss: {losses[0]:.4f} -> {losses[-1]:.4f} over {len(losses)} epochs")
print()

# Models round-trip through a single .npz checkpoint.
with tempfile.TemporaryDirectory(prefix="fusion-") as tmp:
    path = Path(tmp) / "model.npz"
    save_model(path, result.model_config, result.params)
    config, params = load_model(path)
print(f"checkpoint restored: {config.k_stages} stages, "
      f"hidden width {config.hidden_dim}, params {len(params)} arrays")

# predict_proba serves the restored model on new feature dictionaries.
rng = np.random.default_rng(0)
feats = lambda: {m: rng.normal(size=(3, config.embed_dim(m)))
                 for m in config.modalities}
proba = predict_proba(config, params, feats(), feats())
print("probabilities for three fresh pairs:")
print(np.round(proba, 3))
print("rows sum to one:", np.allclose(proba.sum(axis=1), 1.0))
