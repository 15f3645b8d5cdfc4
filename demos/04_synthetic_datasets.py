"""Generating long-tailed drug-pair datasets with known geometry.

Real interaction datasets are expensive; their difficulty is not. The
generator reproduces the statistical shape (class counts falling
geometrically from head to tail, four feature blocks per drug) with
knobs for separability, so training behavior on the tail can be studied
at desk scale.
"""

import tempfile
from pathlib import Path

import numpy as np

from tailfocal import (
    DatasetSpec,
    generate_dataset,
    preset_spec,
    read_dataset,
    sample_class_counts,
    write_dataset,
)

# Class counts decay geometrically between a pinned head and minimum-size
# tail so that max(count) / min(count) lands on the requested ratio.
counts = sample_class_counts(n_classes=12, n_samples=5000, cir=200.0)
print("counts:", counts.tolist())
print(f"realized imbalance ratio: {counts.max() / counts.min():.1f}")
print()

# Presets pin the aggregate shape of four published interaction corpora.
print("presets (classes, samples, imbalance ratio):")
for name in ("ddimdl", "muffin", "ddi-db110", "ddi-db171"):
    spec = preset_spec(name, embed_dims=(8, 8, 8, 8))
    print(f"  {name:10} {spec.n_classes:4d} {spec.n_samples:7d} {spec.cir:8.0f}")
print()

# A small dataset end to end. The generator returns columns, one row per
# drug pair: four embedding blocks per drug (graph, sequence, target,
# enzyme) and a label, and records[i] views row i as one record;
# noise_scale sets how much class structure survives into the features.
spec = DatasetSpec(n_classes=5, n_samples=400, cir=30.0, n_drugs=25,
                   embed_dims=(8, 6, 4, 4), noise_scale=0.8, seed=11)
records, stats = generate_dataset(spec)
tally = np.bincount(records.labels, minlength=spec.n_classes)
print(f"{len(records)} records over {spec.n_classes} classes: {tally.tolist()}")

first = records[0]
print(f"first record: {first.drug_a} x {first.drug_b} -> class {first.label}, "
      f"g block {first.features_a.g.shape}, s block {first.features_a.s.shape}")
print()

# Datasets round-trip through a plain text format, stats included.
with tempfile.TemporaryDirectory(prefix="ddipairs-") as tmp:
    path = Path(tmp) / "pairs.tsv"
    write_dataset(path, records, n_classes=spec.n_classes)
    back, back_stats = read_dataset(path)
    print(f"wrote and re-read {len(back)} records from {path}")
print("counts preserved:", np.array_equal(back_stats.counts, stats.counts))
