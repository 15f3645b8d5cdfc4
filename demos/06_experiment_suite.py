"""Batch experiments: loss comparisons, ablations, and grid sweeps.

Single training runs answer nothing about a loss function; the claims
worth making are comparative and multi-seed. This script drives the
three batch entry points on a small configuration and prints their
tables. Every run is reproducible from its seed and effective config.

The same operations are available from the shell:

    tailfocal gen            --config run.cfg --out pairs.tsv
    tailfocal train          --config run.cfg --loss tfl --seed 3 --out out/
    tailfocal compare-losses --config run.cfg --out cmp/
    tailfocal ablate         --config run.cfg --variants GSTE,GS,TE
    tailfocal sweep          --config run.cfg --param beta --grid 0,1,2,3
    tailfocal analyze        --gamma 2 --beta 2 --out curves/
"""

import tempfile
from pathlib import Path

from tailfocal import (
    DataConfig,
    LossConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    SplitConfig,
    SweepConfig,
    ablate,
    compare_losses,
    config_to_text,
    sweep,
)

base = RunConfig(
    data=DataConfig(n_classes=4, n_samples=800, cir=40.0, n_drugs=30,
                    embed_dims=(8, 8, 8, 8), noise_scale=1.0),
    loss=LossConfig(kind="tfl", gamma=2.0, beta=2.0, ts=0.8),
    model=NetConfig(hidden_dim=12, k_stages=1, classifier_dims=(24, 24, 24, 4),
                    pool_window=4),
    optim=OptimConfig(batch_size=64, epochs=15, patience=None),
    split=SplitConfig(test_fraction=0.25, val_fraction=0.0),
    seed=1,
)

# Configs serialize to flat key = value text; the same text drives the CLI.
print("this run as a config file:")
print("\n".join("  " + line for line in config_to_text(base).splitlines()[:6]))
print("  ...")
print()

# All seven losses on the same dataset, same split, same model init. The
# metric columns are accuracy, macro precision/recall/F1, AUC, and AUPR.
with tempfile.TemporaryDirectory(prefix="experiments-") as tmp:
    out = Path(tmp)
    print("loss   accuracy  macro_f1  macro_auc")
    for kind, vals in compare_losses(base, out_dir=out / "cmp"):
        print(f"{kind:6} {vals[0]:8.4f} {vals[3]:9.4f} {vals[4]:10.4f}")
    print()

    # Ablating modality streams shows how much each block carries.
    print("variant ablation (macro F1):")
    for variant, vals in ablate(base, variants=("GSTE", "GS", "TE"), out_dir=out / "abl"):
        print(f"  {variant:5} {vals[3]:.4f}")
    print()

    # Sweep one tail-loss hyperparameter over a grid, repeating with shifted
    # seeds; each row reports per-metric mean and spread across repeats.
    print("beta   mean macro_f1  std")
    grid = SweepConfig(parameter="beta", grid=(0.0, 1.0, 2.0), repeats=2)
    for value, mean, std in sweep(base, grid, out_dir=out / "sweep"):
        print(f"{value:4.1f} {mean[3]:13.4f} {std[3]:6.4f}")
    print()
    print(f"reports on disk under {out}")
