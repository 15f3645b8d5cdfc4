"""The four benchmark workloads.

Each workload has `setup(seed, scratch)`, run outside the timed region, and
`call(state)`, the timed call into the library's public API; `check(state,
output)` then verifies the output outside the timed region and returns an
Outcome. Functions are looked up on their module at call time, so a traced
run sees the calls through its wrappers. Checks run untraced.

Items, the unit of the `items_per_s` metric, differ by workload: training
samples for desk_compare and paper_epoch, evaluated rows for corpus_eval,
records written plus records read for dataset_files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from tailfocal import datagen, experiments, fusion, metrics

import checks

DESK_DATA = dict(
    n_classes=50,
    n_samples=20000,
    cir=1200.0,
    n_drugs=120,
    embed_dims=(16, 16, 16, 16),
    noise_scale=3.0,
    offset_scale=0.5,
)
DESK_LOSSES = ("tfl", "fl", "wce")
# criterion 8 trains 50 epochs per loss. Ten keep a call near 15 s, so a run
# fits two, with training still above four fifths of it; data generation,
# prediction and the three metrics reports take the rest
DESK_EPOCHS = 10
TEST_FRACTION = 0.2


@dataclass
class Outcome:
    fingerprint: str  # equal across repeats of the same call
    items: int
    counts: dict = field(default_factory=dict)  # per-layer work counts for one call
    problems: list = field(default_factory=list)  # failed checks


def _learned(macro_f1: float, n_classes: int) -> list[str]:
    # a model that learned nothing scores about 1/n_classes or less
    floor = 4.0 / n_classes
    if not macro_f1 >= floor:
        return [f"tfl macro_f1 {macro_f1!r} is below 4/n_classes = {floor:.4f}"]
    return []


def _report_parts(report) -> list:
    return [getattr(report, f) for f in checks.MACRO_FIELDS] + [
        np.asarray(getattr(report, f)) for f in checks.PER_CLASS_FIELDS
    ]


# ---------------------------------------------------------------------------
# desk_compare: compare_losses at the criterion-8 shape


def desk_setup(seed: int, scratch: str):
    run = experiments.RunConfig(
        data=experiments.DataConfig(**DESK_DATA),
        loss=experiments.LossConfig(kind="tfl"),
        model=experiments.NetConfig(
            hidden_dim=32, k_stages=2, classifier_dims=(64, 64, 64, 50), pool_window=4
        ),
        optim=experiments.OptimConfig(batch_size=256, epochs=DESK_EPOCHS, patience=None),
        split=experiments.SplitConfig(test_fraction=TEST_FRACTION, val_fraction=0.0),
        seed=seed,
    )
    # stratified split sizes follow from the class counts alone
    counts = datagen.sample_class_counts(DESK_DATA["n_classes"], DESK_DATA["n_samples"], DESK_DATA["cir"])
    labels = np.repeat(np.arange(counts.size), counts)
    train_idx, test_idx = experiments.split_indices(labels, TEST_FRACTION, seed=seed + 1)
    return run, (train_idx.size, test_idx.size)


def desk_call(state):
    run, _ = state
    return experiments.compare_losses(run, kinds=DESK_LOSSES)


def desk_check(state, rows) -> Outcome:
    _, (n_train, n_test) = state
    n_classes = DESK_DATA["n_classes"]
    problems = []
    if [kind for kind, _ in rows] != list(DESK_LOSSES):
        problems.append(f"rows are for {[kind for kind, _ in rows]}, expected {DESK_LOSSES}")
    for kind, values in rows:
        problems += checks.unit_interval(f"{kind} metrics", values)
    f1 = dict(rows).get("tfl", [float("nan")] * 4)[3]
    problems += _learned(f1, n_classes)
    return Outcome(
        fingerprint=checks.fingerprint(rows),
        items=len(DESK_LOSSES) * DESK_EPOCHS * n_train,
        counts={"metrics.scored_cells": len(DESK_LOSSES) * n_test * n_classes},
        problems=problems,
    )


# ---------------------------------------------------------------------------
# paper_epoch: one paper-shape epoch on the DDIMDL preset


def paper_setup(seed: int, scratch: str):
    run = experiments.RunConfig(
        data=experiments.DataConfig(preset="DDIMDL", embed_dims=(64, 64, 64, 64)),
        loss=experiments.LossConfig(kind="tfl"),
        model=experiments.NetConfig(hidden_dim=256),
        optim=experiments.OptimConfig(batch_size=256, epochs=1),
        split=experiments.SplitConfig(test_fraction=TEST_FRACTION, val_fraction=0.0),
        seed=seed,
    )
    data = experiments.load_run_data(run)
    # the split run_training makes, so the check can score the test rows again
    _, test_idx = experiments.split_indices(data[2], TEST_FRACTION, seed=seed + 1)
    return run, data, test_idx


def paper_call(state):
    run, data, _ = state
    return experiments.run_training(run, _data=data)


def paper_check(state, result) -> Outcome:
    run, (feats_a, feats_b, labels, n_classes), test_idx = state
    report = result.report
    losses = np.array([row.train_loss for row in result.trace])
    problems = checks.check_report(report)
    if losses.size != run.optim.epochs or not np.all(np.isfinite(losses)):
        problems.append(f"loss trace {losses.tolist()} is not {run.optim.epochs} finite value(s)")
    problems += _learned(report.macro_f1, n_classes)
    n_test = result.test_labels.size
    if not np.array_equal(result.test_labels, labels[test_idx]):
        problems.append("test labels are not those of the stratified split")
    else:
        # the trained model's scores on the test rows, recomputed to check the report
        probs = fusion.predict_proba(
            result.model_config,
            result.params,
            {m: v[test_idx] for m, v in feats_a.items()},
            {m: v[test_idx] for m, v in feats_b.items()},
        )
        problems += checks.check_confusion(probs, result.test_labels, report)
        problems += checks.check_smallest_classes(probs, result.test_labels, report.auc, report.aupr)
    return Outcome(
        fingerprint=checks.fingerprint(losses, *_report_parts(report)),
        items=run.optim.epochs * (labels.size - n_test),
        counts={"metrics.scored_cells": n_test * report.n_classes},
        problems=problems,
    )


# ---------------------------------------------------------------------------
# corpus_eval: predict and score the DDI-DB171 test split


def corpus_setup(seed: int, scratch: str):
    run = experiments.RunConfig(
        data=experiments.DataConfig(preset="DDI-DB171", embed_dims=(16, 16, 16, 16)), seed=seed
    )
    feats_a, feats_b, labels, n_classes = experiments.load_run_data(run)
    _, test_idx = experiments.split_indices(labels, TEST_FRACTION, seed=seed + 1)
    test_a = {m: v[test_idx] for m, v in feats_a.items()}
    test_b = {m: v[test_idx] for m, v in feats_b.items()}
    config = fusion.ModelConfig(n_classes=n_classes, embed_dims=(16, 16, 16, 16), hidden_dim=256)
    params = fusion.init_params(config, seed=seed + 2)
    return config, params, test_a, test_b, labels[test_idx]


def corpus_call(state):
    config, params, test_a, test_b, labels = state
    probs = fusion.predict_proba(config, params, test_a, test_b)
    return probs, metrics.metrics_report(probs, labels)


def corpus_check(state, output) -> Outcome:
    labels = state[-1]
    probs, report = output
    problems = checks.check_report(report)
    problems += checks.check_confusion(probs, labels, report)
    problems += checks.check_smallest_classes(probs, labels, report.auc, report.aupr)
    return Outcome(
        fingerprint=checks.fingerprint(probs, *_report_parts(report)),
        items=labels.size,
        counts={"metrics.scored_cells": probs.size},
        problems=problems,
    )


# ---------------------------------------------------------------------------
# dataset_files: generate, write, read back, and stack the desk-scale data


def files_setup(seed: int, scratch: str):
    spec = datagen.DatasetSpec(seed=seed, **DESK_DATA)
    return spec, os.path.join(scratch, f"dataset-{seed}-{os.getpid()}.tsv")


def files_call(state):
    spec, path = state
    records, _ = datagen.generate_dataset(spec)
    datagen.write_dataset(path, records, n_classes=spec.n_classes)
    back, _ = datagen.read_dataset(path)
    return records, back, datagen.records_to_arrays(back)


def _stack(records):
    """records_to_arrays written out again, so the check does not rely on it."""
    n_mod = len(records[0].features_a)
    side_a = {k: np.stack([r.features_a[k] for r in records]) for k in range(n_mod)}
    side_b = {k: np.stack([r.features_b[k] for r in records]) for k in range(n_mod)}
    return side_a, side_b, np.array([r.label for r in records], dtype=np.int64)


def files_check(state, output) -> Outcome:
    _, path = state
    records, back, (feats_a, feats_b, labels) = output
    file_mb = os.path.getsize(path) / 1e6
    os.remove(path)
    problems = []
    if len(back) != len(records):
        problems.append(f"read {len(back)} records, wrote {len(records)}")
    else:
        written = _stack(records)
        read = (dict(enumerate(feats_a.values())), dict(enumerate(feats_b.values())), labels)
        problems += checks.check_round_trip(written, read)
    return Outcome(
        fingerprint=checks.fingerprint(labels, *feats_a.values(), *feats_b.values()),
        items=len(records) + len(back),
        counts={"datagen.records": len(records) + len(back), "datagen.file_mb": file_mb},
        problems=problems,
    )


@dataclass(frozen=True)
class Workload:
    setup: object
    call: object
    check: object


WORKLOADS = {
    "desk_compare": Workload(desk_setup, desk_call, desk_check),
    "paper_epoch": Workload(paper_setup, paper_call, paper_check),
    "corpus_eval": Workload(corpus_setup, corpus_call, corpus_check),
    "dataset_files": Workload(files_setup, files_call, files_check),
}
