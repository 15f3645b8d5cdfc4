"""Experiment orchestration: splits, config files, run outputs, CLI."""

import math
import os
import pickle
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from tailfocal import (
    LOSS_KINDS,
    MODALITIES,
    ConfigError,
    DataConfig,
    DataFormatError,
    Dataset,
    DatasetSpec,
    EpochStats,
    LossConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    SplitConfig,
    SweepConfig,
    TrainingError,
    VARIANTS,
    ablate,
    analyze,
    build_loss_spec,
    class_stats_from_counts,
    compare_losses,
    config_from_text,
    config_to_text,
    generate_dataset,
    loss_on_logits,
    parse_config_file,
    run_training,
    softmax,
    split_indices,
    sweep,
    write_dataset,
    write_generated_dataset,
)
import tailfocal
from tailfocal import experiments
from tailfocal.cli import _build_parser, _run_config, main

TINY_RUN = RunConfig(
    data=DataConfig(
        n_classes=3, n_samples=120, cir=4.0, n_drugs=10, embed_dims=(4, 4, 4, 4),
        noise_scale=0.3,
    ),
    loss=LossConfig(kind="tfl"),
    model=NetConfig(hidden_dim=6, k_stages=1, classifier_dims=(8, 8, 8, 3), pool_window=2),
    optim=OptimConfig(batch_size=32, epochs=2, patience=None),
    split=SplitConfig(test_fraction=0.25, val_fraction=0.0),
    seed=3,
)

BAD_VARIANT = replace(TINY_RUN, model=replace(TINY_RUN.model, variant="XX"))
BAD_KIND = replace(TINY_RUN, loss=replace(TINY_RUN.loss, kind="nope"))
BAD_GAMMA = replace(TINY_RUN, loss=replace(TINY_RUN.loss, gamma=-1.0))


def _tiny(**sections):
    """TINY_RUN with the given fields of each named section replaced."""
    return replace(TINY_RUN, **{s: replace(getattr(TINY_RUN, s), **v) for s, v in sections.items()})


# runs that every command rejects before any data is built, with the error text
REJECTED = {
    "hidden-dim": (_tiny(model=dict(hidden_dim=0)), "hidden_dim must be >= 1"),
    "k-stages": (_tiny(model=dict(k_stages=0)), "k_stages must be >= 1"),
    "activation": (_tiny(model=dict(activation="gelu")), "activation must be"),
    "pool-window": (
        _tiny(data=dict(embed_dims=(16, 16, 16, 16)), model=dict(pool_window=3)),
        "pool_window 3 must divide",
    ),
    "classifier": (
        _tiny(model=dict(classifier_dims=(8, 8, 8, 4))),
        "classifier ends at 4 units but n_classes is 3",
    ),
    "ts": (_tiny(loss=dict(ts=1.5)), "ts must be in"),
    "path-and-preset": (_tiny(data=dict(path="pairs.tsv", preset="DDIMDL")), "both set"),
    "test-fraction": (_tiny(split=dict(test_fraction=0.0)), "test_fraction must be above 0"),
}
# each command that trains, called on a run and an output directory
COMMANDS = {
    "train": lambda run, out: run_training(run, out_dir=out),
    "compare": lambda run, out: compare_losses(run, out_dir=out),
    "ablate": lambda run, out: ablate(run, out_dir=out),
    "sweep": lambda run, out: sweep(run, SweepConfig("beta", (0.0, 1.0), 2), out_dir=out),
}

TINY_CFG_TEXT = """\
seed = 3
data.n_classes = 3
data.n_samples = 120
data.cir = 4.0
data.n_drugs = 10
data.embed_dims = 4,4,4,4
data.noise_scale = 0.3
loss.kind = tfl
model.hidden_dim = 6
model.k_stages = 1
model.classifier_dims = 8,8,8,3
model.pool_window = 2
optim.batch_size = 32
optim.epochs = 2
optim.patience = none
split.test_fraction = 0.25
split.val_fraction = 0.0
"""


def _file_without_class(tmp_path, missing: int) -> Path:
    """A dataset file that declares 5 classes and holds no record of class `missing`."""
    spec = DatasetSpec(n_classes=5, n_samples=200, cir=4.0, n_drugs=10, embed_dims=(4, 4, 4, 4))
    data, _ = generate_dataset(spec)
    keep = data.labels != missing
    data = Dataset(
        data.pair_ids[keep], data.drug_a[keep], data.drug_b[keep], data.labels[keep],
        *({m: v[keep] for m, v in f.items()} for f in (data.features_a, data.features_b)),
    )
    path = tmp_path / f"no-class-{missing}.tsv"
    write_dataset(path, data, n_classes=5)
    return path


def _five_class_file_run(tmp_path) -> RunConfig:
    """TINY_RUN on a 5-class file with 4-wide blocks, under a config whose
    data.n_classes (3) and data.embed_dims (8,8,8,8) the file overrides."""
    path = tmp_path / "five.tsv"
    write_generated_dataset(_tiny(data=dict(n_classes=5)).data, seed=3, out_path=path)
    return _tiny(
        data=dict(path=str(path), n_classes=3, embed_dims=(8, 8, 8, 8)),
        model=dict(classifier_dims=(8, 8, 8, 5)),
    )


def _strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# generated"))


class TestSplitIndices:
    def test_partition_is_exact(self):
        labels = np.repeat([0, 1, 2], [40, 20, 10])
        train, test = split_indices(labels, 0.2, seed=0)
        assert np.intersect1d(train, test).size == 0
        assert train.size + test.size == 70

    def test_stratified_fractions_per_class(self):
        labels = np.repeat([0, 1, 2], [40, 20, 10])
        _, test = split_indices(labels, 0.2, seed=0)
        tally = np.bincount(labels[test], minlength=3)
        np.testing.assert_array_equal(tally, [8, 4, 2])

    def test_singleton_class_stays_in_train(self):
        labels = np.array([0, 0, 0, 0, 1])
        train, test = split_indices(labels, 0.4, seed=1)
        assert 4 in train
        assert np.all(labels[test] == 0)

    def test_two_member_class_keeps_one_for_each_side(self):
        labels = np.array([0] * 10 + [1, 1])
        train, test = split_indices(labels, 0.5, seed=2)
        assert np.sum(labels[test] == 1) == 1
        assert np.sum(labels[train] == 1) == 1

    def test_deterministic_in_seed(self):
        labels = np.repeat(np.arange(5), 12)
        a = split_indices(labels, 0.3, seed=9)
        b = split_indices(labels, 0.3, seed=9)
        c = split_indices(labels, 0.3, seed=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_zero_fraction_gives_empty_test(self):
        labels = np.repeat([0, 1], 5)
        train, test = split_indices(labels, 0.0, seed=0)
        assert test.size == 0
        assert train.size == 10

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigError):
            split_indices(np.array([0, 1]), 1.0, seed=0)

    @pytest.mark.parametrize("field", ["test_fraction", "val_fraction"])
    @pytest.mark.parametrize("value", [-0.5, 1.0, math.nan, math.inf])
    def test_split_config_rejects_bad_fraction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SplitConfig(**{field: value})


class TestLossSpecReductions:
    """Config-level settings that must make the tailed loss collapse to focal."""

    def _probe(self, spec_a, spec_b):
        rng = np.random.default_rng(81)
        for _ in range(30):
            z = rng.normal(size=4) * 2
            y = int(rng.integers(0, 4))
            a = loss_on_logits(spec_a, z, y)
            b = loss_on_logits(spec_b, z, y)
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_threshold_one_matches_focal(self):
        stats = class_stats_from_counts([500, 100, 20, 4])
        tfl = build_loss_spec(LossConfig(kind="tfl", ts=1.0), stats)
        fl = build_loss_spec(LossConfig(kind="fl"), stats)
        self._probe(tfl, fl)

    def test_beta_zero_matches_focal(self):
        stats = class_stats_from_counts([500, 100, 20, 4])
        tfl = build_loss_spec(LossConfig(kind="tfl", beta=0.0), stats)
        fl = build_loss_spec(LossConfig(kind="fl"), stats)
        self._probe(tfl, fl)

    def test_threshold_zero_boosts_every_class(self):
        stats = class_stats_from_counts([500, 100, 20, 4])
        tfl = build_loss_spec(LossConfig(kind="tfl", ts=0.0, beta=1.5), stats)
        fl = build_loss_spec(LossConfig(kind="fl"), stats)
        rng = np.random.default_rng(82)
        for _ in range(20):
            z = rng.normal(size=4) * 2
            y = int(rng.integers(0, 4))
            a = loss_on_logits(tfl, z, y)
            b = loss_on_logits(fl, z, y)
            ce = -np.log(softmax(z)[y])
            assert a.value == pytest.approx(b.value + 1.5 * ce, rel=1e-10)


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        run = RunConfig()
        assert config_from_text(config_to_text(run)) == run

    def test_custom_round_trip(self):
        run = RunConfig(
            data=DataConfig(preset="DDI-DB171", embed_dims=(8, 8, 8, 8), noise_scale=0.7),
            loss=LossConfig(kind="cb", lam=0.99),
            model=NetConfig(classifier_dims=(32, 32, 16, 171), variant="GS"),
            optim=OptimConfig(patience=None, lr=5e-4),
            split=SplitConfig(test_fraction=0.25, val_fraction=0.0),
            seed=17,
        )
        assert config_from_text(config_to_text(run)) == run

    def test_text_parses_to_expected_config(self):
        run = config_from_text(TINY_CFG_TEXT)
        assert run == TINY_RUN

    def test_keys_left_out_keep_their_defaults(self):
        run = config_from_text("loss.beta = 3.5\n")
        assert run.loss == LossConfig(beta=3.5)
        assert replace(run, loss=LossConfig()) == RunConfig()

    def test_comments_and_blank_lines_ignored(self):
        run = config_from_text("# comment\n\nseed = 5\n")
        assert run.seed == 5

    @pytest.mark.parametrize("line", ["loss.alpha = 2", "split.stratified = false"])
    def test_unknown_key_names_line(self, line):
        with pytest.raises(DataFormatError, match="line 2"):
            config_from_text(f"seed = 1\n{line}\n")

    def test_bad_value_names_line(self):
        with pytest.raises(DataFormatError, match="line 1"):
            config_from_text("optim.epochs = soon\n")

    def test_missing_equals_sign(self):
        with pytest.raises(DataFormatError, match="line 1"):
            config_from_text("seed 5\n")

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CFG_TEXT)
        assert parse_config_file(path) == TINY_RUN


class TestRunTraining:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run"
        result = run_training(TINY_RUN, out_dir=out)
        for name in ("effective.cfg", "summary.txt", "per_class.csv", "trace.csv", "checkpoint.npz"):
            assert (out / name).exists(), name
        assert result.report.n_classes == 3
        assert len(result.trace) == 2
        # one column per EpochStats field; no validation split leaves val_macro_f1 empty
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == ",".join(f.name for f in fields(EpochStats))
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]
        assert all(line.endswith(",") for line in lines[1:])

    def test_deterministic_reports(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        run_training(TINY_RUN, out_dir=out1)
        run_training(TINY_RUN, out_dir=out2)
        for name in ("per_class.csv", "trace.csv", "effective.cfg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert _strip_timestamp((out1 / "summary.txt").read_text()) == _strip_timestamp(
            (out2 / "summary.txt").read_text()
        )

    def test_effective_config_reproduces_run(self, tmp_path):
        out1 = tmp_path / "r1"
        run_training(TINY_RUN, out_dir=out1)
        reread = parse_config_file(out1 / "effective.cfg")
        assert reread == TINY_RUN
        out2 = tmp_path / "r2"
        run_training(reread, out_dir=out2)
        assert (out1 / "per_class.csv").read_bytes() == (out2 / "per_class.csv").read_bytes()

    def test_train_stats_cover_post_split_train_set(self):
        result = run_training(TINY_RUN)
        assert result.train_stats.total + result.report.n_samples == 120

    def test_validation_split_enables_early_stop_trace(self):
        run = RunConfig(
            data=TINY_RUN.data,
            loss=TINY_RUN.loss,
            model=TINY_RUN.model,
            optim=OptimConfig(batch_size=32, epochs=3, patience=2),
            split=SplitConfig(test_fraction=0.25, val_fraction=0.2),
            seed=3,
        )
        result = run_training(run)
        assert all(s.val_macro_f1 is not None for s in result.trace)

    def test_runs_from_dataset_file(self, tmp_path):
        path = tmp_path / "data.tsv"
        write_generated_dataset(TINY_RUN.data, seed=3, out_path=path)
        run = RunConfig(
            data=DataConfig(path=str(path)),
            loss=TINY_RUN.loss,
            model=TINY_RUN.model,
            optim=TINY_RUN.optim,
            split=TINY_RUN.split,
            seed=3,
        )
        result = run_training(run)
        assert result.report.n_classes == 3

    def test_file_run_records_the_file_class_count_and_widths(self, tmp_path):
        run = _five_class_file_run(tmp_path)
        path = run.data.path
        out1 = tmp_path / "r1"
        run_training(run, out_dir=out1)
        text = (out1 / "effective.cfg").read_text().splitlines()
        assert "data.n_classes = 5" in text and "data.embed_dims = 4,4,4,4" in text
        reread = parse_config_file(out1 / "effective.cfg")
        assert reread == _tiny(
            data=dict(path=str(path), n_classes=5, embed_dims=(4, 4, 4, 4)),
            model=dict(classifier_dims=(8, 8, 8, 5)),
        )
        out2 = tmp_path / "r2"
        run_training(reread, out_dir=out2)
        assert (out1 / "per_class.csv").read_bytes() == (out2 / "per_class.csv").read_bytes()

    def test_splits_are_not_copied(self):
        # 61 MB of features, against a prediction workspace of about 2 MB
        n = 60000
        rng = np.random.default_rng(6)
        feats = [{m: rng.normal(size=(n, 16)) for m in MODALITIES} for _ in range(2)]
        total = sum(v.nbytes for f in feats for v in f.values())
        run = _tiny(
            data=dict(embed_dims=(16, 16, 16, 16)),
            model=dict(hidden_dim=4, pool_window=4),
            optim=dict(batch_size=64, epochs=1),
            split=dict(test_fraction=0.2, val_fraction=0.1),
        )
        tracemalloc.start()
        try:
            run_training(run, _data=(*feats, rng.integers(0, 3, size=n), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total / 4

    @pytest.mark.parametrize("missing", [2, 4])
    def test_file_missing_a_declared_class_is_rejected(self, tmp_path, missing):
        path = _file_without_class(tmp_path, missing)
        run = _tiny(data=dict(path=str(path)), model=dict(classifier_dims=None))
        with pytest.raises(ConfigError, match="each class it declares"):
            run_training(run, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unknown_variant_rejected(self):
        bad = replace(TINY_RUN, model=replace(TINY_RUN.model, variant="GT"))
        with pytest.raises(ConfigError):
            run_training(bad)


class TestBatchCommands:
    def test_compare_losses_covers_all_kinds(self, tmp_path):
        rows = compare_losses(TINY_RUN, out_dir=tmp_path)
        assert [kind for kind, _ in rows] == ["ce", "wce", "fl", "cb", "bs", "ldam", "tfl"]
        lines = (tmp_path / "losses.csv").read_text().splitlines()
        assert lines[0].startswith("loss,accuracy,")
        assert len(lines) == 8

    def test_ablate_covers_requested_variants(self, tmp_path):
        rows = ablate(TINY_RUN, variants=("G", "GS", "GSTE"), out_dir=tmp_path)
        assert [v for v, _ in rows] == ["G", "GS", "GSTE"]
        lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_ablate_checks_every_variant_before_training(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="bogus"):
            ablate(TINY_RUN, variants=("GSTE", "bogus"), out_dir=tmp_path / "abl")
        assert calls == []
        assert not (tmp_path / "abl").exists()

    def test_sweep_aggregates_over_repeats(self, tmp_path):
        cfg = SweepConfig(parameter="beta", grid=(0.0, 2.0), repeats=2)
        rows = sweep(TINY_RUN, cfg, out_dir=tmp_path)
        assert [v for v, _, _ in rows] == [0.0, 2.0]
        for _, mean, std in rows:
            assert mean.shape == (6,)
            assert np.all(std >= 0)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("beta,mean_accuracy,std_accuracy")
        assert len(lines) == 3

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("command, table", [
        ("compare", "losses.csv"), ("ablate", "ablation.csv"), ("sweep", "sweep.csv"),
    ])
    def test_file_run_records_the_file_class_count_and_widths(
        self, monkeypatch, tmp_path, command, table, cores
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        COMMANDS[command](_five_class_file_run(tmp_path), out1)
        text = (out1 / "effective.cfg").read_text().splitlines()
        assert "data.n_classes = 5" in text and "data.embed_dims = 4,4,4,4" in text
        COMMANDS[command](parse_config_file(out1 / "effective.cfg"), out2)
        assert (out1 / table).read_bytes() == (out2 / table).read_bytes()

    def test_sweep_config_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(parameter="lr", grid=(0.1,))
        with pytest.raises(ConfigError):
            SweepConfig(parameter="beta", grid=())
        with pytest.raises(ConfigError):
            SweepConfig(parameter="beta", grid=(1.0,), repeats=0)
        for parameter, value in [
            ("gamma", -1.0), ("gamma", math.nan), ("gamma", math.inf),
            ("beta", -0.5), ("beta", math.nan), ("beta", math.inf),
            ("ts", -0.1), ("ts", 1.5), ("ts", math.nan),
        ]:
            with pytest.raises(ConfigError, match=parameter):
                SweepConfig(parameter=parameter, grid=(0.5, value))
        SweepConfig(parameter="gamma", grid=(0.0, 1e300))
        SweepConfig(parameter="ts", grid=(0.0, 1.0))

    @pytest.mark.parametrize("call, name", [
        (lambda out: compare_losses(TINY_RUN, kinds=("tfl", "fl", "nope"), out_dir=out), "nope"),
        (lambda out: compare_losses(BAD_VARIANT, out_dir=out), "XX"),
        (lambda out: sweep(BAD_VARIANT, SweepConfig("beta", (0.0, 1.0), 2), out_dir=out), "XX"),
        (lambda out: sweep(BAD_KIND, SweepConfig("beta", (0.0, 1.0), 2), out_dir=out), "nope"),
        # ce and wce ignore gamma, so only fl's rules reject it
        (lambda out: compare_losses(BAD_GAMMA, out_dir=out), "gamma must be >= 0"),
        (lambda out: sweep(BAD_GAMMA, SweepConfig("beta", (0.0, 1.0), 2), out_dir=out), "gamma"),
        (lambda out: run_training(BAD_GAMMA, out_dir=out), "gamma"),
        # ce never uses beta, so each grid point would train the same run
        (lambda out: sweep(_tiny(loss=dict(kind="ce")), SweepConfig(), out_dir=out), "tfl only"),
        (lambda out: compare_losses(TINY_RUN, kinds=(), out_dir=out), "no runs"),
        (lambda out: ablate(TINY_RUN, variants=(), out_dir=out), "no runs"),
        *[(partial(command, run), name)
          for command in COMMANDS.values() for run, name in REJECTED.values()],
    ], ids=["compare-kind", "compare-variant", "sweep-variant", "sweep-kind", "compare-gamma",
            "sweep-gamma", "train-gamma", "sweep-ce", "compare-empty", "ablate-empty",
            *[f"{c}-{r}" for c in COMMANDS for r in REJECTED]])
    def test_batch_commands_check_names_before_building_data(
        self, monkeypatch, tmp_path, call, name
    ):
        calls = []
        monkeypatch.setattr(experiments, "load_run_data", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=name):
            call(tmp_path / "out")
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["path-and-preset", "hidden-dim"])
    def test_file_source_checked_before_reading(self, monkeypatch, tmp_path, case):
        calls = []
        monkeypatch.setattr(experiments, "read_dataset", lambda *a, **k: calls.append(a))
        run, name = REJECTED[case]
        run = replace(run, data=replace(run.data, path=str(tmp_path / "pairs.tsv")))
        with pytest.raises(ConfigError, match=name):
            run_training(run, out_dir=tmp_path / "out")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_sweep_checks_every_grid_value_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "load_run_data", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match="gamma"):
            sweep(TINY_RUN, SweepConfig("gamma", (1, 2, -1), 2))
        assert calls == []

    def test_analyze_reports_thresholds(self, tmp_path):
        text = analyze(gamma=2.0, beta=1.0, out_dir=tmp_path)
        assert "0.606530659713" in text
        assert "P_y = 1" in text
        for name in ("curve_ce.csv", "curve_fl.csv", "curve_tfl.csv"):
            assert (tmp_path / name).exists()


# TINY_RUN at widths where a matmul is large enough for BLAS to use more than one thread
WIDE_RUN = _tiny(
    data=dict(n_samples=400, embed_dims=(16, 16, 16, 16)),
    model=dict(hidden_dim=32, classifier_dims=(64, 64, 64, 3), pool_window=4),
    optim=dict(batch_size=128),
)
# an environment whose interpreters import this tailfocal
SRC_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(os.path.dirname(tailfocal.__file__)), os.environ.get("PYTHONPATH", "")]
    ),
}


def _batch_outputs(out: Path, run=WIDE_RUN, kinds=LOSS_KINDS, variants=tuple(VARIANTS)) -> dict:
    """Pickled rows and table text of each batch command on `run`, by table name."""
    rows = {
        "losses.csv": compare_losses(run, kinds=kinds, out_dir=out),
        "ablation.csv": ablate(run, variants=variants, out_dir=out),
        "sweep.csv": sweep(run, SweepConfig("beta", (0.0, 2.0), 2), out_dir=out),
    }
    return {name: (pickle.dumps(r), (out / name).read_text()) for name, r in rows.items()}


@pytest.fixture
def workers(monkeypatch):
    """(process, environment) of each worker started during the test."""
    started = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        started.append((real_popen(*args, **kwargs), kwargs["env"]))
        return started[-1][0]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


class TestWorkerPool:
    def test_rows_and_tables_match_the_in_process_loop(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        alone = _batch_outputs(tmp_path / "alone")
        assert workers == []
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # a pool on any machine
        assert _batch_outputs(tmp_path / "pooled") == alone
        assert len(workers) == 9  # three per command
        assert all(env[v] == "1" for _, env in workers for v in experiments._THREAD_VARS)

    @pytest.mark.parametrize("run", [
        WIDE_RUN,
        # validation with patience: the runs stop after 3 to 5 of 8 epochs
        _tiny(split=dict(val_fraction=0.25), optim=dict(lr=1e-2, epochs=8, patience=2)),
    ], ids=["wide", "early-stop"])
    def test_epoch_hand_off_matches_the_in_process_loop(self, monkeypatch, tmp_path, workers, run):
        # three runs on two workers, variants of uneven cost, and a sweep over two data sources
        batch = partial(
            _batch_outputs, run=run, kinds=("tfl", "fl", "wce"), variants=("G", "GSTE", "T")
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        alone = batch(tmp_path / "alone")
        assert workers == []
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert batch(tmp_path / "pooled") == alone
        assert len(workers) == 6

    def test_a_free_worker_takes_the_oldest_run_of_its_source_else_the_oldest(self):
        sources = ["x", "y", "x", "y", "z"]
        pick = experiments._pick
        assert pick([1, 2, 3], sources, "x") == 1
        assert pick([3, 0, 1, 2], sources, "y") == 0
        assert pick([3, 0, 1, 2], sources, "x") == 1
        assert pick([1, 3, 0], sources, "z") == 0  # no run of its source: the oldest
        assert pick([2, 4], sources, None) == 0  # a worker that holds nothing yet

    def test_run_diverging_in_its_second_epoch_stops_the_pool(self, monkeypatch, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        steady = _tiny(optim=dict(epochs=6))
        # both overflow in epoch 1, the first at its third batch and the
        # second at its first; whichever fails first in time, the first's
        # error is raised, while the steady runs still have epochs left
        subs = [
            ("late", _tiny(optim=dict(lr=4.5e60, epochs=6))),
            ("early", _tiny(optim=dict(lr=6e60, epochs=6))),
            ("tfl", steady),
            ("fl", replace(steady, loss=replace(steady.loss, kind="fl"))),
        ]
        with pytest.raises(TrainingError, match="logits at epoch 1, batch starting at sample 64"):
            experiments._train_each(TINY_RUN, subs)
        assert len(workers) == 2
        assert all(proc.returncode is not None for proc, _ in workers)

    def test_one_blas_thread_matches_default_threads(self, monkeypatch, tmp_path):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        alone = _batch_outputs(tmp_path / "default")
        code = (
            f"import os, pickle, sys; from pathlib import Path; "
            f"sys.path.insert(0, {os.path.dirname(__file__)!r}); import test_experiments; "
            f"os.cpu_count = lambda: 1; out = Path({str(tmp_path / 'one')!r}); "
            f"sys.stdout.buffer.write(pickle.dumps(test_experiments._batch_outputs(out)))"
        )
        env = {**SRC_ENV, **dict.fromkeys(experiments._THREAD_VARS, "1")}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=300
        )
        assert pickle.loads(done.stdout) == alone

    def test_diverging_run_exits_5_and_writes_nothing(self, monkeypatch, tmp_path, capsys, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        threads = {v: os.environ.get(v) for v in experiments._THREAD_VARS}
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG_TEXT + "optim.lr = 1e300\n")
        out = tmp_path / "cmp"
        assert main(["compare-losses", "--config", str(path), "--out", str(out)]) == 5
        assert "error: non-finite" in capsys.readouterr().err
        assert not out.exists()
        assert len(workers) == 2
        assert all(proc.returncode is not None for proc, _ in workers)
        assert {v: os.environ.get(v) for v in experiments._THREAD_VARS} == threads

    def test_earliest_failing_run_is_raised(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        subs = [("ok", TINY_RUN)] + [
            (i, _tiny(data=dict(path=str(tmp_path / f"missing-{i}.tsv")))) for i in (1, 2)
        ]
        with pytest.raises(FileNotFoundError, match="missing-1"):
            experiments._train_each(TINY_RUN, subs)
        assert len(workers) == 3
        assert all(proc.returncode is not None for proc, _ in workers)

    def test_worker_without_a_result_is_a_training_error(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sys, "executable", shutil.which("false"))
        with pytest.raises(TrainingError, match="'ce' exited with status 1"):
            compare_losses(TINY_RUN, kinds=("ce", "tfl"))

    def test_script_without_main_guard_finishes(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import os\n"
            "from tailfocal import compare_losses, config_from_text\n"
            "os.cpu_count = lambda: 2  # two workers on any machine\n"
            f"rows = compare_losses(config_from_text({TINY_CFG_TEXT!r}), kinds=('ce', 'tfl'))\n"
            "print(*(kind for kind, _ in rows))\n"
        )
        done = subprocess.run(
            [sys.executable, str(script)], env=SRC_ENV, capture_output=True, text=True, timeout=120
        )
        assert (done.returncode, done.stdout) == (0, "ce tfl\n")


class TestCli:
    def _write_cfg(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CFG_TEXT)
        return str(path)

    def test_gen_writes_dataset(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "data.tsv"
        code = main(["gen", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "120 records" in capsys.readouterr().out

    def test_train_prints_metrics_and_writes_reports(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--config", cfg, "--out", str(out)])
        assert code == 0
        assert (out / "summary.txt").exists()
        assert "macro_f1" in capsys.readouterr().out

    def test_train_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["train", "--config", cfg, "--loss", "ce", "--seed", "8"])
        assert code == 0

    def test_analyze_without_out(self, capsys):
        code = main(["analyze", "--gamma", "2.0", "--beta", "3.0"])
        assert code == 0
        assert "1.57348905163" in capsys.readouterr().out

    def test_analyze_reports_crossover_for_huge_beta(self, capsys):
        assert main(["analyze", "--beta", "1e308"]) == 0
        assert "P_y = 7.11795964478e+304" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, name", [
        (["--gamma", "0.001"], "gamma=0.001"),
        (["--gamma", "0.5", "--beta", "1e308"], "beta=1e+308"),
        (["--gamma", "inf"], "gamma"),
    ])
    def test_analyze_out_of_range_exits_3(self, capsys, flags, name):
        assert main(["analyze", *flags]) == 3
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.out == ""

    def test_compare_losses_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["compare-losses", "--config", cfg, "--out", str(tmp_path / "cmp")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("loss,accuracy")
        assert (tmp_path / "cmp" / "losses.csv").exists()

    def test_compare_losses_bad_gamma_exits_3_before_building_data(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(experiments, "load_run_data", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG_TEXT + "loss.gamma = -1\n")
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "cmp"
        for flags in (["--config", str(bad)], ["--config", cfg, "--gamma", "-1"]):
            assert main(["compare-losses", *flags, "--out", str(out)]) == 3
            assert "gamma must be >= 0" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_compare_losses_loss_flags_match_config_keys(self):
        flags = ["--gamma", "0.5", "--beta", "1", "--ts", "0.8"]
        args = _build_parser().parse_args(["compare-losses", *flags])
        text = "loss.gamma = 0.5\nloss.beta = 1\nloss.ts = 0.8\n"
        assert _run_config(args) == config_from_text(text)

    @pytest.mark.parametrize("flags", [
        ["ablate", "--variant", "G"],
        ["compare-losses", "--loss", "ce"],
    ], ids=["ablate-variant", "compare-losses-loss"])
    def test_flag_the_command_loops_over_exits_2(self, tmp_path, flags):
        cfg = self._write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--config", cfg])
        assert exc.value.code == 2

    def test_ablate_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main(["ablate", "--config", cfg, "--variants", "G,TE"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("G,")
        assert lines[2].startswith("TE,")

    def test_ablate_unknown_variant_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "abl"
        code = main(["ablate", "--config", cfg, "--variants", "GSTE,XX", "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "XX" in captured.err
        assert calls == [] and not out.exists()

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        code = main([
            "sweep", "--config", cfg, "--param", "beta", "--grid", "0,2", "--repeats", "1",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("beta,")

    def test_unknown_config_key_exits_4(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("loss.alpha = 1\n")
        assert main(["train", "--config", str(path)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_stale_stratified_key_exits_4_before_any_output(self, tmp_path, capsys):
        # every split is stratified; a config that still sets the old key is
        # refused where it is read, naming its line, before data is built
        path = tmp_path / "old.cfg"
        path.write_text(TINY_CFG_TEXT + "split.stratified = false\n")
        line = TINY_CFG_TEXT.count("\n") + 1
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "split.stratified" in err and f"line {line}" in err
        assert not out.exists()

    def test_missing_config_file_exits_4(self, capsys):
        assert main(["train", "--config", "/nonexistent/run.cfg"]) == 4

    def test_invalid_hyperparameter_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG_TEXT + "loss.gamma = -2.0\n")
        assert main(["train", "--config", str(path)]) == 3

    @pytest.mark.parametrize("flags", [
        ["--gamma", "nan"],
        ["--loss", "fl", "--gamma", "inf"],
        ["--beta", "nan"],
        ["--beta", "inf"],
    ])
    def test_non_finite_hyperparameter_flag_exits_3(self, tmp_path, capsys, flags):
        cfg = self._write_cfg(tmp_path)
        assert main(["train", "--config", cfg, *flags]) == 3
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, name", [
        ("gen", "data.cir = nan", "cir"),
        ("gen", "data.cir = inf", "cir"),
        ("gen", "data.noise_scale = nan", "noise_scale"),
        ("train", "optim.lr = nan", "lr"),
        ("train", "optim.beta1 = 1.5", "beta1"),
        ("train", "optim.eps = -1", "eps"),
        ("train", "split.val_fraction = -0.5", "val_fraction"),
        ("train", "split.val_fraction = nan", "val_fraction"),
        ("train", "split.test_fraction = 0", "test_fraction"),
    ])
    def test_out_of_range_config_value_exits_3(self, tmp_path, capsys, command, line, name):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG_TEXT + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", [2, 4])
    def test_train_on_file_missing_a_declared_class_exits_3(self, tmp_path, capsys, missing):
        path = tmp_path / "run.cfg"
        data = _file_without_class(tmp_path, missing)
        path.write_text(TINY_CFG_TEXT + f"data.path = {data}\nmodel.classifier_dims = none\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 3
        assert "each class it declares" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["sweep", "--loss", "ce", "--param", "beta", "--grid", "0,5", "--repeats", "1"],
         "tfl only"),
        (["ablate", "--variants", ","], "no runs"),
    ], ids=["sweep-ce", "ablate-empty"])
    def test_batch_command_without_distinct_runs_exits_3(
        self, tmp_path, capsys, monkeypatch, flags, name
    ):
        calls = []
        monkeypatch.setattr(experiments, "load_run_data", lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        assert main([*flags, "--config", self._write_cfg(tmp_path), "--out", str(out)]) == 3
        assert name in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_unknown_loss_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--loss", "hinge"])
        assert exc.value.code == 2

    def test_out_of_range_sweep_grid_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "run_training", lambda *a, **k: calls.append(a))
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "sweep"
        flags = ["--param", "gamma", "--grid", "1,-1", "--out", str(out)]
        assert main(["sweep", "--config", cfg, *flags]) == 3
        assert "gamma" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the divergence itself
    def test_diverging_train_exits_5_without_writing(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG_TEXT + "optim.lr = 1e300\n")
        out = tmp_path / "out"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 5
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["none", "None"])
    def test_gen_preset_none_clears_the_config_preset(self, tmp_path, capsys, text):
        path = tmp_path / "run.cfg"
        path.write_text(TINY_CFG_TEXT + "data.preset = DDIMDL\n")
        out = tmp_path / "data.tsv"
        assert main(["gen", "--config", str(path), "--preset", text, "--out", str(out)]) == 0
        assert "120 records" in capsys.readouterr().out

    def test_gen_empty_preset_exits_3_like_its_key(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "data.tsv"
        assert main(["gen", "--config", cfg, "--preset=", "--out", str(out)]) == 3
        assert "unknown preset ''" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sweep_grid_exits_3(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        assert main(["sweep", "--config", cfg, "--grid", "a,b"]) == 3
