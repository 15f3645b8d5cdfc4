"""Experiment orchestration: splits, config files, run outputs, CLI."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from tailfocal import (
    ConfigError,
    DataConfig,
    DataFormatError,
    EpochStats,
    LossConfig,
    NetConfig,
    OptimConfig,
    RunConfig,
    SplitConfig,
    SweepConfig,
    ablate,
    analyze,
    build_loss_spec,
    class_stats_from_counts,
    compare_losses,
    config_from_text,
    config_to_text,
    loss_on_logits,
    parse_config_file,
    run_training,
    softmax,
    split_indices,
    sweep,
    write_generated_dataset,
)
from tailfocal import experiments
from tailfocal.cli import main

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

    def test_unstratified_size(self):
        labels = np.repeat([0, 1], 50)
        train, test = split_indices(labels, 0.2, seed=0, stratified=False)
        assert test.size == 20
        assert train.size == 80

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
            split=SplitConfig(stratified=False),
            seed=17,
        )
        assert config_from_text(config_to_text(run)) == run

    def test_text_parses_to_expected_config(self):
        run = config_from_text(TINY_CFG_TEXT)
        assert run == TINY_RUN

    def test_partial_text_overrides_base(self):
        run = config_from_text("loss.beta = 3.5\n", base=TINY_RUN)
        assert run.loss.beta == 3.5
        assert run.data == TINY_RUN.data

    def test_comments_and_blank_lines_ignored(self):
        run = config_from_text("# comment\n\nseed = 5\n")
        assert run.seed == 5

    def test_unknown_key_names_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            config_from_text("seed = 1\nloss.alpha = 2\n")

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
    ], ids=["compare-kind", "compare-variant", "sweep-variant", "sweep-kind"])
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
    ])
    def test_out_of_range_config_value_exits_3(self, tmp_path, capsys, command, line, name):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_CFG_TEXT + line + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        assert name in capsys.readouterr().err
        assert not out.exists()

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
