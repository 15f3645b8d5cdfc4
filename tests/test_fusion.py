"""Fusion network: shapes, forward oracle, gradients, training loop, checkpoints."""

import dataclasses
import inspect
import json
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from tailfocal import (
    VARIANTS,
    ConfigError,
    LossSpec,
    ModelConfig,
    OptimConfig,
    TrainingError,
    backward,
    batch_loss,
    forward,
    init_params,
    load_model,
    param_shapes,
    predict_proba,
    save_model,
    softmax,
    train,
)
from tailfocal import fusion
from tailfocal.fusion import _forward, _pack, _plan, _pool, _rows, _Rows, _Work
from tailfocal.metrics import confusion_metrics

TINY = dict(
    n_classes=3,
    embed_dims=(4, 4, 4, 4),
    hidden_dim=3,
    k_stages=1,
    classifier_dims=(5, 4, 3, 3),
    pool_window=2,
)


def _rand_feats(rng, config, n):
    return {m: rng.normal(size=(n, config.embed_dim(m))) for m in config.modalities}


def _longhand_train(config, params, data, spec, opt, seed):
    """Test-local trainer: the public forward and backward on per-batch dict
    slices, and a per-parameter Adam loop. Returns the per-epoch losses."""
    fa, fb, labels = data
    rng = np.random.default_rng(seed)
    m1 = {k: np.zeros_like(v) for k, v in params.items()}
    m2 = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    losses = []
    for _ in range(opt.epochs):
        perm = rng.permutation(labels.size)
        total = 0.0
        for lo in range(0, labels.size, opt.batch_size):
            idx = perm[lo : lo + opt.batch_size]
            ba = {m: fa[m][idx] for m in config.modalities}
            bb = {m: fb[m][idx] for m in config.modalities}
            logits, cache = forward(config, params, ba, bb)
            value, grad_logits = batch_loss(spec, logits, labels[idx])
            total += value * idx.size
            grads = backward(config, params, cache, grad_logits)
            step += 1
            bc1 = 1.0 - opt.beta1**step
            bc2 = 1.0 - opt.beta2**step
            for k in sorted(params):
                gk = grads[k]
                m1[k] = opt.beta1 * m1[k] + (1.0 - opt.beta1) * gk
                m2[k] = opt.beta2 * m2[k] + (1.0 - opt.beta2) * gk * gk
                params[k] -= opt.lr * (m1[k] / bc1) / (np.sqrt(m2[k] / bc2) + opt.eps)
        losses.append(total / labels.size)
    return losses


def _naive_forward(config, params, fa, fb):
    """Test-local re-derivation of the forward pass, written longhand."""
    act = (lambda z: np.maximum(z, 0.0)) if config.activation == "relu" else np.tanh
    enhanced = {"g": "s", "t": "e"}

    def encode(f):
        pooled = []
        for m in config.modalities:
            x = f[m]
            b, d = x.shape
            pooled.append(x.reshape(b, d // config.pool_window, config.pool_window).max(axis=2))
        cur = dict(f)
        for j in range(1, config.k_stages + 1):
            new = {}
            for m in config.modalities:
                inp = cur[m]
                partner = enhanced.get(m)
                if partner is not None and partner in config.modalities:
                    inp = np.concatenate([cur[m], cur[partner]], axis=1)
                new[m] = act(inp @ params[f"{m}{j}_W"].T + params[f"{m}{j}_b"])
            cur = new
        return np.concatenate([cur[m] for m in config.modalities] + pooled, axis=1)

    x = np.concatenate([encode(fa), encode(fb)], axis=1)
    for layer in range(4):
        z = x @ params[f"cls{layer}_W"].T + params[f"cls{layer}_b"]
        x = act(z) if layer < 3 else z
    return x


class TestModelConfig:
    def test_pool_window_must_divide_widths(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_classes=2, embed_dims=(6, 4, 4, 4), pool_window=4)

    def test_classifier_must_end_at_n_classes(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_classes=3, classifier_dims=(8, 8, 8, 4), embed_dims=(4, 4, 4, 4))

    def test_modalities_normalize_to_canonical_order(self):
        config = ModelConfig(n_classes=2, embed_dims=(4, 4, 4, 4), modalities=("e", "t"))
        assert config.modalities == ("t", "e")

    def test_rejects_unknown_modality(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_classes=2, embed_dims=(4, 4, 4, 4), modalities=("g", "x"))

    @pytest.mark.parametrize("field, value", [
        ("k_stages", 0),
        ("embed_dims", (4.5, 4, 4, 4)),  # not cut to 4
        ("embed_dims", (4, 4, 4)),
        ("classifier_dims", (8.7, 8, 8, 3)),
        ("classifier_dims", (8, 0, 8, 3)),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{"n_classes": 3, "embed_dims": (4, 4, 4, 4), field: value})

    def test_default_classifier_ends_at_n_classes(self):
        config = ModelConfig(n_classes=7, embed_dims=(4, 4, 4, 4))
        assert config.classifier_dims == (256, 256, 128, 7)

    def test_variant_table_covers_expected_subsets(self):
        assert set(VARIANTS) == {"G", "S", "T", "E", "GS", "TE", "GSTE"}
        assert VARIANTS["GS"] == ("g", "s")
        assert VARIANTS["GSTE"] == ("g", "s", "t", "e")


class TestOptimConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf),
        ("beta1", 1.5), ("beta1", 1.0), ("beta1", -0.1), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", math.nan),
        ("eps", -1.0), ("eps", 0.0), ("eps", math.nan), ("eps", math.inf),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field):
            OptimConfig(**{field: value})

    def test_accepts_range_edges(self):
        OptimConfig(lr=0.0, beta1=0.0, beta2=0.0, eps=5e-324)


class TestParamShapes:
    def test_enhanced_streams_see_partner_width(self):
        config = ModelConfig(
            n_classes=3, embed_dims=(8, 8, 8, 8), hidden_dim=4, k_stages=2,
            classifier_dims=(6, 6, 6, 3), pool_window=4,
        )
        shapes = param_shapes(config)
        assert shapes["g1_W"] == (4, 16)  # g concatenated with s
        assert shapes["s1_W"] == (4, 8)
        assert shapes["t1_W"] == (4, 16)  # t concatenated with e
        assert shapes["e1_W"] == (4, 8)
        assert shapes["g2_W"] == (4, 8)  # hidden + hidden
        assert shapes["s2_W"] == (4, 4)

    def test_classifier_input_is_twice_fused_width(self):
        config = ModelConfig(**TINY)
        shapes = param_shapes(config)
        assert config.fused_width() == 4 * 3 + 4 * 2
        assert shapes["cls0_W"] == (5, 2 * config.fused_width())
        assert shapes["cls3_W"] == (3, 3)

    def test_dropping_partner_shrinks_enhanced_input(self):
        solo = ModelConfig(
            n_classes=2, embed_dims=(8, 8, 8, 8), hidden_dim=4, k_stages=1,
            classifier_dims=(4, 4, 4, 2), pool_window=4, modalities=("g",),
        )
        assert param_shapes(solo)["g1_W"] == (4, 8)

    def test_name_order_is_modality_major_then_classifier(self):
        # the order fixes the init draw order and the flat parameter layout
        classifier = [
            "cls0_W", "cls0_b", "cls1_W", "cls1_b", "cls2_W", "cls2_b", "cls3_W", "cls3_b",
        ]
        tiny = ["g1_W", "g1_b", "s1_W", "s1_b", "t1_W", "t1_b", "e1_W", "e1_b"]
        assert list(param_shapes(ModelConfig(**TINY))) == tiny + classifier
        gs = ModelConfig(**{**TINY, "k_stages": 2}, modalities=VARIANTS["GS"])
        gs_names = ["g1_W", "g1_b", "g2_W", "g2_b", "s1_W", "s1_b", "s2_W", "s2_b"]
        assert list(param_shapes(gs)) == gs_names + classifier

    def test_init_matches_declared_shapes(self):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=0)
        for name, shape in param_shapes(config).items():
            assert params[name].shape == shape

    def test_init_deterministic(self):
        config = ModelConfig(**TINY)
        a = init_params(config, seed=3)
        b = init_params(config, seed=3)
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestMaxPool:
    def test_values_and_indices(self):
        x = np.array([[1.0, 3.0, 2.0, 0.0]])
        np.testing.assert_array_equal(_pool(x, 2, np.empty((1, 2))), [[3.0, 2.0]])

    def test_tie_routes_to_first(self):
        x = np.array([[2.0, 2.0]])
        np.testing.assert_array_equal(_pool(x, 2, np.empty((1, 1))), [[2.0]])


class TestForward:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(51)
        for variant in ("GSTE", "GS", "TE", "S"):
            config = ModelConfig(
                n_classes=3, embed_dims=(4, 6, 4, 6), hidden_dim=3, k_stages=2,
                classifier_dims=(5, 4, 3, 3), pool_window=2,
                modalities=VARIANTS[variant],
            )
            params = init_params(config, seed=1)
            fa = _rand_feats(rng, config, 5)
            fb = _rand_feats(rng, config, 5)
            logits, _ = forward(config, params, fa, fb)
            assert np.array_equal(logits, _naive_forward(config, params, fa, fb))

    def test_batch_equals_stacked_singles(self):
        rng = np.random.default_rng(52)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=2)
        fa = _rand_feats(rng, config, 6)
        fb = _rand_feats(rng, config, 6)
        batched, _ = forward(config, params, fa, fb)
        for i in range(6):
            row, _ = forward(
                config, params,
                {m: fa[m][i : i + 1] for m in config.modalities},
                {m: fb[m][i : i + 1] for m in config.modalities},
            )
            np.testing.assert_allclose(batched[i], row[0], rtol=1e-12, atol=1e-14)

    def test_swapping_pair_changes_logits(self):
        rng = np.random.default_rng(53)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=3)
        fa = _rand_feats(rng, config, 4)
        fb = _rand_feats(rng, config, 4)
        ab, _ = forward(config, params, fa, fb)
        ba, _ = forward(config, params, fb, fa)
        assert not np.allclose(ab, ba)

    def test_rejects_missing_modality(self):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=0)
        feats = _rand_feats(np.random.default_rng(0), config, 2)
        broken = {m: feats[m] for m in ("g", "s", "t")}
        with pytest.raises(ConfigError):
            forward(config, params, broken, feats)

    def test_rejects_wrong_width(self):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=0)
        feats = _rand_feats(np.random.default_rng(0), config, 2)
        bad = dict(feats)
        bad["g"] = np.zeros((2, 5))
        with pytest.raises(ConfigError):
            forward(config, params, bad, feats)

    def test_rejects_mismatched_batches(self):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=0)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            forward(config, params, _rand_feats(rng, config, 2), _rand_feats(rng, config, 3))

    def test_predict_proba_rows_are_distributions(self, monkeypatch):
        rng = np.random.default_rng(54)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=4)
        fa = _rand_feats(rng, config, 10)
        fb = _rand_feats(rng, config, 10)
        full = predict_proba(config, params, fa, fb)
        assert full.shape == (10, 3)
        np.testing.assert_allclose(full.sum(axis=1), 1.0, atol=1e-12)
        logits, _ = forward(config, params, fa, fb)
        assert all(np.array_equal(row, softmax(z)) for row, z in zip(full, logits))
        for rows in (1, 3, 7, 1024):  # the batch size changes no row
            monkeypatch.setattr(fusion, "_PREDICT_ROWS", rows)
            assert np.array_equal(predict_proba(config, params, fa, fb), full)

    def test_predict_proba_rejects_mismatched_pair(self):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=4)
        rng = np.random.default_rng(55)
        fa = _rand_feats(rng, config, 10)
        fb = _rand_feats(rng, config, 20)
        with pytest.raises(ConfigError, match="rows"):
            predict_proba(config, params, fa, fb)
        with pytest.raises(ConfigError, match="rows"):
            predict_proba(config, params, fb, fa)


    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_inputs_left_untouched_and_calls_repeat(self, monkeypatch, activation):
        # the forward pass works in place on its own buffers, never on the caller's
        rng = np.random.default_rng(55)
        config = ModelConfig(**{**TINY, "k_stages": 2, "activation": activation})
        params = init_params(config, seed=5)
        fa = _rand_feats(rng, config, 9)
        fb = _rand_feats(rng, config, 9)
        labels = rng.integers(0, config.n_classes, size=9)
        snapshot = [{m: v.copy() for m, v in f.items()} for f in (fa, fb)]
        param_snapshot = {k: v.copy() for k, v in params.items()}

        first, _ = forward(config, params, fa, fb)
        kept = first.copy()
        second, _ = forward(config, params, fa, fb)
        assert np.array_equal(first, kept)
        assert np.array_equal(first, second)
        monkeypatch.setattr(fusion, "_PREDICT_ROWS", 4)
        predict_proba(config, params, fa, fb)
        assert all(np.array_equal(params[k], param_snapshot[k]) for k in params)
        opt = OptimConfig(lr=1e-2, batch_size=4, epochs=1, patience=None)
        train(config, params, (fa, fb, labels), LossSpec(kind="ce"), opt,
              val_data=(fa, fb, labels), seed=0)
        for feats, before in zip((fa, fb), snapshot):
            assert all(np.array_equal(feats[m], before[m]) for m in feats)


class TestPublicContract:
    """forward, predict_proba and train take dicts of arrays in their
    feature slots, and nothing else."""

    CALLS = {
        "forward": forward,
        "predict_proba": predict_proba,
        "train": lambda config, params, fa, fb: train(
            config, params, (fa, fb, np.zeros(4, dtype=int)), LossSpec(kind="ce"),
            OptimConfig(batch_size=4, epochs=1, patience=None),
        ),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("carrier", ["rows-in-a", "rows-in-b", "none", "array", "list"])
    def test_feature_slots_take_only_mappings(self, call, carrier):
        rng = np.random.default_rng(57)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=4)
        before = {k: v.copy() for k, v in params.items()}
        fa, fb = _rand_feats(rng, config, 4), _rand_feats(rng, config, 4)
        rows = _Rows(fa, fb, np.arange(4))
        side, fa, fb = {
            "rows-in-a": ("a", rows, None),  # the split form the public slots once took
            "rows-in-b": ("b", fa, rows),
            "none": ("b", fa, None),
            "array": ("a", fa["g"], fb),
            "list": ("b", fa, list(fb.values())),
        }[carrier]
        with pytest.raises(ConfigError, match=f"drug {side} must map each modality"):
            self.CALLS[call](config, params, fa, fb)
        assert all(np.array_equal(params[k], before[k]) for k in params)

    @pytest.mark.parametrize("carrier", ["rows", "array"])
    def test_validation_slots_are_checked_before_training(self, monkeypatch, carrier):
        rng = np.random.default_rng(58)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=4)
        fa, fb = _rand_feats(rng, config, 4), _rand_feats(rng, config, 4)
        labels = rng.integers(0, 3, size=4)
        val = {"rows": (_Rows(fa, fb, np.arange(4)), None, labels), "array": (fa, fa["g"], labels)}
        steps = []
        monkeypatch.setattr(fusion, "backward", lambda *args: steps.append(args))
        with pytest.raises(ConfigError, match="must map each modality"):
            train(config, params, (fa, fb, labels), LossSpec(kind="ce"),
                  OptimConfig(batch_size=4, epochs=1, patience=None), val_data=val[carrier])
        assert steps == []

    def test_public_docstrings_name_no_private_carrier(self):
        for name in fusion.__all__:
            obj = getattr(fusion, name)
            if inspect.isfunction(obj):
                for private in ("_Rows", "_Packed", "_Work"):
                    assert private not in obj.__doc__, (name, private)

    def test_predict_proba_raises_on_non_finite_logits_naming_the_batch(self, monkeypatch):
        rng = np.random.default_rng(59)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=4)
        fa, fb = _rand_feats(rng, config, 10), _rand_feats(rng, config, 10)
        fb["t"][6] = np.nan  # in the second batch of four
        monkeypatch.setattr(fusion, "_PREDICT_ROWS", 4)
        with pytest.raises(TrainingError, match="in prediction, batch starting at row 4"):
            predict_proba(config, params, fa, fb)


class TestBackward:
    def _fd_param_check(self, activation, seed, rtol=1e-4):
        rng = np.random.default_rng(seed)
        config = ModelConfig(activation=activation, **TINY)
        params = init_params(config, seed=seed)
        fa = _rand_feats(rng, config, 3)
        fb = _rand_feats(rng, config, 3)
        labels = rng.integers(0, 3, size=3)
        spec = LossSpec(kind="ce")

        def loss_value():
            logits, _ = forward(config, params, fa, fb)
            return batch_loss(spec, logits, labels)[0]

        logits, cache = forward(config, params, fa, fb)
        _, grad_logits = batch_loss(spec, logits, labels)
        grads = backward(config, params, cache, grad_logits)

        h = 1e-6
        for name in sorted(params):
            flat = params[name].reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                dn = loss_value()
                flat[i] = orig
                fd[i] = (up - dn) / (2.0 * h)
            an = grads[name].reshape(-1)
            scale = np.maximum(np.abs(an), np.abs(fd))
            assert np.all(np.abs(an - fd) <= np.maximum(1e-7, rtol * scale)), name

    def test_param_gradients_match_fd_tanh(self):
        for seed in (0, 1):
            self._fd_param_check("tanh", seed)

    def test_param_gradients_match_fd_relu(self):
        for seed in (2, 3):
            self._fd_param_check("relu", seed)

    # forward makes its own workspace; _forward writes into the one training passes it
    @pytest.mark.parametrize("packed", [False, True], ids=["own_work", "packed_work"])
    def test_gradients_are_views_of_the_workspace_in_layout_order(self, packed):
        rng = np.random.default_rng(60)
        config = ModelConfig(**dict(TINY, k_stages=2))
        params = init_params(config, seed=6)
        fa, fb = _rand_feats(rng, config, 4), _rand_feats(rng, config, 4)
        work = _Work(config, 4)
        if packed:
            x = _pack(config, _rows(config, fa, fb), slice(None), work.x)
            logits, cache = _forward(config, params, x, work)
        else:
            logits, cache = forward(config, params, fa, fb)
        _, grad_logits = batch_loss(LossSpec(kind="ce"), logits, rng.integers(0, 3, size=4))
        grads = backward(config, params, cache, grad_logits)
        assert (cache["work"] is work) == packed
        assert list(grads) == list(param_shapes(config))
        flat = cache["work"].grad
        for name, lo, _, shape in _plan(config).params:
            assert grads[name].shape == shape
            assert grads[name].ctypes.data == flat[lo:].ctypes.data, name


class TestTraining:
    def _toy(self, rng, config, n):
        # class-dependent constant vectors: linearly separable by construction
        protos = {m: rng.normal(size=(config.n_classes, config.embed_dim(m))) for m in config.modalities}
        labels = rng.integers(0, config.n_classes, size=n)
        fa = {m: protos[m][labels] for m in config.modalities}
        fb = {m: protos[m][(labels + 1) % config.n_classes] for m in config.modalities}
        return fa, fb, labels

    def test_zero_learning_rate_is_a_no_op(self):
        rng = np.random.default_rng(70)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=7)
        before = {k: v.copy() for k, v in params.items()}
        data = self._toy(rng, config, 24)
        opt = OptimConfig(lr=0.0, batch_size=8, epochs=3, patience=None)
        trace = train(config, params, data, LossSpec(kind="ce"), opt, seed=1)
        assert all(np.array_equal(params[k], before[k]) for k in params)
        assert len(trace) == 3
        assert trace[0].train_loss == pytest.approx(trace[2].train_loss, rel=1e-12)

    def test_zero_epochs_returns_empty_trace(self):
        rng = np.random.default_rng(71)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=8)
        data = self._toy(rng, config, 12)
        opt = OptimConfig(epochs=0)
        assert train(config, params, data, LossSpec(kind="ce"), opt, seed=1) == []

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(72)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=9)
        data = self._toy(rng, config, 48)
        opt = OptimConfig(lr=2e-2, batch_size=16, epochs=60, patience=None)
        trace = train(config, params, data, LossSpec(kind="ce"), opt, seed=2)
        assert trace[-1].train_loss < 0.5 * trace[0].train_loss

    def test_early_stopping_cuts_the_trace(self):
        rng = np.random.default_rng(73)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=10)
        data = self._toy(rng, config, 32)
        opt = OptimConfig(lr=1e-2, batch_size=16, epochs=60, patience=3)
        trace = train(config, params, data, LossSpec(kind="ce"), opt, val_data=data, seed=3)
        assert len(trace) < 60
        assert trace[-1].val_macro_f1 is not None

    def test_training_determinism(self):
        rng = np.random.default_rng(74)
        config = ModelConfig(**TINY)
        data = self._toy(rng, config, 24)
        opt = OptimConfig(lr=1e-3, batch_size=8, epochs=4, patience=None)
        p1 = init_params(config, seed=11)
        p2 = init_params(config, seed=11)
        t1 = train(config, p1, data, LossSpec(kind="ce"), opt, seed=5)
        t2 = train(config, p2, data, LossSpec(kind="ce"), opt, seed=5)
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        assert [s.train_loss for s in t1] == [s.train_loss for s in t2]

    @pytest.mark.parametrize("activation, k_stages", [("relu", 1), ("tanh", 2)])
    def test_matches_longhand_trainer(self, activation, k_stages):
        rng = np.random.default_rng(76)
        config = ModelConfig(**dict(TINY, activation=activation, k_stages=k_stages))
        data = self._toy(rng, config, 24)
        opt = OptimConfig(lr=1e-2, batch_size=8, epochs=2, patience=None)
        spec = LossSpec(kind="ce")
        params = init_params(config, seed=14)
        ids = {k: id(v) for k, v in params.items()}
        trace = train(config, params, data, spec, opt, seed=6)
        expected = init_params(config, seed=14)
        losses = _longhand_train(config, expected, data, spec, opt, seed=6)
        assert {k: id(v) for k, v in params.items()} == ids
        for k in expected:
            assert np.array_equal(params[k], expected[k]), k
        assert not np.array_equal(expected["cls0_W"], init_params(config, seed=14)["cls0_W"])
        assert np.array_equal([s.train_loss for s in trace], losses)

    def test_matches_longhand_trainer_over_adam_slices_and_a_short_batch(self, monkeypatch):
        rng = np.random.default_rng(81)
        config = ModelConfig(**dict(TINY, k_stages=2))
        size = sum(math.prod(shape) for shape in param_shapes(config).values())
        monkeypatch.setattr(fusion, "_ADAM_SLICE", 64)
        assert size // 64 >= 3 and size % 64  # several slices, the last one short
        data = self._toy(rng, config, 29)
        opt = OptimConfig(lr=1e-2, batch_size=8, epochs=3, patience=None)  # batches 8, 8, 8, 5
        spec = LossSpec(kind="ce")
        params = init_params(config, seed=18)
        trace = train(config, params, data, spec, opt, seed=9)
        expected = init_params(config, seed=18)
        losses = _longhand_train(config, expected, data, spec, opt, seed=9)
        for k in expected:
            assert np.array_equal(params[k], expected[k]), k
        assert np.array_equal([s.train_loss for s in trace], losses)

    def test_non_finite_gradient_in_the_last_slice_raises_at_its_step(self, monkeypatch):
        rng = np.random.default_rng(82)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=19)
        before = {k: v.copy() for k, v in params.items()}
        data = self._toy(rng, config, 24)
        opt = OptimConfig(lr=1e-3, batch_size=8, epochs=2, patience=None)
        monkeypatch.setattr(fusion, "_ADAM_SLICE", 64)
        assert list(param_shapes(config))[-1] == "cls3_b"
        real_backward = fusion.backward
        steps = []

        def nan_in_cls3_b(*args):
            out = real_backward(*args)
            steps.append(None)
            if len(steps) == 5:  # epoch 1, the batch starting at sample 8
                out["cls3_b"][-1] = np.nan
            return out

        monkeypatch.setattr(fusion, "backward", nan_in_cls3_b)
        with pytest.raises(TrainingError, match="parameters .* epoch 1, batch starting at sample 8"):
            train(config, params, data, LossSpec(kind="ce"), opt, seed=0)
        assert len(steps) == 5
        assert all(np.array_equal(params[k], before[k]) for k in params)

    def test_public_calls_return_arrays_later_calls_leave_alone(self):
        rng = np.random.default_rng(83)
        config = ModelConfig(**dict(TINY, k_stages=2))
        params = init_params(config, seed=20)
        spec = LossSpec(kind="ce")
        runs = []
        for n in (5, 5, 3):  # a second batch of the same size, then a smaller one
            fa, fb = _rand_feats(rng, config, n), _rand_feats(rng, config, n)
            logits, cache = forward(config, params, fa, fb)
            _, grad_logits = batch_loss(spec, logits, rng.integers(0, 3, size=n))
            out = backward(config, params, cache, grad_logits)
            runs.append((logits, logits.copy(), out, {k: v.copy() for k, v in out.items()}))
        for logits, kept, out, grads in runs:
            assert np.array_equal(logits, kept)
            assert all(np.array_equal(out[k], grads[k]) for k in grads)

    def test_diverging_update_raises_at_its_step(self, monkeypatch):
        rng = np.random.default_rng(77)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=15)
        before = {k: v.copy() for k, v in params.items()}
        data = self._toy(rng, config, 8)
        opt = OptimConfig(lr=1e-3, batch_size=8, epochs=1, patience=None)

        def nan_gradient(spec, logits, labels):
            return 1.0, np.full_like(logits, np.nan)

        monkeypatch.setattr(fusion, "batch_loss", nan_gradient)
        where = "parameters .* epoch 0, batch starting at sample 0"
        with pytest.raises(TrainingError, match=where):
            train(config, params, data, LossSpec(kind="ce"), opt, seed=0)
        assert all(np.array_equal(params[k], before[k]) for k in params)

    @pytest.mark.parametrize("name, change", [
        ("s1_b", lambda params: params.pop("s1_b")),
        ("cls2_W", lambda params: params.update(cls2_W=np.zeros((2, 2)))),
    ], ids=["missing", "wrong-shape"])
    def test_params_must_fit_the_layout(self, name, change):
        rng = np.random.default_rng(78)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=15)
        change(params)
        opt = OptimConfig(batch_size=8, epochs=1, patience=None)
        with pytest.raises(ConfigError, match=name):
            train(config, params, self._toy(rng, config, 8), LossSpec(kind="ce"), opt, seed=0)

    def test_early_stopping_returns_best_epoch(self):
        rng = np.random.default_rng(79)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=16)
        fa, fb, labels = self._toy(rng, config, 64)

        def noisy(feats):
            return {m: v + rng.normal(scale=1.5, size=v.shape) for m, v in feats.items()}

        train_data = (noisy(fa), noisy(fb), labels)
        val_a, val_b = noisy(fa), noisy(fb)
        opt = OptimConfig(lr=5e-2, batch_size=16, epochs=40, patience=3)
        trace = train(
            config, params, train_data, LossSpec(kind="ce"), opt,
            val_data=(val_a, val_b, labels), seed=7,
        )
        scores = [s.val_macro_f1 for s in trace]
        assert len(scores) < 40 and scores[-1] < max(scores)  # stopped past the best epoch
        pred = np.argmax(predict_proba(config, params, val_a, val_b), axis=1)
        assert confusion_metrics(pred, labels, config.n_classes).macro_f1 == max(scores)

    @pytest.mark.parametrize(
        "epochs, patience, validate", [(60, 3, True), (4, None, False), (0, 3, True)]
    )
    def test_epochs_stepped_through_pickle_match_one_call(self, epochs, patience, validate):
        rng = np.random.default_rng(73)
        config = ModelConfig(**TINY)
        data = self._toy(rng, config, 32)
        val_data = data if validate else None
        opt = OptimConfig(lr=1e-2, batch_size=16, epochs=epochs, patience=patience)
        spec = LossSpec(kind="ce")
        whole = init_params(config, seed=10)
        start = {k: v.copy() for k, v in whole.items()}
        trace = train(config, whole, data, spec, opt, val_data=val_data, seed=3)
        if patience is not None and epochs:
            assert len(trace) < epochs  # validation stopped it early
        pair, labels = _rows(config, *data[:2]), data[2]
        val = (pair, labels) if validate else None
        state = fusion._Training(config, start, opt, seed=3)
        while not state.done:
            state = pickle.loads(pickle.dumps(state))
            state.run_epoch(pair, labels, spec, val)
        state = pickle.loads(pickle.dumps(state))
        assert state.trace == trace
        stepped = state.params()
        assert all(stepped[k].tobytes() == whole[k].tobytes() for k in whole)

    def test_no_training_workspace_is_alive_during_validation(self, monkeypatch):
        made, alive = [], []  # weak refs to the training workspaces; those alive per validation

        class Recorded(_Work):
            def __init__(self, config, rows, backward=True):
                if not backward:  # a prediction workspace, as validation makes
                    alive.append(sum(ref() is not None for ref in made))
                super().__init__(config, rows, backward)
                if backward:
                    made.append(weakref.ref(self))

        monkeypatch.setattr(fusion, "_Work", Recorded)
        rng = np.random.default_rng(86)
        config = ModelConfig(**TINY)
        data = self._toy(rng, config, 32)
        opt = OptimConfig(batch_size=8, epochs=3, patience=None)
        train(config, init_params(config, seed=4), data, LossSpec(kind="ce"), opt, val_data=data)
        assert len(made) == 3 and alive == [0, 0, 0]

    def test_the_finishing_epoch_drops_the_adam_moments(self):
        rng = np.random.default_rng(87)
        config = ModelConfig(**TINY)
        fa, fb, labels = self._toy(rng, config, 16)
        opt = OptimConfig(batch_size=8, epochs=2, patience=None)
        state = fusion._Training(config, init_params(config, seed=4), opt, seed=0)
        for _ in range(2):
            assert state.m1 is not None and state.m2 is not None  # an epoch is left
            state.run_epoch(_rows(config, fa, fb), labels, LossSpec(kind="ce"), None)
        assert state.done and state.m1 is None and state.m2 is None

    def test_training_on_dicts_copies_no_whole_split(self):
        # 20.5 MB of features, against a workspace of 64 rows at width 64
        rng = np.random.default_rng(84)
        config = ModelConfig(
            n_classes=3, embed_dims=(16, 16, 16, 16), hidden_dim=4, k_stages=1,
            classifier_dims=(8, 8, 8, 3),
        )
        fa, fb = _rand_feats(rng, config, 20000), _rand_feats(rng, config, 20000)
        total = sum(v.nbytes for f in (fa, fb) for v in f.values())
        data = (fa, fb, rng.integers(0, 3, size=20000))
        params = init_params(config, seed=21)
        opt = OptimConfig(batch_size=64, epochs=1, patience=None)
        tracemalloc.start()
        try:
            train(config, params, data, LossSpec(kind="ce"), opt, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < total / 4

    def test_non_finite_forward_raises_training_error(self):
        rng = np.random.default_rng(75)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=12)
        params["g1_W"][:] = 1e308
        data = self._toy(rng, config, 8)
        opt = OptimConfig(lr=1e-3, batch_size=8, epochs=1, patience=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="epoch 0"):
                train(config, params, data, LossSpec(kind="ce"), opt, seed=0)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        config = ModelConfig(activation="tanh", **TINY)
        params = init_params(config, seed=13)
        path = tmp_path / "model.npz"
        save_model(path, config, params)
        loaded_config, loaded_params = load_model(path)
        assert loaded_config == config
        assert sorted(loaded_params) == sorted(params)
        assert all(np.array_equal(loaded_params[k], params[k]) for k in params)

    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(76)
        config = ModelConfig(**TINY)
        params = init_params(config, seed=14)
        fa = _rand_feats(rng, config, 5)
        fb = _rand_feats(rng, config, 5)
        path = tmp_path / "model.npz"
        save_model(path, config, params)
        config2, params2 = load_model(path)
        a, _ = forward(config, params, fa, fb)
        b, _ = forward(config2, params2, fa, fb)
        assert np.array_equal(a, b)

    def test_missing_parameter_rejected(self, tmp_path):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=15)
        dropped = {k: v for k, v in params.items() if k != "s1_b"}
        path = tmp_path / "model.npz"
        save_model(path, config, dropped)
        with pytest.raises(ConfigError, match="s1_b"):
            load_model(path)

    def test_config_keys_must_match_model_config(self, tmp_path):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=17)
        meta = dataclasses.asdict(config)
        del meta["activation"]
        path = tmp_path / "model.npz"
        np.savez(path, config=np.array(json.dumps(meta)),
                 **{f"param/{k}": v for k, v in params.items()})
        with pytest.raises(ConfigError, match="keys"):
            load_model(path)

    def test_wrong_shape_rejected(self, tmp_path):
        config = ModelConfig(**TINY)
        params = init_params(config, seed=16)
        params["g1_W"] = np.zeros((2, 2))
        path = tmp_path / "model.npz"
        save_model(path, config, params)
        with pytest.raises(ConfigError, match="g1_W"):
            load_model(path)
