"""Two-drug multimodal fusion classifier, hand-rolled on numpy.

Per drug, four feature streams (g, s, t, e) pass through k enhancement
stages. The two strong streams get their partner concatenated before each
affine map: g sees s, t sees e; s and e advance through plain per-stage
maps. The raw embeddings survive through a max-pool shortcut so the
distinctive per-modality components are not washed out by fusion:

    F_u = concat(g_k, s_k, t_k, e_k, pool(g_0), pool(s_0), pool(t_0), pool(e_0))

The pair vector concat(F_u(drug_a), F_u(drug_b)) feeds a 4-layer classifier
ending in logits. Weights are shared between the two drugs. Concatenation
order is fixed, so swapping the pair generally changes the output; callers
choose a canonical pair order.

Everything is explicit: forward caches intermediates, backward walks them
in reverse, and training is mini-batch Adam-style updates with optional
early stopping on validation macro-F1. Ablation variants drop whole
streams (and the partner concatenation with them).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConfigError, TrainingError
from .losses import LossSpec, batch_loss
from .metrics import confusion_metrics

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "OptimConfig",
    "EpochStats",
    "param_shapes",
    "init_params",
    "forward",
    "backward",
    "predict_proba",
    "train",
    "save_model",
    "load_model",
]

MODALITIES = ("g", "s", "t", "e")

# ablation variants: which streams stay active
VARIANTS = {
    "G": ("g",),
    "S": ("s",),
    "T": ("t",),
    "E": ("e",),
    "GS": ("g", "s"),
    "TE": ("t", "e"),
    "GSTE": ("g", "s", "t", "e"),
}

_ENHANCED_BY = {"g": "s", "t": "e"}


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    embed_dims: tuple[int, int, int, int] = (64, 64, 64, 64)
    hidden_dim: int = 256
    k_stages: int = 2
    classifier_dims: tuple[int, int, int, int] | None = None
    activation: str = "relu"
    pool_window: int = 4
    modalities: tuple[str, ...] = MODALITIES

    def __post_init__(self):
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if len(self.embed_dims) != 4 or any(int(d) < 1 for d in self.embed_dims):
            raise ConfigError("embed_dims must be four positive widths (g, s, t, e)")
        object.__setattr__(self, "embed_dims", tuple(int(d) for d in self.embed_dims))
        if self.hidden_dim < 1:
            raise ConfigError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.k_stages < 1:
            raise ConfigError(f"k_stages must be >= 1, got {self.k_stages}")
        if self.activation not in ("relu", "tanh"):
            raise ConfigError(f"activation must be 'relu' or 'tanh', got {self.activation!r}")
        if self.pool_window < 1:
            raise ConfigError(f"pool_window must be >= 1, got {self.pool_window}")
        mods = tuple(m.lower() for m in self.modalities)
        if not mods or len(set(mods)) != len(mods) or any(m not in MODALITIES for m in mods):
            raise ConfigError(f"modalities must be a non-empty subset of {MODALITIES}")
        # canonical order g, s, t, e regardless of how the subset was given
        object.__setattr__(self, "modalities", tuple(m for m in MODALITIES if m in mods))
        for m in self.modalities:
            dim = self.embed_dims[MODALITIES.index(m)]
            if dim % self.pool_window != 0:
                raise ConfigError(
                    f"pool_window {self.pool_window} must divide the {m} width {dim}"
                )
        if self.classifier_dims is None:
            object.__setattr__(self, "classifier_dims", (256, 256, 128, self.n_classes))
        else:
            dims = tuple(int(d) for d in self.classifier_dims)
            if len(dims) != 4 or any(d < 1 for d in dims):
                raise ConfigError("classifier_dims must be four positive widths")
            if dims[-1] != self.n_classes:
                raise ConfigError(
                    f"classifier ends at {dims[-1]} units but n_classes is {self.n_classes}"
                )
            object.__setattr__(self, "classifier_dims", dims)

    def embed_dim(self, m: str) -> int:
        return self.embed_dims[MODALITIES.index(m)]

    def fused_width(self) -> int:
        pooled = sum(self.embed_dim(m) // self.pool_window for m in self.modalities)
        return len(self.modalities) * self.hidden_dim + pooled


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int | None = 10

    def __post_init__(self):
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1 or None, got {self.patience}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_macro_f1: float | None = None


# ---------------------------------------------------------------------------
# parameter bookkeeping


def _stage_in_dim(config: ModelConfig, m: str, stage: int) -> int:
    prev = config.embed_dim(m) if stage == 1 else config.hidden_dim
    partner = _ENHANCED_BY.get(m)
    if partner is not None and partner in config.modalities:
        prev += config.embed_dim(partner) if stage == 1 else config.hidden_dim
    return prev


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes; init, IO, and checks all agree on it."""
    shapes: dict[str, tuple[int, ...]] = {}
    for m in config.modalities:
        for j in range(1, config.k_stages + 1):
            shapes[f"{m}{j}_W"] = (config.hidden_dim, _stage_in_dim(config, m, j))
            shapes[f"{m}{j}_b"] = (config.hidden_dim,)
    in_dim = 2 * config.fused_width()
    for layer, out_dim in enumerate(config.classifier_dims):
        shapes[f"cls{layer}_W"] = (out_dim, in_dim)
        shapes[f"cls{layer}_b"] = (out_dim,)
        in_dim = out_dim
    return shapes


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Uniform fan-in init, one seeded generator, fixed parameter order."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(config).items():
        fan_in = shape[1] if len(shape) == 2 else param_shapes(config)[name[:-1] + "W"][1]
        bound = 1.0 / np.sqrt(fan_in)
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


# ---------------------------------------------------------------------------
# forward / backward


def _affine_act(x: np.ndarray, W: np.ndarray, b: np.ndarray, kind: str | None) -> np.ndarray:
    """act(x @ W.T + b) in one fresh buffer; kind None leaves it affine."""
    z = x @ W.T
    z += b
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)
    return z


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """Activation derivative from the output alone; a > 0 iff z > 0, NaN included."""
    if kind == "relu":
        return a > 0.0
    return 1.0 - a * a


def _check_features(config: ModelConfig, feats, side: str) -> dict[str, np.ndarray]:
    out = {}
    n = None
    for m in config.modalities:
        if m not in feats:
            raise ConfigError(f"features for drug {side} lack modality {m!r}")
        x = np.asarray(feats[m], dtype=float)
        want = config.embed_dim(m)
        if x.ndim != 2 or x.shape[1] != want:
            raise ConfigError(
                f"drug {side} modality {m} must be (batch, {want}), got {x.shape}"
            )
        if n is None:
            n = x.shape[0]
        elif x.shape[0] != n:
            raise ConfigError(f"drug {side} modality {m} batch size differs")
        out[m] = x
    if n == 0:
        raise ConfigError("empty batch")
    return out


def _maxpool(x: np.ndarray, window: int):
    b, d = x.shape
    view = x.reshape(b, d // window, window)
    idx = np.argmax(view, axis=2)
    return np.take_along_axis(view, idx[:, :, None], axis=2)[:, :, 0], idx


def _maxpool_back(grad: np.ndarray, idx: np.ndarray, width: int, window: int) -> np.ndarray:
    b = grad.shape[0]
    out = np.zeros((b, width // window, window))
    np.put_along_axis(out, idx[:, :, None], grad[:, :, None], axis=2)
    return out.reshape(b, width)


def _stage_input(config: ModelConfig, m: str, cur: dict[str, np.ndarray]) -> np.ndarray:
    partner = _ENHANCED_BY.get(m)
    if partner is not None and partner in config.modalities:
        return np.concatenate([cur[m], cur[partner]], axis=1)
    return cur[m]


def _encode_side(config, params, feats):
    cache = {"x0": feats, "post": {}}
    pooled = {}
    pool_idx = {}
    for m in config.modalities:
        pooled[m], pool_idx[m] = _maxpool(feats[m], config.pool_window)
    cache["pool_idx"] = pool_idx

    cur = feats
    for j in range(1, config.k_stages + 1):
        new = {}
        for m in config.modalities:
            inp = _stage_input(config, m, cur)
            new[m] = _affine_act(inp, params[f"{m}{j}_W"], params[f"{m}{j}_b"], config.activation)
            cache["post"][m, j] = new[m]
        cur = new

    fu = np.concatenate(
        [cur[m] for m in config.modalities] + [pooled[m] for m in config.modalities], axis=1
    )
    return fu, cache


def forward(config: ModelConfig, params: dict, feats_a, feats_b):
    """Batch forward pass. Returns (logits, cache) where cache feeds backward()."""
    fa = _check_features(config, feats_a, "a")
    fb = _check_features(config, feats_b, "b")
    if next(iter(fa.values())).shape[0] != next(iter(fb.values())).shape[0]:
        raise ConfigError("drug a and drug b batches differ in size")

    fu_a, cache_a = _encode_side(config, params, fa)
    fu_b, cache_b = _encode_side(config, params, fb)
    x = np.concatenate([fu_a, fu_b], axis=1)

    inputs = []
    for layer in range(4):
        inputs.append(x)
        kind = config.activation if layer < 3 else None
        x = _affine_act(x, params[f"cls{layer}_W"], params[f"cls{layer}_b"], kind)
    return x, {"a": cache_a, "b": cache_b, "cls_inputs": inputs}


def _decode_side(config, params, cache, dfu, grads):
    # split dfu back into stage-k stream grads and pooled-shortcut grads
    h = config.hidden_dim
    mods = config.modalities
    dcur = {}
    off = 0
    for m in mods:
        dcur[m] = dfu[:, off : off + h]
        off += h
    dx0 = {}
    for m in mods:
        w = config.embed_dim(m) // config.pool_window
        dx0[m] = _maxpool_back(
            dfu[:, off : off + w], cache["pool_idx"][m], config.embed_dim(m), config.pool_window
        )
        off += w

    for j in range(config.k_stages, 0, -1):
        prev = cache["x0"] if j == 1 else {m: cache["post"][m, j - 1] for m in mods}
        dprev = {m: np.zeros_like(prev[m]) for m in mods}
        for m in mods:
            dz = dcur[m] * _act_grad(cache["post"][m, j], config.activation)
            inp = _stage_input(config, m, prev)
            grads[f"{m}{j}_W"] += dz.T @ inp
            grads[f"{m}{j}_b"] += dz.sum(axis=0)
            dinp = dz @ params[f"{m}{j}_W"]
            partner = _ENHANCED_BY.get(m)
            if partner is not None and partner in mods:
                w_own = prev[m].shape[1]
                dprev[m] += dinp[:, :w_own]
                dprev[partner] += dinp[:, w_own:]
            else:
                dprev[m] += dinp
        dcur = dprev

    for m in mods:
        dx0[m] += dcur[m]
    return dx0


def backward(config: ModelConfig, params: dict, cache: dict, grad_logits) -> dict:
    """Gradients for every parameter (and the inputs) given d(loss)/d(logits)."""
    grads = {name: np.zeros(shape) for name, shape in param_shapes(config).items()}
    g = np.asarray(grad_logits, dtype=float)

    inputs = cache["cls_inputs"]
    for layer in range(3, -1, -1):
        x = inputs[layer]
        grads[f"cls{layer}_W"] += g.T @ x
        grads[f"cls{layer}_b"] += g.sum(axis=0)
        gx = g @ params[f"cls{layer}_W"]
        if layer > 0:
            g = gx * _act_grad(x, config.activation)
    fu_w = config.fused_width()
    dfu_a, dfu_b = gx[:, :fu_w], gx[:, fu_w:]

    din_a = _decode_side(config, params, cache["a"], dfu_a, grads)
    din_b = _decode_side(config, params, cache["b"], dfu_b, grads)
    return {"params": grads, "inputs": {"a": din_a, "b": din_b}}


def predict_proba(config, params, feats_a, feats_b, batch_size: int = 1024) -> np.ndarray:
    """Class probabilities, computed in batches to bound memory."""
    fa = _check_features(config, feats_a, "a")
    fb = _check_features(config, feats_b, "b")
    n = next(iter(fa.values())).shape[0]
    out = np.empty((n, config.n_classes))
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        za = {m: fa[m][lo:hi] for m in config.modalities}
        zb = {m: fb[m][lo:hi] for m in config.modalities}
        e, _ = forward(config, params, za, zb)
        e -= e.max(axis=1, keepdims=True)
        np.exp(e, out=e)
        np.divide(e, e.sum(axis=1, keepdims=True), out=out[lo:hi])
    return out


# ---------------------------------------------------------------------------
# training


def _macro_f1(config, params, feats_a, feats_b, labels) -> float:
    probs = predict_proba(config, params, feats_a, feats_b)
    pred = np.argmax(probs, axis=1)
    return confusion_metrics(pred, labels, config.n_classes).macro_f1


def train(
    config: ModelConfig,
    params: dict,
    train_data,
    loss_spec: LossSpec,
    opt: OptimConfig,
    val_data=None,
    seed: int = 0,
) -> list[EpochStats]:
    """Mini-batch training with per-parameter adaptive step scaling.

    train_data / val_data: (features_a, features_b, labels) triples.
    `seed` drives the per-epoch batch shuffle and nothing else; the same
    params, data, opt and seed give bit-identical training.
    Updates `params` in place and returns per-epoch statistics. With
    val_data and a patience, stops once validation macro-F1 has not
    improved for `patience` consecutive epochs. Raises TrainingError the
    moment a batch loss goes non-finite.
    """
    feats_a, feats_b, labels = train_data
    fa = _check_features(config, feats_a, "a")
    fb = _check_features(config, feats_b, "b")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if next(iter(fa.values())).shape[0] != n:
        raise ConfigError("labels and features disagree on sample count")

    rng = np.random.default_rng(seed)
    names = sorted(params)
    m1 = {k: np.zeros_like(params[k]) for k in names}
    m2 = {k: np.zeros_like(params[k]) for k in names}
    step = 0

    trace: list[EpochStats] = []
    best_f1 = -np.inf
    stale = 0
    for epoch in range(opt.epochs):
        perm = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, opt.batch_size):
            idx = perm[lo : lo + opt.batch_size]
            ba = {m: fa[m][idx] for m in config.modalities}
            bb = {m: fb[m][idx] for m in config.modalities}
            logits, cache = forward(config, params, ba, bb)
            if not np.all(np.isfinite(logits)):
                raise TrainingError(
                    f"non-finite logits at epoch {epoch}, batch starting at sample {lo}"
                )
            value, grad_logits = batch_loss(loss_spec, logits, labels[idx])
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch starting at sample {lo}"
                )
            total += value * idx.size
            grads = backward(config, params, cache, grad_logits)["params"]

            step += 1
            bc1 = 1.0 - opt.beta1**step
            bc2 = 1.0 - opt.beta2**step
            for k in names:
                gk = grads[k]
                m1[k] = opt.beta1 * m1[k] + (1.0 - opt.beta1) * gk
                m2[k] = opt.beta2 * m2[k] + (1.0 - opt.beta2) * gk * gk
                params[k] -= opt.lr * (m1[k] / bc1) / (np.sqrt(m2[k] / bc2) + opt.eps)

        stats = EpochStats(epoch=epoch, train_loss=total / n)
        if val_data is not None:
            stats.val_macro_f1 = _macro_f1(config, params, val_data[0], val_data[1], val_data[2])
            if opt.patience is not None:
                if stats.val_macro_f1 > best_f1 + 1e-12:
                    best_f1 = stats.val_macro_f1
                    stale = 0
                else:
                    stale += 1
            trace.append(stats)
            if opt.patience is not None and stale >= opt.patience:
                break
        else:
            trace.append(stats)
    return trace


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, config: ModelConfig, params: dict) -> None:
    """Self-describing checkpoint: config as JSON plus every tensor with its shape."""
    meta = asdict(config)
    arrays = {f"param/{k}": np.asarray(v, dtype=float) for k, v in params.items()}
    np.savez(path, config=np.array(json.dumps(meta)), **arrays)


def load_model(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Inverse of save_model; rejects checkpoints whose tensors do not fit the config."""
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["config"]))
        if sorted(meta) != sorted(f.name for f in fields(ModelConfig)):
            raise ConfigError(f"checkpoint config keys {sorted(meta)} do not match ModelConfig")
        config = ModelConfig(**meta)
        expected = param_shapes(config)
        params = {}
        for name, shape in expected.items():
            key = f"param/{name}"
            if key not in archive:
                raise ConfigError(f"checkpoint lacks parameter {name}")
            arr = archive[key]
            if arr.shape != shape:
                raise ConfigError(
                    f"checkpoint parameter {name} has shape {arr.shape}, expected {shape}"
                )
            params[name] = arr.astype(float)
    return config, params
