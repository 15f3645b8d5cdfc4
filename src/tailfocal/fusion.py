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

Both drugs of a batch run as one block of 2B rows, gathered a batch at a
time from the caller's columns, which stay the only copy of the features;
_forward describes the block and the gather. forward, predict_proba and
train check their parameters against the config's layout, and take each
drug's features as a dict of (n, width) arrays of finite real numbers by
modality, checked once per call on the whole arrays by the feature-pair
rule that Dataset also applies (imbalance._feature_pair); anything else, a
missing or misshapen parameter, or an inf or a text column among the
features, is a ConfigError before any parameter changes. Each is a thin
wrapper over private code on checked arrays (for train, a loop over the
epochs of one training state), which experiments calls with splits it
checked once per run.

Everything is explicit: forward caches intermediates, backward walks them
in reverse and computes the parameter gradients alone, and training is
mini-batch Adam-style updates with optional early stopping on validation
macro-F1, which keeps the best epoch's parameters. The parameters, their
gradients and the Adam moments each live in one flat float64 buffer with a
named view per parameter, and the Adam update runs over cache-sized slices
of them. One layout, derived from the config alone, gives every
parameter's name, shape, order and flat offset. What training carries from
one epoch to the next is one picklable state, so a run can be resumed
between epochs in another process. Ablation variants drop whole streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .datagen import MODALITIES
from .errors import ConfigError, TrainingError
from .imbalance import _count, _feature_pair, _labels, _path, _real, _widths
from .losses import LossSpec, _softmax_rows, batch_loss
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

# ablation variants: which streams stay active
VARIANTS = {
    "G": ("g",),
    "S": ("s",),
    "T": ("t",),
    "E": ("e",),
    "GS": ("g", "s"),
    "TE": ("t", "e"),
    "GSTE": MODALITIES,
}

_ENHANCED_BY = {"g": "s", "t": "e"}


def _variant_modalities(variant: str) -> tuple:
    """The modalities of `variant`, spelled in any case; a ConfigError if it
    names no variant."""
    if not isinstance(variant, str) or variant.upper() not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    return VARIANTS[variant.upper()]


def _check_net(net) -> None:
    """A ConfigError unless `net` (a ModelConfig or NetConfig) obeys the rules needing no data."""
    _count(net.hidden_dim, "hidden_dim", 1)
    _count(net.k_stages, "k_stages", 1)
    if net.activation not in ("relu", "tanh"):
        raise ConfigError(f"activation must be 'relu' or 'tanh', got {net.activation!r}")
    _count(net.pool_window, "pool_window", 1)
    if net.classifier_dims is not None:
        _widths(net.classifier_dims, "classifier_dims")


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
        _check_net(self)
        _count(self.n_classes, "n_classes", 2)
        # counts are stored as Python ints, as _widths stores widths, so a
        # numpy integer given for one still saves as JSON
        for name in ("n_classes", "hidden_dim", "k_stages", "pool_window"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "embed_dims", _widths(self.embed_dims, "embed_dims"))
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
        dims = _widths(self.classifier_dims or (256, 256, 128, self.n_classes), "classifier_dims")
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
    """Adam settings and the epoch budget. patience counts epochs without a
    validation improvement, so without a validation split every epoch runs."""

    lr: float = 1e-3
    batch_size: int = 256
    epochs: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int | None = 10

    def __post_init__(self):
        _real(self.lr, "lr", 0)
        _count(self.batch_size, "batch_size", 1)
        _count(self.epochs, "epochs", 0)
        _real(self.beta1, "beta1", 0, 1, "[)")
        _real(self.beta2, "beta2", 0, 1, "[)")
        _real(self.eps, "eps", 0, ends="()")
        if self.patience is not None:
            _count(self.patience, "patience", 1)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_macro_f1: float | None = None


# ---------------------------------------------------------------------------
# parameter layout


def _spans(config: ModelConfig, width_of) -> tuple[dict, dict, int]:
    """Own and stage-input columns of each modality in rows that hold the
    active modalities side by side. A partner sits right after the stream it
    enhances, so a stream's input (itself plus its partner) is one slice."""
    own, lo = {}, 0
    for m in config.modalities:
        own[m] = slice(lo, lo + width_of(m))
        lo += width_of(m)
    inp = {}
    for m, cols in own.items():
        partner = _ENHANCED_BY.get(m)
        inp[m] = slice(cols.start, own[partner].stop) if partner in own else cols
    return own, inp, lo


class _Stream(NamedTuple):
    """One modality's affine map within one enhancement stage."""

    W: str  # parameter names
    b: str
    cols_in: slice  # its input columns: its own, then its partner's if active
    cols_out: slice  # its columns in the stage output
    adds: bool  # its input gradient adds to columns its enhancer already wrote


class _Plan(NamedTuple):
    """Everything forward, backward and train derive from the config alone."""

    width: int  # packed row width: the active modalities side by side
    cols: dict  # modality -> its columns in a packed row
    stages: tuple  # per stage, one _Stream per active modality
    hidden: int  # width of a stage output, len(modalities) * hidden_dim
    classifier: tuple  # (W, b) parameter names of each classifier layer
    params: tuple  # (name, lo, hi, shape) of each parameter in the flat buffer
    size: int


@lru_cache(maxsize=16)
def _plan(config: ModelConfig) -> _Plan:
    """The parameter layout: modality-major stream maps (stage 1 first), then
    the classifier layers, each W before its b."""
    x_own, x_in, width = _spans(config, config.embed_dim)
    h_own, h_in, hidden = _spans(config, lambda m: config.hidden_dim)
    fed = {_ENHANCED_BY.get(m) for m in config.modalities}
    stages = tuple(
        tuple(
            _Stream(f"{m}{j}_W", f"{m}{j}_b", (x_in if j == 1 else h_in)[m], h_own[m], m in fed)
            for m in config.modalities
        )
        for j in range(1, config.k_stages + 1)
    )
    shapes = {}
    for streams in zip(*stages):  # one modality's streams, stage 1 first
        for st in streams:
            shapes[st.W] = (config.hidden_dim, st.cols_in.stop - st.cols_in.start)
            shapes[st.b] = (config.hidden_dim,)
    classifier, in_dim = [], 2 * config.fused_width()
    for layer, out_dim in enumerate(config.classifier_dims):
        W, b = f"cls{layer}_W", f"cls{layer}_b"
        classifier.append((W, b))
        shapes[W], shapes[b] = (out_dim, in_dim), (out_dim,)
        in_dim = out_dim
    ends = list(accumulate(map(math.prod, shapes.values()), initial=0))
    layout = tuple(zip(shapes, ends, ends[1:], shapes.values()))
    return _Plan(width, x_own, stages, hidden, tuple(classifier), layout, ends[-1])


def _views(plan: _Plan, buf: np.ndarray) -> dict[str, np.ndarray]:
    """A named view per parameter into the flat buffer `buf`."""
    return {name: buf[lo:hi].reshape(shape) for name, lo, hi, shape in plan.params}


def _flat(plan: _Plan) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """One float64 buffer and a named view into it per parameter."""
    buf = np.empty(plan.size)
    return buf, _views(plan, buf)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, in flat-buffer order."""
    return {name: shape for name, _, _, shape in _plan(config).params}


def init_params(config: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Uniform fan-in init, one seeded generator, fixed parameter order; a
    bias takes its fan-in from the weight just before it."""
    _count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    params = {}
    for name, _, _, shape in _plan(config).params:
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def _check_params(config: ModelConfig, params, where: str) -> None:
    """Every parameter of the layout is in `params`, with its shape."""
    for name, _, _, shape in _plan(config).params:
        found = np.shape(params[name]) if name in params else "nothing"
        if found != shape:
            raise ConfigError(f"parameter {name} of the {where}: expected {shape}, found {found}")


# ---------------------------------------------------------------------------
# packed layout


class _Rows(NamedTuple):
    """Rows `rows` of the drug pair (feats_a, feats_b), dicts of the
    caller's columns, which _forward gathers from a batch at a time. _rows
    makes one over every row; a split of it is pair._replace(rows=idx)."""

    feats_a: dict
    feats_b: dict
    rows: np.ndarray


def _rows(config: ModelConfig, feats_a, feats_b) -> _Rows:
    """The pair as _Rows over all its rows, 0..n-1. Checks the whole
    arrays once, by imbalance._feature_pair over the active modalities at
    the config's widths, and requires n >= 1."""
    widths = [config.embed_dim(m) for m in config.modalities]
    n = _feature_pair(feats_a, feats_b, config.modalities, widths)
    if n == 0:
        raise ConfigError("empty batch")
    cols = [{m: np.asarray(feats[m]) for m in config.modalities} for feats in (feats_a, feats_b)]
    return _Rows(*cols, np.arange(n))


class _Work:
    """The arrays _forward and backward write, allocated once for batches of
    up to `rows` pairs; a shorter batch uses leading-row views of them.
    _Training makes one per epoch for its batch steps alone, which _forward
    hands on to backward in its cache. forward makes a full one for that
    call alone, so the arrays forward and backward return stay the caller's;
    _predict, which never runs backward, makes one with backward=False.
    """

    def __init__(self, config: ModelConfig, rows: int, backward=True):
        plan = _plan(config)
        n2 = 2 * rows
        self.x = np.empty((rows, 2, plan.width))  # the batch, as _forward gathers it
        # each classifier layer's input (the pair vectors first), then the logits
        widths = (2 * config.fused_width(), *config.classifier_dims)
        mask = bool if config.activation == "relu" else float  # what _act_grad writes
        self.pooled = np.empty((n2, widths[0] // 2 - plan.hidden))
        # every stage's output but the last, which goes straight into acts[0]
        self.posts = [np.empty((n2, plan.hidden)) for _ in plan.stages[1:]]
        self.bias = np.empty(plan.hidden)
        self.acts = [np.empty((rows, w)) for w in widths]
        if backward:
            self.grad, self.grads = _flat(plan)
            self.gx = [np.empty((rows, w)) for w in widths[:-1]]
            self.masks = [np.empty((rows, w), mask) for w in widths[1:-1]]
            self.dz = np.empty((n2, plan.hidden))
            self.dz_mask = np.empty((n2, plan.hidden), mask)
            self.db = np.empty(plan.hidden)
            self.dprev = np.empty((n2, plan.hidden))
            # an s or e stream's input gradient on its way into dprev
            self.partner = np.empty((n2, config.hidden_dim))


# ---------------------------------------------------------------------------
# forward / backward


def _activate(z: np.ndarray, kind: str | None) -> None:
    """act(z) in place; kind None leaves it affine."""
    if kind == "relu":
        np.maximum(z, 0.0, out=z)
    elif kind == "tanh":
        np.tanh(z, out=z)


def _act_grad(a: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    """Activation derivative from the output alone, into `out` (bool for
    relu, float for tanh); a > 0 iff z > 0, NaN included."""
    if kind == "relu":
        return np.greater(a, 0.0, out=out)
    np.multiply(a, a, out=out)
    return np.subtract(1.0, out, out=out)


def _pool(x: np.ndarray, window: int, out: np.ndarray) -> np.ndarray:
    """Max over each run of `window` columns, as window - 1 elementwise
    maxima into the contiguous `out` (a max or argmax along a short last
    axis, or a write into a strided buffer, pays per row)."""
    view = x.reshape(x.shape[0], -1, window)
    np.copyto(out, view[:, :, 0])
    for k in range(1, window):
        np.maximum(out, view[:, :, k], out=out)
    return out


def _forward(config: ModelConfig, params: dict, pair: _Rows, idx, work: _Work):
    """The forward pass of rows pair.rows[idx] (idx an index array or a
    slice) of `pair`, _rows' or a split of it, writing every array into
    `work`. Returns (logits, cache), the cache holding `work` for backward.

    The batch is gathered straight from the pair's columns into the leading
    rows of work.x, a (B, 2, D) block, with one np.take per modality and
    side. Nothing else writes work.x and nothing here is checked, so the
    caller's columns stay the only copy of the features and a step
    allocates no large array. As 2B rows the block interleaves a0, b0, a1,
    b1, and so on. A row holds the active modalities side by side in
    canonical order g, s, t, e, so a partner sits right after the stream it
    enhances and each stream's input is one contiguous column slice. Each
    stage is one matmul per modality over all 2B rows, max-pooling is one
    pass over the whole row (pool_window divides every width), and the
    fused rows reshaped to (B, 2F) are the pair vectors without a copy.
    """
    plan = _plan(config)
    rows = pair.rows[idx]
    x = work.x[: rows.size]
    for k, feats in enumerate(pair[:2]):
        for m, cols in plan.cols.items():
            # mode="clip" skips take's bounds check; the rows are in range
            x[:, k, cols] = np.take(feats[m], rows, axis=0, mode="clip")
    x = x.reshape(-1, plan.width)
    n2 = x.shape[0]
    acts = [a[: n2 // 2] for a in work.acts]
    # rows a_i, b_i are adjacent, so the pair vectors acts[0] are F_u rows side by side
    fu = acts[0].reshape(n2, -1)
    fu[:, plan.hidden :] = _pool(x, config.pool_window, work.pooled[:n2])

    posts = [p[:n2] for p in work.posts] + [fu[:, : plan.hidden]]
    inp = x
    for stage, out in zip(plan.stages, posts):
        for st in stage:
            np.matmul(inp[:, st.cols_in], params[st.W].T, out=out[:, st.cols_out])
        out += np.concatenate([params[st.b] for st in stage], out=work.bias)
        _activate(out, config.activation)
        inp = out

    for layer, (W, b) in enumerate(plan.classifier):
        z = np.matmul(acts[layer], params[W].T, out=acts[layer + 1])
        z += params[b]
        _activate(z, config.activation if layer < 3 else None)
    return acts[-1], {"x": x, "posts": posts, "acts": acts, "work": work}


def forward(config: ModelConfig, params: dict, feats_a, feats_b):
    """Batch forward pass. Returns (logits, cache) where cache feeds backward().

    feats_a, feats_b map each active modality to a (B, width) array. forward
    checks them and runs them through a workspace it makes for this call
    alone, which backward writes into, so what either returns is the
    caller's.
    """
    _check_params(config, params, "params dict")
    pair = _rows(config, feats_a, feats_b)
    work = _Work(config, pair.rows.size)
    return _forward(config, params, pair, slice(None), work)


def backward(config: ModelConfig, params: dict, cache: dict, grad_logits) -> dict:
    """The gradient of every parameter given d(loss)/d(logits), in
    param_shapes order, as a dict of views into one flat buffer of the
    workspace the forward pass of `cache` wrote into. No gradient for the
    input features is computed.
    """
    plan = _plan(config)
    x, posts, acts, work = cache["x"], cache["posts"], cache["acts"], cache["work"]
    n2 = x.shape[0]
    grads = work.grads
    g = np.asarray(grad_logits, dtype=float)

    for layer, (W, b) in reversed(tuple(enumerate(plan.classifier))):
        np.matmul(g.T, acts[layer], out=grads[W])
        np.sum(g, axis=0, out=grads[b])
        gx = np.matmul(g, params[W], out=work.gx[layer][: n2 // 2])
        if layer > 0:
            gx *= _act_grad(acts[layer], config.activation, work.masks[layer - 1][: n2 // 2])
            g = gx
    # the stage outputs' gradient: the fused rows' leading columns
    dcur = gx.reshape(n2, -1)[:, : plan.hidden]
    for j in range(len(plan.stages), 0, -1):
        mask = _act_grad(posts[j - 1], config.activation, work.dz_mask[:n2])
        dz = np.multiply(dcur, mask, out=work.dz[:n2])
        db = np.sum(dz, axis=0, out=work.db)
        prev = x if j == 1 else posts[j - 2]
        # once dz is computed dcur is spent, so work.dprev can take its place
        dcur = work.dprev[:n2]
        for st in plan.stages[j - 1]:
            dzm = dz[:, st.cols_out]
            np.matmul(dzm.T, prev[:, st.cols_in], out=grads[st.W])
            grads[st.b][...] = db[st.cols_out]
            if j == 1:  # the input features' gradient, which nothing reads
                continue
            if st.adds:
                dcur[:, st.cols_in] += np.matmul(dzm, params[st.W], out=work.partner[:n2])
            else:
                np.matmul(dzm, params[st.W], out=dcur[:, st.cols_in])
    return grads


# pairs per prediction batch, which bounds its memory. It is part of the
# output contract: BLAS picks its kernels by matrix shape, so another value
# can change the bits of predict_proba (on the corpus_eval split at seed 1,
# 256 and 128 rows differ from 1024; 512 does not).
_PREDICT_ROWS = 1024


def _predict(config: ModelConfig, params: dict, pair: _Rows) -> np.ndarray:
    """Class probabilities of the rows of `pair`, _PREDICT_ROWS at a time,
    each batch gathered from its columns into one forward-only _Work.
    Raises TrainingError on a batch whose logits are not finite."""
    n = pair.rows.size
    out = np.empty((n, config.n_classes))
    work = _Work(config, min(_PREDICT_ROWS, n), backward=False)
    for lo in range(0, n, _PREDICT_ROWS):
        logits, _ = _forward(config, params, pair, slice(lo, lo + _PREDICT_ROWS), work)
        if not np.all(np.isfinite(logits)):
            raise TrainingError(f"non-finite logits in prediction, batch starting at row {lo}")
        _softmax_rows(logits, out=out[lo : lo + _PREDICT_ROWS])
    return out


def predict_proba(config, params, feats_a, feats_b) -> np.ndarray:
    """Class probabilities, row i for the pair's i-th row, with feats_a and
    feats_b as for forward. The pair is checked once, then predicted in
    batches of a fixed size, each gathered straight from the caller's
    columns, so no larger copy of the features is made. Raises
    TrainingError if a batch's logits are not finite, naming its first
    row."""
    _check_params(config, params, "params dict")
    return _predict(config, params, _rows(config, feats_a, feats_b))


# ---------------------------------------------------------------------------
# training

# float64 elements per Adam slice: the update's thirteen passes run over one
# slice of theta, m1, m2 and the gradient while it sits in cache. At paper
# scale (1.15M parameters, 2 cores) 16k-32k measured 14-15 ms per update
# against 23 ms over the whole buffers, 4k 19 ms; the values are identical.
_ADAM_SLICE = 1 << 15


class _Training:
    """Everything train carries from one epoch to the next: the flat
    parameters theta, the Adam moments m1 and m2 and its step, the shuffle
    generator, the best validation parameters and score with the count of
    stale epochs since, and the trace, whose length is the number of epochs
    run. It pickles, and run_epoch on an unpickled copy goes on exactly as
    it would have on the original, so a run can move between processes
    between epochs. Buffers for a single epoch's steps (the _Work and the
    Adam scratch) are made by _steps and are not part of the state, and the
    epoch that finishes training drops the Adam moments."""

    def __init__(self, config: ModelConfig, params: dict, opt: OptimConfig, seed: int):
        _check_params(config, params, "params dict")
        _count(seed, "seed", 0)
        self.config, self.opt = config, opt
        self.theta, views = _flat(_plan(config))
        for name, view in views.items():
            view[...] = params[name]
        self.m1 = np.zeros_like(self.theta)
        self.m2 = np.zeros_like(self.theta)
        self.step = 0
        self.rng = np.random.default_rng(seed)
        self.best, self.best_f1, self.stale = None, -np.inf, 0
        self.trace: list[EpochStats] = []

    @property
    def done(self) -> bool:
        """All epochs run, or validation stopped improving for `patience` of them."""
        patience = self.opt.patience
        stopped = patience is not None and self.stale >= patience
        return stopped or len(self.trace) >= self.opt.epochs

    def params(self) -> dict:
        """Named views of the parameters train returns: those of the best
        validation epoch if there is one, else the latest."""
        return _views(_plan(self.config), self.theta if self.best is None else self.best)

    def run_epoch(self, pair: _Rows, labels: np.ndarray, loss_spec: LossSpec, val) -> None:
        """One epoch on `pair` (from _rows, or a split of it) and its int64
        `labels`: the batch steps, then the validation score of `val`, a
        (pair, labels) split or None. The steps' buffers are gone before
        validation makes its workspace, so the two are never alive at once."""
        config, opt = self.config, self.opt
        stats = EpochStats(epoch=len(self.trace), train_loss=self._steps(pair, labels, loss_spec))
        self.trace.append(stats)
        if val is not None:
            pred = np.argmax(_predict(config, _views(_plan(config), self.theta), val[0]), axis=1)
            stats.val_macro_f1 = confusion_metrics(pred, val[1], config.n_classes).macro_f1
            if opt.patience is not None:
                if stats.val_macro_f1 > self.best_f1 + 1e-12:
                    self.best, self.best_f1 = self.theta.copy(), stats.val_macro_f1
                    self.stale = 0
                else:
                    self.stale += 1
        if self.done:  # no step follows, so the moments go before the run is evaluated
            self.m1 = self.m2 = None

    def _steps(self, pair: _Rows, labels: np.ndarray, loss_spec: LossSpec) -> float:
        """The next epoch's shuffle and one Adam step per batch, in a
        workspace and Adam scratch that die with the call; the epoch's mean
        training loss, finite wherever the batch losses are."""
        config, opt, theta = self.config, self.opt, self.theta
        plan = _plan(config)
        views = _views(plan, theta)
        n = pair.rows.size
        epoch = len(self.trace)
        work = _Work(config, min(opt.batch_size, n))
        # backward writes its gradients into work.grad; an Adam slice is views
        # (th, m, v, g) of theta, m1, m2 and work.grad, with u, w of t1, t2 its scratch
        slices = [
            (theta[s], self.m1[s], self.m2[s], work.grad[s])
            for s in (slice(lo, lo + _ADAM_SLICE) for lo in range(0, plan.size, _ADAM_SLICE))
        ]
        t1 = np.empty(min(_ADAM_SLICE, plan.size))
        t2 = np.empty_like(t1)

        perm = self.rng.permutation(n)
        total = mean = 0.0  # mean is the result only where the total overflows
        for lo in range(0, n, opt.batch_size):
            idx = perm[lo : lo + opt.batch_size]
            logits, cache = _forward(config, views, pair, idx, work)
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
            mean += value * (idx.size / n)
            backward(config, views, cache, grad_logits)

            # per slice: m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # th -= lr * (m/bc1) / (sqrt(v/bc2) + eps), in that order
            self.step += 1
            bc1 = 1.0 - opt.beta1**self.step
            bc2 = 1.0 - opt.beta2**self.step
            for th, m, v, g in slices:
                u, w = t1[: th.size], t2[: th.size]
                m *= opt.beta1
                np.multiply(g, 1.0 - opt.beta1, out=u)
                m += u
                v *= opt.beta2
                np.multiply(g, 1.0 - opt.beta2, out=w)
                w *= g
                v += w
                np.divide(m, bc1, out=u)
                u *= opt.lr
                np.divide(v, bc2, out=w)
                np.sqrt(w, out=w)
                w += opt.eps
                u /= w
                th -= u
                # once g*g overflows, v is inf and the update m / inf = 0
                # would freeze the parameters with th still finite
                if not (np.isfinite(th).all() and np.isfinite(v).all()):
                    raise TrainingError(
                        f"non-finite parameters after the update at epoch {epoch}, "
                        f"batch starting at sample {lo}"
                    )
        return total / n if np.isfinite(total) else mean


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

    train_data / val_data: (features_a, features_b, labels) triples, the
    features as for forward and one label per row, a whole number in
    [0, n_classes). train checks both pairs and their labels once, before
    the first step, and copies no more of either than one batch. `seed`
    drives the per-epoch batch shuffle and nothing else; the same params,
    data, opt and seed give bit-identical training.

    A step allocates no large array: each epoch makes one workspace for
    batch_size rows, each batch is gathered straight from the caller's
    columns into it, and forward and backward write into it. The Adam
    update runs its thirteen in-place passes over cache-sized slices of the
    flat buffers, checking each slice's parameters and second moment for
    finiteness as it goes.

    Writes the trained values into the arrays of `params` and returns
    per-epoch statistics. With val_data and a patience, stops once
    validation macro-F1 has not improved for `patience` consecutive epochs
    and returns the parameters of the best validation epoch. Raises
    TrainingError the moment logits, a batch loss, the updated parameters
    or their second moment go non-finite, leaving `params` as they were.
    """
    feats_a, feats_b, labels = train_data
    pair = _rows(config, feats_a, feats_b)
    labels = _labels(labels, "labels", config.n_classes, size=pair.rows.size)
    val = None
    if val_data is not None:
        val_pair = _rows(config, *val_data[:2])
        val_labels = _labels(val_data[2], "validation labels", config.n_classes, val_pair.rows.size)
        val = (val_pair, val_labels)
    state = _Training(config, params, opt, seed)
    while not state.done:
        state.run_epoch(pair, labels, loss_spec, val)
    for name, view in state.params().items():
        params[name][...] = view
    return state.trace


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path, config: ModelConfig, params: dict) -> None:
    """Self-describing checkpoint: config as JSON plus every tensor with its shape."""
    meta = asdict(config)
    arrays = {f"param/{k}": np.asarray(v, dtype=float) for k, v in params.items()}
    np.savez(_path(path, "path"), config=np.array(json.dumps(meta)), **arrays)


def load_model(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Inverse of save_model; rejects checkpoints whose tensors do not fit the config."""
    with np.load(_path(path, "path"), allow_pickle=False) as archive:
        meta = json.loads(str(archive["config"]))
        if sorted(meta) != sorted(f.name for f in fields(ModelConfig)):
            raise ConfigError(f"checkpoint config keys {sorted(meta)} do not match ModelConfig")
        config = ModelConfig(**meta)
        stored = {k[len("param/") :]: archive[k] for k in archive.files if k.startswith("param/")}
    _check_params(config, stored, "checkpoint")
    return config, {name: stored[name].astype(float) for name in param_shapes(config)}
