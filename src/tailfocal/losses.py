"""Classification losses for long-tailed label distributions.

Seven single-label losses behind one interface: plain cross entropy (ce),
count-weighted cross entropy (wce), focal loss (fl), class-balanced loss via
effective numbers (cb), balanced softmax (bs), label-distribution-aware
margins (ldam), and the tail-aware focal loss (tfl) that adds an extra
cross-entropy term on tail classes only:

    tfl(p_y) = -(1 - p_y)^gamma * ln(p_y) - beta * ln(p_y)   [tail classes]
    tfl(p_y) = fl(p_y)                                        [head classes]

Every evaluation reports three things: the loss value, the derivative with
respect to the true-class probability, and the full gradient with respect
to the logits.

One private core, `_rows`, evaluates all rows of a batch at once. ce/wce/fl/cb/tfl
are functions of the true-class probability and act on softmax rows,
reaching the logits through the softmax chain rule; bs and ldam act on the
logits directly, as cross entropy over count-shifted logits. `batch_loss`
is the mean of the core's rows. `loss_on_logits` and the seven scalar
functions are one-row views of the same core; the scalar functions build a
`LossSpec`. `_check_loss` alone holds the rules for a loss kind and its
hyperparameters; `LossSpec` applies them, and experiment runs apply them
before building any data.

All logs are natural. The true-class probability is clamped to
[1e-12, 1 - 1e-12] in both the value and the derivative, so finite
difference checks on the logits stay consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .imbalance import ClassStats, TailPartition, _finite, _labels, _prob_rows, _real

__all__ = [
    "LOSS_KINDS",
    "LossEval",
    "LossSpec",
    "softmax",
    "ce_loss",
    "wce_loss",
    "focal_loss",
    "cb_loss",
    "bs_loss",
    "ldam_loss",
    "tfl_loss",
    "loss_on_logits",
    "batch_loss",
]

LOSS_KINDS = ("ce", "wce", "fl", "cb", "bs", "ldam", "tfl")
_SHIFTED = ("bs", "ldam")

_P_LO = 1e-12
_P_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class LossEval:
    """One loss evaluation: scalar value, d(loss)/d(P_y), d(loss)/d(logits).

    For bs/ldam, grad_p is taken with respect to the loss's own adjusted
    true-class probability (the softmax of the count-shifted logits), since
    that is the probability whose negative log the loss is.
    """

    value: float
    grad_p: float
    grad_z: np.ndarray


def _loss_kind(kind: str) -> str:
    """The lower-case name of loss `kind`, spelled in any case; a ConfigError
    if it names no loss."""
    if kind.lower() not in LOSS_KINDS:
        raise ConfigError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
    return kind.lower()


def _check_loss(kind: str, gamma: float, beta: float, lam: float, margin_c: float) -> str:
    """The lower-case loss `kind`, once it names a loss, every hyperparameter
    is finite and each one `kind` uses is in its range; a ConfigError
    otherwise."""
    kind = _loss_kind(kind)
    for name, value in (("gamma", gamma), ("beta", beta), ("lam", lam), ("margin_c", margin_c)):
        _real(value, name)
    if kind in ("fl", "tfl"):
        _real(gamma, "gamma", 0)
    if kind == "tfl":
        _real(beta, "beta", 0)
    if kind == "cb":
        _real(lam, "lam", 0, 1, "()")
    if kind == "ldam":
        _real(margin_c, "margin_c", 0, 1, "(]")
    return kind


@dataclass(frozen=True)
class LossSpec:
    """Which loss to run and with what hyperparameters.

    Every hyperparameter must be finite; beyond that, fields irrelevant to
    `kind` are ignored. wce/cb/bs/ldam need `stats`; tfl needs `tail` (and
    uses gamma and beta).
    """

    kind: str
    gamma: float = 2.0
    beta: float = 2.0
    lam: float = 0.999
    margin_c: float = 0.5
    stats: ClassStats | None = None
    tail: TailPartition | None = None

    def __post_init__(self):
        kind = _check_loss(self.kind, self.gamma, self.beta, self.lam, self.margin_c)
        object.__setattr__(self, "kind", kind)
        if kind in ("wce", "cb", "bs", "ldam") and self.stats is None:
            raise ConfigError(f"loss {kind!r} needs class statistics")
        if kind == "tfl" and self.tail is None:
            raise ConfigError("loss 'tfl' needs a tail partition")


def _softmax_rows(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax of Z, computed in place in `out` (a new array if None)."""
    out = np.subtract(Z, Z.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def softmax(z) -> np.ndarray:
    """Numerically stable softmax of a 1-D logit vector."""
    return _softmax_rows(_finite(z, 1, "logits")[None])[0]


def _per_class(spec: LossSpec) -> np.ndarray | None:
    """The per-class vector a kind applies: bs/ldam logit shift, wce/cb
    weight, tfl tail boost. ce and fl have none."""
    if spec.kind == "tfl":
        return spec.tail.is_tail.astype(float) * spec.beta
    if spec.kind in ("ce", "fl"):
        return None
    counts = spec.stats.counts.astype(float)
    if spec.kind == "wce":
        return spec.stats.total / counts
    if spec.kind == "cb":
        return (1.0 - spec.lam) / -np.expm1(counts * np.log(spec.lam))
    if spec.kind == "bs":
        return np.log(counts)
    return -spec.margin_c / counts**0.25


def _rows(spec: LossSpec, X: np.ndarray, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (values, grad_p, grad_z) of a finite (B, n) batch.

    X holds probability rows for the probability-form kinds and logit rows
    for bs/ldam; grad_z is always with respect to the logits.
    """
    b, n = X.shape
    Y = _labels(Y, "labels", n, size=b)
    per_class = _per_class(spec)
    if per_class is not None and per_class.size != n:
        raise ConfigError(f"loss {spec.kind!r} is set up for {per_class.size} classes, got {n}")
    rows = np.arange(b)

    if spec.kind in _SHIFTED:
        # cross entropy over the shifted logits u = z + shift
        U = X + per_class
        m = U.max(axis=1, keepdims=True)
        log_norm = m[:, 0] + np.log(np.exp(U - m).sum(axis=1))
        G = np.exp(U - log_norm[:, None])
        grad_p = -1.0 / np.clip(G[rows, Y], _P_LO, _P_HI)
        G[rows, Y] -= 1.0
        return log_norm - U[rows, Y], grad_p, G

    py = X[rows, Y]
    pc = np.clip(py, _P_LO, _P_HI)
    log_p = np.log(pc)
    if spec.kind in ("fl", "tfl"):
        # two-term form of the derivative; at gamma = 0 the first term is
        # exactly zero and the second is exactly -1/p, so fl(gamma=0) == ce
        # holds bit for bit.
        one_m = 1.0 - pc
        values = -(one_m**spec.gamma) * log_p
        grad_p = spec.gamma * one_m ** (spec.gamma - 1.0) * log_p - one_m**spec.gamma / pc
    else:
        values, grad_p = -log_p, -1.0 / pc
    if spec.kind == "tfl":
        boost = per_class[Y]
        values = values - boost * log_p
        grad_p = grad_p - boost / pc
    elif per_class is not None:
        w = per_class[Y]
        values, grad_p = w * values, w * grad_p

    # chain rule through the softmax: dP_y/dz_j = P_y * (delta_yj - p_j)
    coef = grad_p * py
    G = -coef[:, None] * X
    G[rows, Y] += coef
    return values, grad_p, G


def _on_logits(spec: LossSpec, Z: np.ndarray, Y):
    return _rows(spec, Z if spec.kind in _SHIFTED else _softmax_rows(Z), Y)


def _one_row(out) -> LossEval:
    values, grad_p, grad_z = out
    return LossEval(value=float(values[0]), grad_p=float(grad_p[0]), grad_z=grad_z[0])


def _on_probs(spec: LossSpec, p, y) -> LossEval:
    return _one_row(_rows(spec, _prob_rows(_finite(p, 1, "p")[None], "p"), [y]))


# ---------------------------------------------------------------------------
# scalar API: one-row views of the core


def ce_loss(p, y) -> LossEval:
    """Cross entropy -ln(P_y). grad_z comes out as p - onehot(y)."""
    return _on_probs(LossSpec(kind="ce"), p, y)


def wce_loss(p, y, stats: ClassStats) -> LossEval:
    """Cross entropy weighted by inverse class frequency, total / n_y."""
    return _on_probs(LossSpec(kind="wce", stats=stats), p, y)


def focal_loss(p, y, gamma: float = 2.0) -> LossEval:
    """Focal loss -(1 - P_y)^gamma * ln(P_y)."""
    return _on_probs(LossSpec(kind="fl", gamma=gamma), p, y)


def cb_loss(p, y, lam: float, stats: ClassStats) -> LossEval:
    """Class-balanced cross entropy: weight (1 - lam) / (1 - lam^n_y)."""
    return _on_probs(LossSpec(kind="cb", lam=lam, stats=stats), p, y)


def tfl_loss(p, y, gamma: float, beta: float, tail: TailPartition) -> LossEval:
    """Tail-aware focal loss: focal everywhere, plus beta * (-ln P_y) on tail classes."""
    return _on_probs(LossSpec(kind="tfl", gamma=gamma, beta=beta, tail=tail), p, y)


def bs_loss(z, y, stats: ClassStats) -> LossEval:
    """Balanced softmax: -ln( n_y e^{z_y} / sum_i n_i e^{z_i} )."""
    return loss_on_logits(LossSpec(kind="bs", stats=stats), z, y)


def ldam_loss(z, y, margin_c: float, stats: ClassStats) -> LossEval:
    """Margin loss: cross entropy over z_i - C / n_i^(1/4), applied to all classes."""
    return loss_on_logits(LossSpec(kind="ldam", margin_c=margin_c, stats=stats), z, y)


def loss_on_logits(spec: LossSpec, z, y) -> LossEval:
    """Evaluate any configured loss on raw logits."""
    return _one_row(_on_logits(spec, _finite(z, 1, "logits")[None], [y]))


def batch_loss(spec: LossSpec, Z, Y) -> tuple[float, np.ndarray]:
    """Mean loss over a batch of logit rows, plus its gradient.

    Returns (mean value, grad) where grad has Z's shape and already carries
    the 1/B factor, so it can feed a backward pass directly.
    """
    Z = _finite(Z, 2, "logits")
    values, _, G = _on_logits(spec, Z, Y)
    return float(values.mean()), G / Z.shape[0]
