"""Classification losses for long-tailed label distributions.

Seven single-label losses behind one interface: plain cross entropy (ce),
count-weighted cross entropy (wce), focal loss (fl), class-balanced loss via
effective numbers (cb), balanced softmax (bs), label-distribution-aware
margins (ldam), and the tail-aware focal loss (tfl) that adds an extra
cross-entropy term on tail classes only:

    tfl(p_y) = -(1 - p_y)^gamma * ln(p_y) - beta * ln(p_y)   [tail classes]
    tfl(p_y) = fl(p_y)                                        [head classes]

`LossSpec` gives each kind's formula. Every evaluation reports three
things: the loss value, the derivative with respect to the true-class
probability, and the full gradient with respect to the logits.

One private core, `_rows`, evaluates all rows of a batch of logits at once.
It adds the per-class shift for bs and ldam (zero for the other kinds),
takes log P_y by log-sum-exp, and writes the logit gradient as
f * (onehot - P), where f = d(loss)/d(log P_y). Nothing clips P_y, so
the value and the gradient are exact at any logit gap, and the value keeps
growing with the gap. There is one entry point per input form:
`batch_loss` is the mean of the core's rows, and `loss_on_logits` and
`loss_on_probs` are one-row views of the same core. `_check_loss` alone
holds the rules for a loss kind and its hyperparameters; `LossSpec`
applies them, and experiment runs apply them before building any data.

All logs are natural. Only `loss_on_probs` clamps its input, to
[1e-12, 1 - 1e-12], before passing its log to the core as logits.
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
    "loss_on_probs",
    "loss_on_logits",
    "batch_loss",
]

LOSS_KINDS = ("ce", "wce", "fl", "cb", "bs", "ldam", "tfl")

_P_LO = 1e-12
_P_HI = 1.0 - 1e-12


@dataclass(frozen=True)
class LossEval:
    """One loss evaluation: scalar value, d(loss)/d(P_y), d(loss)/d(logits).

    For bs/ldam, grad_p is taken with respect to the loss's own adjusted
    true-class probability (the softmax of the count-shifted logits), since
    that is the probability whose negative log the loss is. Where P_y
    underflows to 0 on logits, grad_p is -inf, without a numpy warning;
    grad_z stays finite.
    """

    value: float
    grad_p: float
    grad_z: np.ndarray


def _loss_kind(kind: str) -> str:
    """The lower-case name of loss `kind`, spelled in any case; a ConfigError
    if it names no loss."""
    if not isinstance(kind, str) or kind.lower() not in LOSS_KINDS:
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

    With P the softmax of the logits z, n_i the count of class i and N the
    total, each kind's loss on the true class y is:

        ce    -ln(P_y)
        wce   (N / n_y) * -ln(P_y)
        fl    -(1 - P_y)^gamma * ln(P_y)
        cb    (1 - lam) / (1 - lam^n_y) * -ln(P_y)
        bs    -ln( n_y e^{z_y} / sum_i n_i e^{z_i} )
        ldam  ce over the logits z_i - margin_c / n_i^(1/4), every i shifted
        tfl   fl, plus beta * -ln(P_y) on tail classes

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


def _rows(spec: LossSpec, Z: np.ndarray, Y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (values, grad_p, grad_z) of a finite (B, n) batch of logits.

    Every kind is focal loss on its (shifted) logits, at gamma = 0 unless it
    is fl or tfl, so all share f = (1-p)^gamma (gamma p r - 1), with
    1 - p = -expm1(log p) and r = log p / (1 - p) (-1 where 1 - p is 0);
    a weight (wce, cb) or a tail boost (tfl) is applied to f after that.
    (1-p)^(gamma-1) is never formed, and at gamma = 0 f is exactly -1.
    """
    b, n = Z.shape
    Y = _labels(Y, "labels", n, size=b)
    per_class = _per_class(spec)
    if per_class is not None and per_class.size != n:
        raise ConfigError(f"loss {spec.kind!r} is set up for {per_class.size} classes, got {n}")
    rows = np.arange(b)

    # G holds the shifted logits, then P, then the gradient
    G = Z + (per_class if spec.kind in ("bs", "ldam") else 0.0)
    G -= G.max(axis=1, keepdims=True)
    log_py = G[rows, Y]
    np.exp(G, out=G)
    total = G.sum(axis=1)
    log_py -= np.log(total)
    G /= total[:, None]
    py = G[rows, Y]

    gamma = spec.gamma if spec.kind in ("fl", "tfl") else 0.0
    one_m = -np.expm1(log_py)
    focal = one_m**gamma
    r = np.divide(log_py, one_m, out=np.full(b, -1.0), where=one_m > 0)
    values = focal * -log_py
    f = focal * (gamma * py * r - 1.0)
    if spec.kind == "tfl":
        boost = per_class[Y]
        values, f = values - boost * log_py, f - boost
    elif spec.kind in ("wce", "cb"):
        w = per_class[Y]
        values, f = w * values, w * f

    with np.errstate(divide="ignore", over="ignore"):
        grad_p = f / py
    G *= -f[:, None]
    G[rows, Y] += f
    return values, grad_p, G


def _one_row(out) -> LossEval:
    values, grad_p, grad_z = out
    return LossEval(value=float(values[0]), grad_p=float(grad_p[0]), grad_z=grad_z[0])


def loss_on_probs(spec: LossSpec, p, y) -> LossEval:
    """Evaluate any configured loss on a probability vector, as on the
    logits ln(p). This is the one place p is clamped, to
    [1e-12, 1 - 1e-12], so a 0 or a 1 in p gives finite values."""
    p = _prob_rows(_finite(p, 1, "p")[None], "p")
    return _one_row(_rows(spec, np.log(np.clip(p, _P_LO, _P_HI)), [y]))


def loss_on_logits(spec: LossSpec, z, y) -> LossEval:
    """Evaluate any configured loss on raw logits."""
    return _one_row(_rows(spec, _finite(z, 1, "logits")[None], [y]))


def batch_loss(spec: LossSpec, Z, Y) -> tuple[float, np.ndarray]:
    """Mean loss over a batch of logit rows, plus its gradient.

    Returns (mean value, grad) where grad has Z's shape and already carries
    the 1/B factor, so it can feed a backward pass directly.
    """
    Z = _finite(Z, 2, "logits")
    values, _, G = _rows(spec, Z, Y)
    values /= Z.shape[0]  # before the sum, which can overflow where no row does
    G /= Z.shape[0]
    return float(values.sum()), G
