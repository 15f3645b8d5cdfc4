"""Where loss gradients vanish as the true-class probability grows.

The focal loss gradient with respect to P_y changes character at
P_y = exp(-1/gamma): past that point the |gradient| has dropped below the
level where the focusing term stops mattering, which is where rare-class
learning stalls. Adding a tail cross-entropy term with weight beta moves
the crossover to

    P = beta / (gamma * W((beta/gamma) * exp(1/gamma)))

with W the principal Lambert branch, the inverse of w -> w * exp(w).
For beta = 1, gamma = 2 the identity W(x e^x) = x collapses this to
exactly 1: the gradient never vanishes inside the unit interval.

The curve tabulation here intentionally re-implements the loss formulas
instead of importing them, so tests can cross-check two independent code
paths against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "VanishingReport",
    "lambert_w0",
    "fl_vanishing_threshold",
    "tfl_vanishing_threshold",
    "curve_table",
    "write_curve",
]

_BRANCH_POINT = -math.exp(-1.0)
_TOL, _MAX_ITER = 1e-12, 64  # lambert_w0's relative residual bound and iteration cap


@dataclass(frozen=True)
class VanishingReport:
    """Crossover probability where a loss's P_y-gradient magnitude saturates.

    beta is None for losses without a tail term. in_unit_interval says
    whether the crossover lies at or below 1 (with a 1e-9 guard so the
    exactly-1 case lands on the True side).
    """

    loss_kind: str
    gamma: float
    beta: float | None
    crossover_p: float
    in_unit_interval: bool


def lambert_w0(x: float) -> float:
    """Principal Lambert W: the w >= -1 solving w * exp(w) = x.

    Defined for x >= -1/e. Halley iteration from a branched initial guess:
    a series around the branch point for x near -1/e, log-log asymptotics
    for large x, log(1 + x) otherwise. Converges when the residual
    |w e^w - x| drops below _TOL * max(1, |x|). Above 1e300, where w e^w
    overflows on the way to the float maximum, Newton iteration solves
    w + log(w) = log(x) instead, to a residual below _TOL * log(x).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ConfigError(f"lambert_w0 needs a finite argument, got {x}")
    if x < _BRANCH_POINT:
        raise ConfigError(f"lambert_w0 defined for x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0

    if x < -0.25:
        # series around the branch point w(-1/e) = -1
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p**3
    elif x > math.e:
        lx = math.log(x)
        w = lx - math.log(lx)
    else:
        w = math.log1p(x)

    if x > 1e300:
        # Newton step on w + log(w) - lx, lx = log(x) from the initial guess
        for _ in range(_MAX_ITER):
            f = w + math.log(w) - lx
            if abs(f) <= _TOL * lx:
                return w
            w -= f * w / (w + 1.0)
    else:
        threshold = _TOL * max(1.0, abs(x))
        for _ in range(_MAX_ITER):
            ew = math.exp(w)
            f = w * ew - x
            if abs(f) <= threshold:
                return w
            # Halley step
            wp1 = w + 1.0
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            w -= f / denom
    raise ArithmeticError(f"lambert_w0 failed to converge for x={x}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")


def fl_vanishing_threshold(gamma: float) -> VanishingReport:
    """Probability where the focal gradient magnitude peaks out: exp(-1/gamma)."""
    _check_positive("gamma", gamma)
    p = math.exp(-1.0 / gamma)
    return VanishingReport(
        loss_kind="fl",
        gamma=float(gamma),
        beta=None,
        crossover_p=p,
        in_unit_interval=p <= 1.0 + 1e-9,
    )


def tfl_vanishing_threshold(gamma: float, beta: float) -> VanishingReport:
    """Crossover for the tail-boosted focal gradient, via Lambert W.

    Raises ConfigError when (beta/gamma) * exp(1/gamma) or the crossover
    leaves the float range, as for a tiny gamma or a huge beta.
    """
    _check_positive("gamma", gamma)
    _check_positive("beta", beta)
    try:
        p = beta / (gamma * lambert_w0((beta / gamma) * math.exp(1.0 / gamma)))
    except (ArithmeticError, ConfigError):
        raise ConfigError(
            f"tfl crossover for gamma={gamma:g}, beta={beta:g} is outside the float range"
        ) from None
    return VanishingReport(
        loss_kind="tfl",
        gamma=float(gamma),
        beta=float(beta),
        crossover_p=p,
        in_unit_interval=p <= 1.0 + 1e-9,
    )


_DEFAULT_GRID = (0.001, 0.999, 512)


def curve_table(loss_kind: str, grid=None, gamma: float = 2.0, beta: float = 2.0) -> np.ndarray:
    """Tabulate (p, loss, dloss/dp) rows for ce, fl, or tfl on a tail class.

    grid: 1-D array of probabilities in (0, 1), default 512 points
    on [0.001, 0.999].
    """
    kind = loss_kind.lower()
    if kind not in ("ce", "fl", "tfl"):
        raise ConfigError(f"curve_table supports ce/fl/tfl, got {loss_kind!r}")
    if grid is None:
        lo, hi, n = _DEFAULT_GRID
        grid = np.linspace(lo, hi, n)
    p = np.asarray(grid, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ConfigError("grid must be a non-empty 1-D array")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ConfigError("grid probabilities must lie strictly inside (0, 1)")

    log_p = np.log(p)
    if kind == "ce":
        loss = -log_p
        grad = -1.0 / p
    else:
        one_m = 1.0 - p
        loss = -(one_m**gamma) * log_p
        grad = one_m ** (gamma - 1.0) * (gamma * log_p - 1.0 / p + 1.0)
        if kind == "tfl":
            if beta < 0:
                raise ConfigError(f"beta must be >= 0, got {beta}")
            loss = loss - beta * log_p
            grad = grad - beta / p
    return np.column_stack([p, loss, grad])


def write_curve(path, table: np.ndarray) -> None:
    """Write a curve table as delimited text: header p,loss,grad then one row per point."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[1] != 3:
        raise ConfigError("curve table must have three columns")
    with open(path, "w") as fh:
        fh.write("p,loss,grad\n")
        for row in table:
            fh.write(f"{row[0]:.15g},{row[1]:.15g},{row[2]:.15g}\n")
