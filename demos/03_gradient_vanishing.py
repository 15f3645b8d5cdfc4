"""When does focal loss stop pushing? Crossover points in closed form.

Focal loss multiplies cross entropy by (1-P_y)^gamma, which quiets easy
samples but also mutes the gradient once P_y grows. Comparing its
P_y-gradient magnitude against plain cross entropy's 1/P_y bound gives a
crossover probability: below it focal still pushes harder than the bound,
above it the gradient has effectively vanished. The tailed variant adds
beta extra units of cross entropy on tail classes, which moves that
crossover up, all the way to P_y = 1 at beta = 1, gamma = 2.

The focal crossover is exp(-1/gamma); the tailed one needs the Lambert W
function (the inverse of w * e^w), evaluated here with Halley iteration.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from tailfocal import (
    curve_table,
    fl_vanishing_threshold,
    lambert_w0,
    tfl_vanishing_threshold,
    write_curve,
)

# Lambert W in two sanity lines: it inverts w -> w * e^w.
for w in (-0.5, 0.25, 1.0, 3.0):
    back = lambert_w0(w * math.exp(w))
    print(f"W({w} * e^{w}) = {back:+.12f}  (round-trip error {abs(back - w):.1e})")
print()

# Focal loss alone: the crossover creeps upward with gamma but never
# reaches 1, so hard tail samples always hit a muted-gradient regime.
print("focal loss crossover P_y by gamma:")
for gamma in (0.5, 1.0, 2.0, 4.0):
    rep = fl_vanishing_threshold(gamma)
    print(f"  gamma {gamma:3}: {rep.crossover_p:.6f}")
print()

# The tail term closes that gap. At beta = 1 the crossover lands exactly
# on 1.0, and larger beta pushes it out of the unit interval entirely:
# the gradient never vanishes on tail classes.
print("tailed focal crossover P_y by (gamma, beta):")
for gamma in (1.0, 2.0, 3.0):
    for beta in (0.5, 1.0, 2.0):
        rep = tfl_vanishing_threshold(gamma, beta)
        where = "inside (0, 1]" if rep.in_unit_interval else "beyond 1"
        print(f"  gamma {gamma}, beta {beta}: {rep.crossover_p:.6f}  ({where})")
print()

# Loss and gradient curves across P_y back the thresholds up numerically.
grid = np.linspace(0.001, 0.999, 512)
fl = curve_table("fl", grid=grid, gamma=2.0)
tfl = curve_table("tfl", grid=grid, gamma=2.0, beta=2.0)

# At P_y = 0.95 focal has all but flatlined while the tailed gradient is
# still about beta/P_y strong.
i = np.searchsorted(grid, 0.95)
print(f"at P_y = {grid[i]:.3f}: |fl grad| = {abs(fl[i, 2]):.4f}, "
      f"|tfl grad| = {abs(tfl[i, 2]):.4f}")

with tempfile.TemporaryDirectory(prefix="curves-") as tmp:
    out = Path(tmp)
    for kind, table in (("fl", fl), ("tfl", tfl)):
        write_curve(out / f"{kind}.csv", table)
    print(f"curve tables written under {out} (columns: p, loss, grad)")
