"""A walk through the variational calculus on a Poincare sub-disk.

We pick a random target metric h on a negatively curved background g,
compute the energy gradient -J div(A J), and confirm three things in turn:
the finite-difference derivative of the energy along a flow matches the
weak pairing with the gradient; the gradient vanishes when h is a
conformal rescaling of g; and the two-route curvature identity
Det(A) kappa[h] = kappa_g + div(A^{-1} J div(A J)) shrinks at second order
under refinement.
"""

import numpy as np

from codazzi.energy import (
    curvature_identity_residual,
    energy_gradient,
    flow_derivative_fd,
    gradient_pairing4,
)
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2, metric_action
from codazzi.randfields import bump, rng_for, tracefree_codazzi_conformal, trig_spd

g = poincare_disk(Grid(64, 64, 0.8, 0.8, "dirichlet"))
print(f"background: 64x64 Poincare sub-disk, curvature -1, area {g.area():.4f}")

# a random SPD deformation of the background defines the target metric
a = trig_spd(g.grid, rng_for(11), amp=0.12, kmax=1)
h = metric_action(a, g.matrix)

# direction field: the gradient itself, cut off at the boundary
cut = bump(g.grid) ** 2
x = cut[..., None] * energy_gradient(h, g)
x = 0.3 * x / np.max(np.abs(x))

fd = flow_derivative_fd(h, g, x)
pair = gradient_pairing4(h, g, x)
print(f"energy derivative along the flow:  FD {fd:+.8f}")
print(f"weak pairing with -J div(A J):      {pair:+.8f}")
print(f"relative gap: {abs(fd - pair) / abs(pair):.2e}")

zero = np.max(np.abs(energy_gradient(2.25 * g.matrix, g)))
print(f"\ngradient at the conformal target h = (1.5)^2 g: max |grad| = {zero:.2e}")

print("\ncurvature identity residual under refinement:")
for n in (32, 64, 128):
    gd = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
    af = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
    af = af + tracefree_codazzi_conformal(gd, rng_for(51), amp=0.25)
    r = curvature_identity_residual(af, gd, margin=max(3, n // 8))
    print(f"  n = {n:4d}:  L-inf residual {r:.3e}")
