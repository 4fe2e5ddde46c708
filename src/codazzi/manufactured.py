"""Manufactured-solution helpers for exercising the one-harmonic solver.

A seeded small diffeomorphism psi(p) = p + amp * bump(p) * (linear in p)
is known in closed form everywhere, so the pullback psi^* (c^2 g) of a
constant-A metric can be evaluated exactly at the nodes.  The solver's
recovered displacement X is scored by how far psi(p + X(p)) lands from p
(:func:`recovery_error`).
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, central_jacobian
from .randfields import rng_for


@dataclass(frozen=True)
class ManufacturedDiffeo:
    """Closed-form chart diffeomorphism p -> p + displacement(p)."""

    lx: float
    ly: float
    amp: float
    coef: np.ndarray  # (2, 3): constant, x and y coefficients per component

    @classmethod
    def seeded(cls, grid: Grid, seed, amp=0.0025):
        rng = rng_for(seed)
        return cls(grid.lx, grid.ly, float(amp), rng.uniform(-1.0, 1.0, size=(2, 3)))

    def displacement(self, x, y):
        """Displacement field at arbitrary chart points."""
        u = 2.0 * x / self.lx
        v = 2.0 * y / self.ly
        bump = ((1.0 - u**2) * (1.0 - v**2)) ** 2
        out = np.zeros(np.shape(x) + (2,))
        for k in range(2):
            out[..., k] = (
                self.coef[k, 0]
                + self.coef[k, 1] * x / self.lx
                + self.coef[k, 2] * y / self.ly
            )
        return self.amp * bump[..., None] * out

    def apply(self, points):
        return points + self.displacement(points[..., 0], points[..., 1])

    def jacobian(self, x, y):
        """D psi: the identity plus the tight central difference of the closed-form displacement."""
        points = np.stack(np.broadcast_arrays(x, y), axis=-1)
        out = central_jacobian(lambda p: self.displacement(p[..., 0], p[..., 1]), points)
        out[..., [0, 1], [0, 1]] += 1.0
        return out


def pullback_of_scaled_poincare(diffeo: ManufacturedDiffeo, grid: Grid):
    """Node-exact psi^*(c^2 g), c = 1.5, for the Poincare-disk background g.

    The A field of the result relative to g is the pullback of c*Id, so the
    result is a manufactured non-critical target whose critical displacement
    is the inverse of psi.
    """
    xx, yy = grid.meshgrid
    p = np.stack([xx, yy], axis=-1)
    q = diffeo.apply(p)
    r2 = q[..., 0] ** 2 + q[..., 1] ** 2
    if not np.all(r2 < 1.0):  # written so that a NaN fails
        raise ValueError("diffeomorphism leaves the unit disk")
    conf = (2.0 / (1.0 - r2)) ** 2
    jac = diffeo.jacobian(xx, yy)
    c = 1.5
    return c * c * conf[..., None, None] * (np.swapaxes(jac, -1, -2) @ jac)


def recovery_error(diffeo: ManufacturedDiffeo, grid: Grid, x):
    """L-infinity of psi(p + X(p)) - p: how well X inverts the diffeo."""
    xx, yy = grid.meshgrid
    p = np.stack([xx, yy], axis=-1)
    return float(np.max(np.abs(diffeo.apply(p + x) - p)))
