"""Chart self-maps, pullback metrics and smooth field interpolation.

A displacement field X turns into the map Phi(p) = p + X(p).  Pulling a
metric back through Phi needs off-node metric values; those come from a
cubic-spline interpolant of the node data (bilinear interpolation is not
smooth enough at the nodes themselves, and would wreck finite-difference
derivative checks of anything built on the pullback).  The interpolant,
and so the pullback, exists on Dirichlet charts only.
"""

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .grid import Grid
from .jcalc import det

_SPLINE_ORDER = 3


class FoldOverError(RuntimeError):
    """The map p -> p + X(p) fails to be an orientation-preserving immersion."""


class FieldInterpolator:
    """Cubic-spline interpolant of a node field with arbitrary trailing axes.

    Spline coefficients are precomputed once, so repeated evaluation (as in
    a Newton iteration) costs only the B-spline sums.  The grid must be a
    Dirichlet chart.
    """

    def __init__(self, grid: Grid, values):
        if grid.periodic:
            raise ValueError("field interpolation needs a Dirichlet chart")
        values = np.asarray(values, dtype=float)
        if values.shape[:2] != (grid.ny, grid.nx):
            raise ValueError("field shape does not match grid")
        self.grid = grid
        self.comp_shape = values.shape[2:]
        flat = values.reshape(grid.ny, grid.nx, -1)
        # not-a-knot boundary conditions keep the accuracy uniform up to the
        # chart edge, unlike reflective padding
        self.splines = [
            RectBivariateSpline(
                grid.y, grid.x, flat[..., c], kx=_SPLINE_ORDER, ky=_SPLINE_ORDER, s=0
            )
            for c in range(flat.shape[-1])
        ]

    def __call__(self, points):
        """Evaluate at chart points of shape (..., 2) -> (...,) + comp_shape."""
        points = np.asarray(points, dtype=float)
        g = self.grid
        px = points[..., 0]
        py = points[..., 1]
        pad = 1e-9 * max(g.lx, g.ly)
        if np.any(np.abs(px) > 0.5 * g.lx + pad) or np.any(np.abs(py) > 0.5 * g.ly + pad):
            raise ValueError("interpolation point outside the chart")
        cols = [s.ev(py.ravel(), px.ravel()) for s in self.splines]
        out = np.stack(cols, axis=-1)
        return out.reshape(points.shape[:-1] + self.comp_shape)


def map_points(grid: Grid, x, t=1.0):
    """Images p + t X(p) of all nodes under the displacement field x."""
    x = grid.check_field(x, rank=1)
    xx, yy = grid.meshgrid()
    pts = np.stack([xx, yy], axis=-1) + t * x
    return pts


def map_jacobian(grid: Grid, x, t=1.0, order=2):
    """Coordinate Jacobian D Phi[..., k, j] = delta_kj + t d_j x^k.

    ``order`` (2 or 4) selects the :meth:`Grid.ddx` stencils.
    """
    x = grid.check_field(x, rank=1)
    jac = np.zeros((grid.ny, grid.nx, 2, 2))
    dxd = grid.ddx(x, order=order)  # d_x (x^1, x^2)
    dyd = grid.ddy(x, order=order)
    jac[..., 0, 0] = 1.0 + t * dxd[..., 0]
    jac[..., 1, 0] = t * dxd[..., 1]
    jac[..., 0, 1] = t * dyd[..., 0]
    jac[..., 1, 1] = 1.0 + t * dyd[..., 1]
    return jac


def pullback_metric(grid: Grid, h_interp, x, t=1.0, order=2):
    """Pull an SPD matrix field back through Phi(p) = p + t X(p).

    ``h_interp`` is a :class:`FieldInterpolator` of the (ny, nx, 2, 2) metric
    matrix (or the matrix itself, interpolated on the fly).  ``order`` is
    the order of the map-Jacobian stencils: 2 for the solver, 4 for the
    finite-difference oracle :func:`codazzi.energy.flow_derivative_fd`.
    Returns the node field (D Phi)^T h(Phi) (D Phi); raises
    :class:`FoldOverError` unless Det(D Phi) > 0 at every node (a NaN fails).
    """
    if not isinstance(h_interp, FieldInterpolator):
        h_interp = FieldInterpolator(grid, grid.check_field(h_interp, rank=2))
    jac = map_jacobian(grid, x, t, order)
    if not np.all(det(jac) > 0.0):
        raise FoldOverError("displacement folds the chart over")
    hvals = h_interp(map_points(grid, x, t))
    return np.swapaxes(jac, -1, -2) @ hvals @ jac
