"""Chart self-maps, pullback metrics and smooth field interpolation.

A displacement field X turns into the map Phi(p) = p + X(p).  Pulling a
metric back through Phi needs off-node metric values; those come from a
cubic-spline interpolant of the node data (bilinear interpolation is not
smooth enough at the nodes themselves, and would wreck finite-difference
derivative checks of anything built on the pullback).  The interpolant
is fitted one axis at a time and evaluated as one tensor-product B-spline
with trailing coefficient axes, for all components at once.  It, and so
the pullback, exists on Dirichlet charts only.
"""

import numpy as np

from .grid import Grid
from .jcalc import det

_SPLINE_ORDER = 3


class FoldOverError(RuntimeError):
    """The map p -> p + X(p) fails to be an orientation-preserving immersion."""


class FieldInterpolator:
    """Cubic-spline interpolant of a node field with arbitrary trailing axes.

    The tensor-product interpolant is fitted by two batched not-a-knot
    ``make_interp_spline`` solves, along x and then along y, each for every
    component at once; the coefficients form one tensor-product
    ``NdBSpline``.  An evaluation is then a single call that builds the
    B-spline basis at each point once and applies it to every component.
    The grid must be a Dirichlet chart.
    """

    def __init__(self, grid: Grid, values):
        from scipy.interpolate import NdBSpline, make_interp_spline

        if grid.periodic:
            raise ValueError("field interpolation needs a Dirichlet chart")
        values = np.asarray(values, dtype=float)
        if values.shape[:2] != (grid.ny, grid.nx):
            raise ValueError("field shape does not match grid")
        self.grid = grid
        # not-a-knot boundary conditions keep the accuracy uniform up to the
        # chart edge, unlike reflective padding; the knots depend on the grid
        # only, so every component shares them.  A NaN is carried into the
        # coefficients, as fitpack does, for the callers' gates to refuse.
        along_x = make_interp_spline(
            grid.x, values, k=_SPLINE_ORDER, axis=1, check_finite=False
        )
        # a BSpline's coefficients put the fitted axis first: (x, y, ...)
        along_y = make_interp_spline(
            grid.y, along_x.c, k=_SPLINE_ORDER, axis=1, check_finite=False
        )
        self._spline = NdBSpline((along_y.t, along_x.t), along_y.c, _SPLINE_ORDER)
        # fitpack clamps points outside the knot span, NdBSpline extrapolates;
        # clipping to the chart keeps the clamping for points inside the pad
        self._lo = np.array([grid.x[0], grid.y[0]])
        self._hi = np.array([grid.x[-1], grid.y[-1]])
        pad = 1e-9 * max(grid.lx, grid.ly)
        self._reach = np.array([0.5 * grid.lx + pad, 0.5 * grid.ly + pad])

    def _spline_points(self, points):
        """Chart points (..., 2) as the spline's (y, x) arguments, clamped to the chart."""
        points = np.asarray(points, dtype=float)
        # one pass over the points, written so that a NaN coordinate fails
        if not np.all(np.abs(points) <= self._reach):
            raise ValueError("interpolation point outside the chart")
        # (x, y) -> (y, x): the spline's first axis is the grid's row axis
        return np.clip(points, self._lo, self._hi)[..., ::-1]

    def __call__(self, points):
        """Evaluate at chart points of shape (..., 2) -> (...,) + comp_shape.

        Points within a relative 1e-9 of the chart are clamped onto it;
        points further out, and points with a NaN coordinate, raise ValueError.
        """
        return self._spline(self._spline_points(points))

    def gradient(self, points):
        """First derivatives ``(d/dx, d/dy)`` at chart points of shape (..., 2).

        Each has shape (...,) + comp_shape; the points are checked and
        clipped as in :meth:`__call__`.
        """
        yx = self._spline_points(points)
        # ``nu`` counts derivatives per spline axis, and the axes are (y, x)
        return self._spline(yx, nu=(0, 1)), self._spline(yx, nu=(1, 0))


def map_points(grid: Grid, x, t=1.0):
    """Images p + t X(p) of all nodes under the displacement field x."""
    x = grid.check_field(x, rank=1)
    xx, yy = grid.meshgrid
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
    matrix.  ``order`` is the order of the map-Jacobian stencils: 2 for the
    solver, 4 for the finite-difference oracle
    :func:`codazzi.energy.flow_derivative_fd`.
    Returns the node field (D Phi)^T h(Phi) (D Phi); raises
    :class:`FoldOverError` unless Det(D Phi) > 0 at every node (a NaN fails).
    """
    jac = map_jacobian(grid, x, t, order)
    if not np.all(det(jac) > 0.0):
        raise FoldOverError("displacement folds the chart over")
    hvals = h_interp(map_points(grid, x, t))
    return np.swapaxes(jac, -1, -2) @ hvals @ jac
