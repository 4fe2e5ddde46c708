"""Chart self-maps, pullback metrics and smooth field interpolation.

A displacement field X turns into the map Phi(p) = p + X(p).  Pulling a
metric back through Phi needs off-node metric values; those come from a
cubic-spline interpolant of the node data (bilinear interpolation is not
smooth enough at the nodes themselves, and would wreck finite-difference
derivative checks of anything built on the pullback).  The interpolant is
the not-a-knot cubic tensor-product B-spline, fitted one axis at a time by
banded collocation solves and evaluated for all components at once.  Both
follow scipy.interpolate's ``make_interp_spline`` and ``NdBSpline`` step for
step, so the values are theirs bit for bit, without loading
scipy.interpolate.  It, and so the pullback, exists on Dirichlet charts only.
"""

import math

import numpy as np

from .grid import Grid
from .jcalc import det


# Points per evaluation pass.  A pass gathers 16 coefficients per point and
# coefficient row; in passes of this size they stay in cache, where one
# pass over all 4,096 points of a 64^2 grid took 1.7 times as long per point.
_RUN = 1024


class FoldOverError(RuntimeError):
    """The map p -> p + X(p) fails to be an orientation-preserving immersion."""


def _knot_table(nodes):
    """Knots and knot differences of the cubic not-a-knot spline on ``nodes``, per interval.

    The knots t are the first and the last node four times each and, in
    between, every node but the two next to each end (de Boor's not-a-knot
    condition).  Column i describes the interval l = i + 3, t[l] <= u <
    t[l+1] (the last one closed): rows 0-5 hold t[l-2] .. t[l+3], row 6
    1 / (t[l+1] - t[l]), and rows 7-8 and 9-11 the differences
    t[l+1+m] - t[l+1+m-j], m < j, that steps j = 2 and 3 of
    :func:`_b_splines` divide by.
    """
    t = np.concatenate([np.repeat(nodes[0], 4), nodes[2:-2], np.repeat(nodes[-1], 4)])
    knots = t[np.arange(-2, 4)[:, None] + np.arange(3, nodes.size)]
    steps = [knots[3 : 3 + j] - knots[3 - j : 3] for j in (1, 2, 3)]
    return np.concatenate([knots, 1.0 / steps[0], steps[1], steps[2]])


def _b_splines(u, table, deriv):
    """The 4 cubic B-splines nonzero at each point of ``u``, and with ``deriv`` their derivatives.

    ``table`` holds the :func:`_knot_table` columns of the points'
    intervals.  Returns ``(values,)`` or ``(values, derivatives)``, each of
    shape (4,) + u.shape, the B-splines l-3 .. l in order.  This is de
    Boor's recursion (Cox 1972; de Boor 1978), each operation as scipy's
    ``_deBoor_D`` does it, which gives its bits; its first step divides 1
    by t[l+1] - t[l], the reciprocal the table holds.
    """
    left = u - table[:3]  # u - t[l-2], u - t[l-1], u - t[l]
    right = table[3:6] - u  # t[l+1] - u, t[l+2] - u, t[l+3] - u
    # b[m] holds the B-spline of the current degree that ends at t[l+1+m]
    b = np.zeros((4,) + u.shape)
    np.multiply(table[6], right[0], out=b[0])
    np.multiply(table[6], left[2], out=b[1])
    w = b[:2] / table[7:9]
    np.multiply(w, right[:2], out=b[:2])
    b[1:3] += w * left[1:]
    if deriv:
        # the last step for the derivatives: B'_m = 3 b_{m-1} / diff_{m-1} - 3 b_m / diff_m
        w = 3.0 * b[:3] / table[9:12]
        d = np.zeros_like(b)
        np.negative(w, out=d[:3])
        d[1:] += w
    w = b[:3] / table[9:12]
    np.multiply(w, right, out=b[:3])
    b[1:] += w * left
    return (b, d) if deriv else (b,)


def _fit_axis(nodes, table, values):
    """Coefficients of the not-a-knot cubic interpolant of ``values`` along its first axis.

    One banded collocation solve, LAPACK's ``gbsv``, for every trailing
    index at once, with its arguments laid out as ``make_interp_spline``
    lays them out.  The nodes increase strictly, so the matrix is not
    singular (Schoenberg and Whitney).
    """
    from scipy.linalg.lapack import dgbsv

    n = nodes.size
    cols = np.searchsorted(nodes[2:-2], nodes, side="right") + np.arange(4)[:, None]
    # the collocation matrix in LAPACK band storage with 3 sub- and 3
    # super-diagonals: entry (i, c) at row 6 + i - c, rows 0-2 work space
    band = np.zeros((10, n), order="F")
    (band[6 + np.arange(n) - cols, cols],) = _b_splines(nodes, table[:, cols[0]], False)
    # the right-hand side may be a view of the caller's values: not overwritten
    coef = dgbsv(3, 3, band, values.reshape(n, -1), overwrite_ab=True)[2]
    return coef.reshape(values.shape)


def _tensor_sum(terms):
    """The sum over its 16 terms of ``terms`` (rows, 16, points), as (rows, points).

    The terms, each a coefficient times by[a] bx[b] in the order a = 0..3,
    b = 0..3, are added one by one to a zero, as ``NdBSpline`` adds them.
    """
    out = np.zeros(terms.shape[::2])
    for term in range(16):
        out += terms[:, term]
    return out


class FieldInterpolator:
    """Cubic-spline interpolant of a node field with arbitrary trailing axes.

    The tensor-product not-a-knot spline is fitted by two banded collocation
    solves, along x and then along y, each for every component at once.  An
    evaluation builds the B-splines of both coordinates of every point in one
    pass, gathers each point's 4x4 coefficients of every component, and adds
    their 16 terms.  Values and derivatives equal, bit for bit, those of
    ``make_interp_spline`` along x then y and ``NdBSpline`` on the (y, x)
    coefficients.  The grid must be a Dirichlet chart.  An evaluation works
    in scratch arrays that the interpolator keeps, so one interpolator is
    not to be evaluated from two threads at once.
    """

    def __init__(self, grid: Grid, values):
        if grid.periodic:
            raise ValueError("field interpolation needs a Dirichlet chart")
        values = np.asarray(values, dtype=float)
        if values.shape[:2] != (grid.ny, grid.nx):
            raise ValueError("field shape does not match grid")
        self.grid = grid
        self._comp_shape = values.shape[2:]
        # interval lookup: the first interval ends at the third node, the last
        # starts at the third from last; the two axes' tables side by side
        self._breaks = (grid.y[2:-2], grid.x[2:-2])
        ytable, xtable = _knot_table(grid.y), _knot_table(grid.x)
        self._table = np.concatenate([ytable, xtable], axis=1)
        self._xcol = ytable.shape[1]
        # not-a-knot conditions keep the accuracy uniform up to the chart
        # edge, unlike reflective padding.  A NaN is carried into the
        # coefficients, as fitpack does, for the callers' gates to refuse.
        along_x = _fit_axis(grid.x, xtable, np.moveaxis(values, 1, 0))
        coef = _fit_axis(grid.y, ytable, np.moveaxis(along_x, 1, 0))
        # one row of coefficients per component, so that a point's
        # coefficients of one component are gathered into a run over the
        # points; a component whose coefficients equal, bit for bit, an
        # earlier one's (the second off-diagonal of a symmetric field) shares
        # its row, so it is gathered and summed once
        coef = coef.reshape(grid.ny * grid.nx, -1).T
        bits = coef.view(np.int64)
        first = [
            next(i for i in range(c + 1) if np.array_equal(bits[i], bits[c]))
            for c in range(len(bits))
        ]
        rows, self._row = np.unique(first, return_inverse=True)
        self._coef = coef[rows]
        # scratch of one evaluation pass, reused by every evaluation: arrays of
        # these sizes made at each call had the allocator map fresh pages for
        # them, whose faults doubled the time of an evaluation at 32^2
        self._scratch = {
            "table": np.empty(24 * _RUN),
            "index": np.empty(16 * _RUN, dtype=np.intp),
            "factor": np.empty(16 * _RUN),
            "coef": np.empty(16 * _RUN * len(rows)),
        }
        # node offsets of a point's 4x4 coefficients from the first, row by row
        self._block = (grid.nx * np.arange(4)[:, None] + np.arange(4)).reshape(16, 1)
        # points within the pad are clamped onto the chart, as fitpack clamps
        self._lo = np.array([grid.x[0], grid.y[0]])
        self._hi = np.array([grid.x[-1], grid.y[-1]])
        pad = 1e-9 * max(grid.lx, grid.ly)
        self._reach = np.array([0.5 * grid.lx + pad, 0.5 * grid.ly + pad])

    def __call__(self, points):
        """Evaluate at chart points of shape (..., 2) -> (...,) + comp_shape.

        Points within a relative 1e-9 of the chart are clamped onto it;
        points further out, and points with a NaN coordinate, raise ValueError.
        """
        (values,) = self._evaluate(points, ((0, 0),))
        return values

    def gradient(self, points):
        """First derivatives ``(d/dx, d/dy)`` at chart points of shape (..., 2).

        Each has shape (...,) + comp_shape; the points are checked and
        clipped as in :meth:`__call__`.
        """
        d_dx, d_dy = self._evaluate(points, ((0, 1), (1, 0)))
        return d_dx, d_dy

    def _evaluate(self, points, orders):
        """The spline's tensor sums at chart points (..., 2), one array per order.

        An order (oy, ox) takes the B-splines of y (0) or their first
        derivatives (1), and those of x likewise: (0, 0) gives the values,
        (0, 1) d/dx and (1, 0) d/dy.  The points are checked and clamped as
        :meth:`__call__` says, then taken :data:`_RUN` at a time.
        """
        points = np.asarray(points, dtype=float)
        # one pass over the points, written so that a NaN coordinate fails
        if not np.all(np.abs(points) <= self._reach):
            raise ValueError("interpolation point outside the chart")
        flat = np.minimum(np.maximum(points, self._lo), self._hi).reshape(-1, 2)
        outs = [np.empty((len(flat), len(self._row))) for _ in orders]
        deriv = any(map(any, orders))
        for start in range(0, len(flat), _RUN):
            run = flat[start : start + _RUN]
            n = len(run)
            # one pass of the B-splines over the y, then the x coordinates
            u = run[:, ::-1].T.ravel()
            row = np.searchsorted(self._breaks[0], u[:n], side="right")
            col = np.searchsorted(self._breaks[1], u[n:], side="right")
            # take writes into a scratch array unbuffered in mode "clip"; every
            # index is in range
            table = self._scratch_view("table", 12, 2 * n)
            self._table.take(np.concatenate([row, col + self._xcol]), 1, table, "clip")
            basis = _b_splines(u, table, deriv)
            index = self._scratch_view("index", 16, n)
            np.add(row * self.grid.nx + col, self._block, out=index)
            coef = self._scratch_view("coef", len(self._coef), 16, n)
            factor = self._scratch_view("factor", 4, 4, n)
            for out, (oy, ox) in zip(outs, orders):
                self._coef.take(index, 1, coef, "clip")
                np.multiply(basis[oy][:, None, :n], basis[ox][None, :, n:], out=factor)
                np.multiply(coef, factor.reshape(16, n), out=coef)
                out[start : start + n] = _tensor_sum(coef)[self._row].T
        shape = points.shape[:-1] + self._comp_shape
        return [out.reshape(shape) for out in outs]

    def _scratch_view(self, name, *shape):
        """The leading entries of scratch array ``name``, as an array of ``shape``."""
        return self._scratch[name][: math.prod(shape)].reshape(shape)


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
