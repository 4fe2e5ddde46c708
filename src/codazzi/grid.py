"""Structured-grid discretization of scalar, vector and endomorphism fields.

A :class:`Grid` is a rectangular chart with ``nx * ny`` nodes and either
periodic or Dirichlet topology.  Fields are plain numpy arrays indexed
``[j, i]`` (y slow, x fast), with trailing component axes:

* scalar field:       shape ``(ny, nx)``
* vector field:       shape ``(ny, nx, 2)``
* endomorphism field: shape ``(ny, nx, 2, 2)``

Charts are centred on the origin.  Periodic grids cover ``[-l/2, l/2)``
with spacing ``l/n``; Dirichlet grids cover ``[-l/2, l/2]`` with spacing
``l/(n-1)`` and include their boundary nodes.

First derivatives come in two orders, from one pair of methods
(:meth:`Grid.ddx`, :meth:`Grid.ddy`):

* ``order=2``: central differences, with second-order one-sided stencils at
  Dirichlet boundaries (``np.gradient`` with ``edge_order=2``);
* ``order=4``: the five-point central stencil, wrapped on periodic charts.
  On Dirichlet charts it holds from the third ring inward; the second ring
  takes central differences and the boundary ring ``np.gradient``'s
  first-order one-sided value.

The order-2 stencil also comes as taps, and the compact 5-point Laplacian
in array and matrix form.  :func:`central_difference` is the central first
or second difference in a scalar parameter, and :func:`central_jacobian`
applies it along each chart axis of a closed-form map.  No other module
holds a finite-difference weight, spatial or in a parameter, nor builds or
factors a sparse matrix: ``_rows_csr`` turns fixed-width stencil rows into
CSR, and ``_splu`` is the one SuperLU factor, in symmetric mode.

A grid and a metric are immutable, so each computes its derived geometry
(node coordinates, meshgrid, quadrature weights, conformal factor and its
inverse, metric matrix, derivatives of phi) once, on first use, and holds
it as a read-only cached attribute.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

PERIODIC = "periodic"
DIRICHLET = "dirichlet"

def _read_only(a):
    a.flags.writeable = False
    return a


def _rows_csr(cols, vals, shape):
    """CSR matrix of ``shape`` whose row k holds ``vals`` at ``cols``, both reshaped to rows.

    Each row lists its columns in ascending order.  Zero values are left
    out, as scipy's sparse sums and products leave them out.
    """
    import scipy.sparse

    width = vals.size // shape[0]
    pos = np.flatnonzero(vals.ravel() != 0.0)
    data, indices = vals.ravel().take(pos), cols.ravel().take(pos)
    pos //= width  # the row of each entry kept
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(pos, minlength=shape[0]), out=indptr[1:])
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)


def _splu(mat):
    """SuperLU factor of a square CSC ``mat`` with a symmetric pattern and a stable diagonal.

    Minimum degree on A^T + A and diagonal pivots only, in symmetric mode
    (Davis, "Direct Methods for Sparse Linear Systems", SIAM 2006).  A
    singular ``mat`` raises SuperLU's RuntimeError.
    """
    import scipy.sparse.linalg

    # splu is called through the module, so perfbench's probe on it times it
    return scipy.sparse.linalg.splu(
        mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True)
    )


def first_node(mask):
    """First True node (j, i) of a (ny, nx) mask in row-major order, as plain ints, or None."""
    k = int(np.argmax(mask))
    return divmod(k, mask.shape[1]) if mask.flat[k] else None


def central_difference(f, t, step, order):
    """Central difference of ``order`` 1 or 2 in a scalar parameter, of ``f`` at ``t``.

    ``f`` may return an array; the difference keeps its shape.
    """
    if order == 1:
        return (f(t + step) - f(t - step)) / (2.0 * step)
    if order == 2:
        return (f(t + step) - 2.0 * f(t) + f(t - step)) / step**2
    raise ValueError("central difference order must be 1 or 2")


def central_jacobian(f, points):
    """Jacobian (..., k, 2) of a closed-form map ``f`` of points (..., 2) by central differences.

    The step is 1e-6 along each chart axis.
    """
    cols = [central_difference(lambda s: f(points + s * e), 0.0, 1e-6, 1) for e in np.eye(2)]
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Grid:
    """Rectangular chart: node counts, extents and topology."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0
    topology: str = PERIODIC

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if not isinstance(n, (int, np.integer)):
                raise ValueError(f"node counts must be integers, got {n!r}")
        if self.nx < 8 or self.ny < 8:
            raise ValueError("grids need at least 8 nodes per axis")
        # written so that a NaN extent fails
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ValueError("chart extents must be positive and finite")
        if self.topology not in (PERIODIC, DIRICHLET):
            raise ValueError(f"unknown topology {self.topology!r}")

    @property
    def periodic(self):
        return self.topology == PERIODIC

    @property
    def dx(self):
        return self.lx / self.nx if self.periodic else self.lx / (self.nx - 1)

    @property
    def dy(self):
        return self.ly / self.ny if self.periodic else self.ly / (self.ny - 1)

    @cached_property
    def x(self):
        if self.periodic:
            return _read_only(-0.5 * self.lx + self.dx * np.arange(self.nx))
        return _read_only(np.linspace(-0.5 * self.lx, 0.5 * self.lx, self.nx))

    @cached_property
    def y(self):
        if self.periodic:
            return _read_only(-0.5 * self.ly + self.dy * np.arange(self.ny))
        return _read_only(np.linspace(-0.5 * self.ly, 0.5 * self.ly, self.ny))

    @cached_property
    def meshgrid(self):
        """Coordinate arrays (X, Y), each of shape (ny, nx).

        They are read-only broadcast views of :attr:`x` and :attr:`y`.
        """
        return tuple(_read_only(c) for c in np.meshgrid(self.x, self.y, copy=False))

    # -- differentiation -------------------------------------------------

    def ddx(self, f, order=2):
        """d/dx along axis 1, of ``order`` 2 or 4."""
        return self._derivative(f, 1, self.dx, order)

    def ddy(self, f, order=2):
        """d/dy along axis 0, of ``order`` 2 or 4."""
        return self._derivative(f, 0, self.dy, order)

    def _derivative(self, f, axis, step, order):
        f = np.asarray(f, dtype=float)
        if order not in (2, 4):
            raise ValueError("derivative order must be 2 or 4")
        if self.periodic:
            def r(k):
                return np.roll(f, k, axis)

            if order == 2:
                return (r(-1) - r(1)) / (2 * step)
            return (r(2) - 8.0 * r(1) + 8.0 * r(-1) - r(-2)) / (12.0 * step)
        if order == 2:
            return np.gradient(f, step, axis=axis, edge_order=2)
        out = np.gradient(f, step, axis=axis)
        fa, oa = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
        oa[2:-2] = (fa[:-4] - 8.0 * fa[1:-3] + 8.0 * fa[3:-1] - fa[4:]) / (12.0 * step)
        return out

    @staticmethod
    def _edge2_taps(n, step):
        """The order-2 stencil of :meth:`ddx`/:meth:`ddy` on ``n`` Dirichlet nodes, by rows.

        Returns ``(cols, vals)`` of shape ``(n, 3)``: the nodes each row reads,
        ascending, and their weights (``np.gradient``'s with ``edge_order=2``),
        zero in an unused slot.
        """
        cols = np.arange(n)[:, None] + np.array([-1, 1, 1])
        vals = np.zeros((n, 3))
        vals[:, 0] = -1.0 / (2.0 * step)
        vals[:, 1] = 1.0 / (2.0 * step)
        cols[0], vals[0] = (0, 1, 2), (-1.5 / step, 2.0 / step, -0.5 / step)
        cols[-1], vals[-1] = (n - 3, n - 2, n - 1), (0.5 / step, -2.0 / step, 1.5 / step)
        return cols, vals

    def lap5(self, f):
        """Compact 5-point Laplacian: wrapped if periodic, else zero on the boundary ring.

        Trailing component axes ride along.  Unlike nested central differences
        it couples adjacent nodes, so it sees the checkerboard modes.
        """
        f = np.asarray(f, dtype=float)
        if self.periodic:
            fxx = (np.roll(f, -1, 1) - 2 * f + np.roll(f, 1, 1)) / self.dx**2
            fyy = (np.roll(f, -1, 0) - 2 * f + np.roll(f, 1, 0)) / self.dy**2
            return fxx + fyy
        out = np.zeros_like(f)
        out[1:-1, 1:-1] = (
            (f[1:-1, 2:] - 2.0 * f[1:-1, 1:-1] + f[1:-1, :-2]) / self.dx**2
            + (f[2:, 1:-1] - 2.0 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / self.dy**2
        )
        return out

    def _lap5_taps(self):
        """The rows of :meth:`lap5_matrix`, as :meth:`_edge2_taps` gives its stencil.

        Returns ``(cols, vals)`` of shape ``(m, 5)`` on the ``m`` nodes of
        ``interior(1)``, row-major: the nodes below, left, itself, right and
        above, ascending, and their weights; a neighbour on the boundary ring
        (value zero) gets weight zero.
        """
        mx, my = self.nx - 2, self.ny - 2
        num = np.full((self.ny, self.nx), -1)
        num[1:-1, 1:-1] = np.arange(mx * my).reshape(my, mx)
        sides = (num[:-2, 1:-1], num[1:-1, :-2], num[1:-1, 1:-1], num[1:-1, 2:], num[2:, 1:-1])
        cols = np.stack(sides, axis=-1).reshape(-1, 5)
        cx, cy = 1.0 / self.dx**2, 1.0 / self.dy**2
        vals = np.where(cols >= 0, [cy, cx, -2.0 * (cx + cy), cx, cy], 0.0)
        return cols, vals

    def lap5_matrix(self):
        """:meth:`lap5` of a Dirichlet chart as CSR on the ``interior(1)`` nodes, row-major.

        A neighbour on the boundary ring (value zero) is not stored.
        """
        if self.periodic:
            raise ValueError("lap5_matrix needs a Dirichlet chart")
        m = (self.nx - 2) * (self.ny - 2)
        return _rows_csr(*self._lap5_taps(), (m, m))

    def laplace_flat(self, f):
        """Flat Laplacian: :meth:`lap5` if periodic, else nested order-2 derivatives."""
        if self.periodic:
            return self.lap5(f)
        return self.ddx(self.ddx(f)) + self.ddy(self.ddy(f))

    # -- quadrature and masks --------------------------------------------

    @cached_property
    def cell_weights(self):
        """Per-node quadrature weight (dx*dy, trapezoidal on Dirichlet), read-only."""
        w = np.full((self.ny, self.nx), self.dx * self.dy)
        if not self.periodic:
            w[0, :] *= 0.5
            w[-1, :] *= 0.5
            w[:, 0] *= 0.5
            w[:, -1] *= 0.5
        return _read_only(w)

    def interior(self, margin=2):
        """Boolean mask excluding ``margin`` boundary rings (all-true if periodic)."""
        mask = np.ones((self.ny, self.nx), dtype=bool)
        if not self.periodic and margin > 0:
            mask[:margin, :] = False
            mask[-margin:, :] = False
            mask[:, :margin] = False
            mask[:, -margin:] = False
        return mask

    def check_field(self, f, rank=0):
        f = np.asarray(f, dtype=float)
        expected = (self.ny, self.nx) + (2,) * rank
        if f.shape != expected:
            raise ValueError(f"field shape {f.shape} does not match grid {expected}")
        return f


@dataclass(frozen=True)
class ConformalMetric:
    """Metric e^{2 phi} (dx^2 + dy^2) on a grid, phi a scalar field.

    ``phi`` is stored as a read-only copy, so a later write to the array
    passed in leaves the metric unchanged.
    """

    grid: Grid
    phi: np.ndarray = field(repr=False)

    def __post_init__(self):
        phi = self.grid.check_field(np.array(self.phi, dtype=float))
        object.__setattr__(self, "phi", _read_only(phi))

    @classmethod
    def flat(cls, grid):
        return cls(grid, np.zeros((grid.ny, grid.nx)))

    @cached_property
    def conformal_factor(self):
        """e^{2 phi}, the area element relative to the flat chart."""
        return _read_only(np.exp(2.0 * self.phi))

    @cached_property
    def matrix(self):
        """Metric tensor as a read-only SPD field of shape (ny, nx, 2, 2)."""
        out = np.zeros((self.grid.ny, self.grid.nx, 2, 2))
        out[..., 0, 0] = self.conformal_factor
        out[..., 1, 1] = self.conformal_factor
        return _read_only(out)

    @cached_property
    def inverse_factor(self):
        """e^{-2 phi}, read-only.

        Taken as exp(-2 phi), which is not 1 / :attr:`conformal_factor`
        bit for bit.
        """
        return _read_only(np.exp(-2.0 * self.phi))

    @cached_property
    def phi_derivs(self):
        """(phi_x, phi_y) central-difference derivatives, read-only."""
        return _read_only(self.grid.ddx(self.phi)), _read_only(self.grid.ddy(self.phi))

    def area(self):
        """Total area of the chart in the metric."""
        return float(np.sum(self.conformal_factor * self.grid.cell_weights))

    def integrate(self, f):
        """Integral of a scalar field against the metric area form."""
        f = self.grid.check_field(f)
        return float(np.sum(f * self.conformal_factor * self.grid.cell_weights))


def poincare_disk(grid):
    """Hyperbolic metric phi = log(2 / (1 - x^2 - y^2)) on a sub-disk chart.

    The chart must stay strictly inside the unit disk.  The curvature is -1.
    """
    xx, yy = grid.meshgrid
    r2 = xx**2 + yy**2
    if np.any(r2 >= 1.0):
        raise ValueError("chart leaves the unit disk")
    return ConformalMetric(grid, np.log(2.0 / (1.0 - r2)))
