"""Equivariant convex spacelike immersions from Codazzi fields.

The hyperbolic plane is realized as the future unit hyperboloid in the
Minkowski space R^{2,1} with metric diag(1, 1, -1); a chart over a
sub-disk of the Poincare disk supplies the discretization.  A symmetric
Codazzi endomorphism field A turns the closed 1-form A . d iota into an
immersion X = U + sign * int A . d iota.  :func:`edge_segments` takes the
integral over every grid edge once; :func:`integrate_immersion` sums those
segments along canonical grid paths and :func:`plaquette_defect` around
each cell.  Neither certifies the field: a caller whose field may be far
from Codazzi checks it first with :func:`certify_codazzi`.
Support functions, pairs of immersions summing to a prescribed support,
equivariance under isometries of the Minkowski space, and convexity are
all verified numerically.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import ConformalMetric, Grid, _read_only, central_jacobian, poincare_disk
from .jcalc import ID2, check_symmetric, det
from .maps import FieldInterpolator
from .operators import grad, hessian_endo
from .energy import codazzi_residual

__all__ = [
    "ETA",
    "mdot",
    "HyperboloidPatch",
    "Isometry21",
    "PathDependenceError",
    "certify_codazzi",
    "codazzi_generator",
    "edge_segments",
    "integrate_immersion",
    "plaquette_defect",
    "induced_metric_error",
    "support_function",
    "support_pair",
    "equivariance_residual",
    "convexity_check",
]

ETA = np.diag([1.0, 1.0, -1.0])

# Midpoints of the quadrature along the segment in _path_integral.
_PATH_STEPS = 512
# Largest invariance defect of the field that equivariance_residual accepts.
_INVARIANCE_TOL = 1e-2


def mdot(u, v):
    """Minkowski inner product x1 y1 + x2 y2 - x3 y3 over the last axis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


class PathDependenceError(ValueError):
    """The endomorphism field is too far from Codazzi to integrate."""


def _disk_immersion(x, y):
    """Lift of Poincare-disk points to the future unit hyperboloid."""
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    s = 1.0 - r2
    out = np.empty(np.shape(x) + (3,))
    out[..., 0] = 2.0 * x / s
    out[..., 1] = 2.0 * y / s
    out[..., 2] = (1.0 + r2) / s
    return out


def _disk_immersion_frame(x, y):
    """Derivatives (iota_x, iota_y) of :func:`_disk_immersion`."""
    r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
    s = 1.0 - r2
    s2 = s**2
    mixed = 4.0 * x * y / s2
    dx = np.empty(np.shape(x) + (3,))
    dx[..., 0] = 2.0 / s + 4.0 * x * x / s2
    dx[..., 1] = mixed
    dx[..., 2] = 4.0 * x / s2
    dy = np.empty_like(dx)
    dy[..., 0] = mixed
    dy[..., 1] = 2.0 / s + 4.0 * y * y / s2
    dy[..., 2] = 4.0 * y / s2
    return dx, dy


def _hyperboloid_project(p):
    """Map points of the future hyperboloid back to the Poincare disk."""
    p = np.asarray(p, dtype=float)
    denom = 1.0 + p[..., 2]
    return np.stack([p[..., 0] / denom, p[..., 1] / denom], axis=-1)


@dataclass(frozen=True)
class HyperboloidPatch:
    """Chart over a sub-disk of the Poincare disk with its hyperboloid lift.

    The background metric is the hyperbolic one, e^{2 phi} delta with
    phi = log(2 / (1 - |z|^2)); the immersion iota and its derivatives are
    analytic, so only endomorphism fields carry discretization error.
    """

    grid: Grid
    metric: ConformalMetric = field(init=False, repr=False)

    def __post_init__(self):
        if self.grid.periodic:
            raise ValueError("hyperboloid patches need a Dirichlet chart")
        object.__setattr__(self, "metric", poincare_disk(self.grid))

    @property
    def base_index(self):
        """Node nearest the chart origin; start of all canonical paths."""
        return (self.grid.ny // 2, self.grid.nx // 2)

    @property
    def base_point(self):
        j0, i0 = self.base_index
        return float(self.grid.x[i0]), float(self.grid.y[j0])

    @cached_property
    def nodes(self):
        """Node values of iota, shape (ny, nx, 3), read-only."""
        return _read_only(_disk_immersion(*self.grid.meshgrid))


def certify_codazzi(a, patch: HyperboloidPatch, tol):
    """Codazzi residual of ``a`` on the patch's metric, certified to be at most ``tol``.

    Raises :class:`PathDependenceError` otherwise; the test is written so
    that a NaN residual fails it.
    """
    r = codazzi_residual(a, patch.metric)
    if not (r <= tol):
        raise PathDependenceError(f"residual {r:.3e} exceeds {tol:.3e}")
    return r


def codazzi_generator(f, patch: HyperboloidPatch):
    """The field f Id - Hess f, Codazzi for metrics of curvature -1.

    ``f`` is a scalar field on the patch's chart; the Hessian is the
    covariant one of the patch's hyperbolic metric.
    """
    g = patch.metric
    f = g.grid.check_field(f)
    return f[..., None, None] * ID2 - hessian_endo(f, g)


def _segments_x(a, patch: HyperboloidPatch):
    """Displacement of int A . d iota over each +x grid edge, (ny, nx-1, 3).

    The A_xx part rides on the exact increment of iota (so constant
    multiples of the identity integrate without error); the A_yx part uses
    the midpoint value of iota_y.
    """
    grid = patch.grid
    iot = patch.nodes
    amid = 0.5 * (a[:, :-1] + a[:, 1:])
    xm = 0.5 * (grid.x[:-1] + grid.x[1:])
    xx, yy = np.meshgrid(xm, grid.y)
    _, dio_y = _disk_immersion_frame(xx, yy)
    return (
        amid[..., 0, 0, None] * (iot[:, 1:] - iot[:, :-1])
        + amid[..., 1, 0, None] * dio_y * grid.dx
    )


def _segments_y(a, patch: HyperboloidPatch):
    """Displacement over each +y grid edge, (ny-1, nx, 3)."""
    grid = patch.grid
    iot = patch.nodes
    amid = 0.5 * (a[:-1] + a[1:])
    ym = 0.5 * (grid.y[:-1] + grid.y[1:])
    xx, yy = np.meshgrid(grid.x, ym)
    dio_x, _ = _disk_immersion_frame(xx, yy)
    return (
        amid[..., 1, 1, None] * (iot[1:] - iot[:-1])
        + amid[..., 0, 1, None] * dio_x * grid.dy
    )


def edge_segments(a, patch: HyperboloidPatch):
    """(+x, +y) edge displacements of ``a``, (ny, nx-1, 3) and (ny-1, nx, 3).

    Raises ValueError unless ``a`` is finite and symmetric.
    """
    a = check_symmetric(patch.grid.check_field(a, rank=2))
    return _segments_x(a, patch), _segments_y(a, patch)


def _cum_from(seg, k0, n):
    """Cumulative sums of edge displacements anchored at node index k0.

    ``seg`` has n-1 entries along its first axis (edge k -> k+1); the
    result has n entries, zero at k0.
    """
    out = np.zeros((n,) + seg.shape[1:])
    if k0 < n - 1:
        out[k0 + 1 :] = np.cumsum(seg[k0:], axis=0)
    if k0 > 0:
        out[:k0] = -np.cumsum(seg[:k0][::-1], axis=0)[::-1]
    return out


def integrate_immersion(segments, patch: HyperboloidPatch, u, sign=1):
    """X = U + sign * int A . d iota along canonical grid paths.

    ``segments`` is :func:`edge_segments` of A on ``patch``.  Each node is
    reached from the base node along the base row, then up or down its
    column; for a Codazzi field any other staircase agrees to O(h^2)
    (:func:`plaquette_defect` bounds the difference per cell).  Raises
    ValueError unless ``sign`` is +1 or -1.  The Codazzi residual of A is
    not checked here; see :func:`certify_codazzi`.
    """
    grid = patch.grid
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    j0, i0 = patch.base_index
    seg_x, seg_y = segments
    along_x = _cum_from(np.swapaxes(seg_x, 0, 1)[:, j0], i0, grid.nx)
    total = along_x[None, :, :] + _cum_from(seg_y, j0, grid.ny)
    return np.asarray(u, dtype=float) + sign * total


def plaquette_defect(segments):
    """Largest holonomy of the edge displacements around a grid cell.

    ``segments`` is :func:`edge_segments` of A; exact closedness of A . d iota
    makes every plaquette close.  The defect bounds path dependence per cell.
    """
    seg_x, seg_y = segments
    loop = seg_x[:-1] + seg_y[:, 1:] - seg_x[1:] - seg_y[:, :-1]
    return float(np.max(np.linalg.norm(loop, axis=-1)))


def induced_metric_error(x, a, patch: HyperboloidPatch):
    """L-infinity defect of (dX)^T eta (dX) = h0(A., A.) over the interior.

    The immersion derivative uses fourth-order differences so that the
    reported error reflects the integration scheme, not the differencing
    of an exactly-known immersion.  Three boundary rings are left out.
    """
    grid = patch.grid
    x = np.asarray(x, dtype=float)
    dx_ = grid.ddx(x, order=4)
    dy_ = grid.ddy(x, order=4)
    gram = np.empty((grid.ny, grid.nx, 2, 2))
    gram[..., 0, 0] = mdot(dx_, dx_)
    gram[..., 0, 1] = mdot(dx_, dy_)
    gram[..., 1, 0] = gram[..., 0, 1]
    gram[..., 1, 1] = mdot(dy_, dy_)
    # a contiguous A^T: numpy's own A^T A path makes one BLAS call per block
    target = patch.metric.conformal_factor[..., None, None] * (
        np.ascontiguousarray(np.swapaxes(a, -1, -2)) @ a
    )
    mask = grid.interior(3)
    return float(np.max(np.abs((gram - target)[mask])))


def support_function(x, patch: HyperboloidPatch, sign=1):
    """Nodewise support function sign * <X, iota> in the Minkowski pairing."""
    return sign * mdot(np.asarray(x, dtype=float), patch.nodes)


def support_pair(f, patch: HyperboloidPatch):
    """Immersion pair whose support functions sum to the prescribed f.

    Both immersions use A = (f Id - Hess f) / 2; they are integrated with
    opposite orientations, and the base values satisfy
    U_+ - U_- = d iota(grad f) - f iota at the base point, which is the
    ambient Minkowski gradient there of the degree-one homogeneous
    extension of f off the hyperboloid.  With these normalizations the
    field f iota - d iota(grad f) is the exact primitive of the difference
    of the two closed 1-forms, and phi_+ + phi_- = f identically in the
    continuum.  Returns (x_plus, x_minus, phi_plus, phi_minus).
    """
    g = patch.metric
    f = g.grid.check_field(f)
    a = 0.5 * codazzi_generator(f, patch)
    j0, i0 = patch.base_index
    x0, y0 = patch.base_point
    gfx, gfy = grad(f, g)[j0, i0]
    dio_x, dio_y = _disk_immersion_frame(x0, y0)
    udiff = gfx * dio_x + gfy * dio_y - f[j0, i0] * _disk_immersion(x0, y0)
    segments = edge_segments(a, patch)
    xplus = integrate_immersion(segments, patch, 0.5 * udiff, sign=-1)
    xminus = integrate_immersion(segments, patch, -0.5 * udiff, sign=1)
    return (
        xplus,
        xminus,
        support_function(xplus, patch, 1),
        support_function(xminus, patch, -1),
    )


@dataclass(frozen=True)
class Isometry21:
    """Affine isometry (rho, tau) of the Minkowski space R^{2,1}.

    ``linear`` preserves eta = diag(1, 1, -1), has determinant +1 and
    preserves the future cone; composition follows the semidirect rule
    (g, x)(h, y) = (g h, x + g y).
    """

    linear: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        tra = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tra)
        # both gates are written so that a NaN fails them
        if not (np.max(np.abs(lin.T @ ETA @ lin - ETA)) <= 1e-12):
            raise ValueError("linear part does not preserve the Minkowski form")
        if not (np.linalg.det(lin) > 0.0 and lin[2, 2] > 0.0):
            raise ValueError("linear part must be proper and future-preserving")

    @classmethod
    def rotation(cls, angle, translation=None):
        c, s = np.cos(angle), np.sin(angle)
        lin = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(lin, np.zeros(3) if translation is None else translation)

    @classmethod
    def boost(cls, rapidity, direction=0.0, translation=None):
        """Boost of the given rapidity along the direction angle in the x1 x2 plane."""
        ch, sh = np.cosh(rapidity), np.sinh(rapidity)
        b = np.array([[ch, 0.0, sh], [0.0, 1.0, 0.0], [sh, 0.0, ch]])
        rot = cls.rotation(direction).linear
        return cls(rot @ b @ rot.T, np.zeros(3) if translation is None else translation)

    def compose(self, other):
        return Isometry21(
            self.linear @ other.linear,
            self.translation + self.linear @ other.translation,
        )

    def inverse(self):
        inv = ETA @ self.linear.T @ ETA
        return Isometry21(inv, -inv @ self.translation)

    def apply(self, v):
        return np.einsum("ij,...j->...i", self.linear, np.asarray(v, dtype=float)) + self.translation

    def apply_linear(self, v):
        return np.einsum("ij,...j->...i", self.linear, np.asarray(v, dtype=float))

    def disk_action(self, points):
        """Action on Poincare-disk points through the hyperboloid lift."""
        points = np.asarray(points, dtype=float)
        lifted = _disk_immersion(points[..., 0], points[..., 1])
        return _hyperboloid_project(self.apply_linear(lifted))

    def disk_jacobian(self, points):
        """Derivative of the disk action by central differences of the closed form."""
        return central_jacobian(self.disk_action, np.asarray(points, dtype=float))


def _path_integral(a_interp, patch: HyperboloidPatch, p0, p1):
    """Midpoint quadrature of int A . d iota along the chart segment p0 -> p1."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t = (np.arange(_PATH_STEPS) + 0.5) / _PATH_STEPS
    mids = p0 + t[:, None] * (p1 - p0)
    dstep = (p1 - p0) / _PATH_STEPS
    amid = a_interp(mids)
    vec = np.einsum("nkj,j->nk", amid, dstep)
    dio_x, dio_y = _disk_immersion_frame(mids[:, 0], mids[:, 1])
    return np.sum(vec[:, 0, None] * dio_x + vec[:, 1, None] * dio_y, axis=0)


def equivariance_residual(x, gamma: Isometry21, a, patch: HyperboloidPatch):
    """Cocycle tau of gamma and the equivariance defect of the immersion.

    ``x`` must come from :func:`integrate_immersion` (the base value U is
    read off at the base node, where the path integral vanishes), with
    sign inferred from the derivative of x against A . d iota.  The field
    ``a`` has to be invariant under gamma's action on the disk, to
    :data:`_INVARIANCE_TOL` on the overlap region (a NaN defect fails),
    which is verified before integrating; tau is then
    sign * int_{x0}^{gamma x0} A . d iota + U - rho(gamma) U, and the
    residual is the L-infinity norm of X(gamma p) - rho(gamma) X(p) - tau
    over interior nodes whose image stays in the chart.
    """
    grid = patch.grid
    x = np.asarray(x, dtype=float)
    a = grid.check_field(a, rank=2)
    j0, i0 = patch.base_index
    u = x[j0, i0]

    # infer the integration sign from dX vs A d iota at the base node
    dio_x, dio_y = _disk_immersion_frame(*patch.base_point)
    dxn = grid.ddx(x)[j0, i0]
    ref = a[j0, i0, 0, 0] * dio_x + a[j0, i0, 1, 0] * dio_y
    sign = 1 if np.dot(dxn, ref) >= 0.0 else -1

    xx, yy = grid.meshgrid
    pts = np.stack([xx, yy], axis=-1)
    gpts = gamma.disk_action(pts)
    half = 0.5 - 2.0 / min(grid.nx, grid.ny)  # stay a couple nodes inside
    inside = (np.abs(gpts[..., 0]) < grid.lx * half) & (
        np.abs(gpts[..., 1]) < grid.ly * half
    )
    region = inside & grid.interior(2)
    if np.count_nonzero(region) < 16:
        raise ValueError("insufficient overlap between the patch and its image")

    a_interp = FieldInterpolator(grid, a)
    # invariance of A: dgamma A = A(gamma p) dgamma on the overlap
    dg = gamma.disk_jacobian(pts[region])
    a_at = a_interp(gpts[region])
    defect = a_at @ dg - dg @ a[region]
    if not (np.max(np.abs(defect)) <= _INVARIANCE_TOL):
        raise ValueError(
            f"field is not invariant under the isometry "
            f"(defect {np.max(np.abs(defect)):.3e})"
        )

    p0 = np.array(patch.base_point)
    tau = sign * _path_integral(a_interp, patch, p0, gamma.disk_action(p0)) + (
        u - gamma.apply_linear(u)
    )
    x_at = FieldInterpolator(grid, x)(gpts[region])
    resid = x_at - gamma.apply_linear(x[region]) - tau
    return tau, float(np.max(np.abs(resid)))


def convexity_check(x, patch: HyperboloidPatch):
    """Spacelike and convexity flags of an immersed surface.

    Returns ``(spacelike, definite, orientation)``: whether the first
    fundamental form is positive-definite on the interior, whether the
    second fundamental form with respect to the future unit normal has a
    single sign there, and "future"/"past" for which sign it is (the
    hyperboloid itself is the future-oriented model).  Two boundary rings
    are left out.
    """
    grid = patch.grid
    x = np.asarray(x, dtype=float)
    dx_ = grid.ddx(x)
    dy_ = grid.ddy(x)
    mask = grid.interior(2)
    g11 = mdot(dx_, dx_)
    g12 = mdot(dx_, dy_)
    g22 = mdot(dy_, dy_)
    spacelike = bool(
        np.all(g11[mask] > 0.0) and np.all((g11 * g22 - g12**2)[mask] > 0.0)
    )
    # future unit normal: eta-dual of the Euclidean cross product
    n = np.einsum("ij,...j->...i", ETA, np.cross(dx_, dy_))
    nn = mdot(n, n)
    timelike = np.where(nn < 0.0, nn, -1.0)
    n = n / np.sqrt(-timelike)[..., None]
    n = n * np.where(n[..., 2] > 0.0, 1.0, -1.0)[..., None]
    ii = np.empty((grid.ny, grid.nx, 2, 2))
    ii[..., 0, 0] = -mdot(grid.ddx(dx_), n)
    ii[..., 0, 1] = -mdot(grid.ddy(dx_), n)
    ii[..., 1, 0] = ii[..., 0, 1]
    ii[..., 1, 1] = -mdot(grid.ddy(dy_), n)
    pos = (ii[..., 0, 0] > 0.0) & (det(ii) > 0.0)
    neg = (ii[..., 0, 0] < 0.0) & (det(ii) > 0.0)
    if np.all(pos[mask]):
        return spacelike, True, "future"
    if np.all(neg[mask]):
        return spacelike, True, "past"
    return spacelike, False, "mixed"
