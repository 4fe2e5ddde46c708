"""Newton solver with continuation for one-harmonic displacement fields.

Unknown: a displacement field X on a Dirichlet chart, zero on the boundary,
such that the pullback of the target metric h through Phi(p) = p + X(p) is
a critical point of the energy with respect to the background g (see
:func:`solver_residual` for what is actually driven to zero and why).
Manufactured solutions (pullbacks of metrics with Codazzi A through known
small diffeomorphisms) make the solver testable to tight tolerances.

Every solve has one background g; :func:`continuation_solve` moves only the
target, h_t = (1 - t) g + t h (natural-parameter continuation, Allgower and
Georg, SIAM 2003).  The curvature check, the interior index and the
operators S, L and stab below depend on g alone, so each public call builds
them once and all its continuation steps share them.

The Newton Jacobian is exact: :func:`_exact_jacobian` assembles the chain
rule of :func:`solver_residual` as a sparse matrix, L K S + stab (Griewank
and Walther, "Evaluating Derivatives", SIAM 2008).  S holds the map-Jacobian
stencils, K the per-node derivatives of A through the spline's first
derivatives and the closed-form derivative of the 2x2 SPD square root
(:func:`~codazzi.jcalc.dspd_sqrt`), L the divergence and stab the
checkerboard suppressor.  The coloured finite-difference Jacobian of
Curtis, Powell and Reid (1974) is kept in the tests as its independent
oracle.  SuperLU (``splu``) factors the CSC matrix with a minimum-degree
ordering of A^T + A in symmetric mode (diagonal pivots only, about a fifth
of the fill of partial pivoting at 128^2).  If that factor is refused as
singular or gives a non-finite step, the matrix is refactored with partial
pivoting before the solve gives up.

Newton builds and factors a Jacobian only at the first step, after a step
that needed a line-search halving, and after a step whose residual
contraction (max-norm) was above :data:`_REFRESH_CONTRACTION`; every other
step is a chord step on the factor it already has (Kelley, "Solving
Nonlinear Equations with Newton's Method", SIAM 2003, ch. 5).  A chord
step that is not finite or whose line search fails is retried with a
fresh Jacobian at the same iterate; only a fresh factor's failure is a
:class:`SolverError`.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .grid import ConformalMetric, Grid
from .energy import codazzi_residual, energy_gradient, field_A
from .jcalc import dspd_sqrt, inv2
from .maps import FieldInterpolator, FoldOverError, map_jacobian, map_points, pullback_metric
from .operators import curvature

__all__ = [
    "SolveReport",
    "SolverError",
    "CurvatureSignError",
    "solver_residual",
    "newton_solve",
    "continuation_solve",
]

# An accepted step whose residual contraction ||r_new|| / ||r|| (max-norm)
# is above this makes the next step rebuild and refactor the Jacobian.
_REFRESH_CONTRACTION = 0.5

# Accepted Newton steps per solve, and line-search halvings per step.
_MAX_ITER = 20
_MAX_HALVINGS = 8

# Smallest continuation step before the march gives up.
_MIN_STEP = 1.0 / 1024.0


class SolverError(RuntimeError):
    """Newton or continuation failed to converge."""


class CurvatureSignError(ValueError):
    """The background metric is not negatively curved where required."""


def _lap5(grid, f):
    """Compact 5-point Laplacian, zero on the boundary ring.

    Unlike nested central differences this stencil couples adjacent nodes,
    so it sees the highest-frequency (checkerboard) modes that the wide
    central-difference operators are blind to.
    """
    out = np.zeros_like(f)
    out[1:-1, 1:-1] = (
        (f[1:-1, 2:] - 2.0 * f[1:-1, 1:-1] + f[1:-1, :-2]) / grid.dx**2
        + (f[2:, 1:-1] - 2.0 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / grid.dy**2
    )
    return out


@dataclass
class SolveReport:
    """Machine-readable record of a solve."""

    iterations: int = 0
    jacobians: int = 0
    residuals: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    codazzi_residual: float = 0.0

    def to_dict(self):
        return {
            "iterations": int(self.iterations),
            "jacobians": int(self.jacobians),
            "residuals": [float(r) for r in self.residuals],
            "steps": [float(s) for s in self.steps],
            "codazzi_residual": float(self.codazzi_residual),
        }


def _require_negative_curvature(g):
    # written so that a NaN curvature fails
    if not np.all(curvature(g) < 0.0):
        raise CurvatureSignError(
            "the background metric is not negatively curved everywhere; "
            "the critical-point equation is elliptic only for kappa < 0"
        )


def solver_residual(x, g: ConformalMetric, h_interp):
    """Residual driven by Newton: grad E plus a checkerboard suppressor.

    The correction G of the continuum theory restores ellipticity in
    directions the energy Hessian cannot see on a closed surface; on a
    Dirichlet chart with negative curvature the second variation is already
    positive definite, so criticality is equivalent to grad E = 0.  The
    discrete central-difference Hessian is however nearly blind to
    grid-frequency (checkerboard) displacement modes; the consistent
    O(h^2) term -dx * dy * Laplace(X) removes that spurious near-kernel
    without moving the smooth discrete solution at leading order.
    """
    hp = pullback_metric(g.grid, h_interp, x)
    lap = np.stack([_lap5(g.grid, x[..., 0]), _lap5(g.grid, x[..., 1])], axis=-1)
    return energy_gradient(hp, g) - g.grid.dx * g.grid.dy * lap


def _interior_index(grid: Grid):
    return np.where(grid.interior(1).ravel())[0]


def _pack(x, idx):
    return x.reshape(-1, 2)[idx].ravel()


def _unpack(vec, grid, idx):
    x = np.zeros((grid.ny * grid.nx, 2))
    x[idx] = vec.reshape(-1, 2)
    return x.reshape(grid.ny, grid.nx, 2)


def _residual_vec(vec, g, h_interp, idx):
    x = _unpack(vec, g.grid, idx)
    r = solver_residual(x, g, h_interp)
    return _pack(r, idx)


def _edge2_stencil(n, step):
    """The order-2 stencil of :meth:`Grid.ddx`/:meth:`Grid.ddy` on ``n`` nodes, sparse.

    Central differences inside, the second-order one-sided stencil on the
    two end nodes: ``np.gradient`` with ``edge_order=2``, applied to the
    unit vectors.
    """
    return scipy.sparse.csr_matrix(np.gradient(np.eye(n), step, axis=0, edge_order=2))


def _block_diag(blocks):
    """Sparse block-diagonal matrix of a stack of equal-shape blocks."""
    n = len(blocks)
    return scipy.sparse.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)))


# Residual rows of :func:`energy_gradient`: (r0, r1) = -J dnabla_endo(A), and
# with the metric weight w = e^{-2 phi} and (px, py) = d phi that is
#   r0 = w [(d_x + px) A11 - (d_y + py) A10 - px A00 - py A01]
#   r1 = w [(d_y + py) A00 - (d_x + px) A01 - px A10 - py A11],
# in the node's A entries (A00, A01, A10, A11).
_R_DX = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0]])
_R_DY = np.array([[0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
_R_PX = _R_DX + [[-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0]]
_R_PY = _R_DY + [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0]]


def _jacobian_operators(g, idx):
    """The state-independent sparse factors of :func:`_exact_jacobian`.

    Returns ``(S, L, stab)``.  The unknowns and the residual are packed 2 per
    interior node, A (row-major) 4 per grid node:

    * ``S`` maps the unknowns to 6 values per grid node: D = d_j x^k (entry
      2k + j), by the order-2 stencils of :func:`~codazzi.maps.map_jacobian`
      including the one-sided rows of the boundary ring, which interior
      unknowns feed; then the node's own x^0 and x^1;
    * ``L`` maps A to the residual's energy gradient -J div(A J);
    * ``stab`` is the residual's stabiliser, -dx dy :func:`_lap5`.
    """
    grid = g.grid
    ny, nx = grid.ny, grid.nx
    eye = scipy.sparse.identity
    sx = scipy.sparse.kron(eye(ny), _edge2_stencil(nx, grid.dx), "csr")
    sy = scipy.sparse.kron(_edge2_stencil(ny, grid.dy), eye(nx), "csr")
    to6 = np.eye(6)
    S = (
        scipy.sparse.kron(sx[:, idx], to6[:, [0, 2]])
        + scipy.sparse.kron(sy[:, idx], to6[:, [1, 3]])
        + scipy.sparse.kron(eye(ny * nx, format="csr")[:, idx], to6[:, 4:])
    )
    px, py = (d.ravel()[:, None, None] for d in g.phi_derivs())
    w = np.exp(-2.0 * g.phi).ravel()
    wdiag = scipy.sparse.diags(w)
    L = (
        scipy.sparse.kron(wdiag @ sx, _R_DX)
        + scipy.sparse.kron(wdiag @ sy, _R_DY)
        + _block_diag(w[:, None, None] * (px * _R_PX + py * _R_PY))
    )
    rows = (2 * idx[:, None] + np.arange(2)).ravel()
    # the unknowns fill the (ny - 2) x (nx - 2) inner grid, on which _lap5 is
    # the 5-point Laplacian with zero Dirichlet values
    second = [
        scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n - 2, n - 2)) / step**2
        for n, step in ((nx, grid.dx), (ny, grid.dy))
    ]
    lap = scipy.sparse.kron(eye(ny - 2), second[0]) + scipy.sparse.kron(second[1], eye(nx - 2))
    stab = -grid.dx * grid.dy * scipy.sparse.kron(lap, eye(2))
    return S.tocsr(), L.tocsr()[rows], stab.tocsr()


def _exact_jacobian(vec, g, h_interp, idx, ops):
    """Jacobian of the packed residual at ``vec`` by the chain rule, as CSC.

    With ``(S, L, stab) = ops`` from :func:`_jacobian_operators` it is
    L K S + stab, where the 4x6 block K = [K1 K2] of a node holds the
    derivatives of A = spd_sqrt(e^{-2 phi} F^T h(p + x) F), F = I + D, with
    respect to D (K1) and to the node's own x (K2, through the spline's
    first derivatives at p + x).
    """
    S, L, stab = ops
    x = _unpack(vec, g.grid, idx)
    pts = map_points(g.grid, x)
    f = map_jacobian(g.grid, x)
    ft = np.swapaxes(f, -1, -2)
    fth = ft @ h_interp(pts)
    dh = np.stack(h_interp.gradient(pts), axis=-3)
    # d(F^T h F) along the unit D[k, j] is (F^T h E_kj) + its transpose
    unit = fth[..., None, :, :] @ np.eye(4).reshape(4, 2, 2)
    dhp = np.concatenate(
        [unit + np.swapaxes(unit, -1, -2), ft[..., None, :, :] @ dh @ f[..., None, :, :]],
        axis=-3,
    )
    ginv = inv2(g.matrix())
    da = dspd_sqrt((ginv @ (fth @ f))[..., None, :, :], ginv[..., None, :, :] @ dhp)
    k = _block_diag(np.swapaxes(da.reshape(-1, 6, 4), -1, -2))
    return (L @ (k @ S) + stab).tocsc()


def _factor_step(jac, r):
    """Factor ``jac`` and solve for the Newton step; returns ``(lu, step)``.

    The symmetric-mode factor (minimum degree on A^T + A, diagonal pivots)
    is tried first; if SuperLU refuses it or its step is not finite, the
    matrix is refactored with partial pivoting.
    """
    # splu is called through the module, so perfbench's probe on it times it
    try:
        lu = scipy.sparse.linalg.splu(
            jac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
        step = lu.solve(-r)
        if np.all(np.isfinite(step)):
            return lu, step
    except RuntimeError:  # SuperLU: "Factor is exactly singular"
        pass
    try:
        lu = scipy.sparse.linalg.splu(jac, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise SolverError("singular Newton system") from exc
    step = lu.solve(-r)
    if not np.all(np.isfinite(step)):
        raise SolverError("non-finite Newton step")
    return lu, step


def _line_search(vec, step, rnorm, g, h, idx):
    """Halve ``lam`` from 1 until the residual's max-norm drops below ``rnorm``.

    Returns ``(lam, r_new)``, or None if no admissible ``lam`` was found in
    :data:`_MAX_HALVINGS` halvings.
    """
    lam = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        try:
            r_new = _residual_vec(vec + lam * step, g, h, idx)
        except FoldOverError:
            lam *= 0.5
            continue
        if np.max(np.abs(r_new)) < rnorm:
            return lam, r_new
        lam *= 0.5
    return None


def _background_state(g):
    """``(idx, ops)`` of the background g, which must be a negatively curved Dirichlet chart."""
    if g.grid.periodic:
        raise ValueError("the solver needs a Dirichlet chart")
    _require_negative_curvature(g)
    idx = _interior_index(g.grid)
    return idx, _jacobian_operators(g, idx)


def _newton(vec, g, h_interp, idx, ops, tol, report):
    """Damped chord-Newton iteration from the packed start ``vec``.

    Returns the packed solution and records each step in ``report``.
    """
    r = _residual_vec(vec, g, h_interp, idx)
    rnorm = float(np.max(np.abs(r)))
    report.residuals.append(rnorm)
    lu = None
    for _ in range(_MAX_ITER):
        if rnorm <= tol:
            return vec
        found = None
        if lu is not None:  # chord step on the factor of an earlier iterate
            step = lu.solve(-r)
            if np.all(np.isfinite(step)):
                found = _line_search(vec, step, rnorm, g, h_interp, idx)
        if found is None:  # no factor yet, or the stale one failed
            jac = _exact_jacobian(vec, g, h_interp, idx, ops)
            report.jacobians += 1
            lu, step = _factor_step(jac, r)
            found = _line_search(vec, step, rnorm, g, h_interp, idx)
            if found is None:
                raise SolverError("line search failed to reduce the residual")
        lam, r_new = found
        vec = vec + lam * step
        rnorm_new = float(np.max(np.abs(r_new)))
        if lam < 1.0 or not (rnorm_new <= _REFRESH_CONTRACTION * rnorm):
            lu = None
        r, rnorm = r_new, rnorm_new
        report.iterations += 1
        report.residuals.append(rnorm)
    if rnorm <= tol:
        return vec
    raise SolverError(f"Newton stalled at residual {rnorm:.3e}")


def _finish(vec, g, h_interp, idx, report):
    """The solution field of the packed ``vec``, and ``report`` with its Codazzi residual."""
    x = _unpack(vec, g.grid, idx)
    hp = pullback_metric(g.grid, h_interp, x)
    report.codazzi_residual = codazzi_residual(field_A(hp, g), g)
    return x, report


def newton_solve(g: ConformalMetric, h, tol=1e-8):
    """Damped chord-Newton iteration for the corrected critical-point equation.

    ``h`` is the SPD target matrix field; the iteration starts from the zero
    displacement.  Returns ``(x, report)``; raises :class:`SolverError` if
    the residual fails to reach ``tol`` in :data:`_MAX_ITER` accepted steps,
    or if a freshly factored Jacobian gives no admissible step.
    """
    idx, ops = _background_state(g)
    h_interp = FieldInterpolator(g.grid, g.grid.check_field(h, rank=2))
    report = SolveReport()
    vec = _newton(np.zeros(2 * idx.size), g, h_interp, idx, ops, tol, report)
    return _finish(vec, g, h_interp, idx, report)


def continuation_solve(g: ConformalMetric, h, steps=10, tol=1e-8):
    """March the solution from the trivial target g.matrix() to ``h`` on the background g.

    The target moves linearly in the matrix, h_t = (1 - t) g + t h
    (convexity keeps it SPD), and each step starts Newton from the last
    accepted solution on the same background state, so a background that is
    not negatively curved raises :class:`CurvatureSignError` before the
    march.  A failed Newton step halves the continuation step; the march
    aborts when the step underflows :data:`_MIN_STEP`.
    """
    grid = g.grid
    h = grid.check_field(h, rank=2)
    idx, ops = _background_state(g)
    g_mat = g.matrix()
    report = SolveReport()
    vec = np.zeros(2 * idx.size)
    t = 0.0
    dt = 1.0 / steps
    while t < 1.0:
        # ten steps of 0.1 sum to 1 - 1.1e-16; the last step lands on 1 itself
        t_next = 1.0 if t + dt > 1.0 - 1e-12 else t + dt
        h_t = FieldInterpolator(grid, (1.0 - t_next) * g_mat + t_next * h)
        try:
            vec = _newton(vec, g, h_t, idx, ops, tol, report)
        except (SolverError, FoldOverError):
            dt *= 0.5
            if dt < _MIN_STEP:
                raise SolverError("continuation step underflow") from None
            continue
        t = t_next
        report.steps.append(t)
    # the march ends on an accepted step, so h_t is the target h itself
    return _finish(vec, g, h_t, idx, report)
