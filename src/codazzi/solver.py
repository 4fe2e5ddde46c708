"""Newton solver with continuation for one-harmonic displacement fields.

Unknown: a displacement field X on a Dirichlet chart, zero on the boundary,
such that the pullback of the target metric h through Phi(p) = p + X(p) is
a critical point of the energy with respect to the background g (see
:func:`solver_residual` for what is actually driven to zero and why).
Manufactured solutions (pullbacks of metrics with Codazzi A through known
small diffeomorphisms) make the solver testable to tight tolerances.

Every solve has one background g; :func:`continuation_solve` moves only the
target, h_t = (1 - t) g + t h (natural-parameter continuation, Allgower and
Georg, SIAM 2003).  The curvature check, the interior index, the
operators S, L and stab below and the column array of K depend on g alone,
so each public call builds them once, in its private state :class:`_Solve`
(which also holds its report and Newton factor), for all its steps.

The Newton Jacobian is exact: :func:`_exact_jacobian` assembles the chain
rule of :func:`solver_residual` as a sparse matrix, L K S + stab (Griewank
and Walther, "Evaluating Derivatives", SIAM 2008).  S holds the map-Jacobian
stencils, K the per-node derivatives of A through the spline's first
derivatives and the closed-form derivative of the 2x2 SPD square root
(:func:`~codazzi.jcalc.dspd_sqrt`), L the divergence and stab the
checkerboard suppressor.  Each of S, L, stab and K is the grid's one CSR
builder ``grid._rows_csr`` of fixed-width rows written from index arrays
(the grid's stencil rows, the node numbering and the node weights), instead
of being composed from Kronecker products and sparse sums (Davis, "Direct
Methods for Sparse Linear Systems", SIAM 2006, ch. 2); the Kronecker form
stays in the tests as their oracle.  The coloured finite-difference
Jacobian of Curtis, Powell and Reid (1974) is kept in the tests as the
independent oracle of the assembled Jacobian.  The grid's one SuperLU
factor ``grid._splu``, which ``teich.phi0_solve`` shares, factors the CSC
matrix with a minimum-degree ordering of A^T + A in symmetric mode
(diagonal pivots only, about a fifth of the fill of partial pivoting at
128^2).  A factor that SuperLU refuses as singular, or whose step is not
finite, is a :class:`SolverError`.

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

from .grid import ConformalMetric, _rows_csr, _splu
from .energy import codazzi_residual, energy_gradient, field_A
from .jcalc import _mul2, dspd_sqrt, inv2
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


@dataclass
class SolveReport:
    """Machine-readable record of a solve; ``dataclasses.asdict`` gives its report."""

    iterations: int = 0
    jacobians: int = 0
    residuals: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    codazzi_residual: float = 0.0


def solver_residual(x, g: ConformalMetric, h_interp):
    """Residual driven by Newton: grad E plus a checkerboard suppressor.

    The correction G of the continuum theory restores ellipticity in
    directions the energy Hessian cannot see on a closed surface; on a
    Dirichlet chart with negative curvature the second variation is already
    positive definite, so criticality is equivalent to grad E = 0.  The
    discrete central-difference Hessian is however nearly blind to
    grid-frequency (checkerboard) displacement modes; the consistent
    O(h^2) term -dx * dy * :meth:`~codazzi.grid.Grid.lap5` (X) removes that
    spurious near-kernel without moving the smooth discrete solution at
    leading order.
    """
    hp = pullback_metric(g.grid, h_interp, x)
    return energy_gradient(hp, g) - g.grid.dx * g.grid.dy * g.grid.lap5(x)


class _Solve:
    """One solve's state on its background g, built once per public call.

    Building it refuses a periodic chart and a g that is not negatively
    curved.  It holds ``g``, the interior nodes' packed index ``idx``, their
    ``ops`` from :func:`_jacobian_operators`, the ``report`` and the factor ``lu``.
    """

    def __init__(self, g):
        if g.grid.periodic:
            raise ValueError("the solver needs a Dirichlet chart")
        # written so that a NaN curvature fails
        if not np.all(curvature(g) < 0.0):
            raise CurvatureSignError(
                "the background metric is not negatively curved everywhere; "
                "the critical-point equation is elliptic only for kappa < 0"
            )
        self.g = g
        self.idx = np.where(g.grid.interior(1).ravel())[0]
        self.ops = _jacobian_operators(g, self.idx)
        self.report = SolveReport()
        self.lu = None

    def displacement(self, vec):
        """The displacement field of the packed ``vec``, zero off the unknowns."""
        x = np.zeros(self.g.phi.shape + (2,))
        x.reshape(-1, 2)[self.idx] = vec.reshape(-1, 2)
        return x


def _residual_vec(state, vec, h_interp):
    r = solver_residual(state.displacement(vec), state.g, h_interp)
    return r.reshape(-1, 2)[state.idx].ravel()


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
    """The state-independent parts of :func:`_exact_jacobian`.

    Returns ``(S, L, stab, kcols)``: three CSR matrices, each
    ``grid._rows_csr`` of rows written from index arrays, and the column
    array of the per-node blocks K.  The unknowns and the residual are
    packed 2 per interior node, A (row-major) 4 per grid node:

    * ``S`` maps the unknowns to 6 values per grid node: D = d_j x^k (entry
      2k + j), by the grid's order-2 taps including the one-sided rows of
      the boundary ring, which interior unknowns feed; then the node's own
      x^0 and x^1;
    * ``L`` maps A to the residual's energy gradient -J div(A J); its rows
      read A at the node and its four neighbours;
    * ``stab`` is the residual's stabiliser, -dx dy
      :meth:`~codazzi.grid.Grid.lap5_matrix` on each component;
    * ``kcols`` (ny nx, 4, 6) holds the columns 6n .. 6n + 5 of each of the
      four rows of node n's block.

    The matrices' stored values are those of the Kronecker-product form
    (kept in the tests as the oracle of this one), entry for entry.
    """
    grid = g.grid
    ny, nx = grid.ny, grid.nx
    nu = idx.size
    # packed number of the unknown at each grid node, -1 off the unknowns
    node = np.full((ny, nx), -1)
    node.flat[idx] = np.arange(nu)
    cx, wx = grid._edge2_taps(nx, grid.dx)
    cy, wy = grid._edge2_taps(ny, grid.dy)

    # the unknowns that d_x, d_y and the node itself read at each grid node;
    # a tap off the unknowns gets weight zero and is left out
    taps = np.stack(
        [node[:, cx], np.swapaxes(node[cy], 1, 2), np.repeat(node[..., None], 3, axis=-1)],
        axis=2,
    )
    weights = np.stack(np.broadcast_arrays(wx, wy[:, None], np.array([1.0, 0.0, 0.0])), axis=2)
    weights = np.where(taps >= 0, weights, 0.0)
    # S rows of a node: d_x x^0, d_y x^0, d_x x^1, d_y x^1, x^0, x^1
    kind = [0, 1, 0, 1, 2, 2]
    comp = np.array([0, 0, 1, 1, 0, 1])[:, None]
    # take, unlike indexing an inner axis with a list, returns C-ordered arrays
    cols = 2 * taps.take(kind, axis=2)
    cols += comp
    S = _rows_csr(cols, weights.take(kind, axis=2), (6 * ny * nx, 2 * nu))

    # L row e of an interior node reads A at the nodes below, left, itself,
    # right and above, in that (ascending) column order: at a neighbour the
    # one nonzero of row e of _R_DY or _R_DX times the central stencil
    # weight, at the node itself row e of its own 2x4 block
    offsets = np.array([-nx, -1, 0, 1, nx])
    pattern = np.stack([_R_DY, _R_DX, np.ones((2, 4)), _R_DX, _R_DY], axis=1)
    e, s, k = np.nonzero(pattern)
    central = np.array([wy[1, 0], wx[1, 0], 0.0, wx[1, 1], wy[1, 1]])[s] * pattern[e, s, k]
    w = g.inverse_factor.ravel()[idx, None]
    px, py = (d.ravel()[idx, None, None] for d in g.phi_derivs)
    lvals = w * central
    # in each row the node's own four entries follow the one below and the one left
    lvals.reshape(nu, 2, 8)[:, :, 2:6] = w[..., None] * (px * _R_PX + py * _R_PY)
    L = _rows_csr(4 * idx[:, None] + (4 * offsets[s] + k), lvals, (2 * nu, 4 * ny * nx))

    # rows 2k and 2k + 1 of stab are row k of lap5_matrix (numbered as idx)
    # read at x^0 and at x^1
    lap_cols, lap_vals = grid._lap5_taps()
    svals = np.repeat(-grid.dx * grid.dy * lap_vals[:, None], 2, axis=1)
    stab = _rows_csr(2 * lap_cols[:, None] + [[0], [1]], svals, (2 * nu, 2 * nu))
    kcols = np.repeat(6 * np.arange(ny * nx)[:, None, None] + np.arange(6), 4, axis=1)
    return S, L, stab, kcols


def _exact_jacobian(state, vec, h_interp):
    """Jacobian of the packed residual at ``vec`` by the chain rule, as CSC.

    With ``(S, L, stab, kcols) = state.ops`` from :func:`_jacobian_operators`
    it is L K S + stab, where the 4x6 block K = [K1 K2] of a node holds the
    derivatives of A = spd_sqrt(e^{-2 phi} F^T h(p + x) F), F = I + D, with
    respect to D (K1) and to the node's own x (K2, through the spline's
    first derivatives at p + x).  Products with the units E_kj and with the
    diagonal g^{-1} are ``jcalc._mul2``.
    """
    S, L, stab, kcols = state.ops
    x = state.displacement(vec)
    pts = map_points(state.g.grid, x)
    f = map_jacobian(state.g.grid, x)
    ft = np.swapaxes(f, -1, -2)
    fth = ft @ h_interp(pts)
    dh = np.stack(h_interp.gradient(pts), axis=-3)
    # d(F^T h F) along the unit D[k, j] is (F^T h E_kj) + its transpose
    unit = _mul2(fth[..., None, :, :], np.eye(4).reshape(4, 2, 2))
    dhp = np.concatenate(
        [unit + np.swapaxes(unit, -1, -2), ft[..., None, :, :] @ dh @ f[..., None, :, :]],
        axis=-3,
    )
    da = dspd_sqrt(
        _mul2(inv2(state.g.matrix), fth @ f)[..., None, :, :],
        _mul2(inv2(state.g.matrix)[..., None, :, :], dhp),
    )
    # K holds node n's 4x6 block in rows 4n to 4n + 3 and columns 6n to 6n + 5
    n = len(kcols)
    k = _rows_csr(kcols, np.swapaxes(da.reshape(n, 6, 4), -1, -2), (4 * n, 6 * n))
    return (L @ (k @ S) + stab).tocsc()


def _factor_step(jac, r):
    """Factor ``jac`` in symmetric mode and solve for the Newton step; returns ``(lu, step)``.

    Raises :class:`SolverError` if SuperLU refuses the factor or its step is not finite.
    """
    try:
        lu = _splu(jac)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError("singular Newton system") from exc
    step = lu.solve(-r)
    if not np.all(np.isfinite(step)):
        raise SolverError("non-finite Newton step")
    return lu, step


def _line_search(state, vec, step, rnorm, h_interp):
    """Halve ``lam`` from 1 until the residual's max-norm drops below ``rnorm``.

    Returns ``(lam, r_new)``, or None if no admissible ``lam`` was found in
    :data:`_MAX_HALVINGS` halvings.
    """
    lam = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        try:
            r_new = _residual_vec(state, vec + lam * step, h_interp)
        except FoldOverError:
            lam *= 0.5
            continue
        if np.max(np.abs(r_new)) < rnorm:
            return lam, r_new
        lam *= 0.5
    return None


def _newton(state, vec, h_interp, tol):
    """Damped chord-Newton iteration from the packed start ``vec``.

    Returns the packed solution and records each step in ``state.report``;
    its factor ``state.lu`` is cleared when it starts and when it returns.
    """
    r = _residual_vec(state, vec, h_interp)
    rnorm = float(np.max(np.abs(r)))
    state.report.residuals.append(rnorm)
    state.lu = None
    for _ in range(_MAX_ITER):
        if rnorm <= tol:
            break
        found = None
        if state.lu is not None:  # chord step on the factor of an earlier iterate
            step = state.lu.solve(-r)
            if np.all(np.isfinite(step)):
                found = _line_search(state, vec, step, rnorm, h_interp)
        if found is None:  # no factor yet, or the stale one failed
            jac = _exact_jacobian(state, vec, h_interp)
            state.report.jacobians += 1
            state.lu, step = _factor_step(jac, r)
            found = _line_search(state, vec, step, rnorm, h_interp)
            if found is None:
                raise SolverError("line search failed to reduce the residual")
        lam, r_new = found
        vec = vec + lam * step
        rnorm_new = float(np.max(np.abs(r_new)))
        if lam < 1.0 or not (rnorm_new <= _REFRESH_CONTRACTION * rnorm):
            state.lu = None
        r, rnorm = r_new, rnorm_new
        state.report.iterations += 1
        state.report.residuals.append(rnorm)
    if not rnorm <= tol:  # written so that a NaN fails
        raise SolverError(f"Newton stalled at residual {rnorm:.3e}")
    # freed while the Jacobian is still held: freed after it, the factor let glibc
    # trim its heap top, and each 32^2 solve took ~430 more minor page faults
    state.lu = None
    return vec


def _finish(state, vec, h_interp):
    """The solution field of the packed ``vec``, and the report with its Codazzi residual."""
    x = state.displacement(vec)
    hp = pullback_metric(state.g.grid, h_interp, x)
    state.report.codazzi_residual = codazzi_residual(field_A(hp, state.g), state.g)
    return x, state.report


def newton_solve(g: ConformalMetric, h, tol=1e-8):
    """Damped chord-Newton iteration for the corrected critical-point equation.

    ``h`` is the SPD target matrix field; the iteration starts from the zero
    displacement.  Returns ``(x, report)``; raises :class:`SolverError` if
    the residual fails to reach ``tol`` in :data:`_MAX_ITER` accepted steps,
    or if a freshly factored Jacobian gives no admissible step.
    """
    state = _Solve(g)
    h_interp = FieldInterpolator(g.grid, g.grid.check_field(h, rank=2))
    vec = _newton(state, np.zeros(2 * state.idx.size), h_interp, tol)
    return _finish(state, vec, h_interp)


def continuation_solve(g: ConformalMetric, h, steps=10, tol=1e-8):
    """March the solution from the trivial target g.matrix to ``h`` on the background g.

    The target moves linearly in the matrix, h_t = (1 - t) g + t h
    (convexity keeps it SPD), and each step starts Newton from the last
    accepted solution on the same background state, so a background that is
    not negatively curved raises :class:`CurvatureSignError` before the
    march.  A failed Newton step halves the continuation step; the march
    aborts when the step underflows :data:`_MIN_STEP`.  ``steps`` must be
    at least 1.
    """
    if not steps >= 1:  # written so that a NaN fails
        raise ValueError(f"continuation_solve needs steps >= 1, got {steps!r}")
    grid = g.grid
    h = grid.check_field(h, rank=2)
    state = _Solve(g)
    g_mat = g.matrix
    vec = np.zeros(2 * state.idx.size)
    t = 0.0
    dt = 1.0 / steps
    while t < 1.0:
        # ten steps of 0.1 sum to 1 - 1.1e-16; the last step lands on 1 itself
        t_next = 1.0 if t + dt > 1.0 - 1e-12 else t + dt
        h_t = FieldInterpolator(grid, (1.0 - t_next) * g_mat + t_next * h)
        try:
            vec = _newton(state, vec, h_t, tol)
        except (SolverError, FoldOverError):
            dt *= 0.5
            if dt < _MIN_STEP:
                raise SolverError("continuation step underflow") from None
            continue
        t = t_next
        state.report.steps.append(t)
    # the march ends on an accepted step, so h_t is the target h itself
    return _finish(state, vec, h_t)
