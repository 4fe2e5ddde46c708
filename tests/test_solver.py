"""Newton and continuation solves against manufactured diffeomorphisms."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from codazzi import solver
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.manufactured import (
    ManufacturedDiffeo,
    pullback_of_scaled_poincare,
    recovery_error,
)
from codazzi.maps import FieldInterpolator, FoldOverError
from codazzi.solver import CurvatureSignError, SolverError, newton_solve


def _manufactured(n, seed=3):
    grid = Grid(n, n, 0.8, 0.8, "dirichlet")
    g = poincare_disk(grid)
    diffeo = ManufacturedDiffeo.seeded(grid, seed)
    return grid, g, diffeo, pullback_of_scaled_poincare(diffeo, grid)


@pytest.fixture(scope="module")
def small_solve():
    grid, g, diffeo, h = _manufactured(16)
    x, report = newton_solve(g, h, tol=1e-9)
    return grid, g, diffeo, x, report


def test_newton_converges(small_solve):
    _, _, _, _, report = small_solve
    assert report.residuals[-1] < 1e-9


def test_newton_recovers_manufactured_displacement(small_solve):
    grid, _, diffeo, x, _ = small_solve
    assert recovery_error(diffeo, grid, x) < 5e-4


def test_terminal_residual_contraction(small_solve):
    _, _, _, _, report = small_solve
    r = report.residuals
    assert len(r) >= 2
    assert r[-1] / r[-2] <= 0.5


def test_report_serializes_required_keys(small_solve):
    _, _, _, _, report = small_solve
    d = dataclasses.asdict(report)
    for key in ("iterations", "jacobians", "residuals", "steps", "codazzi_residual"):
        assert key in d


def test_solution_codazzi_residual_small(small_solve):
    _, _, _, _, report = small_solve
    assert report.codazzi_residual < 5e-3


def test_refuses_flat_background():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    flat = ConformalMetric.flat(grid)
    with pytest.raises(CurvatureSignError):
        newton_solve(flat, 2.0 * flat.matrix, tol=1e-8)


def test_refuses_nan_curvature():
    # phi = -400: e^{-2 phi} overflows and the curvature is -inf * 0 = NaN
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    g = ConformalMetric(grid, np.full((16, 16), -400.0))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(CurvatureSignError):
        newton_solve(g, poincare_disk(grid).matrix, tol=1e-8)


def test_continuation_raises_curvature_sign_error_without_halving(monkeypatch):
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    flat = ConformalMetric.flat(grid)
    calls = []
    monkeypatch.setattr(solver, "curvature", lambda g: calls.append(g) or np.zeros(g.phi.shape))
    with pytest.raises(CurvatureSignError):
        solver.continuation_solve(flat, 2.0 * flat.matrix, steps=4)
    assert len(calls) == 1


@pytest.mark.parametrize("steps", [0, -2, float("nan")])
def test_continuation_refuses_fewer_than_one_step(steps):
    # steps=0 used to divide by zero, and steps=-2 marched to t = -0.5, -1.0, ...
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    with pytest.raises(ValueError, match=r"steps >= 1, got (0|-2|nan)$"):
        solver.continuation_solve(g, g.matrix, steps=steps)


def test_continuation_ends_at_the_direct_solution(monkeypatch):
    _, g, _, h = _manufactured(32, seed=0)
    x, _ = newton_solve(g, h, tol=1e-9)
    real_operators = solver._jacobian_operators
    builds = []

    def operators(*args):
        builds.append(args)
        return real_operators(*args)

    monkeypatch.setattr(solver, "_jacobian_operators", operators)
    xc, report = solver.continuation_solve(g, h, steps=10, tol=1e-8)
    assert report.steps[-1] == 1.0
    assert np.max(np.abs(xc - x)) <= 1e-8
    # one background: its operators are built once for all ten steps
    assert len(report.steps) == 10 and len(builds) == 1


def test_trivial_pair_has_zero_solution():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    g = poincare_disk(grid)
    x, report = newton_solve(g, 2.25 * g.matrix, tol=1e-10)
    assert np.max(np.abs(x)) < 1e-8


def _packed_problem(n, state_seed=7):
    grid, g, _, h = _manufactured(n)
    state = solver._Solve(g)
    vec = np.random.default_rng(state_seed).uniform(-1e-3, 1e-3, 2 * state.idx.size)
    return state, FieldInterpolator(grid, h), vec


# The coloured finite-difference Jacobian (Curtis, Powell and Reid, 1974), the
# independent oracle of the solver's exact one.  Stencil radius (Chebyshev, in
# nodes) of solver_residual: the pullback metric takes first differences of x
# (reach 1; on the boundary ring the one-sided edge_order=2 stencil reads
# nodes 0-2), the spline evaluation and field_A are pointwise, and div_endo
# and Grid.lap5 add reach 1.  Columns at least 2*2+1 nodes apart in both
# directions never share a row.
_STENCIL_REACH = 2
_COLOR_STRIDE = 2 * _STENCIL_REACH + 1


def _fd_jacobian(state, vec, h_interp, base, eps=1e-6):
    """Coloured finite-difference Jacobian of the packed residual, as CSC.

    One residual evaluation per (colour, component) perturbs every unknown
    of that component on the colour's stride sublattice; each changed row
    lies within :data:`_STENCIL_REACH` of exactly one perturbed node, so it
    is attributed to that node's column.
    """
    grid, idx = state.g.grid, state.idx
    jj, ii = np.unravel_index(idx, (grid.ny, grid.nx))
    # packed node number at each grid node, -1 off the unknowns; the
    # padding lets every stencil window index in bounds
    reach = _STENCIL_REACH
    node_at = np.full((grid.ny + 2 * reach, grid.nx + 2 * reach), -1)
    node_at[jj + reach, ii + reach] = np.arange(idx.size)
    win = np.arange(2 * reach + 1)
    near = node_at[jj[:, None, None] + win[:, None], ii[:, None, None] + win]
    near = near.reshape(idx.size, -1)
    colour = (jj % _COLOR_STRIDE) * _COLOR_STRIDE + ii % _COLOR_STRIDE
    rows, cols, vals = [], [], []
    for c in np.unique(colour):
        members = np.where(colour == c)[0]
        nb = near[members]
        keep = nb >= 0
        # row nodes (each in one member's neighbourhood) and their member
        row_node = nb[keep]
        owner = np.broadcast_to(members[:, None], nb.shape)[keep]
        for comp in range(2):
            pert = vec.copy()
            pert[2 * members + comp] += eps
            dr = (solver._residual_vec(state, pert, h_interp) - base) / eps
            r = (2 * row_node[:, None] + np.arange(2)).ravel()
            rows.append(r)
            cols.append(np.repeat(2 * owner + comp, 2))
            vals.append(dr[r])
    n = vec.size
    return scipy.sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )


@pytest.mark.parametrize("node", [(1, 1), (2, 2), (8, 8)])
@pytest.mark.parametrize("comp", [0, 1])
def test_residual_stencil_reach(node, comp):
    # the oracle's colouring is exact only if no unknown moves a residual
    # row further than _STENCIL_REACH nodes away
    state, h, vec = _packed_problem(16)
    grid, idx = state.g.grid, state.idx
    base = solver._residual_vec(state, vec, h)
    k = int(np.where(idx == np.ravel_multi_index(node, (grid.ny, grid.nx)))[0][0])
    pert = vec.copy()
    pert[2 * k + comp] += 1e-6
    changed = (solver._residual_vec(state, pert, h) != base).reshape(-1, 2).any(axis=1)
    jj, ii = np.unravel_index(idx[changed], (grid.ny, grid.nx))
    dist = np.maximum(np.abs(jj - node[0]), np.abs(ii - node[1]))
    assert dist.max() == _STENCIL_REACH


def test_coloured_jacobian_equals_column_by_column():
    state, h, vec = _packed_problem(12)
    eps = 1e-6
    base = solver._residual_vec(state, vec, h)
    ref = np.empty((vec.size, vec.size))
    for col in range(vec.size):
        pert = vec.copy()
        pert[col] += eps
        ref[:, col] = (solver._residual_vec(state, pert, h) - base) / eps
    jac = _fd_jacobian(state, vec, h, base, eps=eps)
    assert scipy.sparse.issparse(jac)
    assert np.array_equal(jac.toarray(), ref)


def _edge2_stencil(n, step):
    """The order-2 stencil of :meth:`Grid.ddx`/:meth:`Grid.ddy` on ``n`` nodes, sparse.

    ``np.gradient`` with ``edge_order=2``, applied to the unit vectors.
    """
    return scipy.sparse.csr_matrix(np.gradient(np.eye(n), step, axis=0, edge_order=2))


def _kron_jacobian_operators(g, idx):
    """``(S, L, stab)`` of :func:`solver._jacobian_operators`, composed from Kronecker products.

    The oracle of the index-array build: 1-D stencils lifted to the grid by
    ``kron`` with identities, restricted to the unknowns' columns and the
    residual's rows, and summed.
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
    px, py = (d.ravel()[:, None, None] for d in g.phi_derivs)
    w = np.exp(-2.0 * g.phi).ravel()
    wdiag = scipy.sparse.diags(w)
    L = (
        scipy.sparse.kron(wdiag @ sx, solver._R_DX)
        + scipy.sparse.kron(wdiag @ sy, solver._R_DY)
        + scipy.sparse.block_diag(w[:, None, None] * (px * solver._R_PX + py * solver._R_PY))
    )
    rows = (2 * idx[:, None] + np.arange(2)).ravel()
    # the unknowns fill the (ny - 2) x (nx - 2) inner grid, on which Grid.lap5
    # is the 5-point Laplacian with zero Dirichlet values
    second = [
        scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n - 2, n - 2)) / step**2
        for n, step in ((nx, grid.dx), (ny, grid.dy))
    ]
    lap = scipy.sparse.kron(eye(ny - 2), second[0]) + scipy.sparse.kron(second[1], eye(nx - 2))
    stab = -grid.dx * grid.dy * scipy.sparse.kron(lap, eye(2))
    return S.tocsr(), L.tocsr()[rows], stab.tocsr()


# 12^2 and 32^2 squares; a non-square chart, on which a swapped nx/ny or
# dx/dy would show; and an odd one, on whose centre lines phi_x and phi_y
# vanish exactly, so that both builds must leave those zero entries out
_OPERATOR_GRIDS = [
    Grid(12, 12, 0.8, 0.8, "dirichlet"),
    Grid(32, 32, 0.8, 0.8, "dirichlet"),
    Grid(20, 14, 0.8, 0.6, "dirichlet"),
    Grid(13, 13, 0.8, 0.8, "dirichlet"),
]


@pytest.mark.parametrize("grid", _OPERATOR_GRIDS, ids=lambda gr: f"{gr.nx}x{gr.ny}")
def test_index_built_operators_equal_the_kron_oracle_bit_for_bit(grid):
    g = poincare_disk(grid)
    # the state holds the index build of solver._jacobian_operators
    state = solver._Solve(g)
    idx, new = state.idx, state.ops
    oracle = _kron_jacobian_operators(g, idx)
    for name, a, b in zip(("S", "L", "stab"), new, oracle):
        assert a.format == "csr" and a.shape == b.shape, name
        assert a.toarray().tobytes() == b.toarray().tobytes(), name
        # the oracle's stab also stores the zeros of kron with an identity
        # block; the index build stores none
        assert a.nnz == b.count_nonzero(), name
    # and so the assembled Jacobian, stored entry for entry
    diffeo = ManufacturedDiffeo.seeded(grid, 3)
    h = FieldInterpolator(grid, pullback_of_scaled_poincare(diffeo, grid))
    vec = np.random.default_rng(7).uniform(-1e-3, 1e-3, 2 * idx.size)
    jac_new = solver._exact_jacobian(state, vec, h)
    # the oracle's S, L and stab, with the index build's columns of K
    state.ops = (*oracle, new[3])
    jac_oracle = solver._exact_jacobian(state, vec, h)
    for part in ("indptr", "indices", "data"):
        assert getattr(jac_new, part).tobytes() == getattr(jac_oracle, part).tobytes(), part


@pytest.mark.parametrize("n", [12, 32])
@pytest.mark.parametrize("state_seed", [7, 8, 9])
def test_exact_jacobian_agrees_with_central_differences_at_second_order(n, state_seed):
    state, h, vec = _packed_problem(n, state_seed)
    jac = solver._exact_jacobian(state, vec, h)
    assert jac.format == "csc"
    rng = np.random.default_rng(state_seed)
    for _ in range(2):
        d = rng.standard_normal(vec.size)
        exact = jac @ d
        errs = []
        for eps in (1e-4, 1e-5):
            plus = solver._residual_vec(state, vec + eps * d, h)
            minus = solver._residual_vec(state, vec - eps * d, h)
            errs.append(np.max(np.abs((plus - minus) / (2 * eps) - exact)))
        # central differences converge to the exact derivative at O(eps^2):
        # a tenfold smaller eps must cut the error at least fiftyfold
        assert errs[0] >= 50.0 * errs[1]
        assert errs[0] <= 1e-3 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [12, 32])
def test_exact_jacobian_agrees_with_the_coloured_fd_oracle(n):
    state, h, vec = _packed_problem(n)
    fd = _fd_jacobian(state, vec, h, solver._residual_vec(state, vec, h)).toarray()
    exact = solver._exact_jacobian(state, vec, h).toarray()
    assert np.max(np.abs(exact - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_recovery_error_decreases_under_refinement():
    errs, steps = [], []
    for n in (16, 32, 64):
        grid, g, diffeo, h = _manufactured(n, seed=0)
        x, _ = newton_solve(g, h, tol=1e-9)
        errs.append(float(recovery_error(diffeo, grid, x)))
        steps.append(grid.dx)
    assert errs[0] > errs[1] > errs[2]
    order = np.log(errs[1] / errs[2]) / np.log(steps[1] / steps[2])
    assert order >= 1.0


@pytest.mark.parametrize(
    "scale, match", [(0.0, "singular Newton system"), (1e-320, "non-finite Newton step")]
)
def test_bad_newton_system_raises_solver_error(monkeypatch, scale, match):
    _, g, _, h = _manufactured(12)

    def fake_jacobian(state, vec, h_interp):
        return scale * scipy.sparse.identity(vec.size, format="csc")

    monkeypatch.setattr(solver, "_exact_jacobian", fake_jacobian)
    with pytest.raises(SolverError, match=match):
        newton_solve(g, h, tol=1e-12)


# Recovery errors at 32^2, tol=1e-9, of full Newton on the finite-difference
# Jacobian (a fresh one at each of its three steps); chord steps on one exact
# Jacobian must reproduce the same solution.
_FULL_NEWTON_RECOVERY_32 = {
    0: 6.821185062005908e-05,
    1: 7.305616456115827e-05,
    2: 6.055768058538247e-05,
    3: 7.657373170782966e-05,
    4: 3.293010607724467e-05,
}


@pytest.mark.parametrize("seed", sorted(_FULL_NEWTON_RECOVERY_32))
def test_chord_steps_reuse_the_factor_and_keep_the_solution(seed):
    grid, g, diffeo, h = _manufactured(32, seed=seed)
    x, report = newton_solve(g, h, tol=1e-9)
    assert report.jacobians == 1 < report.iterations
    assert report.residuals[-1] <= 1e-9
    err = float(recovery_error(diffeo, grid, x))
    assert err == pytest.approx(_FULL_NEWTON_RECOVERY_32[seed], rel=1e-6)


class _NonFiniteLU:
    def solve(self, rhs):
        return np.full_like(rhs, np.nan)


@pytest.mark.parametrize(
    "failure, match",
    [("raises", "singular Newton system"), ("non-finite step", "non-finite Newton step")],
)
def test_symmetric_mode_failure_raises_solver_error(monkeypatch, failure, match):
    _, g, _, h = _manufactured(16)
    modes = []

    def splu(jac, **kwargs):
        modes.append(bool(kwargs.get("options", {}).get("SymmetricMode")))
        if failure == "raises":
            raise RuntimeError("Factor is exactly singular")
        return _NonFiniteLU()

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    with pytest.raises(SolverError, match=match):
        newton_solve(g, h, tol=1e-9)
    # one symmetric-mode factor, and no refactor with partial pivoting
    assert modes == [True]


class _StaleLU:
    """Solves correctly once, then returns the uphill direction."""

    def __init__(self, lu):
        self.lu, self.calls = lu, 0

    def solve(self, rhs):
        self.calls += 1
        step = self.lu.solve(rhs)
        return step if self.calls == 1 else -step


def test_stale_factor_line_search_failure_rebuilds_the_jacobian(monkeypatch):
    _, g, _, h = _manufactured(16)
    real_splu = scipy.sparse.linalg.splu
    factors = []

    def splu(jac, **kwargs):
        factors.append(_StaleLU(real_splu(jac, **kwargs)))
        return factors[-1]

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    _, report = newton_solve(g, h, tol=1e-9)
    assert report.residuals[-1] <= 1e-9
    # each chord step on an old factor fails its line search; a rebuilt
    # Jacobian at the same iterate then gives the accepted step
    assert any(lu.calls > 1 for lu in factors)
    assert report.jacobians == report.iterations == len(factors)


def test_recovery_error_order_rises_toward_two_under_refinement():
    errs, steps = [], []
    for n in (32, 64, 128):
        grid, g, diffeo, h = _manufactured(n, seed=0)
        x, _ = newton_solve(g, h, tol=1e-9)
        errs.append(float(recovery_error(diffeo, grid, x)))
        steps.append(grid.dx)
    coarse, fine = (
        np.log(errs[k] / errs[k + 1]) / np.log(steps[k] / steps[k + 1]) for k in (0, 1)
    )
    assert fine >= 1.7
    assert fine > coarse


# Globalisation: manufactured pairs far enough from the background (amplitude
# 0.15 or 0.1 against the default 0.0025) that Newton's full step folds the map
# over or fails to reduce the residual.
def _far(n, amp, seed):
    grid = Grid(n, n, 0.8, 0.8, "dirichlet")
    diffeo = ManufacturedDiffeo.seeded(grid, seed, amp=amp)
    return poincare_disk(grid), pullback_of_scaled_poincare(diffeo, grid)


@pytest.fixture
def fold_overs(monkeypatch):
    """The list of fold-overs met by residual evaluations, one entry each."""
    met = []
    real = solver._residual_vec

    def residual_vec(state, vec, h_interp):
        try:
            return real(state, vec, h_interp)
        except FoldOverError:
            met.append(vec)
            raise

    monkeypatch.setattr(solver, "_residual_vec", residual_vec)
    return met


def test_newton_refuses_when_no_halving_reduces_the_residual(fold_overs):
    g, h = _far(16, 0.15, 0)
    with pytest.raises(SolverError, match="^line search failed to reduce the residual$"):
        newton_solve(g, h, tol=1e-9)
    # the line search halved past trial points that fold the map over
    assert fold_overs


def test_continuation_halves_a_failed_step_and_reaches_the_target():
    g, h = _far(16, 0.15, 0)
    _, report = solver.continuation_solve(g, h, steps=10, tol=1e-9)
    # the step 0.4 -> 0.5 fails and is retried as two steps of 0.05
    expected = [0.1, 0.2, 0.3, 0.4] + [0.45 + 0.05 * k for k in range(12)]
    assert report.steps == pytest.approx(expected, abs=1e-12)
    assert report.steps[-1] == 1.0
    assert report.residuals[-1] <= 1e-9
    # every step, the retried one too, starts Newton with no factor
    assert (report.iterations, report.jacobians) == (211, 67)


def test_continuation_steps_start_without_a_factor():
    g, h = _far(16, 0.0025, 0)
    _, report = solver.continuation_solve(g, h, steps=10, tol=1e-9)
    # ten steps, ten factors: none is carried from one step to the next
    assert len(report.steps) == 10
    assert (report.iterations, report.jacobians) == (28, 10)


def test_newton_stalls_after_the_iteration_limit():
    g, h = _far(16, 0.15, 1)
    with pytest.raises(SolverError, match=r"^Newton stalled at residual 3\.056e-08$"):
        newton_solve(g, h, tol=1e-9)


def test_continuation_refuses_when_its_step_underflows():
    g, h = _far(16, 0.15, 3)
    with pytest.raises(SolverError, match="^continuation step underflow$"):
        solver.continuation_solve(g, h, steps=10, tol=1e-9)


def test_manufactured_target_refuses_a_chart_beyond_the_disk():
    # the corners (+-0.8, +-0.8) of this chart lie outside the unit disk
    grid = Grid(16, 16, 1.6, 1.6, "dirichlet")
    with pytest.raises(ValueError, match="^diffeomorphism leaves the unit disk$"):
        pullback_of_scaled_poincare(ManufacturedDiffeo.seeded(grid, 0), grid)


def test_damped_steps_refresh_the_factor(fold_overs):
    g, h = _far(32, 0.1, 0)
    _, report = newton_solve(g, h, tol=1e-9)
    # a halved or weakly contracting step drops the factor, so 15 steps
    # take 8 Jacobians, not one
    assert (report.iterations, report.jacobians) == (15, 8)
    assert report.residuals[-1] <= 1e-9
    assert fold_overs
