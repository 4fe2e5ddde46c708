"""Newton and continuation solves against manufactured diffeomorphisms."""

import numpy as np
import pytest
import scipy.sparse

from codazzi import solver
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.manufactured import (
    ManufacturedDiffeo,
    pullback_of_scaled_poincare,
    recovery_error,
)
from codazzi.maps import FieldInterpolator
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
    d = report.to_dict()
    for key in ("iterations", "residuals", "steps", "codazzi_residual"):
        assert key in d


def test_solution_codazzi_residual_small(small_solve):
    _, _, _, _, report = small_solve
    assert report.codazzi_residual < 5e-3


def test_refuses_flat_background():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    flat = ConformalMetric.flat(grid)
    with pytest.raises(CurvatureSignError):
        newton_solve(flat, 2.0 * flat.matrix(), tol=1e-8)


def test_trivial_pair_has_zero_solution():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    g = poincare_disk(grid)
    x, report = newton_solve(g, 2.25 * g.matrix(), tol=1e-10)
    assert np.max(np.abs(x)) < 1e-8


def _packed_problem(n):
    grid, g, _, h = _manufactured(n)
    idx, _ = solver._interior_index(grid)
    vec = np.random.default_rng(7).uniform(-1e-3, 1e-3, 2 * idx.size)
    return g, FieldInterpolator(grid, h), idx, vec


@pytest.mark.parametrize("node", [(1, 1), (2, 2), (8, 8)])
@pytest.mark.parametrize("comp", [0, 1])
def test_residual_stencil_reach(node, comp):
    # the Jacobian colouring is exact only if no unknown moves a residual
    # row further than _STENCIL_REACH nodes away
    g, h, idx, vec = _packed_problem(16)
    grid = g.grid
    base = solver._residual_vec(vec, g, h, idx)
    k = int(np.where(idx == np.ravel_multi_index(node, (grid.ny, grid.nx)))[0][0])
    pert = vec.copy()
    pert[2 * k + comp] += 1e-6
    changed = (solver._residual_vec(pert, g, h, idx) != base).reshape(-1, 2).any(axis=1)
    jj, ii = np.unravel_index(idx[changed], (grid.ny, grid.nx))
    dist = np.maximum(np.abs(jj - node[0]), np.abs(ii - node[1]))
    assert dist.max() == solver._STENCIL_REACH


def test_coloured_jacobian_equals_column_by_column():
    g, h, idx, vec = _packed_problem(12)
    eps = 1e-6
    base = solver._residual_vec(vec, g, h, idx)
    ref = np.empty((vec.size, vec.size))
    for col in range(vec.size):
        pert = vec.copy()
        pert[col] += eps
        ref[:, col] = (solver._residual_vec(pert, g, h, idx) - base) / eps
    jac = solver._fd_jacobian(vec, g, h, idx, base, eps=eps)
    assert scipy.sparse.issparse(jac)
    assert np.array_equal(jac.toarray(), ref)


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

    def fake_jacobian(vec, *args, **kwargs):
        return scale * scipy.sparse.identity(vec.size, format="csc")

    monkeypatch.setattr(solver, "_fd_jacobian", fake_jacobian)
    with pytest.raises(SolverError, match=match):
        newton_solve(g, h, tol=1e-12)
