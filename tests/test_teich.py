"""Deformation families of the relative energy over conformal structures."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from codazzi import teich
from codazzi.energy import trace_energy
from codazzi.grid import ConformalMetric, Grid, _splu, poincare_disk
from codazzi.jcalc import ID2, det, metric_action
from codazzi.randfields import rng_for, tracefree_codazzi_conformal, trig_spd


@pytest.fixture(scope="module")
def family():
    h0 = poincare_disk(Grid(48, 48, 0.8, 0.8, "dirichlet"))
    b = tracefree_codazzi_conformal(h0, rng_for(3), amp=0.25)
    return h0, b, teich.DeformationFamily.build(b, h0)


def test_phi0_is_nonnegative(family):
    _, _, fam = family
    assert float(fam.phi0.min()) >= -1e-10


def test_phi0_solves_the_five_point_equation_at_interior_nodes(family):
    # (Laplace_5 - 2 e^{2 phi}) phi0 = Det(B) e^{2 phi}, the Laplacian taken
    # by array slicing of the node field (zero on the boundary ring)
    h0, b, fam = family
    grid, p, w = h0.grid, fam.phi0, h0.conformal_factor
    assert np.all(p[0] == 0) and np.all(p[-1] == 0)
    assert np.all(p[:, 0] == 0) and np.all(p[:, -1] == 0)
    lap = (p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]) / grid.dx**2 + (
        p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]
    ) / grid.dy**2
    lhs = lap - 2.0 * w[1:-1, 1:-1] * p[1:-1, 1:-1]
    rhs = (det(b) * w)[1:-1, 1:-1]
    scale = np.max(np.abs(p)) / grid.dx**2
    assert np.max(np.abs(rhs)) > 0.1 * scale * grid.dx**2
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def _phi0_by_node_loop(b, h):
    # the per-node assembly phi0_solve used before its index arithmetic
    grid, w = h.grid, h.conformal_factor
    mask = grid.interior(1)
    num = np.full((grid.ny, grid.nx), -1)
    num[mask] = np.arange(mask.sum())
    cx, cy = 1.0 / grid.dx**2, 1.0 / grid.dy**2
    rows, cols, vals = [], [], []
    for k, (j, i) in enumerate(zip(*np.where(mask))):
        rows.append(k)
        cols.append(k)
        vals.append(-2.0 * (cx + cy) - 2.0 * w[j, i])
        for j2, i2, c in ((j, i - 1, cx), (j, i + 1, cx), (j - 1, i, cy), (j + 1, i, cy)):
            if num[j2, i2] >= 0:
                rows.append(k)
                cols.append(num[j2, i2])
                vals.append(c)
    n = int(mask.sum())
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))
    out = np.zeros((grid.ny, grid.nx))
    lu = _splu(mat.tocsc())
    out[mask] = lu.solve((det(b) * w)[mask])
    return out


def test_phi0_equals_the_node_loop_assembly_bit_for_bit():
    h0 = poincare_disk(Grid(17, 13, 0.8, 0.6, "dirichlet"))
    b = tracefree_codazzi_conformal(h0, rng_for(5), amp=0.25)
    assert np.array_equal(teich.phi0_solve(b, h0), _phi0_by_node_loop(b, h0))


def _plateau_direction(n, s=0.7):
    b = np.zeros((n, n, 2, 2))
    b[..., 0, 0] = s
    b[..., 1, 1] = -s
    return b


@pytest.mark.parametrize("chart", ["poincare64", "flat96"])
def test_phi0_symmetric_factor_agrees_with_spsolve(chart):
    # the symmetric-mode factor against spsolve's partial pivoting (COLAMD)
    # on the same matrix and right side
    if chart == "poincare64":
        h = poincare_disk(Grid(64, 64, 0.8, 0.8, "dirichlet"))
        b = tracefree_codazzi_conformal(h, rng_for(3), amp=0.25)
    else:
        h = ConformalMetric.flat(Grid(96, 96, 12.0, 12.0, "dirichlet"))
        b = _plateau_direction(96)
    grid, w = h.grid, h.conformal_factor
    mask = grid.interior(1)
    mat = grid.lap5_matrix() - scipy.sparse.diags(2.0 * w[mask])
    ref = scipy.sparse.linalg.spsolve(mat.tocsc(), (det(b) * w)[mask])
    got = teich.phi0_solve(b, h)
    assert np.max(np.abs(ref)) > 0.0
    assert np.max(np.abs(got[mask] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(got[~mask] == 0.0)


def test_phi0_vanishes_for_zero_direction():
    h0 = poincare_disk(Grid(24, 24, 0.8, 0.8, "dirichlet"))
    phi0 = teich.phi0_solve(np.zeros((24, 24, 2, 2)), h0)
    assert np.max(np.abs(phi0)) < 1e-12


def test_phi0_plateau_value_on_large_flat_chart():
    # constant trace-free direction of size s: phi0 -> s^2/2 in the bulk
    grid = Grid(96, 96, 12.0, 12.0, "dirichlet")
    flat = ConformalMetric.flat(grid)
    s = 0.7
    phi0 = teich.phi0_solve(_plateau_direction(96, s), flat)
    assert float(phi0[48, 48]) == pytest.approx(0.5 * s * s, abs=2e-3)


def test_e_hat_conformal_value(family):
    h0, _, _ = family
    c = 1.4
    assert trace_energy(c * c * h0.matrix, h0) == pytest.approx(
        2.0 * c * h0.area(), abs=1e-10
    )


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize("conformal", [True, False])
def test_family_at_t_zero_is_the_trace_energy_bit_for_bit(n, conformal):
    # B_0 = Id, so the deformed base equals h0.matrix entry for entry and
    # both routes run the same general-base integral
    h0 = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
    fam = teich.DeformationFamily.build(tracefree_codazzi_conformal(h0, rng_for(3), amp=0.25), h0)
    if conformal:
        target = 1.96 * h0.matrix
    else:
        target = metric_action(trig_spd(h0.grid, rng_for(8), amp=0.15), h0.matrix)
    assert fam.e_hat_along(target, 0.0) == trace_energy(target, h0)


def test_first_derivative_matches_fd(family):
    h0, b, fam = family
    c = 1.4
    grid = h0.grid
    a0 = np.broadcast_to(c * ID2, (grid.ny, grid.nx, 2, 2)).copy()
    target = c * c * h0.matrix
    eps = 1e-4
    fd = (fam.e_hat_along(target, eps) - fam.e_hat_along(target, -eps)) / (2 * eps)
    cf = teich.e_hat_first_derivative(a0, b, h0)
    assert abs(fd - cf) / max(1.0, abs(cf)) < 1e-2


def test_second_derivative_lower_bound(family):
    h0, _, fam = family
    grid = h0.grid
    c = 1.4
    a0 = np.broadcast_to(c * ID2, (grid.ny, grid.nx, 2, 2)).copy()
    target = c * c * h0.matrix
    lhs, rhs = teich.second_derivative_lower_bound(a0, fam, target)
    assert rhs > 0.0
    assert lhs >= rhs - (1e-8 + 1e-2 * abs(rhs))


def test_critical_sum_vanishes_for_tracefree_direction(family):
    h0, b, _ = family
    grid = h0.grid
    a0 = np.broadcast_to(1.4 * ID2, (grid.ny, grid.nx, 2, 2)).copy()
    assert teich.critical_sum_check(a0, a0, b, h0) < 1e-10


def test_phi0_rejects_directions_with_trace():
    h0 = poincare_disk(Grid(24, 24, 0.8, 0.8, "dirichlet"))
    bad = np.zeros((24, 24, 2, 2))
    bad[..., 0, 0] = 1.0
    bad[..., 1, 1] = 1.0
    with pytest.raises(ValueError):
        teich.phi0_solve(bad, h0)
