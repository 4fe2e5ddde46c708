"""Interpolation, pullbacks and the seeded field generators."""

import numpy as np
import pytest

from codazzi.grid import Grid, poincare_disk
from codazzi.maps import FieldInterpolator, FoldOverError, map_jacobian, pullback_metric
from codazzi.operators import dnabla_endo
from codazzi.randfields import (
    bump,
    harmonic_scalar,
    random_displacement,
    rng_for,
    tracefree_codazzi_conformal,
    tracefree_codazzi_flat,
    trig_scalar,
    trig_spd,
)


def test_rng_for_is_reproducible():
    a = rng_for(42).standard_normal(8)
    b = rng_for(42).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng_for(43).standard_normal(8))


def test_interpolator_reproduces_node_values():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    vals = trig_scalar(grid, rng_for(5), amp=0.4)
    interp = FieldInterpolator(grid, vals)
    xx, yy = grid.meshgrid()
    pts = np.stack([xx, yy], axis=-1)
    assert np.max(np.abs(interp(pts) - vals)) < 1e-12


def test_interpolator_cubic_accuracy():
    def err(n):
        grid = Grid(n, n, 1.0, 1.0, "dirichlet")
        xx, yy = grid.meshgrid()
        interp = FieldInterpolator(grid, np.sin(3 * xx) * np.cos(2 * yy))
        pts = np.stack([0.3 * xx, 0.3 * yy + 0.1], axis=-1)
        ref = np.sin(3 * pts[..., 0]) * np.cos(2 * pts[..., 1])
        return float(np.max(np.abs(interp(pts) - ref)))

    assert err(32) / err(64) > 8.0  # cubic: O(h^4)


def test_interpolator_refuses_periodic_chart():
    grid = Grid(16, 16, 1.0, 1.0, "periodic")
    with pytest.raises(ValueError, match="Dirichlet"):
        FieldInterpolator(grid, np.zeros((16, 16)))


def test_pullback_by_zero_displacement_is_identity():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    g = poincare_disk(grid)
    hi = FieldInterpolator(grid, g.matrix())
    x = np.zeros((24, 24, 2))
    assert np.max(np.abs(pullback_metric(grid, hi, x) - g.matrix())) < 1e-12


def test_pullback_detects_fold_over():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    g = poincare_disk(grid)
    hi = FieldInterpolator(grid, g.matrix())
    xx, _ = grid.meshgrid()
    # displacement u = -2x folds the chart over itself
    x = np.stack([-2.0 * xx, np.zeros_like(xx)], axis=-1)
    with pytest.raises(FoldOverError):
        pullback_metric(grid, hi, x)


def test_map_jacobian_of_linear_displacement():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    xx, yy = grid.meshgrid()
    x = np.stack([0.1 * xx + 0.2 * yy, -0.3 * xx], axis=-1)
    jac = map_jacobian(grid, x, t=1.0)
    ref = np.array([[1.1, 0.2], [-0.3, 1.0]])
    assert np.max(np.abs(jac - ref)) < 1e-10


def test_trig_spd_output_is_spd():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    a = trig_spd(grid, rng_for(3), amp=0.2)
    assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) < 1e-14
    ev = np.linalg.eigvalsh(a)
    assert ev.min() > 0.1


def test_bump_vanishes_on_boundary():
    grid = Grid(33, 33, 1.0, 1.0, "dirichlet")
    c = bump(grid)
    assert np.max(np.abs(c[0, :])) == 0.0
    assert np.max(np.abs(c[:, -1])) == 0.0
    assert c[16, 16] == pytest.approx(1.0)


def test_random_displacement_respects_dirichlet():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    x = random_displacement(grid, rng_for(6), amp=0.3)
    edge = np.concatenate([x[0].ravel(), x[-1].ravel(), x[:, 0].ravel(), x[:, -1].ravel()])
    assert np.max(np.abs(edge)) == 0.0


def test_harmonic_scalar_is_discretely_harmonic():
    # the 5-point stencil is exact on harmonic polynomials up to degree 3
    grid = Grid(48, 48, 1.6, 1.6, "dirichlet")
    u = harmonic_scalar(grid, rng_for(2), degmax=3, amp=0.5)
    lap = grid.laplace_flat(u)
    assert np.max(np.abs(lap[grid.interior(2)])) < 1e-11


def test_tracefree_codazzi_fields_are_tracefree_symmetric():
    grid = Grid(32, 32, 1.6, 1.6, "dirichlet")
    a = tracefree_codazzi_flat(grid, rng_for(4), amp=0.5)
    assert np.max(np.abs(a[..., 0, 0] + a[..., 1, 1])) < 1e-14
    assert np.max(np.abs(a[..., 0, 1] - a[..., 1, 0])) < 1e-14
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, "dirichlet"))
    b = tracefree_codazzi_conformal(g, rng_for(4), amp=0.25)
    assert np.max(np.abs(b[..., 0, 0] + b[..., 1, 1])) < 1e-14
    r = dnabla_endo(b, g)
    assert np.max(np.abs(r[g.grid.interior(3)])) < 5e-3
