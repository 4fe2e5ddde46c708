"""Grids, conformal metrics and covariant operators on discretized charts."""

import numpy as np
import pytest

from codazzi.energy import nabla_vec_endo
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.jcalc import J
from codazzi.operators import (
    brioschi_curvature,
    curvature,
    div_endo,
    div_endo_oracle,
    div_vec,
    div_vec_oracle,
    dnabla_endo,
    frame_identity_crosscheck,
    frame_identity_residual,
    grad,
    hessian_endo,
)
from codazzi.randfields import (
    rng_for,
    tracefree_codazzi_flat,
    trig_endo,
    trig_scalar,
    trig_vector,
)


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        Grid(4, 32, 1.0, 1.0, "dirichlet")


def test_grid_rejects_bad_topology():
    with pytest.raises(ValueError):
        Grid(16, 16, 1.0, 1.0, "torus")


@pytest.mark.parametrize("nx, ny", [(8.5, 8), (8, 8.5), (16.0, 16)])
def test_grid_rejects_non_integer_node_counts(nx, ny):
    with pytest.raises(ValueError, match="integers"):
        Grid(nx, ny)


def test_grid_accepts_numpy_integer_node_counts():
    assert Grid(np.int64(8), np.int32(9)).dx == 1.0 / 8


@pytest.mark.parametrize(
    "lx, ly", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf), (0.0, 1.0)]
)
def test_grid_rejects_non_finite_or_non_positive_extents(lx, ly):
    with pytest.raises(ValueError, match="extents"):
        Grid(8, 8, lx, ly)


def test_cell_weights_sum_to_chart_area():
    grid = Grid(24, 40, 1.3, 0.7, "dirichlet")
    # trapezoid weights: total mass equals the physical area lx * ly
    assert np.sum(grid.cell_weights()) == pytest.approx(1.3 * 0.7, rel=1e-12)


def test_flat_metric_integration_is_trapezoid():
    grid = Grid(64, 64, 1.0, 1.0, "dirichlet")
    flat = ConformalMetric.flat(grid)
    xx, yy = grid.meshgrid()
    val = flat.integrate(xx**2 + yy**2)
    # int over [-1/2,1/2]^2 of x^2+y^2 = 1/6, trapezoid is O(h^2) accurate
    assert val == pytest.approx(1.0 / 6.0, abs=2e-4)


def test_poincare_disk_curvature_converges_to_minus_one():
    def dev(n):
        g = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
        k = curvature(g)
        return float(np.max(np.abs(k[g.grid.interior(3)] + 1.0)))

    d32, d64 = dev(32), dev(64)
    assert d64 < 1e-3
    assert d32 / d64 > 3.3


def test_curvature_of_flat_metric_vanishes():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    assert np.max(np.abs(curvature(ConformalMetric.flat(grid)))) < 1e-14


def _periodic(n, seed=0):
    grid = Grid(n, n, 1.0, 1.0, "periodic")
    g = ConformalMetric(grid, trig_scalar(grid, rng_for(seed + 101), amp=0.3))
    return grid, g


def test_div_vec_two_routes_converge():
    def gap(n):
        grid, g = _periodic(n)
        x = np.stack([np.cos(2 * np.pi * grid.meshgrid()[0]),
                      np.sin(2 * np.pi * grid.meshgrid()[1])], axis=-1)
        return float(np.max(np.abs(div_vec(x, g) - div_vec_oracle(x, g))))

    assert gap(32) / gap(64) > 3.4


def test_div_endo_two_routes_agree():
    # on a periodic chart the product-rule route and the covariant-derivative
    # route use the same stencils and agree to round-off
    grid, g = _periodic(48)
    a = trig_endo(grid, rng_for(7), amp=1.0)
    assert np.max(np.abs(div_endo(a, g) - div_endo_oracle(a, g))) < 1e-12


def test_frame_identity_holds_identically():
    grid, g = _periodic(48)
    a = trig_endo(grid, rng_for(3), amp=1.0)
    assert frame_identity_residual(a, g) < 1e-12


def test_frame_identity_crosscheck_converges():
    r = [frame_identity_crosscheck(trig_endo(Grid(n, n, 1.0, 1.0, "periodic"),
                                             rng_for(3), amp=1.0),
                                   _periodic(n, seed=0)[1])
         for n in (32, 64)]
    assert r[0] / r[1] > 3.5


def test_dnabla_vanishes_on_flat_codazzi_generators():
    grid = Grid(48, 48, 1.6, 1.6, "dirichlet")
    flat = ConformalMetric.flat(grid)
    a = tracefree_codazzi_flat(grid, rng_for(9))
    r = dnabla_endo(a, flat)
    # polynomial generators: the stencil is exact, residual at round-off
    assert np.max(np.abs(r[grid.interior(3)])) < 1e-10


def test_hessian_endo_of_linear_function_vanishes():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    flat = ConformalMetric.flat(grid)
    xx, yy = grid.meshgrid()
    hess = hessian_endo(0.3 * xx - 0.7 * yy, flat)
    assert np.max(np.abs(hess[grid.interior(2)])) < 1e-12


def test_grad_of_radial_function_is_radial():
    g = poincare_disk(Grid(48, 48, 0.6, 0.6, "dirichlet"))
    xx, yy = g.grid.meshgrid()
    v = grad(xx**2 + yy**2, g)
    # gradient of r^2 points along the position vector
    cross = v[..., 0] * yy - v[..., 1] * xx
    assert np.max(np.abs(cross[g.grid.interior(2)])) < 1e-10


def test_brioschi_matches_conformal_curvature():
    def gap(n):
        _, g = _periodic(n, seed=5)
        d = brioschi_curvature(g.grid, g.matrix()) - curvature(g)
        return float(np.max(np.abs(d[g.grid.interior(3)])))

    assert gap(32) / gap(64) > 3.4


def _wave(grid):
    """A smooth test field with two components, and its exact x and y derivatives."""
    xx, yy = grid.meshgrid()
    u, v = 2 * np.pi * xx + 0.3, 4 * np.pi * yy - 0.2
    f = np.stack([np.sin(u) * np.cos(v), np.cos(u + v)], axis=-1)
    fx = np.stack([2 * np.pi * np.cos(u) * np.cos(v), -2 * np.pi * np.sin(u + v)], axis=-1)
    fy = np.stack([-4 * np.pi * np.sin(u) * np.sin(v), -4 * np.pi * np.sin(u + v)], axis=-1)
    return f, fx, fy


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_fourth_order_derivatives_converge_at_fourth_order(topology):
    # every node of a periodic chart (wrap nodes included); rings >= 2 of a
    # Dirichlet chart, where the fourth-order stencil applies
    def err(n):
        grid = Grid(n, n, 1.0, 1.0, topology)
        f, fx, fy = _wave(grid)
        mask = grid.interior(2)
        return (np.max(np.abs(grid.ddx(f, order=4) - fx)[mask]),
                np.max(np.abs(grid.ddy(f, order=4) - fy)[mask]))

    for e32, e64 in zip(err(32), err(64)):
        assert e32 / e64 >= 14.0


def test_fourth_order_dirichlet_edge_rings():
    # rings 0 and 1 keep np.gradient's default values: first-order one-sided
    # on the boundary ring, central differences on the next
    grid = Grid(16, 16, 1.0, 1.0, "dirichlet")
    f, _, _ = _wave(grid)
    ref_x = np.gradient(f, grid.dx, axis=1)
    ref_y = np.gradient(f, grid.dy, axis=0)
    d4x, d4y = grid.ddx(f, order=4), grid.ddy(f, order=4)
    for ring in (0, 1, -2, -1):
        np.testing.assert_array_equal(d4x[:, ring], ref_x[:, ring])
        np.testing.assert_array_equal(d4y[ring], ref_y[ring])


def test_derivative_order_must_be_two_or_four():
    grid = Grid(16, 16, 1.0, 1.0, "dirichlet")
    with pytest.raises(ValueError):
        grid.ddx(np.zeros((16, 16)), order=6)


# Reference operators: the Christoffel tensor of e^{2 phi} delta built from
# Gamma^k_ij = delta_ki phi_j + delta_kj phi_i - delta_ij phi_k and
# contracted with einsum, as the covariant derivative is defined.


def _christoffels(g):
    dphi = np.stack(g.phi_derivs(), axis=-1)
    eye = np.eye(2)
    return (np.einsum("ki,...j->...kij", eye, dphi)
            + np.einsum("kj,...i->...kij", eye, dphi)
            - np.einsum("ij,...k->...kij", eye, dphi))


def _partials(grid, f, order=2):
    """d[..., i, ...] = d_i f, the derivative axis right after the node axes."""
    return np.stack([grid.ddx(f, order), grid.ddy(f, order)], axis=2)


def _ref_nabla_vec(g, v):
    """nv[..., i, k] = (nabla_i v)^k."""
    return _partials(g.grid, v) + np.einsum("...kip,...p->...ik", _christoffels(g), v)


def _ref_nabla_endo(g, a, order=2):
    """na[..., i, k, j] = (nabla_i a)^k_j."""
    gam = _christoffels(g)
    return (_partials(g.grid, a, order)
            + np.einsum("...kip,...pj->...ikj", gam, a)
            - np.einsum("...pij,...kp->...ikj", gam, a))


def _references(g, a, x, f):
    grid = g.grid
    w = np.exp(-2.0 * g.phi)
    dx = _partials(grid, x)
    na2, na4 = _ref_nabla_endo(g, a), _ref_nabla_endo(g, a, order=4)
    aj = a @ J
    df = np.stack([grid.ddx(f), grid.ddy(f)], axis=-1)
    d2 = _partials(grid, df)
    return {
        "div_vec": dx[..., 0, 0] + dx[..., 1, 1]
        + np.einsum("...iij,...j->...", _christoffels(g), x),
        "div_endo": w[..., None] * np.einsum("...iki->...k", na2),
        "div_endo order 4": w[..., None] * np.einsum("...iki->...k", na4),
        "dnabla_endo": w[..., None] * (na2[..., 0, :, 1] - na2[..., 1, :, 0]),
        "hessian_endo": w[..., None, None]
        * (d2 - np.einsum("...kij,...k->...ij", _christoffels(g), df)),
        "nabla_vec_endo": np.swapaxes(_ref_nabla_vec(g, x), -1, -2),
        "div_endo_oracle": -w[..., None] * (_ref_nabla_vec(g, aj[..., :, 1])[..., 0, :]
                                            - _ref_nabla_vec(g, aj[..., :, 0])[..., 1, :]),
    }


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_closed_form_operators_match_christoffel_contraction(topology):
    grid = Grid(32, 32, 0.8, 0.8, topology)
    g = (ConformalMetric(grid, trig_scalar(grid, rng_for(101), amp=0.3))
         if grid.periodic else poincare_disk(grid))
    a = trig_endo(grid, rng_for(202), amp=1.0)
    x = trig_vector(grid, rng_for(303), amp=1.0)
    f = trig_scalar(grid, rng_for(404), amp=1.0)
    got = {
        "div_vec": div_vec(x, g),
        "div_endo": div_endo(a, g),
        "div_endo order 4": div_endo(a, g, order=4),
        "dnabla_endo": dnabla_endo(a, g),
        "hessian_endo": hessian_endo(f, g),
        "nabla_vec_endo": nabla_vec_endo(x, g),
        "div_endo_oracle": div_endo_oracle(a, g),
    }
    for name, ref in _references(g, a, x, f).items():
        rel = np.max(np.abs(got[name] - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-13, f"{name}: relative gap {rel:.2e}"
