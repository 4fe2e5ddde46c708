"""Grids, conformal metrics and covariant operators on discretized charts."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from codazzi import cli
from codazzi.grid import (
    ConformalMetric,
    Grid,
    _rows_csr,
    _splu,
    central_difference,
    poincare_disk,
)
from codazzi.jcalc import J
from codazzi.operators import (
    brioschi_curvature,
    curvature,
    div_endo,
    div_endo_oracle,
    div_vec,
    div_vec_oracle,
    dnabla_endo,
    frame_identity_residual,
    grad,
    hessian_endo,
    nabla_vec_endo,
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
    assert np.sum(grid.cell_weights) == pytest.approx(1.3 * 0.7, rel=1e-12)


def test_flat_metric_integration_is_trapezoid():
    grid = Grid(64, 64, 1.0, 1.0, "dirichlet")
    flat = ConformalMetric.flat(grid)
    xx, yy = grid.meshgrid
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
        x = np.stack([np.cos(2 * np.pi * grid.meshgrid[0]),
                      np.sin(2 * np.pi * grid.meshgrid[1])], axis=-1)
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
    assert frame_identity_residual(a, g, 2) < 1e-12


def test_frame_identity_crosscheck_converges():
    r = [frame_identity_residual(trig_endo(Grid(n, n, 1.0, 1.0, "periodic"),
                                           rng_for(3), amp=1.0),
                                 _periodic(n, seed=0)[1], 4)
         for n in (32, 64)]
    assert r[0] / r[1] > 3.5


def test_dnabla_vanishes_on_flat_codazzi_generators():
    grid = Grid(48, 48, 1.6, 1.6, "dirichlet")
    flat = ConformalMetric.flat(grid)
    a = tracefree_codazzi_flat(grid, rng_for(9))
    r = dnabla_endo(a, flat)
    # polynomial generators: the stencil is exact, residual at round-off
    assert np.max(np.abs(r[grid.interior(3)])) < 1e-10


@pytest.mark.parametrize("topology", ["dirichlet", "periodic"])
def test_dnabla_endo_is_div_endo_of_aJ_bit_for_bit(topology):
    # the energy module takes div(A J) as d^nabla A(e1, e2) and forms no A J
    grid = Grid(33, 29, 0.8, 0.7, topology)
    g = poincare_disk(grid) if topology == "dirichlet" else ConformalMetric(
        grid, trig_scalar(grid, rng_for(4), amp=0.3))
    a = trig_endo(grid, rng_for(6))
    assert np.array_equal(dnabla_endo(a, g), div_endo(a @ J, g))


def test_hessian_endo_of_linear_function_vanishes():
    grid = Grid(32, 32, 1.0, 1.0, "dirichlet")
    flat = ConformalMetric.flat(grid)
    xx, yy = grid.meshgrid
    hess = hessian_endo(0.3 * xx - 0.7 * yy, flat)
    assert np.max(np.abs(hess[grid.interior(2)])) < 1e-12


def test_grad_of_radial_function_is_radial():
    g = poincare_disk(Grid(48, 48, 0.6, 0.6, "dirichlet"))
    xx, yy = g.grid.meshgrid
    v = grad(xx**2 + yy**2, g)
    # gradient of r^2 points along the position vector
    cross = v[..., 0] * yy - v[..., 1] * xx
    assert np.max(np.abs(cross[g.grid.interior(2)])) < 1e-10


def test_brioschi_matches_conformal_curvature():
    def gap(n):
        _, g = _periodic(n, seed=5)
        d = brioschi_curvature(g.grid, g.matrix) - curvature(g)
        return float(np.max(np.abs(d[g.grid.interior(3)])))

    assert gap(32) / gap(64) > 3.4


def _wave(grid):
    """A smooth test field with two components, and its exact x and y derivatives."""
    xx, yy = grid.meshgrid
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


@pytest.mark.parametrize("step", [0.1, 1e-3])
def test_central_difference_is_exact_on_quadratics_and_cubics(step):
    # order 1 is exact on quadratics and order 2 on cubics, up to the
    # round-off of f's values divided by the step (squared for order 2);
    # array coefficients check that an array-valued f keeps its shape
    c = rng_for(5).standard_normal((4, 3, 2, 2))
    t = 0.7

    def quadratic(s):
        return c[0] + s * c[1] + s * s * c[2]

    def cubic(s):
        return c[0] + s * c[1] + s * s * c[2] + s**3 * c[3]

    roundoff = 8.0 * np.finfo(float).eps * np.abs(c).sum(axis=0)
    d1 = central_difference(quadratic, t, step, 1)
    assert d1.shape == (3, 2, 2)
    assert np.all(np.abs(d1 - (c[1] + 2.0 * t * c[2])) <= roundoff / step)
    d2 = central_difference(cubic, t, step, 2)
    assert d2.shape == (3, 2, 2)
    assert np.all(np.abs(d2 - (2.0 * c[2] + 6.0 * t * c[3])) <= roundoff / step**2)


@pytest.mark.parametrize("order", [1, 2])
def test_central_difference_error_falls_fourfold_when_the_step_halves(order):
    # both differences are second order in the step; every derivative of exp is exp
    t = 0.3
    errs = [abs(central_difference(np.exp, t, h, order) - np.exp(t)) for h in (0.1, 0.05)]
    assert 3.9 < errs[0] / errs[1] < 4.1


@pytest.mark.parametrize("order", [0, 3, 4])
def test_central_difference_order_must_be_one_or_two(order):
    with pytest.raises(ValueError):
        central_difference(np.exp, 0.0, 1e-3, order)


# squares, a chart with lx != ly (a swapped dx/dy would show) and an odd one
_STENCIL_GRIDS = [
    Grid(12, 12, 0.8, 0.8, "dirichlet"),
    Grid(20, 14, 0.8, 0.6, "dirichlet"),
    Grid(13, 13, 0.8, 0.8, "dirichlet"),
]


@pytest.mark.parametrize("grid", _STENCIL_GRIDS, ids=lambda gr: f"{gr.nx}x{gr.ny}")
def test_lap5_matrix_is_lap5_on_the_inner_nodes_bit_for_bit(grid):
    # column k of the matrix is lap5 of the k-th unit field on interior(1);
    # the unit fields ride along as one trailing component axis
    inner = grid.interior(1)
    units = np.zeros((grid.ny, grid.nx, inner.sum()))
    units[inner] = np.eye(inner.sum())
    mat = grid.lap5_matrix()
    assert mat.format == "csr" and mat.nnz == np.count_nonzero(mat.toarray())
    assert mat.toarray().tobytes() == grid.lap5(units)[inner].tobytes()


def test_rows_csr_stores_each_rows_nonzero_entries_in_ascending_columns():
    # rows of width 3 given as a (2, 2, 3) stack; row 1 is all zeros, row 2
    # holds a -0.0, and row 3 repeats a column whose only nonzero weight counts
    cols = np.array([[[0, 2, 5], [1, 3, 4]], [[0, 1, 5], [3, 3, 4]]])
    vals = np.array([[[1.5, 2.0, -3.0], [0.0, 0.0, 0.0]], [[-0.0, 4.0, 0.5], [0.0, 7.0, -1.0]]])
    mat = _rows_csr(cols, vals, (4, 7))
    dense = np.zeros((4, 7))
    for row, (c, v) in enumerate(zip(cols.reshape(4, 3), vals.reshape(4, 3))):
        dense[row, c[v != 0.0]] = v[v != 0.0]
    assert mat.format == "csr" and mat.shape == (4, 7)
    assert mat.toarray().tobytes() == dense.tobytes()
    assert mat.indptr.tolist() == [0, 3, 3, 5, 7]
    assert mat.indices.tolist() == [0, 2, 5, 1, 5, 3, 4]
    assert np.count_nonzero(mat.data) == mat.nnz == np.count_nonzero(dense)


# With diagonal pivots only, the first pivot 1e-16 of this matrix grows the
# factor by 1e16; its solve of b = (1, 2, 3) has normwise backward error 0.16.
_SMALL_PIVOT = [[1e-16, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 3.0]]


def test_a_factor_refuses_an_inaccurate_solve():
    mat = _rows_csr(np.array([[0, 1, 2]] * 3), np.array(_SMALL_PIVOT), (3, 3)).tocsc()
    lu = _splu(mat)
    assert lu.norm == 4.0
    with pytest.raises(ValueError, match="^sparse solve refused: max"):
        lu.solve(np.array([1.0, 2.0, 3.0]))


def test_a_factor_solves_a_zero_right_side_to_zero():
    # the backward error of x = 0 for b = 0 is 0 / 0; the bound 0 <= 0 passes
    mat = _rows_csr(np.array([[0, 1, 2]] * 3), np.array(_SMALL_PIVOT), (3, 3)).tocsc()
    x = _splu(mat).solve(np.zeros(3))
    assert x.tolist() == [0.0, 0.0, 0.0]


def test_a_factor_solve_is_superlus_solve_bit_for_bit():
    import scipy.sparse.linalg

    mat = (-Grid(12, 12, 1.0, 1.0, "dirichlet").lap5_matrix()).tocsc()
    b = np.linspace(-1.0, 2.0, mat.shape[0])
    lu = _splu(mat)
    assert lu.solve(b).tobytes() == lu.lu.solve(b).tobytes()
    assert isinstance(lu.lu, scipy.sparse.linalg.SuperLU)


def test_lap5_matrix_refuses_a_periodic_chart():
    with pytest.raises(ValueError, match="^lap5_matrix needs a Dirichlet chart$"):
        Grid(16, 16, 1.0, 1.0, "periodic").lap5_matrix()


@pytest.mark.parametrize("shape, rank, expected", [((9, 8), 0, (8, 9)),
                                                   ((8, 9, 2), 2, (8, 9, 2, 2))])
def test_check_field_refuses_another_shape_naming_both(shape, rank, expected):
    with pytest.raises(ValueError) as exc:
        Grid(9, 8).check_field(np.zeros(shape), rank=rank)
    assert str(exc.value) == f"field shape {shape} does not match grid {expected}"


@pytest.mark.parametrize("grid", _STENCIL_GRIDS, ids=lambda gr: f"{gr.nx}x{gr.ny}")
def test_order2_taps_are_ddx_and_ddy_bit_for_bit(grid):
    # row i of the dense tap matrix is d/dx (or d/dy) at node i of unit fields
    for n, step, unit_field, derivative in (
        (grid.nx, grid.dx, lambda e: np.broadcast_to(e, (grid.ny, grid.nx, grid.nx)),
         lambda f: grid.ddx(f)[0]),
        (grid.ny, grid.dy, lambda e: np.broadcast_to(e[:, None], (grid.ny, grid.nx, grid.ny)),
         lambda f: grid.ddy(f)[:, 0]),
    ):
        cols, vals = grid._edge2_taps(n, step)
        dense = np.zeros((n, n))
        rows = np.broadcast_to(np.arange(n)[:, None], cols.shape)
        used = vals != 0.0
        dense[rows[used], cols[used]] = vals[used]
        assert dense.tobytes() == derivative(unit_field(np.eye(n))).tobytes()


# Reference operators: the Christoffel tensor of e^{2 phi} delta built from
# Gamma^k_ij = delta_ki phi_j + delta_kj phi_i - delta_ij phi_k and
# contracted with einsum, as the covariant derivative is defined.


def _christoffels(g):
    dphi = np.stack(g.phi_derivs, axis=-1)
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


# -- derived geometry: computed once, read-only ----------------------------


def _cache_metric(topology):
    grid = Grid(16, 12, 1.3, 0.7, topology)
    if topology == "periodic":
        return ConformalMetric(grid, trig_scalar(grid, rng_for(7), amp=0.3))
    return poincare_disk(grid)


def _cached(g):
    """Every derived array of ``g`` and its grid, by name."""
    grid = g.grid
    xx, yy = grid.meshgrid
    px, py = g.phi_derivs
    return {
        "x": grid.x, "y": grid.y, "meshgrid X": xx, "meshgrid Y": yy,
        "cell_weights": grid.cell_weights, "phi": g.phi,
        "conformal_factor": g.conformal_factor, "matrix": g.matrix,
        "inverse_factor": g.inverse_factor, "phi_x": px, "phi_y": py,
    }


def _fresh(g):
    """The same arrays computed from scratch, outside the caches."""
    grid = g.grid
    if grid.periodic:
        x = -0.5 * grid.lx + grid.dx * np.arange(grid.nx)
        y = -0.5 * grid.ly + grid.dy * np.arange(grid.ny)
        ex, ey = np.ones(grid.nx), np.ones(grid.ny)
    else:
        x = np.linspace(-0.5 * grid.lx, 0.5 * grid.lx, grid.nx)
        y = np.linspace(-0.5 * grid.ly, 0.5 * grid.ly, grid.ny)
        ex = np.r_[0.5, np.ones(grid.nx - 2), 0.5]
        ey = np.r_[0.5, np.ones(grid.ny - 2), 0.5]
    xx, yy = np.meshgrid(grid.x, grid.y)
    phi = np.array(g.phi)
    factor = np.exp(2.0 * phi)
    if grid.periodic:
        px = (np.roll(phi, -1, 1) - np.roll(phi, 1, 1)) / (2 * grid.dx)
        py = (np.roll(phi, -1, 0) - np.roll(phi, 1, 0)) / (2 * grid.dy)
    else:
        px = np.gradient(phi, grid.dx, axis=1, edge_order=2)
        py = np.gradient(phi, grid.dy, axis=0, edge_order=2)
    return {
        "x": x, "y": y, "meshgrid X": xx, "meshgrid Y": yy,
        # the trapezoid halvings are powers of two, so the product is exact
        "cell_weights": grid.dx * grid.dy * np.outer(ey, ex), "phi": phi,
        "conformal_factor": factor, "matrix": factor[..., None, None] * np.eye(2),
        # exp(-2 phi) is not 1 / conformal_factor bit for bit
        "inverse_factor": np.exp(-2.0 * phi), "phi_x": px, "phi_y": py,
    }


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_repeat_calls_return_the_same_cached_arrays(topology):
    g = _cache_metric(topology)
    first, again = _cached(g), _cached(g)
    for name, value in first.items():
        assert again[name] is value, name
    # the meshgrid is two broadcast views of the node coordinates
    xx, yy = g.grid.meshgrid
    assert np.shares_memory(xx, g.grid.x) and np.shares_memory(yy, g.grid.y)


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_cached_arrays_are_read_only(topology):
    for name, value in _cached(_cache_metric(topology)).items():
        with pytest.raises(ValueError, match="read-only"):
            value[(0,) * value.ndim] = 1.0
        assert not value.flags.writeable, name


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_derived_geometry_attributes_cannot_be_rebound(topology):
    g = _cache_metric(topology)
    for obj, name in [(g.grid, "meshgrid"), (g.grid, "cell_weights"), (g, "matrix"),
                      (g, "phi_derivs")]:
        getattr(obj, name)  # cached first, so a write would replace a computed value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


@pytest.mark.parametrize("topology", ["periodic", "dirichlet"])
def test_cached_arrays_equal_a_fresh_computation_bit_for_bit(topology):
    g = _cache_metric(topology)
    got = _cached(g)
    for name, ref in _fresh(g).items():
        assert got[name].shape == ref.shape, name
        assert got[name].tobytes() == ref.tobytes(), name


def test_metric_keeps_phi_when_the_callers_array_changes():
    grid = Grid(16, 16)
    phi = trig_scalar(grid, rng_for(8), amp=0.3)
    kept = phi.copy()
    g = ConformalMetric(grid, phi)
    phi += 1.0
    assert g.phi.tobytes() == kept.tobytes()
    assert g.conformal_factor.tobytes() == np.exp(2.0 * kept).tobytes()


def test_no_metric_outlives_a_verify_op(tmp_path, monkeypatch):
    refs = []
    post_init = ConformalMetric.__post_init__

    def recorded(self):
        post_init(self)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ConformalMetric, "__post_init__", recorded)
    argv = ["verify", "--suite", "fields", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
