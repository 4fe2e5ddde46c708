"""Interpolation, pullbacks and the seeded field generators."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

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
    trig_endo,
    trig_scalar,
    trig_spd,
    trig_vector,
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
    xx, yy = grid.meshgrid
    pts = np.stack([xx, yy], axis=-1)
    assert np.max(np.abs(interp(pts) - vals)) < 1e-12


def test_interpolator_cubic_accuracy():
    def err(n):
        grid = Grid(n, n, 1.0, 1.0, "dirichlet")
        xx, yy = grid.meshgrid
        interp = FieldInterpolator(grid, np.sin(3 * xx) * np.cos(2 * yy))
        pts = np.stack([0.3 * xx, 0.3 * yy + 0.1], axis=-1)
        ref = np.sin(3 * pts[..., 0]) * np.cos(2 * pts[..., 1])
        return float(np.max(np.abs(interp(pts) - ref)))

    assert err(32) / err(64) > 8.0  # cubic: O(h^4)


def _fitpack_reference(grid, values, points, d_dx=0, d_dy=0):
    """One RectBivariateSpline per component, each evaluated by ``.ev``.

    ``d_dx``/``d_dy`` order chart derivatives; the spline is fitted on
    (y, x), so fitpack's ``dx`` is the chart's d/dy.
    """
    flat = values.reshape(grid.ny, grid.nx, -1)
    px = points[..., 0].ravel()
    py = points[..., 1].ravel()
    cols = [
        RectBivariateSpline(grid.y, grid.x, flat[..., c], kx=3, ky=3, s=0).ev(
            py, px, dx=d_dy, dy=d_dx
        )
        for c in range(flat.shape[-1])
    ]
    return np.stack(cols, axis=-1).reshape(points.shape[:-1] + values.shape[2:])


def _oracle_points(grid, rng):
    """Nodes, random interior points, edges, corners and points inside the pad."""
    x0, x1 = grid.x[0], grid.x[-1]
    y0, y1 = grid.y[0], grid.y[-1]
    xx, yy = grid.meshgrid
    nodes = np.stack([xx, yy], axis=-1).reshape(-1, 2)
    interior = np.column_stack([rng.uniform(x0, x1, 200), rng.uniform(y0, y1, 200)])
    s = np.linspace(0.0, 1.0, 9)
    edges = np.concatenate(
        [
            np.column_stack([x0 + (x1 - x0) * s, np.full(9, y0)]),
            np.column_stack([x0 + (x1 - x0) * s, np.full(9, y1)]),
            np.column_stack([np.full(9, x0), y0 + (y1 - y0) * s]),
            np.column_stack([np.full(9, x1), y0 + (y1 - y0) * s]),
        ]
    )
    # inside the chart check's 1e-9 pad but beyond the outermost nodes, where
    # fitpack clamps to the knot span
    d = 0.5e-9 * max(grid.lx, grid.ly)
    pad = np.array(
        [[x0 - d, 0.0], [x1 + d, 0.1], [0.2, y0 - d], [-0.1, y1 + d],
         [x0 - d, y0 - d], [x1 + d, y0 - d], [x0 - d, y1 + d], [x1 + d, y1 + d]]
    )
    return np.concatenate([nodes, interior, edges, pad])


@pytest.mark.parametrize("comp_shape", [(), (2,), (3,), (2, 2)])
def test_interpolator_matches_per_component_fitpack_splines(comp_shape):
    grid = Grid(21, 13, 0.9, 0.5, "dirichlet")
    rng = np.random.default_rng(17)
    values = rng.standard_normal((grid.ny, grid.nx) + comp_shape)
    points = _oracle_points(grid, rng)
    got = FieldInterpolator(grid, values)(points)
    ref = _fitpack_reference(grid, values, points)
    assert got.shape == ref.shape == (len(points),) + comp_shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


@pytest.mark.parametrize("comp_shape", [(), (2,), (2, 2)])
def test_interpolator_gradient_matches_per_component_fitpack_derivatives(comp_shape):
    # a non-square chart with unequal steps, so a swapped axis cannot pass
    grid = Grid(21, 13, 0.9, 0.5, "dirichlet")
    rng = np.random.default_rng(23)
    values = rng.standard_normal((grid.ny, grid.nx) + comp_shape)
    points = _oracle_points(grid, rng)
    got_dx, got_dy = FieldInterpolator(grid, values).gradient(points)
    for got, ref in (
        (got_dx, _fitpack_reference(grid, values, points, d_dx=1)),
        (got_dy, _fitpack_reference(grid, values, points, d_dy=1)),
    ):
        assert got.shape == ref.shape == (len(points),) + comp_shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * (1.0 + np.max(np.abs(ref)))


def _scipy_spline(grid, values, check_finite=True):
    """scipy's not-a-knot fits along x, then y, and their ``NdBSpline`` on (y, x)."""
    from scipy.interpolate import NdBSpline, make_interp_spline

    along_x = make_interp_spline(grid.x, values, k=3, axis=1, check_finite=check_finite)
    along_y = make_interp_spline(grid.y, along_x.c, k=3, axis=1, check_finite=check_finite)
    return NdBSpline((along_y.t, along_x.t), along_y.c, 3)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _symmetric(values):
    return 0.5 * (values + np.swapaxes(values, -1, -2))


@pytest.mark.parametrize(
    "grid",
    [
        Grid(8, 8, 0.8, 0.8, "dirichlet"),
        Grid(32, 32, 0.8, 0.8, "dirichlet"),
        Grid(129, 129, 1.0, 1.0, "dirichlet"),
        Grid(21, 13, 0.9, 0.5, "dirichlet"),
    ],
    ids=lambda gr: f"{gr.nx}x{gr.ny}",
)
@pytest.mark.parametrize(
    "comp_shape, make",
    [((), None), ((3,), None), ((2, 2), None), ((2, 2), _symmetric)],
    ids=["scalar", "vector3", "matrix", "symmetric"],
)
def test_interpolator_equals_scipys_spline_bit_for_bit(grid, comp_shape, make):
    # values and both first derivatives at nodes, interior points, edges,
    # corners and inside the pad; a symmetric field's equal off-diagonals
    # share their coefficients
    rng = np.random.default_rng(31)
    values = rng.standard_normal((grid.ny, grid.nx) + comp_shape)
    if make is not None:
        values = make(values)
    points = _oracle_points(grid, rng)
    interp = FieldInterpolator(grid, values)
    spline = _scipy_spline(grid, values)
    # NdBSpline extrapolates, so its pad points go in clamped onto the chart
    yx = np.clip(points, [grid.x[0], grid.y[0]], [grid.x[-1], grid.y[-1]])[:, ::-1]
    assert _same_bits(interp(points), spline(yx))
    d_dx, d_dy = interp.gradient(points)
    assert _same_bits(d_dx, spline(yx, nu=(0, 1)))
    assert _same_bits(d_dy, spline(yx, nu=(1, 0)))
    # one point of shape (2,), and a grid of points
    assert _same_bits(interp(points[0]), spline(yx[0]))
    assert _same_bits(interp(points[:6].reshape(2, 3, 2)), spline(yx[:6].reshape(2, 3, 2)))


def test_interpolator_carries_a_nan_into_its_component_as_scipy_does():
    grid = Grid(21, 13, 0.9, 0.5, "dirichlet")
    rng = np.random.default_rng(37)
    values = _symmetric(rng.standard_normal((grid.ny, grid.nx, 2, 2)))
    values[5, 7, 0, 0] = np.nan
    points = _oracle_points(grid, rng)
    yx = np.clip(points, [grid.x[0], grid.y[0]], [grid.x[-1], grid.y[-1]])[:, ::-1]
    spline = _scipy_spline(grid, values, check_finite=False)
    got = FieldInterpolator(grid, values)(points)
    assert _same_bits(got, spline(yx))
    assert np.all(np.isnan(got[:, 0, 0])) and np.all(np.isfinite(got.reshape(-1, 4)[:, 1:]))


@pytest.mark.parametrize("comp_shape", [(), (1,), (2, 2)])
def test_interpolator_leaves_the_callers_values_unchanged(comp_shape):
    # LAPACK may solve in place, and a scalar field's values reach the first
    # fit as a view of the caller's array
    grid = Grid(12, 9, 1.0, 1.0, "dirichlet")
    values = np.random.default_rng(41).standard_normal((grid.ny, grid.nx) + comp_shape)
    kept = values.copy()
    FieldInterpolator(grid, values)
    assert values.tobytes() == kept.tobytes()


def test_interpolator_refuses_points_beyond_the_pad():
    grid = Grid(16, 16, 1.0, 1.0, "dirichlet")
    interp = FieldInterpolator(grid, np.zeros((16, 16)))
    with pytest.raises(ValueError, match="outside the chart"):
        interp(np.array([[0.5 + 2e-9, 0.0]]))


def test_interpolator_refuses_periodic_chart():
    grid = Grid(16, 16, 1.0, 1.0, "periodic")
    with pytest.raises(ValueError, match="Dirichlet"):
        FieldInterpolator(grid, np.zeros((16, 16)))


def test_interpolator_refuses_a_field_of_another_shape():
    grid = Grid(16, 12, 1.0, 1.0, "dirichlet")
    with pytest.raises(ValueError, match="^field shape does not match grid$"):
        FieldInterpolator(grid, np.zeros((16, 12, 2, 2)))


def test_trig_spd_refuses_an_amplitude_that_leaves_the_spd_cone():
    with pytest.raises(ValueError, match="^perturbation amplitude too large for an SPD field$"):
        trig_spd(Grid(16, 16), rng_for(0), amp=5.0)


def test_pullback_by_zero_displacement_is_identity():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    g = poincare_disk(grid)
    hi = FieldInterpolator(grid, g.matrix)
    x = np.zeros((24, 24, 2))
    assert np.max(np.abs(pullback_metric(grid, hi, x) - g.matrix)) < 1e-12


def test_pullback_detects_fold_over():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    g = poincare_disk(grid)
    hi = FieldInterpolator(grid, g.matrix)
    xx, _ = grid.meshgrid
    # displacement u = -2x folds the chart over itself
    x = np.stack([-2.0 * xx, np.zeros_like(xx)], axis=-1)
    with pytest.raises(FoldOverError):
        pullback_metric(grid, hi, x)


def test_map_jacobian_of_linear_displacement():
    grid = Grid(24, 24, 1.0, 1.0, "dirichlet")
    xx, yy = grid.meshgrid
    x = np.stack([0.1 * xx + 0.2 * yy, -0.3 * xx], axis=-1)
    jac = map_jacobian(grid, x, t=1.0)
    ref = np.array([[1.1, 0.2], [-0.3, 1.0]])
    assert np.max(np.abs(jac - ref)) < 1e-10


def _loop_trig_scalar(grid, rng, kmax=2, amp=1.0):
    """One sum of four modes, one mode at a time on the meshgrid: the generators' oracle."""
    xx, yy = grid.meshgrid
    out = np.zeros((grid.ny, grid.nx))
    for _ in range(4):
        kx = rng.integers(-kmax, kmax + 1)
        ky = rng.integers(-kmax, kmax + 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.uniform(-1.0, 1.0)
        out += c * np.cos(2.0 * np.pi * (kx * xx / grid.lx + ky * yy / grid.ly) + phase)
    return amp * out / 4


def _loop_trig_vector(grid, rng, **kw):
    return np.stack([_loop_trig_scalar(grid, rng, **kw) for _ in range(2)], axis=-1)


def _loop_trig_endo(grid, rng, **kw):
    comps = [_loop_trig_scalar(grid, rng, **kw) for _ in range(4)]
    return np.stack(comps, axis=-1).reshape(grid.ny, grid.nx, 2, 2)


def _loop_trig_spd(grid, rng, amp=0.2, **kw):
    a, b, c = (_loop_trig_scalar(grid, rng, amp=amp, **kw) for _ in range(3))
    return np.stack([1.0 + a, c, c, 1.0 + b], axis=-1).reshape(grid.ny, grid.nx, 2, 2)


# every amp and kmax that a caller in the library, tests, demos or benchmark passes
_GENERATOR_CASES = [
    (trig_scalar, _loop_trig_scalar, {"amp": 0.3}),
    (trig_scalar, _loop_trig_scalar, {"amp": 0.4}),
    (trig_scalar, _loop_trig_scalar, {"amp": 1.0}),
    (trig_scalar, _loop_trig_scalar, {"amp": 0.05, "kmax": 2}),
    (trig_vector, _loop_trig_vector, {"amp": 1.0}),
    (trig_vector, _loop_trig_vector, {"amp": 0.2}),
    (trig_vector, _loop_trig_vector, {"kmax": 1}),
    (trig_vector, _loop_trig_vector, {"kmax": 2}),
    (trig_endo, _loop_trig_endo, {"amp": 1.0}),
    (trig_endo, _loop_trig_endo, {"amp": 0.2}),
    (trig_endo, _loop_trig_endo, {"amp": 0.3}),
    (trig_spd, _loop_trig_spd, {"amp": 0.2}),
    (trig_spd, _loop_trig_spd, {"amp": 0.15}),
    (trig_spd, _loop_trig_spd, {"amp": 0.12, "kmax": 1}),
]


@pytest.mark.parametrize(
    "grid",
    [
        Grid(32, 32, 1.0, 1.0, "periodic"),
        Grid(24, 16, 1.3, 0.7, "periodic"),
        Grid(20, 12, 0.8, 0.5, "dirichlet"),
    ],
    ids=["periodic-square", "periodic-oblong", "dirichlet-oblong"],
)
def test_generators_equal_the_per_mode_loop_bit_for_bit(grid):
    for new, loop, kw in _GENERATOR_CASES:
        for seed in range(30):
            got = new(grid, rng_for(seed), **kw)
            ref = loop(grid, rng_for(seed), **kw)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert got.tobytes() == ref.tobytes(), (new.__name__, kw, seed)


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
    x = random_displacement(grid, rng_for(6))
    edge = np.concatenate([x[0].ravel(), x[-1].ravel(), x[:, 0].ravel(), x[:, -1].ravel()])
    assert np.max(np.abs(edge)) == 0.0


def test_harmonic_scalar_is_discretely_harmonic():
    # the 5-point stencil is exact on harmonic polynomials up to degree 3
    grid = Grid(48, 48, 1.6, 1.6, "dirichlet")
    u = 0.5 * harmonic_scalar(grid, rng_for(2), degmax=3)
    lap = grid.laplace_flat(u)
    assert np.max(np.abs(lap[grid.interior(2)])) < 1e-11


def test_tracefree_codazzi_fields_are_tracefree_symmetric():
    grid = Grid(32, 32, 1.6, 1.6, "dirichlet")
    a = tracefree_codazzi_flat(grid, rng_for(4))
    assert np.max(np.abs(a[..., 0, 0] + a[..., 1, 1])) < 1e-14
    assert np.max(np.abs(a[..., 0, 1] - a[..., 1, 0])) < 1e-14
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, "dirichlet"))
    b = tracefree_codazzi_conformal(g, rng_for(4), amp=0.25)
    assert np.max(np.abs(b[..., 0, 0] + b[..., 1, 1])) < 1e-14
    r = dnabla_endo(b, g)
    assert np.max(np.abs(r[g.grid.interior(3)])) < 5e-3
