"""Variational calculus of the energy functional on conformal charts."""

import numpy as np
import pytest
from scipy.integrate import simpson

from codazzi.energy import (
    _simpson,
    _simpson2,
    codazzi_residual,
    correction_G,
    correction_G_oracle,
    curvature_identity_residual,
    energy,
    energy_gradient,
    field_A,
    flow_derivative_fd,
    gradient_pairing4,
    modified_inequality_check,
    second_variation,
    trace_energy,
)
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2, J, inv2, metric_action, metric_to_A
from codazzi.operators import apply_J, div_endo
from codazzi.randfields import (
    bump,
    random_displacement,
    rng_for,
    tracefree_codazzi_conformal,
    trig_endo,
    trig_spd,
)


@pytest.fixture
def disk64():
    return poincare_disk(Grid(64, 64, 0.8, 0.8, "dirichlet"))


def test_field_A_reproduces_target_metric(disk64):
    g = disk64
    h = metric_action(trig_spd(g.grid, rng_for(1), amp=0.15), g.matrix)
    a = field_A(h, g)
    assert np.max(np.abs(metric_action(a, g.matrix) - h)) < 1e-11


@pytest.mark.parametrize("n", [32, 256])
def test_field_A_agrees_with_metric_to_A(n):
    # field_A scales h by inverse_factor = exp(-2 phi), metric_to_A takes the
    # closed-form inverse of g.matrix: the two routes differ by round-off only
    g = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
    h = metric_action(trig_spd(g.grid, rng_for(1), amp=0.15), g.matrix)
    a = field_A(h, g)
    assert np.max(np.abs(a - metric_to_A(g.matrix, h))) <= 1e-15 * np.max(np.abs(a))


def test_energy_of_conformal_pair_is_exact(disk64):
    g = disk64
    # h = c^2 g gives A = c Id, sigma = c sqrt(2), energy = c sqrt(2) area
    c = 1.7
    val = energy(c * c * g.matrix, g)
    assert val == pytest.approx(np.sqrt(2.0) * c * g.area(), rel=1e-12)
    assert trace_energy(c * c * g.matrix, g) == pytest.approx(
        2.0 * c * g.area(), rel=1e-12
    )


def test_gradient_vanishes_at_conformal_target(disk64):
    g = disk64
    assert np.max(np.abs(energy_gradient(2.25 * g.matrix, g))) < 1e-10


@pytest.mark.parametrize("topology", ["dirichlet", "periodic"])
def test_gradient_is_exactly_minus_J_div_AJ(topology):
    # energy_gradient reads the columns of A instead of forming A J; the
    # arithmetic is the same, so the two routes agree bit for bit
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, topology))
    h = metric_action(trig_spd(g.grid, rng_for(5), amp=0.15), g.matrix)
    expected = -apply_J(div_endo(field_A(h, g) @ J, g))
    assert np.array_equal(energy_gradient(h, g), expected)


def test_flow_derivative_matches_weak_gradient(disk64):
    g = disk64
    h = metric_action(trig_spd(g.grid, rng_for(13), amp=0.12, kmax=1), g.matrix)
    x = bump(g.grid)[..., None] ** 2 * energy_gradient(h, g)
    x = 0.3 * x / np.max(np.abs(x))
    fd = flow_derivative_fd(h, g, x)
    pair = gradient_pairing4(h, g, x)
    assert abs(fd - pair) / abs(pair) < 1e-3


def test_second_variation_positive_under_negative_curvature(disk64):
    g = disk64
    h = 2.25 * g.matrix
    for k in range(5):
        x = random_displacement(g.grid, rng_for(60 + k), kmax=2)
        assert second_variation(h, g, x) > 0.0


def test_codazzi_residual_small_for_generated_field(disk64):
    g = disk64
    a = np.broadcast_to(1.4 * ID2, (64, 64, 2, 2)).copy()
    a = a + tracefree_codazzi_conformal(g, rng_for(8), amp=0.25)
    assert codazzi_residual(a, g) < 5e-3


def test_curvature_identity_converges():
    def resid(n):
        g = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
        a = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
        a = a + tracefree_codazzi_conformal(g, rng_for(51), amp=0.25)
        return curvature_identity_residual(a, g, margin=max(3, n // 8))

    r32, r64 = resid(32), resid(64)
    assert np.log2(r32 / r64) > 1.8


def test_correction_G_matches_curvature_route(disk64):
    def gap(n):
        g = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
        a = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
        a = a + tracefree_codazzi_conformal(g, rng_for(77), amp=0.2)
        h = metric_action(a, g.matrix)
        d = correction_G(h, g) - correction_G_oracle(h, g)
        return float(np.max(np.abs(d[g.grid.interior(max(3, n // 8))])))

    assert gap(32) / gap(64) > 2.5


@pytest.mark.parametrize("seed", [77, 78, 79])
def test_correction_G_matches_curvature_route_off_codazzi(seed):
    # on a Codazzi A, G is itself O(h^2) and its sign goes unseen; a
    # trigonometric SPD A is far from Codazzi, max|G| reads 4-7, and the
    # O(h^2) gap to the curvature route is under 1e-2 of it from 64^2 on
    def gap_and_size(n):
        g = poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))
        a = trig_spd(g.grid, rng_for(seed), amp=0.2, kmax=1)
        h = metric_action(a, g.matrix)
        G = correction_G(h, g)
        inner = g.grid.interior(n // 8)
        d = G - correction_G_oracle(h, g)
        return float(np.max(np.abs(d[inner]))), float(np.max(np.abs(G[inner])))

    gap32, _ = gap_and_size(32)
    gap64, size64 = gap_and_size(64)
    assert gap64 <= 1e-2 * size64
    assert gap32 / gap64 >= 3.5


def test_modified_inequality_on_seeded_configs():
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, "dirichlet"))
    cut = bump(g.grid)
    for k in range(10):
        e = trig_endo(g.grid, rng_for(500 + k), amp=0.2)
        e = 0.5 * (e + np.swapaxes(e, -1, -2))
        a = np.broadcast_to(ID2, e.shape).copy() + cut[..., None, None] * e
        h = metric_action(a, g.matrix)
        lhs, rhs = modified_inequality_check(h, g)
        assert lhs >= rhs - (1e-8 + 1e-2 * abs(rhs))


def test_modified_inequality_equals_the_public_gradient_and_correction():
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, "dirichlet"))
    cut = bump(g.grid)
    for k in range(3):
        e = trig_endo(g.grid, rng_for(500 + k), amp=0.2)
        e = 0.5 * (e + np.swapaxes(e, -1, -2))
        a = np.broadcast_to(ID2, e.shape).copy() + cut[..., None, None] * e
        h = metric_action(a, g.matrix)
        ge = energy_gradient(h, g)
        y = np.einsum("...kj,...j->...k", inv2(field_A(h, g)), ge)
        w = g.conformal_factor
        rhs = g.integrate(w * np.einsum("...k,...k->...", ge, y))
        lhs = g.integrate(w * np.einsum("...k,...k->...", ge - correction_G(h, g), y))
        assert modified_inequality_check(h, g) == (lhs, rhs)


def test_curvature_identity_rejects_nonsymmetric(disk64):
    a = np.broadcast_to(ID2, (64, 64, 2, 2)).copy()
    a[..., 0, 1] += 0.1
    with pytest.raises(ValueError):
        curvature_identity_residual(a, disk64)


@pytest.mark.parametrize("dx", [0.8 / 63, 0.1, 1 / 3])
@pytest.mark.parametrize(
    "shape, axis",
    [((n,), 0) for n in (3, 4, 8, 33, 64)]
    + [(shape, axis) for shape in ((21, 13), (13, 21), (64, 64)) for axis in (0, 1)],
)
def test_simpson_equals_scipy_bit_for_bit(shape, axis, dx):
    # an even node count takes Cartwright's last-interval correction
    y = rng_for(sum(shape)).standard_normal(shape)
    ours = np.asarray(_simpson(y, dx, axis))
    assert ours.tobytes() == np.asarray(simpson(y, dx=dx, axis=axis)).tobytes()


@pytest.mark.parametrize("axis, row", [(0, 7), (1, 4)])
def test_simpson_carries_a_nan_node_into_its_row(axis, row):
    y = rng_for(5).standard_normal((13, 21))
    y[4, 7] = np.nan
    out = _simpson(y, 0.1, axis)
    assert np.array_equal(np.isnan(out), np.arange(out.size) == row)
    assert out.tobytes() == simpson(y, dx=0.1, axis=axis).tobytes()


@pytest.mark.parametrize("n", [33, 64])
def test_chart_quadrature_equals_scipy_bit_for_bit(n):
    g = poincare_disk(Grid(n, n + 3, 0.8, 0.7, "dirichlet"))
    dens = trig_spd(g.grid, rng_for(n), amp=0.3)[..., 0, 1]
    expected = float(simpson(simpson(dens, dx=g.grid.dx, axis=1), dx=g.grid.dy))
    assert np.float64(_simpson2(g.grid, dens)).tobytes() == np.float64(expected).tobytes()
