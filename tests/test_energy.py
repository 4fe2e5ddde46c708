"""Variational calculus of the energy functional on conformal charts."""

import numpy as np
import pytest

from codazzi.energy import (
    codazzi_residual,
    correction_G,
    correction_G_oracle,
    curvature_identity_residual,
    energy,
    energy_gradient,
    field_A,
    flow_derivative_fd,
    gradient_pairing,
    gradient_pairing4,
    modified_inequality_check,
    second_variation,
    trace_energy,
)
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2, J, metric_action
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
    h = metric_action(trig_spd(g.grid, rng_for(1), amp=0.15), g.matrix())
    a = field_A(h, g)
    assert np.max(np.abs(metric_action(a, g.matrix()) - h)) < 1e-11


def test_energy_of_conformal_pair_is_exact(disk64):
    g = disk64
    # h = c^2 g gives A = c Id, sigma = c sqrt(2), energy = c sqrt(2) area
    c = 1.7
    val = energy(c * c * g.matrix(), g)
    assert val == pytest.approx(np.sqrt(2.0) * c * g.area(), rel=1e-12)
    assert trace_energy(c * c * g.matrix(), g) == pytest.approx(
        2.0 * c * g.area(), rel=1e-12
    )


def test_gradient_vanishes_at_conformal_target(disk64):
    g = disk64
    assert np.max(np.abs(energy_gradient(2.25 * g.matrix(), g))) < 1e-10


@pytest.mark.parametrize("topology", ["dirichlet", "periodic"])
def test_gradient_is_exactly_minus_J_div_AJ(topology):
    # energy_gradient reads the columns of A instead of forming A J; the
    # arithmetic is the same, so the two routes agree bit for bit
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, topology))
    h = metric_action(trig_spd(g.grid, rng_for(5), amp=0.15), g.matrix())
    expected = -apply_J(div_endo(field_A(h, g) @ J, g))
    assert np.array_equal(energy_gradient(h, g), expected)


def test_gradient_pairings_agree(disk64):
    g = disk64
    h = metric_action(trig_spd(g.grid, rng_for(4), amp=0.12, kmax=1), g.matrix())
    x = bump(g.grid)[..., None] ** 2 * energy_gradient(h, g)
    x = 0.3 * x / np.max(np.abs(x))
    p2 = gradient_pairing(h, g, x)
    p4 = gradient_pairing4(h, g, x)
    assert p4 == pytest.approx(p2, rel=5e-3)


def test_flow_derivative_matches_weak_gradient(disk64):
    g = disk64
    h = metric_action(trig_spd(g.grid, rng_for(13), amp=0.12, kmax=1), g.matrix())
    x = bump(g.grid)[..., None] ** 2 * energy_gradient(h, g)
    x = 0.3 * x / np.max(np.abs(x))
    fd = flow_derivative_fd(h, g, x)
    pair = gradient_pairing4(h, g, x)
    assert abs(fd - pair) / abs(pair) < 1e-3


def test_second_variation_positive_under_negative_curvature(disk64):
    g = disk64
    h = 2.25 * g.matrix()
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
        h = metric_action(a, g.matrix())
        d = correction_G(h, g) - correction_G_oracle(h, g)
        return float(np.max(np.abs(d[g.grid.interior(max(3, n // 8))])))

    assert gap(32) / gap(64) > 2.5


def test_modified_inequality_on_seeded_configs():
    g = poincare_disk(Grid(32, 32, 0.8, 0.8, "dirichlet"))
    cut = bump(g.grid)
    for k in range(10):
        e = trig_endo(g.grid, rng_for(500 + k), amp=0.2)
        e = 0.5 * (e + np.swapaxes(e, -1, -2))
        a = np.broadcast_to(ID2, e.shape).copy() + cut[..., None, None] * e
        h = metric_action(a, g.matrix())
        lhs, rhs = modified_inequality_check(h, g)
        assert lhs >= rhs - (1e-8 + 1e-2 * abs(rhs))


def test_curvature_identity_rejects_nonsymmetric(disk64):
    a = np.broadcast_to(ID2, (64, 64, 2, 2)).copy()
    a[..., 0, 1] += 0.1
    with pytest.raises(ValueError):
        curvature_identity_residual(a, disk64)
