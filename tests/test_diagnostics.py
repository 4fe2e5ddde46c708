"""Diagnostics: intermediate structures, alpha-harmonicity, scalar formulas."""

import math

import numpy as np
import pytest

from codazzi import diagnostics
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.jcalc import ID2
from codazzi.randfields import rng_for, tracefree_codazzi_conformal, trig_spd


def _disk(n):
    return poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))


def test_intermediate_J_squares_to_minus_identity():
    g = _disk(32)
    a = trig_spd(g.grid, rng_for(13), amp=0.2)
    jh = diagnostics.intermediate_J(a)
    assert np.max(np.abs(jh @ jh + ID2)) < 1e-12


def test_intermediate_J_rejects_indefinite_input():
    bad = np.diag([1.0, -1.0])[None, None] * np.ones((8, 8, 1, 1))
    with pytest.raises(ValueError):
        diagnostics.intermediate_J(bad)


def test_alpha_harmonic_residual_converges_for_codazzi():
    def resid(n):
        g = _disk(n)
        a = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
        a = a + tracefree_codazzi_conformal(g, rng_for(23), amp=0.25)
        return diagnostics.alpha_harmonic_residual(a, g)

    assert resid(32) / resid(64) > 3.5


def test_alpha_harmonic_negative_control():
    # diag(1, 1+x/2) on a flat chart is symmetric but not Codazzi: the
    # alpha-harmonic residual must stay bounded away from zero
    def resid(n):
        grid = Grid(n, n, 1.0, 1.0, "dirichlet")
        xx, _ = grid.meshgrid
        a = np.broadcast_to(ID2, (n, n, 2, 2)).copy()
        a[..., 1, 1] = 1.0 + 0.5 * xx
        return diagnostics.alpha_harmonic_residual(a, ConformalMetric.flat(grid))

    assert min(resid(32), resid(64)) > 0.1


def test_energy_identity():
    g = _disk(64)
    a = trig_spd(g.grid, rng_for(13), amp=0.2)
    lhs, rhs = diagnostics.energy_identity_check(a, g)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_map_energy_is_conformally_invariant_in_the_source():
    g = _disk(48)
    e0 = diagnostics.map_energy(g, g.matrix)
    g2 = ConformalMetric(g.grid, g.phi + 0.37)
    e1 = diagnostics.map_energy(g2, g.matrix)
    assert abs(e0 - e1) / e0 < 1e-12


def test_collar_modulus_hand_values():
    col = diagnostics.collar_and_modulus(2.0 * math.pi, 0.5, 2)
    assert col["mod_upper"] == pytest.approx(2.0, abs=1e-12)
    col2 = diagnostics.collar_and_modulus(2.0 * math.asinh(1.0), 0.25, 3)
    assert col2["l2max"] == pytest.approx(math.log(1.0 + math.sqrt(2.0)), abs=1e-12)


def test_modulus_lower_degenerates_with_systole():
    assert math.isinf(diagnostics.modulus_lower_via_flat(0.0, 1.0))


def test_modulus_lower_away_from_degeneration():
    # 2 pi area / sys^2 = 2 pi 3 / 4
    assert diagnostics.modulus_lower_via_flat(2.0, 3.0) == pytest.approx(1.5 * math.pi, rel=1e-15)


_COLLAR_POSITIVE = "systole and collar radius must be positive"
_FLAT_NON_NEGATIVE = "systole and area must be non-negative"


@pytest.mark.parametrize(
    "formula, args, message",
    [
        (diagnostics.collar_and_modulus, (0.0, 0.5, 2), _COLLAR_POSITIVE),
        (diagnostics.collar_and_modulus, (1.0, -0.5, 2), _COLLAR_POSITIVE),
        (diagnostics.collar_and_modulus, (1.0, 0.5, 1), "genus must be at least 2"),
        (diagnostics.modulus_lower_via_flat, (-1.0, 1.0), _FLAT_NON_NEGATIVE),
        (diagnostics.modulus_lower_via_flat, (1.0, -1.0), _FLAT_NON_NEGATIVE),
        (diagnostics.intermediate_modulus_bounds, (0.0,), "b must be positive"),
        (diagnostics.collar_and_modulus, (math.nan, 0.5, 2), _COLLAR_POSITIVE),
        (diagnostics.collar_and_modulus, (1.0, math.nan, 2), _COLLAR_POSITIVE),
        (diagnostics.collar_and_modulus, (1.0, 0.5, math.nan), "genus must be at least 2"),
        (diagnostics.modulus_lower_via_flat, (math.nan, 1.0), _FLAT_NON_NEGATIVE),
        (diagnostics.modulus_lower_via_flat, (1.0, math.nan), _FLAT_NON_NEGATIVE),
        (diagnostics.intermediate_modulus_bounds, (math.nan,), "b must be positive"),
    ],
    ids=["systole", "radius", "genus", "flat-systole", "flat-area", "b", "nan-systole",
         "nan-radius", "nan-genus", "nan-flat-systole", "nan-flat-area", "nan-b"],
)
def test_scalar_formulas_refuse_arguments_outside_their_range(formula, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        formula(*args)


def test_intermediate_modulus_bounds_at_one():
    imb = diagnostics.intermediate_modulus_bounds(1.0)
    assert imb["formula"] == pytest.approx(2.0 * math.pi, abs=1e-12)
