"""Computable monitors: intermediate complex structure, alpha-harmonicity,
map energies, and hyperbolic collar / conformal-modulus formulas.

For a symmetric positive Codazzi field A over a conformal background g,
the metric h = g(A., .) has complex structure J-hat = Det(A)^{-1/2} J A,
and the identity map from (chart, h) to (chart, g) is alpha-harmonic for
the exact 1-form alpha = -d log(Det A) / 2.  The residual of that
statement, the energy identity joining the two identity-map energies to
the integral of 2 Tr(A) Cosh(phi/2), and the scalar collar formulas give
cheap, independently checkable diagnostics for solver output.
"""

import math

import numpy as np

from .grid import ConformalMetric, Grid
from .jcalc import J, _mul2, check_spd, det, inv2, trace
from .operators import general_christoffels

__all__ = [
    "intermediate_J",
    "alpha_field",
    "alpha_curl",
    "alpha_harmonic_residual",
    "map_energy",
    "energy_identity_check",
    "collar_and_modulus",
    "modulus_lower_via_flat",
    "intermediate_modulus_bounds",
]


def intermediate_J(a):
    """Complex structure of the intermediate metric: Det(A)^{-1/2} J A.

    Squares to -Id at every node; compatible with h = g(A., .) for any
    conformal background g, which therefore is not an argument.
    """
    a = check_spd(a)
    return _mul2(J / np.sqrt(det(a))[..., None, None], a)


def _phi_field(a):
    return np.log(det(a))


def alpha_field(a, grid: Grid):
    """The 1-form alpha = -d log(Det A) / 2, components per node."""
    a = check_spd(grid.check_field(a, rank=2))
    phi = _phi_field(a)
    return np.stack([-0.5 * grid.ddx(phi), -0.5 * grid.ddy(phi)], axis=-1)


def alpha_curl(a, grid: Grid):
    """Discrete curl of alpha off two boundary rings; O(h^2) since alpha is
    exact by construction."""
    al = alpha_field(a, grid)
    curl = grid.ddx(al[..., 1]) - grid.ddy(al[..., 0])
    return float(np.max(np.abs(curl[grid.interior(2)])))


def alpha_harmonic_residual(a, g: ConformalMetric):
    """Defect of alpha-harmonicity of the identity from (chart, h) to (chart, g).

    h = g(A., .); the coordinate laplacian of the identity map reduces to
    h^{mn} (Gamma_g - Gamma_h)^k_{mn} and must match h^{kn} alpha_n, the
    source-sharp of alpha, within O(h^2) when A is Codazzi.  The field is
    not certified Codazzi first, so the residual also serves as a negative
    control for non-Codazzi input.
    """
    grid = g.grid
    a = check_spd(grid.check_field(a, rank=2))
    h = _mul2(g.matrix, a)
    hinv = inv2(h)
    dphi = np.stack(g.phi_derivs, axis=-1)
    # h^{mn} Gamma_g^k_mn = (h^{kn} + h^{nk}) phi_n - h^{mm} phi_k, from
    # Gamma_g^k_mn = delta_km phi_n + delta_kn phi_m - delta_mn phi_k
    lap_g = (
        np.einsum("...kn,...n->...k", hinv + np.swapaxes(hinv, -1, -2), dphi)
        - trace(hinv)[..., None] * dphi
    )
    lap = lap_g - np.einsum("...mn,...kmn->...k", hinv, general_christoffels(grid, h))
    al = alpha_field(a, grid)
    rhs = np.einsum("...kn,...n->...k", hinv, al)
    mask = grid.interior(3)
    return float(np.max(np.abs((lap - rhs)[mask])))


def map_energy(gS: ConformalMetric, hN):
    """Energy of the identity map from (chart, gS) into (chart, hN).

    Integrand g^{mn} h_{mn} against dVol(gS); for a conformal source the
    factors cancel, so the value depends only on the source conformal class
    (exactly, even discretely).
    """
    hN = gS.grid.check_field(hN, rank=2)
    return gS.integrate(trace(_mul2(inv2(gS.matrix), hN)))


def energy_identity_check(a, g: ConformalMetric):
    """Both sides of the paired identity-map energy identity.

    lhs: sum of the identity-map energies from the intermediate metric
    h = g(A., .) into g and into g(A., A.); rhs: the closed form
    int 2 Tr(A) Cosh(phi/2) dVol(g) with phi = log Det(A).  The two agree
    pointwise in exact arithmetic.
    """
    grid = g.grid
    a = check_spd(grid.check_field(a, rank=2))
    h = _mul2(g.matrix, a)
    hinv = inv2(h)
    vol_h = np.sqrt(det(h))
    w = grid.cell_weights
    e1 = float(np.sum(trace(_mul2(hinv, g.matrix)) * vol_h * w))
    e2 = float(np.sum(trace(hinv @ (h @ a)) * vol_h * w))
    phi = _phi_field(a)
    rhs = g.integrate(2.0 * trace(a) * np.cosh(0.5 * phi))
    return e1 + e2, rhs


def collar_and_modulus(sys, big_r, genus):
    """Collar and modulus formulas for a hyperbolic surface.

    Returns a dict with ``l2max`` (largest length of a second geodesic
    crossing the collar, arcsinh(1/sinh(sys/2))), ``L`` (conformal modulus
    of the embedded collar cylinder, (2 pi / sys) arctan(tanh R), only
    meaningful when the collar condition sinh(sys/2) sinh(2R) < 1 holds --
    reported via ``collar_valid`` rather than clamped), and ``mod_upper``
    (4 pi^2 (2 genus - 2) / sys^2).
    """
    # written so that a NaN fails
    if not (sys > 0.0 and big_r > 0.0):
        raise ValueError("systole and collar radius must be positive")
    if not genus >= 2:
        raise ValueError("genus must be at least 2")
    return {
        "l2max": math.asinh(1.0 / math.sinh(0.5 * sys)),
        "L": (2.0 * math.pi / sys) * math.atan(math.tanh(big_r)),
        "collar_valid": math.sinh(0.5 * sys) * math.sinh(2.0 * big_r) < 1.0,
        "mod_upper": 4.0 * math.pi**2 * (2 * genus - 2) / sys**2,
    }


def modulus_lower_via_flat(sys_flat, area_flat):
    """Bound 2 pi area / sys^2 on the modulus of an annulus.

    A degenerating systole makes the bound infinite, which is returned
    explicitly rather than clamped.
    """
    if not (sys_flat >= 0.0 and area_flat >= 0.0):  # written so that a NaN fails
        raise ValueError("systole and area must be non-negative")
    if sys_flat == 0.0:
        return math.inf
    return 2.0 * math.pi * area_flat / sys_flat**2


def intermediate_modulus_bounds(b):
    """Modulus bounds for systole >= b^{-5/4} and area <= b.

    The formula gives 2 pi b^{7/2}; the looser figure 2 pi b^4 also
    circulates, so both are reported without adjudication.
    """
    if not b > 0.0:  # written so that a NaN fails
        raise ValueError("b must be positive")
    return {
        "formula": 2.0 * math.pi * b ** 3.5,
        "stated": 2.0 * math.pi * b**4,
    }
