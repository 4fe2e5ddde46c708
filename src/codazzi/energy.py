"""Functional calculus of the (1,0)-energy on a conformal background.

Everything is phrased in terms of the endomorphism field A relating the
background metric g = e^{2 phi} delta to a target SPD metric field h through
h = g(A., A.).  The energy is the integral of the seminorm sigma(A); its
gradient, second variation, the curvature identity linking the two metrics,
and the curvature correction term used by the critical-point solver all
live here.
"""

import numpy as np

from .grid import ConformalMetric, central_difference
from .jcalc import J, _mul2, check_symmetric, det, inv2, sigma, spd_sqrt, spd_sqrt_pair, trace
from .maps import FieldInterpolator, pullback_metric
from .operators import (
    apply_J,
    brioschi_curvature,
    curvature,
    div_endo,
    div_vec,
    dnabla_endo,
    grad,
    nabla_vec_endo,
)

__all__ = [
    "field_A",
    "energy",
    "trace_energy",
    "trace_energy_over",
    "energy_gradient",
    "gradient_pairing4",
    "flow_derivative_fd",
    "second_variation",
    "codazzi_residual",
    "curvature_identity_residual",
    "correction_G",
    "correction_G_oracle",
    "modified_inequality_check",
]


def field_A(h, g: ConformalMetric):
    """Positive g-self-adjoint A with h = g(A., A.), nodewise: the principal
    square root of g^{-1} h, a product with a diagonal, so ``jcalc._mul2``."""
    h = g.grid.check_field(h, rank=2)
    return spd_sqrt(_mul2(inv2(g.matrix), h))


def energy(h, g: ConformalMetric):
    """Total (1,0)-energy: integral of sigma(A) over the chart.

    For symmetric A the seminorm reduces to Tr(A)/sqrt(2), but sigma is
    evaluated in full so the routine stays correct for any input.
    """
    return g.integrate(sigma(field_A(h, g)))


def trace_energy_over(grid, base, target):
    """Integral of Tr(A) against the area of an SPD base metric field.

    A is the base-self-adjoint positive field with target = base(A., A.).
    The deformation families of :mod:`codazzi.teich` evaluate it over
    bases that are not conformal; :func:`trace_energy` is the integral over
    a conformal base.
    """
    base = grid.check_field(base, rank=2)
    target = grid.check_field(target, rank=2)
    dens = trace(spd_sqrt_pair(base, target)) * np.sqrt(det(base))
    return float(np.sum(dens * grid.cell_weights))


def trace_energy(h, g: ConformalMetric):
    """Integral of Tr(A) over the chart: :func:`trace_energy_over` on the base g.

    On symmetric positive fields this equals sqrt(2) times :func:`energy`;
    it is the normalization whose L2 gradient is exactly -J div(A J), and
    the one used by the finite-difference gradient checks.
    """
    return trace_energy_over(g.grid, g.matrix, h)


def energy_gradient(h, g: ConformalMetric):
    """The vector field -J div(A J).

    This is the L2 gradient of :func:`trace_energy` (equivalently, of
    sqrt(2) times the seminorm energy: for symmetric A the two functionals
    differ by that constant factor).  It vanishes exactly when A is a
    Codazzi field.  div(A J) is evaluated as d^nabla A(e1, e2), which
    reads the columns of A directly instead of forming the product A J.
    """
    a = field_A(h, g)
    return -apply_J(dnabla_endo(a, g))


def _simpson(y, dx, axis):
    """Composite Simpson's rule along ``axis`` of ``y``, nodes ``dx`` apart.

    Bit for bit as ``scipy.integrate.simpson(y, dx=dx, axis=axis)`` on three
    or more nodes, with the same operations in the same order: an odd node
    count is the composite rule; an even one takes it over all but the last
    node and adds Cartwright's (2017) correction for the last interval.
    """
    n = y.shape[axis]

    def nodes(index):
        at = [slice(None)] * y.ndim
        at[axis] = index
        return y[tuple(at)]

    stop = n - 3 + n % 2
    result = np.sum(
        nodes(slice(0, stop, 2)) + 4.0 * nodes(slice(1, stop + 1, 2)) + nodes(slice(2, stop + 2, 2)),
        axis=axis,
    )
    result *= dx / 3.0
    if n % 2 == 0:
        h = np.float64(dx)
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = 1 * h**3 / (6 * h * (h + h))
        result += alpha * nodes(-1) + beta * nodes(-2) - eta * nodes(-3)
    return result


def _simpson2(grid, dens):
    """Composite Simpson quadrature over the chart, both axes."""
    return float(_simpson(_simpson(dens, grid.dx, 1), grid.dy, 0))


def gradient_pairing4(h, g: ConformalMetric, x):
    """Integral of <-J div(A J), x>_g, the weak form of the gradient.

    Fourth-order stencils and Simpson quadrature keep the truncation error
    of the pairing below the 1e-3 relative scale at moderate resolutions,
    which a second-order route cannot guarantee.  Matches
    :func:`flow_derivative_fd`, the central finite difference of
    :func:`trace_energy` along the flow p -> p + t x(p).
    """
    x = g.grid.check_field(x, rank=1)
    a = field_A(h, g)
    ge = -apply_J(div_endo(_mul2(a, J), g, order=4))
    w = g.conformal_factor
    dens = w * w * np.einsum("...k,...k->...", ge, x)
    return _simpson2(g.grid, dens)


def flow_derivative_fd(h, g: ConformalMetric, x):
    """Central FD of the trace energy along the flow p -> p + t x.

    The pullback at parameter t uses fourth-order map-Jacobian stencils and
    the energy integral uses Simpson quadrature, matching the
    discretization order of :func:`gradient_pairing4`, with step 1e-4.
    ``h`` is the SPD target matrix field.
    """
    grid = g.grid
    x = grid.check_field(x, rank=1)
    h = FieldInterpolator(grid, grid.check_field(h, rank=2))
    w = g.conformal_factor

    def energy_at(t):
        hp = pullback_metric(grid, h, x, t, order=4)
        return _simpson2(grid, trace(field_A(hp, g)) * w)

    return central_difference(energy_at, 0.0, 1e-4, 1)


def second_variation(h, g: ConformalMetric, x):
    """Second variation of the energy at a critical A in direction x.

    Integrand: Tr(A (nabla x) J)^2 / Tr(A) - kappa_g <x, A x>.
    Positive for every compactly supported x when kappa_g < 0.
    """
    a = field_A(h, g)
    nx = nabla_vec_endo(x, g)
    t1 = trace(_mul2(a @ nx, J)) ** 2 / trace(a)
    ax = np.einsum("...kj,...j->...k", a, x)
    pair = g.conformal_factor * np.einsum("...k,...k->...", x, ax)
    return g.integrate(t1 - curvature(g) * pair)


def codazzi_residual(a, g: ConformalMetric):
    """L-infinity norm of (d^nabla a)(e1, e2) off two boundary rings."""
    r = dnabla_endo(a, g)
    mask = g.grid.interior(2)
    return float(np.max(np.abs(r[mask])))


def _q_field(a_inv, dn, g: ConformalMetric):
    """Scalar q = div(A^{-1} J div(A J)), the double-divergence block.

    ``a_inv`` is inv2(A) and ``dn`` is dnabla_endo(A) = div(A J), both
    passed in by callers that also need them.
    """
    w = np.einsum("...kj,...j->...k", _mul2(a_inv, J), dn)
    return div_vec(w, g)


def curvature_identity_residual(a, g: ConformalMetric, margin=3):
    """Pointwise defect of Det(A) kappa[h] = kappa_g + div(A^{-1} J div(A J)).

    ``a`` is a symmetric positive-definite endomorphism field; the metric
    h = g(A., A.) is assembled from it and kappa[h] comes from the Brioschi
    formula applied to the raw matrix field, a route that never sees A or
    the conformal structure, so agreement is a genuine two-sided check.
    Returns the interior L-infinity residual.
    """
    a = check_symmetric(g.grid.check_field(a, rank=2))
    h = _mul2(np.swapaxes(a, -1, -2), g.matrix) @ a
    kh = brioschi_curvature(g.grid, h)
    resid = det(a) * kh - curvature(g) - _q_field(inv2(a), dnabla_endo(a, g), g)
    mask = g.grid.interior(margin)
    return float(np.max(np.abs(resid[mask])))


def correction_G(h, g: ConformalMetric):
    """Curvature correction term G = -grad div(A^{-1} J div(A J)).

    By the curvature identity the scalar under the (negated) gradient equals
    Det(A) kappa[h] - kappa_g, so G = grad(kappa_g - Det(A) kappa[h]); that
    curvature route is what :func:`correction_G_oracle` computes directly,
    and the two must agree to O(h^2).
    """
    a = field_A(h, g)
    return _correction(inv2(a), dnabla_endo(a, g), g)


def _correction(a_inv, dn, g):
    """G = -grad q(A) from inv2(A) and dnabla_endo(A)."""
    return -grad(_q_field(a_inv, dn, g), g)


def correction_G_oracle(h, g: ConformalMetric):
    """G through the curvature route: grad(kappa_g - Det(A) kappa[h])."""
    a = field_A(h, g)
    kh = brioschi_curvature(g.grid, g.grid.check_field(h, rank=2))
    return grad(curvature(g) - det(a) * kh, g)


def modified_inequality_check(h, g: ConformalMetric):
    """Both sides of the corrected gradient inequality.

    Returns (lhs, rhs) with lhs = int <grad E - G, A^{-1} grad E> and
    rhs = int <grad E, A^{-1} grad E>; the claim is lhs >= rhs, i.e. the
    correction pairs non-negatively against A^{-1} grad E (its pairing
    equals int q^2 dArea up to a boundary term).  grad E and G are
    :func:`energy_gradient` and :func:`correction_G` written out on one A,
    one inverse of it and one d^nabla A(e1, e2) = div(A J).
    """
    a = field_A(h, g)
    a_inv = inv2(a)
    dn = dnabla_endo(a, g)
    ge = -apply_J(dn)
    y = np.einsum("...kj,...j->...k", a_inv, ge)
    gcorr = _correction(a_inv, dn, g)
    w = g.conformal_factor
    rhs = g.integrate(w * np.einsum("...k,...k->...", ge, y))
    lhs = g.integrate(w * np.einsum("...k,...k->...", ge - gcorr, y))
    return lhs, rhs
