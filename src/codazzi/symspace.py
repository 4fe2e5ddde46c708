"""Pointwise geometry of the space of metrics on a two-plane.

Symmetric positive-definite 2x2 matrices carry a one-parameter family of
conformally rescaled Lorentz metrics b_alpha built from the determinant
form; for alpha = 1/2 the geodesics through the identity direction A are
the explicit squares (Id + tA)^2, and the associated exponential map is a
chart whose Beltrami-coefficient parametrization (P, Q) covers the domain
tilde-U = {P + 1 > 0, (P+1)^2 > |Q|^2}.  :func:`quotient_metric` is the
unrescaled member alpha = 0, normalised as -Det(B)/(4 Det A), so at A = Id
it is a quarter of :func:`codazzi.jcalc.b_form` of B.  Everything here is
exact matrix arithmetic; the verification scripts drive it with finite
differences.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import central_difference
from .jcalc import ID2, check_spd, det, inv2, metric_action

__all__ = [
    "quotient_metric",
    "christoffel_difference",
    "geodesic",
    "geodesic_residual",
    "exp_map",
    "BeltramiPoint",
    "beltrami_matrix",
    "psi_tilde",
]


def quotient_metric(a, b):
    """Quotient Lorentz form -Det(B)/(4 Det A), the alpha = 0 member of the family.

    ``a`` is the base point (SPD), ``b`` a symmetric tangent direction.
    """
    return -0.25 * det(b) / det(check_spd(a))


def christoffel_difference(a, b, alpha):
    """Christoffel correction Omega_alpha(A)(B, B) = (alpha - 1) A^{-1} B^2.

    Only valid for commuting pairs; non-commuting input is rejected.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    comm = a @ b - b @ a
    if np.max(np.abs(comm)) > 1e-10 * (1.0 + np.abs(a).max() * np.abs(b).max()):
        raise ValueError("christoffel_difference needs a commuting pair")
    return (alpha - 1.0) * inv2(a) @ b @ b


def geodesic(a, t):
    """Geodesic of the alpha = 1/2 rescaled metric through Id: (Id + tA)^2."""
    m = check_spd(ID2 + t * np.asarray(a, dtype=float))
    return m @ m


def geodesic_residual(a, t):
    """FD residual of the geodesic equation at parameter t.

    Central second difference of gamma plus the commuting Christoffel
    correction of alpha = 1/2 applied to the central first difference;
    identically zero in exact arithmetic.  The step is 1e-3.
    """
    gamma = partial(geodesic, a)
    acc = central_difference(gamma, t, 1e-3, 2)
    vel = central_difference(gamma, t, 1e-3, 1)
    return float(np.max(np.abs(acc + christoffel_difference(gamma(t), vel, 0.5))))


def exp_map(a, g0):
    """Exponential chart about the metric g0: g0((Id+A)., (Id+A).)."""
    m = check_spd(ID2 + np.asarray(a, dtype=float))
    return metric_action(m, np.asarray(g0, dtype=float))


@dataclass(frozen=True)
class BeltramiPoint:
    """Beltrami-coefficient coordinates (P real, Q complex)."""

    p: float
    q: complex

    def in_domain(self):
        """Membership in tilde-U: P + 1 > 0 and (P+1)^2 > |Q|^2."""
        return self.p + 1.0 > 0.0 and (self.p + 1.0) ** 2 > abs(self.q) ** 2


def beltrami_matrix(point: BeltramiPoint):
    """Symmetric matrix [[a + P, b], [b, -a + P]] for Q = a + b i.

    Tr(Id + A) = 2 (P + 1) and Det(Id + A) = (P+1)^2 - |Q|^2, so the
    domain tilde-U is exactly where Id + A is positive-definite.
    """
    a, b = float(np.real(point.q)), float(np.imag(point.q))
    return np.array([[a + point.p, b], [b, -a + point.p]])


def psi_tilde(point: BeltramiPoint, g0):
    """Metric of the Beltrami chart: the exponential map applied to A(P, Q)."""
    if not point.in_domain():
        raise ValueError("Beltrami point outside tilde-U")
    return exp_map(beltrami_matrix(point), g0)
