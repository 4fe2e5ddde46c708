"""Pointwise geometry of the space of metrics on a two-plane.

Symmetric positive-definite 2x2 matrices carry a one-parameter family of
conformally rescaled Lorentz metrics b_alpha built from the determinant
form; for alpha = 1/2 the geodesics through the identity direction A are
the explicit squares (Id + tA)^2, and the associated exponential map is a
chart whose Beltrami-coefficient parametrization (P, Q) covers the domain
tilde-U = {P + 1 > 0, (P+1)^2 > |Q|^2}.  Everything here is exact matrix
arithmetic; the verification scripts drive it with finite differences.
"""

from dataclasses import dataclass

import numpy as np

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


def quotient_metric(a, b, alpha=0.0):
    """Conformally rescaled quotient Lorentz form Det(A)^alpha (-Det(B)/(4 Det A)).

    ``a`` is the base point (SPD), ``b`` a symmetric tangent direction.
    """
    da = det(check_spd(a))
    return da**alpha * (-0.25 * det(b) / da)


def christoffel_difference(a, b, alpha=0.0):
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
    step = 1e-3
    gp = geodesic(a, t + step)
    g0 = geodesic(a, t)
    gm = geodesic(a, t - step)
    acc = (gp - 2.0 * g0 + gm) / step**2
    vel = (gp - gm) / (2.0 * step)
    return float(np.max(np.abs(acc + christoffel_difference(g0, vel, 0.5))))


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
