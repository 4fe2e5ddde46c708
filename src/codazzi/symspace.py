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

Like :mod:`codazzi.jcalc`, every function takes stacks: matrices of shape
``(..., 2, 2)`` and a :class:`BeltramiPoint` whose P and Q are arrays, so a
check over many draws is one call.  Each 2x2 block (each point) is treated
as a one-at-a-time call would treat it: :func:`christoffel_difference`
scales its commuting test per block, :meth:`BeltramiPoint.in_domain` answers
per point, and :func:`psi_tilde` names the first point outside the domain.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import central_difference
from .jcalc import ID2, _block_max, _require, check_spd, det, inv2, metric_action

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

    Only valid for commuting pairs; non-commuting input is rejected.  The
    test |AB - BA| <= 1e-10 (1 + max|A| max|B|) is made per 2x2 block, so a
    stack refuses exactly the pairs that one-pair calls refuse; a NaN
    commutator refuses.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = 1.0 + _block_max(a) * _block_max(b)
    comm = _block_max(a @ b - b @ a)
    _require(comm <= 1e-10 * scale, "christoffel_difference needs a commuting pair")
    return (alpha - 1.0) * inv2(a) @ b @ b


def geodesic(a, t):
    """Geodesic of the alpha = 1/2 rescaled metric through Id: (Id + tA)^2."""
    m = check_spd(ID2 + t * np.asarray(a, dtype=float))
    return m @ m


def geodesic_residual(a, t):
    """FD residual of the geodesic equation at parameter t.

    Central second difference of gamma plus the commuting Christoffel
    correction of alpha = 1/2 applied to the central first difference;
    identically zero in exact arithmetic.  The step is 1e-3.  On a stack of
    directions ``a`` it returns the maximum over the stack.
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
    """Beltrami-coefficient coordinates (P real, Q complex), or stacks of them.

    ``p`` is a float or a float array and ``q`` a complex or a complex
    array; the two broadcast against each other.
    """

    p: float | np.ndarray
    q: complex | np.ndarray

    def in_domain(self):
        """Membership in tilde-U, per point: P + 1 > 0 and (P+1)^2 > |Q|^2.

        |Q| is ``np.hypot`` of its parts and the squares go through ``pow``
        (``np.float_power``), as Python's ``abs`` and ``**`` on one point
        take them, so a stack and a one-point call agree to the last bit
        near the boundary.  A NaN coordinate is outside.
        """
        s = np.asarray(self.p, dtype=float) + 1.0
        q = np.asarray(self.q, dtype=complex)
        return (s > 0.0) & (np.float_power(s, 2) > np.float_power(np.hypot(q.real, q.imag), 2))


def beltrami_matrix(point: BeltramiPoint):
    """Symmetric matrix [[a + P, b], [b, -a + P]] for Q = a + b i, shape (..., 2, 2).

    Tr(Id + A) = 2 (P + 1) and Det(Id + A) = (P+1)^2 - |Q|^2, so the
    domain tilde-U is exactly where Id + A is positive-definite.
    """
    q = np.asarray(point.q, dtype=complex)
    p, a, b = np.broadcast_arrays(np.asarray(point.p, dtype=float), q.real, q.imag)
    out = np.empty(p.shape + (2, 2))
    out[..., 0, 0] = a + p
    out[..., 0, 1] = b
    out[..., 1, 0] = b
    out[..., 1, 1] = -a + p
    return out


def psi_tilde(point: BeltramiPoint, g0):
    """Metric of the Beltrami chart: the exponential map applied to A(P, Q).

    A stack is refused if any point is outside tilde-U; the message names
    the first such index in row-major order.
    """
    inside = point.in_domain()
    if not inside.all():
        if inside.ndim == 0:
            raise ValueError("Beltrami point outside tilde-U")
        first = np.unravel_index(np.argmin(inside), inside.shape)
        index = int(first[0]) if inside.ndim == 1 else tuple(int(k) for k in first)
        raise ValueError(f"Beltrami point outside tilde-U at index {index}")
    return exp_map(beltrami_matrix(point), g0)
