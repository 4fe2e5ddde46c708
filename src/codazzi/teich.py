"""Variation of the trace energy along quadratic deformation families.

The trace energy (:func:`codazzi.energy.trace_energy_over`) integrates
Tr(A) against the area of the base metric.  Along the family
B_t = (1 + t^2 phi0) Id + t B, with B trace-free symmetric Codazzi and phi0
the solution of (Laplace_h - 2) phi0 = Det(B), the first and second
t-derivatives have closed forms whose finite-difference verification is
the point of this module.  Evaluating the functional with the identity map
(rather than re-solving for the one-harmonic map at each t) gives an upper
envelope that touches at t = 0, so first derivatives agree there and the
finite-difference second derivative dominates the closed-form lower bound.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .energy import trace_energy_over
from .grid import ConformalMetric, _splu, central_difference
from .jcalc import ID2, _block_max, _require, check_spd, check_symmetric, det, inv2, trace

__all__ = [
    "phi0_solve",
    "e_hat_first_derivative",
    "first_derivative_general",
    "DeformationFamily",
    "second_derivative_lower_bound",
    "critical_sum_check",
]


def _check_tracefree_symmetric(b):
    """``b`` as :func:`~codazzi.jcalc.check_symmetric` returns it; ValueError
    unless |Tr| <= 1e-10 (1 + max|block|) in every block, naming the node."""
    b = check_symmetric(b)
    _require(np.abs(trace(b)) <= 1e-10 * (1.0 + _block_max(b)), "field is not trace-free")
    return b


def phi0_solve(b, h: ConformalMetric):
    """Solve (Laplace_h - 2) phi0 = Det(B), zero Dirichlet boundary values.

    It is solved multiplied through by e^{2 phi}, with the compact
    :meth:`~codazzi.grid.Grid.lap5_matrix`.  For trace-free symmetric B the
    right side is non-positive, so the maximum principle forces phi0 >= 0;
    the discrete operator is an M-matrix and inherits the sign.  Returns
    the full node field.

    The matrix is symmetric and its negative is positive-definite, so
    diagonal pivots are stable: the grid's one SuperLU factor
    ``grid._splu`` (minimum degree on A^T + A, symmetric mode) factors it,
    as it factors the Newton solver's Jacobian; a solve it refuses is its ValueError.
    """
    grid = h.grid
    b = _check_tracefree_symmetric(grid.check_field(b, rank=2))
    w = h.conformal_factor
    mask = grid.interior(1)
    mat = grid.lap5_matrix()
    mat.setdiag(mat.diagonal() - 2.0 * w[mask])
    out = np.zeros((grid.ny, grid.nx))
    # mat is symmetric, so mat.T, a CSC view of its CSR arrays, is mat itself
    # with no copy
    out[mask] = _splu(mat.T).solve(det(b)[mask] * w[mask])
    return out


def e_hat_first_derivative(a0, bdot0, h0: ConformalMetric):
    """Closed-form t-derivative at t = 0: -integral of Tr(A0 Bdot0) dArea[h0].

    ``bdot0`` must be trace-free; ``a0`` is the Codazzi field at the base
    point of the family.
    """
    grid = h0.grid
    a0 = grid.check_field(a0, rank=2)
    bdot0 = _check_tracefree_symmetric(grid.check_field(bdot0, rank=2))
    return -h0.integrate(trace(a0 @ bdot0))


def first_derivative_general(a_t, b_t, bdot_t, area_weights):
    """General t-derivative: integral of [Tr(A)Tr(B^-1 Bdot) - Tr(A B^-1 Bdot)].

    ``area_weights`` is the nodewise area measure of the base metric at
    parameter t (conformal factor times cell weight for conformal bases).
    Valid for families with [B_t, Bdot_t] = 0, which holds along every
    quadratic family built here.
    """
    m = inv2(b_t) @ bdot_t
    dens = trace(a_t) * trace(m) - trace(a_t @ m)
    return float(np.sum(dens * area_weights))


@dataclass(frozen=True)
class DeformationFamily:
    """Quadratic family B_t = (1 + t^2 phi0) Id + t B over a conformal base.

    ``b`` is trace-free, symmetric and (up to discretization) Codazzi for
    ``h0``; ``phi0`` solves the (Laplace_h - 2) equation so that the family
    of metrics h_t = h0(B_t ., B_t .) stays within the constant-curvature
    class to second order.
    """

    h0: ConformalMetric
    b: np.ndarray = field(repr=False)
    phi0: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, b, h0: ConformalMetric):
        b = _check_tracefree_symmetric(h0.grid.check_field(b, rank=2))
        return cls(h0, b, phi0_solve(b, h0))

    def b_t(self, t):
        scale = 1.0 + t * t * self.phi0
        try:
            return check_spd(scale[..., None, None] * ID2 + t * self.b)
        except ValueError as exc:
            raise ValueError(f"family leaves the positive cone at t = {t}: {exc}") from None

    def h_t_matrix(self, t):
        bt = self.b_t(t)
        return (self.h0.conformal_factor[..., None, None] * np.swapaxes(bt, -1, -2)) @ bt

    def e_hat_along(self, target, t):
        """Trace energy of a fixed target metric over the deformed base."""
        return trace_energy_over(self.h0.grid, self.h_t_matrix(t), target)


def second_derivative_lower_bound(a0, family: DeformationFamily, target):
    """FD second derivative of the family energy and its closed-form bound.

    Returns ``(lhs_fd, rhs)``: the central second difference (step 3e-3) at
    t = 0 of the trace energy along the family (identity-map envelope), and
    the lower bound 2 * integral of phi0 Tr(A0) dArea[h0].  The envelope property gives
    lhs_fd >= rhs up to discretization slack, strictly positive for
    nonzero B.
    """
    grid = family.h0.grid
    a0 = grid.check_field(a0, rank=2)
    lhs = central_difference(partial(family.e_hat_along, target), 0.0, 3e-3, 2)
    rhs = family.h0.integrate(2.0 * family.phi0 * trace(a0))
    return lhs, rhs


def critical_sum_check(aplus, aminus, b, h0: ConformalMetric):
    """Pairing of A+ + A- against a trace-free Codazzi direction B.

    At a critical pair of the two-metric functional this integral vanishes
    for every admissible B; the returned scalar is the defect.
    """
    grid = h0.grid
    s = grid.check_field(aplus, rank=2) + grid.check_field(aminus, rank=2)
    b = _check_tracefree_symmetric(grid.check_field(b, rank=2))
    return h0.integrate(trace(s @ b))
