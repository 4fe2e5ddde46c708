"""Differential operators of a conformal background metric.

Gradient, vector divergence, endomorphism divergence, the exterior-derivative
residual of endomorphism fields, and curvature, all on a :class:`~codazzi.grid.Grid`
carrying a conformal metric e^{2 phi} delta.

Every Christoffel symbol of e^{2 phi} delta is a signed component of
d phi: Gamma^k_ij = delta_ki phi_j + delta_kj phi_i - delta_ij phi_k.  The
operators are written in the closed forms this allows.  Each divergence
comes in two discretely independent routes: the covariant route (the
definition through an orthonormal frame) and an exterior-calculus route
(through exterior derivatives of J-twisted forms).  The two agree to
O(h^2) on smooth fields, which is the module's main self-check.
"""

import numpy as np

from .jcalc import J, _mul2, inv2, trace
from .grid import ConformalMetric

__all__ = [
    "grad",
    "div_vec",
    "div_vec_oracle",
    "div_endo",
    "div_endo_oracle",
    "dnabla_endo",
    "curvature",
    "frame_identity_residual",
    "hessian_endo",
    "general_christoffels",
    "brioschi_curvature",
    "apply_J",
    "nabla_vec_endo",
]


def apply_J(v):
    """Rotate a vector field by the complex structure: (x, y) -> (-y, x)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def grad(f, g: ConformalMetric, order=2):
    """Metric gradient of a scalar field: e^{-2 phi} (f_x, f_y)."""
    f = g.grid.check_field(f)
    out = np.empty((g.grid.ny, g.grid.nx, 2))
    w = g.inverse_factor
    out[..., 0] = w * g.grid.ddx(f, order)
    out[..., 1] = w * g.grid.ddy(f, order)
    return out


def div_vec(x, g: ConformalMetric):
    """Divergence d_i x^i + Gamma^i_ij x^j, with sum_i Gamma^i_ij = 2 phi_j."""
    x = g.grid.check_field(x, rank=1)
    px, py = g.phi_derivs
    return (
        g.grid.ddx(x[..., 0]) + g.grid.ddy(x[..., 1])
        + 2.0 * (px * x[..., 0] + py * x[..., 1])
    )


def div_vec_oracle(x, g: ConformalMetric):
    """Divergence through the exterior derivative of the J-twisted 1-form."""
    x = g.grid.check_field(x, rank=1)
    w = g.conformal_factor
    return (g.grid.ddx(w * x[..., 0]) + g.grid.ddy(w * x[..., 1])) / w


def _div_columns(c0, c1, g: ConformalMetric, order=2):
    """Divergence of the endomorphism field with columns c0 = a e_1, c1 = a e_2.

    Since sum_i Gamma^p_ii = 0 it is
    e^{-2 phi} [d_i a^k_i + (a^T d phi)_k + (a d phi)_k - phi_k Tr a].
    """
    px, py = g.phi_derivs
    skew = c0[..., 0] - c1[..., 1]  # a00 - a11
    sym = c0[..., 1] + c1[..., 0]  # a10 + a01
    out = g.grid.ddx(c0, order) + g.grid.ddy(c1, order)
    out[..., 0] += px * skew + py * sym
    out[..., 1] += px * sym - py * skew
    return g.inverse_factor[..., None] * out


def div_endo(a, g: ConformalMetric, order=2):
    """Divergence of an endomorphism field: sum_i (nabla_{e_i} a) e_i.

    ``order`` 4 takes fourth-order coordinate derivatives of ``a`` (see
    :meth:`~codazzi.grid.Grid.ddx`), for comparisons where the O(h^2)
    truncation of the standard route would dominate.
    """
    a = g.grid.check_field(a, rank=2)
    return _div_columns(a[..., :, 0], a[..., :, 1], g, order)


def _cov_deriv_vecfield(g: ConformalMetric, v):
    """Covariant derivative nv[..., i, k] = (nabla_i v)^k of a vector field.

    Gamma^k_ip v^p = delta_ik <d phi, v> + phi_i v^k - phi_k v^i.
    """
    px, py = g.phi_derivs
    nv = np.empty(v.shape[:-1] + (2, 2))
    nv[..., 0, :] = g.grid.ddx(v)
    nv[..., 1, :] = g.grid.ddy(v)
    dot = px * v[..., 0] + py * v[..., 1]
    rot = px * v[..., 1] - py * v[..., 0]
    nv[..., 0, 0] += dot
    nv[..., 1, 1] += dot
    nv[..., 0, 1] += rot
    nv[..., 1, 0] -= rot
    return nv


def nabla_vec_endo(x, g: ConformalMetric):
    """Covariant differential of a vector field as the endomorphism nabla x."""
    x = g.grid.check_field(x, rank=1)
    nv = _cov_deriv_vecfield(g, x)
    # nv[..., i, k] = (nabla_i x)^k; the endomorphism is v -> nabla_v x
    return np.swapaxes(nv, -1, -2)


def div_endo_oracle(a, g: ConformalMetric):
    """Divergence through -d^nabla(aJ)(e1, e2)."""
    a = g.grid.check_field(a, rank=2)
    aj = _mul2(a, J)
    ny_ = _cov_deriv_vecfield(g, aj[..., :, 1])[..., 0, :]  # nabla_x (aJ dy)
    nx_ = _cov_deriv_vecfield(g, aj[..., :, 0])[..., 1, :]  # nabla_y (aJ dx)
    return -g.inverse_factor[..., None] * (ny_ - nx_)


def dnabla_endo(a, g: ConformalMetric):
    """Codazzi residual (d^nabla a)(e1, e2) as a vector field.

    (nabla_x a) dy - (nabla_y a) dx on the orthonormal frame; J is
    parallel and Gamma is symmetric, so this is the divergence of aJ,
    whose columns are a e_2 and -a e_1.
    """
    a = g.grid.check_field(a, rank=2)
    return _div_columns(a[..., :, 1], -a[..., :, 0], g)


def curvature(g: ConformalMetric):
    """Scalar curvature -e^{-2 phi} Laplace(phi) of the conformal metric."""
    return -g.inverse_factor * g.grid.laplace_flat(g.phi)


def frame_identity_residual(a, g: ConformalMetric, order):
    """L-infinity residual of the four-term frame identity, off two boundary rings.

    For every endomorphism field the combination
    ``grad Tr(a) - div a - J grad Tr(aJ) + J div(aJ)`` vanishes.  The
    divergences are second-order and ``order`` is that of the gradient
    stencils.  At order 2 the central-difference discretization satisfies
    the identity algebraically, so the residual is machine zero on any
    field; at order 4 it measures genuine truncation error of the continuum
    identity and decays as O(h^2) under refinement.
    """
    a = g.grid.check_field(a, rank=2)
    aj = _mul2(a, J)
    t = (
        grad(trace(a), g, order)
        - div_endo(a, g)
        - apply_J(grad(trace(aj), g, order))
        + apply_J(div_endo(aj, g))
    )
    mask = g.grid.interior(2)
    return float(np.max(np.abs(t[mask])))


# -- general (non-conformal) metrics: independent curvature oracle ---------


def hessian_endo(f, g: ConformalMetric):
    """Covariant Hessian of a scalar as an endomorphism field.

    Computes (Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f, where
    Gamma^k_ij f_k = f_i phi_j + f_j phi_i - delta_ij <d phi, d f>, and
    raises the first index with the conformal metric, so the result is the
    operator v -> nabla_v grad f.
    """
    f = g.grid.check_field(f)
    grid = g.grid
    fx, fy = grid.ddx(f), grid.ddy(f)
    px, py = g.phi_derivs
    dot = px * fx + py * fy
    mixed = px * fy + py * fx
    hess = np.empty((grid.ny, grid.nx, 2, 2))
    hess[..., 0, 0] = grid.ddx(fx) - 2.0 * px * fx + dot
    hess[..., 0, 1] = grid.ddy(fx) - mixed
    hess[..., 1, 0] = grid.ddx(fy) - mixed
    hess[..., 1, 1] = grid.ddy(fy) - 2.0 * py * fy + dot
    return g.inverse_factor[..., None, None] * hess


def general_christoffels(grid, h):
    """Christoffel symbols Gamma[..., k, i, j] of an SPD matrix field h."""
    h = grid.check_field(h, rank=2)
    dh = np.empty(h.shape[:-2] + (2, 2, 2))
    dh[..., 0, :, :] = grid.ddx(h)
    dh[..., 1, :, :] = grid.ddy(h)
    hinv = inv2(h)
    # Gamma^k_{ij} = h^{kl} (d_i h_{jl} + d_j h_{il} - d_l h_{ij}) / 2
    sym = (
        np.einsum("...ijl->...lij", dh)
        + np.einsum("...jil->...lij", dh)
        - np.einsum("...lij->...lij", dh)
    )
    return 0.5 * np.einsum("...kl,...lij->...kij", hinv, sym)


def brioschi_curvature(grid, h):
    """Gauss curvature of a general SPD metric field by the Brioschi formula.

    Entirely independent of the conformal-metric machinery; used as the
    second route in curvature-identity cross checks.
    """
    h = grid.check_field(h, rank=2)
    E, F, G = h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]
    Eu, Ev = grid.ddx(E), grid.ddy(E)
    Fu, Fv = grid.ddx(F), grid.ddy(F)
    Gu, Gv = grid.ddx(G), grid.ddy(G)
    Evv = grid.ddy(Ev)
    Guu = grid.ddx(Gu)
    Fuv = grid.ddy(Fu)

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    m1 = [
        [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
        [Fv - 0.5 * Gu, E, F],
        [0.5 * Gv, F, G],
    ]
    m2 = [
        [np.zeros_like(E), 0.5 * Ev, 0.5 * Gu],
        [0.5 * Ev, E, F],
        [0.5 * Gu, F, G],
    ]
    return (det3(m1) - det3(m2)) / (E * G - F * F) ** 2
