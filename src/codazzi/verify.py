"""Seeded verification suites behind the command-line front end.

Each suite returns a list of check records with keys ``check``, ``lhs``,
``rhs``, ``residual``, ``order`` and ``pass``.  Grid-based checks run at the
two resolutions :data:`N1` and :data:`N2` (a few at fixed sizes of their own)
and report the observed convergence order; exact matrix checks report order
``None``.  All randomness flows through :func:`codazzi.randfields.rng_for`
seeded from the run seed plus a fixed per-check offset, so a run with a given
seed is bit-reproducible.
"""

import math

import numpy as np

from . import diagnostics, embedding, symspace, teich
from .energy import (
    curvature_identity_residual,
    energy_gradient,
    flow_derivative_fd,
    gradient_pairing4,
    modified_inequality_check,
    second_variation,
    trace_energy,
)
from .grid import ConformalMetric, Grid, poincare_disk
from .jcalc import (
    ID2,
    J,
    b_form,
    det,
    dsigma,
    inv2,
    jlin_part,
    metric_action,
    metric_to_A,
    sigma,
    spd_sqrt,
    trace,
)
from .manufactured import ManufacturedDiffeo
from .maps import FieldInterpolator, pullback_metric
from .operators import (
    brioschi_curvature,
    curvature,
    dnabla_endo,
    div_endo,
    div_endo_oracle,
    div_vec,
    div_vec_oracle,
    frame_identity_crosscheck,
    frame_identity_residual,
)
from .randfields import (
    bump,
    random_displacement,
    rng_for,
    tracefree_codazzi_conformal,
    tracefree_codazzi_flat,
    trig_endo,
    trig_scalar,
    trig_spd,
    trig_vector,
)

SUITE_NAMES = (
    "jcalc",
    "fields",
    "energy",
    "teich",
    "embed",
    "appendix",
    "diagnostics",
)

__all__ = ["SUITE_NAMES", "run_suite", "run_suites"]

# Coarse and fine resolution of the refinement checks; their tolerances are
# set for this pair.
N1 = 32
N2 = 2 * N1


def _record(name, lhs, rhs, residual, ok, order=None):
    return {
        "check": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "residual": float(residual),
        "order": None if order is None else float(order),
        "pass": bool(ok),
    }


def _equal(name, lhs, rhs, tol):
    """Record for an equality check |lhs - rhs| <= tol."""
    r = abs(lhs - rhs)
    return _record(name, lhs, rhs, r, r <= tol)


def _bound(name, lhs, rhs, slack=0.0):
    """Record for a one-sided check lhs >= rhs - slack."""
    r = max(0.0, rhs - lhs)
    return _record(name, lhs, rhs, r, lhs >= rhs - slack)


def _converging(name, r1, r2, min_ratio=3.5):
    """Record for a residual pair under 2x refinement.

    Passes when the coarse/fine ratio reaches ``min_ratio``, or when both
    residuals already sit at the round-off floor 1e-10.
    """
    if r1 <= 1e-10 and r2 <= 1e-10:
        return _record(name, r1, r2, r2, True)
    order = math.log2(r1 / r2) if r2 > 0 else float("inf")
    ok = r1 / max(r2, 1e-300) >= min_ratio
    return _record(name, r1, r2, r2, ok, order=min(order, 16.0))


# --------------------------------------------------------------------------
# jcalc: exact matrix identities on large seeded batches
# --------------------------------------------------------------------------


def suite_jcalc(seed=0):
    rng = rng_for(seed)
    a = rng.standard_normal((100_000, 2, 2))
    checks = []

    fro = np.sqrt(np.sum(jlin_part(a) ** 2, axis=(-2, -1)))
    checks.append(
        _equal("sigma_frobenius_oracle", np.max(np.abs(sigma(a) - fro)), 0.0, 1e-12)
    )

    th = rng.uniform(0.0, 2.0 * np.pi, size=a.shape[0])
    rot = np.empty_like(a)
    rot[:, 0, 0] = np.cos(th)
    rot[:, 0, 1] = -np.sin(th)
    rot[:, 1, 0] = np.sin(th)
    rot[:, 1, 1] = np.cos(th)
    rot_err = max(
        np.max(np.abs(sigma(rot @ a) - sigma(a))),
        np.max(np.abs(sigma(a @ rot) - sigma(a))),
    )
    checks.append(_equal("sigma_rotation_invariance", rot_err, 0.0, 1e-12))

    anti = a - np.swapaxes(a, -1, -2) + trace(a @ J)[..., None, None] * J
    checks.append(
        _equal("antisymmetric_part_relation", np.max(np.abs(anti)), 0.0, 1e-14)
    )

    inv_ok = np.abs(det(a)) > 0.1
    b = a[inv_ok]
    adj = J @ np.swapaxes(b, -1, -2) @ J + det(b)[..., None, None] * inv2(b)
    checks.append(_equal("adjugate_relation", np.max(np.abs(adj)), 0.0, 1e-13))

    m = rng.standard_normal((20_000, 2, 2))
    spd = np.swapaxes(m, -1, -2) @ m + 0.1 * ID2
    root = spd_sqrt(spd)
    checks.append(
        _equal("spd_sqrt_roundtrip", np.max(np.abs(root @ root - spd)), 0.0, 1e-12)
    )

    g0 = np.swapaxes(m[:64], -1, -2) @ m[:64] + 0.2 * ID2
    h0 = spd[:64]
    a0 = metric_to_A(g0, h0)
    checks.append(
        _equal(
            "metric_to_A_roundtrip",
            np.max(np.abs(metric_action(a0, g0) - h0)),
            0.0,
            1e-12,
        )
    )

    bsym = 0.5 * (m + np.swapaxes(m, -1, -2))
    eps = 1e-6
    fd = (sigma(spd + eps * bsym) - sigma(spd - eps * bsym)) / (2.0 * eps)
    checks.append(
        _equal(
            "dsigma_fd_oracle",
            np.max(np.abs(fd - dsigma(spd, bsym))),
            0.0,
            1e-8,
        )
    )

    checks.append(_equal("b_form_det", np.max(np.abs(b_form(a) + det(a))), 0.0, 1e-13))
    return checks


# --------------------------------------------------------------------------
# fields: frame identity and divergence routes on periodic charts
# --------------------------------------------------------------------------


def _periodic_setup(n, seed):
    grid = Grid(n, n, 1.0, 1.0, "periodic")
    g = ConformalMetric(grid, trig_scalar(grid, rng_for(seed + 101), amp=0.3))
    a = trig_endo(grid, rng_for(seed + 202), amp=1.0)
    x = trig_vector(grid, rng_for(seed + 303), amp=1.0)
    return grid, g, a, x


def suite_fields(seed=0):
    checks = []
    _, g1, a1, x1 = _periodic_setup(N1, seed)
    _, g2, a2, x2 = _periodic_setup(N2, seed)

    checks.append(
        _equal(
            "frame_identity_native",
            frame_identity_residual(a1, g1),
            0.0,
            1e-12,
        )
    )
    checks.append(
        _converging(
            "frame_identity_crosscheck",
            frame_identity_crosscheck(a1, g1),
            frame_identity_crosscheck(a2, g2),
        )
    )

    def route_gap(a, g):
        d = div_endo(a, g) - div_endo_oracle(a, g)
        return float(np.max(np.abs(d)))

    checks.append(
        _converging(
            "div_endo_two_routes", route_gap(a1, g1), route_gap(a2, g2), min_ratio=3.4
        )
    )

    def vec_gap(x, g):
        return float(np.max(np.abs(div_vec(x, g) - div_vec_oracle(x, g))))

    checks.append(
        _converging(
            "div_vec_two_routes", vec_gap(x1, g1), vec_gap(x2, g2), min_ratio=3.4
        )
    )

    def flat_codazzi(n):
        grid = Grid(n, n, 1.6, 1.6, "dirichlet")
        flat = ConformalMetric.flat(grid)
        af = tracefree_codazzi_flat(grid, rng_for(seed + 404))
        r = dnabla_endo(af, flat)
        return float(np.max(np.abs(r[grid.interior(3)])))

    checks.append(
        _converging(
            "codazzi_generator_flat", flat_codazzi(N1), flat_codazzi(N2), min_ratio=3.4
        )
    )

    def curvature_gap(g):
        kb = brioschi_curvature(g.grid, g.matrix())
        d = (kb - curvature(g))[g.grid.interior(3)]
        return float(np.max(np.abs(d)))

    checks.append(
        _converging(
            "curvature_two_routes",
            curvature_gap(g1),
            curvature_gap(g2),
            min_ratio=3.4,
        )
    )
    return checks


# --------------------------------------------------------------------------
# energy: gradient, second variation, curvature identity, inequality
# --------------------------------------------------------------------------


def _disk(n):
    return poincare_disk(Grid(n, n, 0.8, 0.8, "dirichlet"))


def suite_energy(seed=0):
    checks = []
    g = _disk(N2)
    grid = g.grid

    # FD directional derivative of the trace energy vs the weak gradient,
    # along seeded directions correlated with the gradient itself so the
    # pairing never degenerates through cancellation.
    cut = bump(grid) ** 2
    worst = 0.0
    for k in range(5):
        a = trig_spd(grid, rng_for(seed + 11 + k), amp=0.12, kmax=1)
        h = metric_action(a, g.matrix())
        x = cut[..., None] * energy_gradient(h, g)
        x = 0.3 * x / np.max(np.abs(x))
        fd = flow_derivative_fd(h, g, x)
        pair = gradient_pairing4(h, g, x)
        worst = max(worst, abs(fd - pair) / abs(pair))
    checks.append(_equal("gradient_fd_relative", worst, 0.0, 1e-3))

    h_conf = 2.25 * g.matrix()
    checks.append(
        _equal(
            "gradient_zero_at_conformal",
            float(np.max(np.abs(energy_gradient(h_conf, g)))),
            0.0,
            1e-10,
        )
    )

    # FD second derivative at the critical point h = c^2 g vs the form.
    x = random_displacement(grid, rng_for(seed + 31), kmax=1)
    hi = FieldInterpolator(grid, h_conf)
    eps = 1e-3

    def e_at(t):
        return trace_energy(pullback_metric(grid, hi, x, t=t), g)

    fd2 = (e_at(eps) - 2.0 * e_at(0.0) + e_at(-eps)) / eps**2
    sv = second_variation(h_conf, g, x)
    checks.append(_equal("second_variation_fd_relative", abs(fd2 - sv) / abs(sv), 0.0, 1e-2))
    sv_min = min(
        second_variation(
            h_conf, g, random_displacement(grid, rng_for(seed + 41 + k), kmax=2)
        )
        for k in range(3)
    )
    checks.append(_bound("second_variation_positive", sv_min, 0.0))

    def curv_resid(n):
        gd = _disk(n)
        a = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
        a = a + tracefree_codazzi_conformal(gd, rng_for(seed + 51), amp=0.25)
        # margin scales with n so the residual is measured over a fixed
        # physical subregion; otherwise the moving near-corner maximum
        # degrades the observed order.
        return curvature_identity_residual(a, gd, margin=max(3, n // 8))

    checks.append(
        _converging("curvature_identity", curv_resid(N1), curv_resid(N2))
    )

    gridf = Grid(N2, N2, 2.0, 2.0, "dirichlet")
    dif = ManufacturedDiffeo.seeded(gridf, seed + 11, amp=0.01)
    xx, yy = gridf.meshgrid()
    jac = dif.jacobian(xx, yy)
    hflat = np.swapaxes(jac, -1, -2) @ jac
    kflat = brioschi_curvature(gridf, hflat)
    checks.append(
        _equal(
            "flat_pullback_curvature",
            float(np.max(np.abs(kflat[gridf.interior(3)]))),
            0.0,
            1e-3,
        )
    )

    g32 = _disk(N1)
    cut = bump(g32.grid)
    margin = np.inf
    for k in range(50):
        e = trig_endo(g32.grid, rng_for(seed + 500 + k), amp=0.2)
        e = 0.5 * (e + np.swapaxes(e, -1, -2))
        a = np.broadcast_to(ID2, e.shape).copy() + cut[..., None, None] * e
        h = metric_action(a, g32.matrix())
        lhs, rhs = modified_inequality_check(h, g32)
        tol = 1e-8 + 1e-2 * abs(rhs)
        margin = min(margin, lhs - rhs + tol)
    checks.append(_bound("modified_inequality_50_seeds", margin, 0.0))
    return checks


# --------------------------------------------------------------------------
# teich: deformation families of the relative energy
# --------------------------------------------------------------------------


def suite_teich(seed=0):
    checks = []
    h0 = _disk(N2)
    grid = h0.grid
    b = tracefree_codazzi_conformal(h0, rng_for(seed + 3), amp=0.25)
    fam = teich.DeformationFamily.build(b, h0)
    checks.append(_bound("phi0_nonnegative", float(fam.phi0.min()), 0.0, 1e-10))

    # Plateau value of phi0 for a constant trace-free direction on a large
    # flat chart: s^2/2 at the center, up to domain-size decay.
    gbig = Grid(96, 96, 12.0, 12.0, "dirichlet")
    flat = ConformalMetric.flat(gbig)
    s = 0.7
    bc = np.zeros((96, 96, 2, 2))
    bc[..., 0, 0] = s
    bc[..., 1, 1] = -s
    phi0 = teich.phi0_solve(bc, flat)
    checks.append(
        _equal("phi0_plateau", float(phi0[48, 48]), 0.5 * s * s, 2e-3)
    )

    c = 1.4
    a0 = np.broadcast_to(c * ID2, (grid.ny, grid.nx, 2, 2)).copy()
    target = c * c * h0.matrix()
    eps = 1e-4
    fd1 = (fam.e_hat_along(target, eps) - fam.e_hat_along(target, -eps)) / (2 * eps)
    cf1 = teich.e_hat_first_derivative(a0, b, h0)
    denom = max(1.0, abs(cf1))
    checks.append(_equal("first_derivative_fd", abs(fd1 - cf1) / denom, 0.0, 1e-2))

    t = 0.3
    fdt = (fam.e_hat_along(target, t + eps) - fam.e_hat_along(target, t - eps)) / (
        2 * eps
    )
    bt = fam.b_t(t)
    ht = fam.h_t_matrix(t)
    at = spd_sqrt(inv2(ht) @ target)
    bdot = 2.0 * t * fam.phi0[..., None, None] * ID2 + b
    aw = np.sqrt(det(ht)) * grid.cell_weights()
    cft = teich.first_derivative_general(at, bt, bdot, aw)
    checks.append(
        _equal("first_derivative_general", abs(fdt - cft) / max(1.0, abs(cft)), 0.0, 1e-2)
    )

    lhs, rhs = teich.second_derivative_lower_bound(a0, fam, target)
    slack = 1e-8 + 1e-2 * abs(rhs)
    checks.append(_bound("second_derivative_lower_bound", lhs, rhs, slack))
    checks.append(_bound("second_derivative_rhs_positive", rhs, 0.0))

    checks.append(
        _equal(
            "critical_sum_tracefree",
            teich.critical_sum_check(a0, a0, b, h0),
            0.0,
            1e-10,
        )
    )
    checks.append(
        _equal(
            "e_hat_conformal_value",
            trace_energy(target, h0),
            2.0 * c * h0.area(),
            1e-10,
        )
    )
    return checks


# --------------------------------------------------------------------------
# embed: Minkowski immersions from Codazzi generators
# --------------------------------------------------------------------------


def _patch(n):
    return embedding.HyperboloidPatch(Grid(n, n, 0.8, 0.8, "dirichlet"))


def _hessian_pair(patch):
    xx, yy = patch.grid.meshgrid()
    f = 2.0 + 0.3 * np.cos(3.0 * xx) * np.sin(2.0 * yy) + 0.2 * xx * yy
    return f, 0.5 * embedding.codazzi_generator(f, patch)


def suite_embed(seed=0):
    checks = []
    p = _patch(N2)
    iota = p.nodes()
    idf = np.broadcast_to(ID2, iota.shape[:2] + (2, 2)).copy()
    x_id = embedding.integrate_immersion(idf, p, iota[p.base_index], sign=1)
    checks.append(
        _equal(
            "identity_reproduces_hyperboloid",
            float(np.max(np.abs(x_id - iota))),
            0.0,
            1e-10,
        )
    )
    checks.append(
        _equal(
            "support_of_hyperboloid",
            float(np.max(np.abs(embedding.support_function(iota, p) + 1.0))),
            0.0,
            1e-10,
        )
    )

    def defects(n):
        q = _patch(n)
        _, a = _hessian_pair(q)
        pd = embedding.plaquette_defect(2.0 * a, q)
        xq = embedding.integrate_immersion(
            2.0 * a, q, q.nodes()[q.base_index], codazzi_tol=None
        )
        ime = embedding.induced_metric_error(xq, 2.0 * a, q)
        return pd, ime

    pd1, ime1 = defects(N1)
    pd2, ime2 = defects(N2)
    checks.append(_converging("plaquette_defect", pd1, pd2))
    checks.append(_converging("induced_metric_error", ime1, ime2))

    def support_sum(n):
        q = _patch(n)
        f, _ = _hessian_pair(q)
        _, _, pp, pm = embedding.support_pair(f, q, codazzi_tol=None)
        return float(np.max(np.abs(pp + pm - f)))

    checks.append(_converging("support_sum_equals_f", support_sum(N1), support_sum(N2)))

    po = _patch(65)
    ido = np.broadcast_to(ID2, (65, 65, 2, 2)).copy()
    xo = embedding.integrate_immersion(ido, po, po.nodes()[po.base_index], sign=1)
    _, res_boost = embedding.equivariance_residual(
        xo, embedding.Isometry21.boost(0.1), ido, po
    )
    checks.append(_equal("equivariance_hyperboloid_boost", res_boost, 0.0, 1e-6))

    def rot_resid(n):
        q = _patch(n)
        xx, yy = q.grid.meshgrid()
        r2 = xx**2 + yy**2
        f = 2.0 + 0.5 * r2 + 0.3 * r2**2
        a = 0.5 * embedding.codazzi_generator(f, q)
        xq = embedding.integrate_immersion(
            a, q, q.nodes()[q.base_index], codazzi_tol=None
        )
        _, r = embedding.equivariance_residual(
            xq, embedding.Isometry21.rotation(0.4), a, q
        )
        return r

    checks.append(
        _converging(
            "equivariance_rotation_invariant", rot_resid(65), rot_resid(129), min_ratio=3.0
        )
    )

    spacelike, definite, side = embedding.convexity_check(x_id, p)
    checks.append(
        _record(
            "convexity_of_hyperboloid",
            float(spacelike and definite and side == "future"),
            1.0,
            0.0 if (spacelike and definite and side == "future") else 1.0,
            spacelike and definite and side == "future",
        )
    )

    g1 = embedding.Isometry21.boost(0.3, 0.7, translation=np.array([0.1, -0.2, 0.05]))
    g2 = embedding.Isometry21.rotation(1.1, translation=np.array([0.0, 0.3, 0.1]))
    g3 = embedding.Isometry21.boost(-0.2, 2.0, translation=np.array([0.2, 0.0, 0.0]))
    assoc = max(
        float(
            np.max(
                np.abs(
                    g1.compose(g2).compose(g3).linear
                    - g1.compose(g2.compose(g3)).linear
                )
            )
        ),
        float(
            np.max(
                np.abs(
                    g1.compose(g2).compose(g3).translation
                    - g1.compose(g2.compose(g3)).translation
                )
            )
        ),
    )
    gi = g1.compose(g1.inverse())
    inv_err = max(
        float(np.max(np.abs(gi.linear - np.eye(3)))),
        float(np.max(np.abs(gi.translation))),
    )
    checks.append(_equal("isometry_group_algebra", max(assoc, inv_err), 0.0, 1e-12))
    return checks


# --------------------------------------------------------------------------
# appendix: symmetric-space geometry of the two-plane metric cone
# --------------------------------------------------------------------------


def suite_appendix(seed=0):
    rng = rng_for(seed + 7)
    checks = []

    comp_err = 0.0
    for _ in range(200):
        pval = rng.uniform(-0.5, 1.0)
        qmax = 0.95 * (pval + 1.0)
        q = rng.uniform(-qmax, qmax) / np.sqrt(2.0) + 1j * rng.uniform(-qmax, qmax) / np.sqrt(2.0)
        point = symspace.BeltramiPoint(pval, q)
        if not point.in_domain():
            continue
        m = rng.standard_normal((2, 2))
        g0 = m.T @ m + 0.2 * ID2
        lhs = symspace.psi_tilde(point, g0)
        mat = ID2 + symspace.beltrami_matrix(point)
        comp_err = max(comp_err, float(np.max(np.abs(lhs - mat.T @ g0 @ mat))))
    checks.append(_equal("beltrami_chart_composition", comp_err, 0.0, 1e-14))

    geo_err = 0.0
    for _ in range(20):
        m = rng.standard_normal((2, 2))
        a = 0.4 * (m + m.T) / 2.0
        for t in (0.0, 0.2, -0.15):
            geo_err = max(geo_err, symspace.geodesic_residual(a, t))
    checks.append(_equal("geodesic_ode_residual", geo_err, 0.0, 1e-6))

    conj_err = 0.0
    for _ in range(500):
        bmat = rng.standard_normal((2, 2))
        gmat = rng.standard_normal((2, 2)) + 2.0 * ID2
        if abs(float(det(gmat))) < 0.1:
            continue
        conj = gmat @ bmat @ inv2(gmat)
        conj_err = max(conj_err, abs(float(b_form(conj) - b_form(bmat))))
    checks.append(_equal("b_form_conjugation_invariance", conj_err, 0.0, 1e-12))

    inside = symspace.BeltramiPoint(0.2, 0.3 + 0.4j)
    boundary = symspace.BeltramiPoint(0.0, 0.6 + 0.8j)
    dom_ok = inside.in_domain() and not boundary.in_domain()
    id_err = 0.0
    for _ in range(200):
        pval = rng.uniform(-2.0, 2.0)
        q = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        mat = ID2 + symspace.beltrami_matrix(symspace.BeltramiPoint(pval, q))
        id_err = max(
            id_err,
            abs(float(trace(mat)) - 2.0 * (pval + 1.0)),
            abs(float(det(mat)) - ((pval + 1.0) ** 2 - abs(q) ** 2)),
        )
    checks.append(
        _record(
            "domain_trace_det_identities",
            float(dom_ok),
            1.0,
            id_err,
            dom_ok and id_err <= 1e-13,
        )
    )

    m = rng.standard_normal((2, 2))
    a = 0.3 * (m + m.T)
    exp_err = 0.0
    for t in (0.1, 0.35, -0.2):
        exp_err = max(
            exp_err,
            float(np.max(np.abs(symspace.geodesic(a, t) - symspace.exp_map(t * a, ID2)))),
        )
    checks.append(_equal("exp_map_matches_geodesic", exp_err, 0.0, 1e-14))

    qm_err = 0.0
    for _ in range(100):
        bmat = rng.standard_normal((2, 2))
        qm_err = max(
            qm_err,
            abs(
                symspace.quotient_metric(ID2, bmat, alpha=0.0)
                - 0.25 * float(b_form(bmat))
            ),
        )
    checks.append(_equal("quotient_metric_normalization", qm_err, 0.0, 1e-14))
    return checks


# --------------------------------------------------------------------------
# diagnostics: monitors and scalar formulas
# --------------------------------------------------------------------------


def suite_diagnostics(seed=0):
    checks = []
    g = _disk(N2)
    a_spd = trig_spd(g.grid, rng_for(seed + 13), amp=0.2)
    jh = diagnostics.intermediate_J(a_spd)
    checks.append(
        _equal(
            "intermediate_J_squares_to_minus_id",
            float(np.max(np.abs(jh @ jh + ID2))),
            0.0,
            1e-12,
        )
    )

    def alpha_resid(n):
        gd = _disk(n)
        a = np.broadcast_to(1.4 * ID2, (n, n, 2, 2)).copy()
        a = a + tracefree_codazzi_conformal(gd, rng_for(seed + 23), amp=0.25)
        return diagnostics.alpha_harmonic_residual(a, gd)

    checks.append(_converging("alpha_harmonic_codazzi", alpha_resid(N1), alpha_resid(N2)))

    def control_resid(n):
        grid = Grid(n, n, 1.0, 1.0, "dirichlet")
        xx, _ = grid.meshgrid()
        a = np.broadcast_to(ID2, (n, n, 2, 2)).copy()
        a[..., 1, 1] = 1.0 + 0.5 * xx
        return diagnostics.alpha_harmonic_residual(a, ConformalMetric.flat(grid))

    ctrl = min(control_resid(N1), control_resid(N2))
    checks.append(_bound("alpha_harmonic_negative_control", ctrl, 0.1))

    def curl_resid(n):
        gd = _disk(n)
        return diagnostics.alpha_curl(trig_spd(gd.grid, rng_for(seed + 33), amp=0.2), gd.grid)

    checks.append(_converging("alpha_curl_exactness", curl_resid(N1), curl_resid(N2), min_ratio=3.0))

    lhs, rhs = diagnostics.energy_identity_check(a_spd, g)
    checks.append(_equal("energy_identity_relative", abs(lhs - rhs) / abs(rhs), 0.0, 1e-10))

    e_base = diagnostics.map_energy(g, g.matrix())
    g_scaled = ConformalMetric(g.grid, g.phi + 0.37)
    e_scaled = diagnostics.map_energy(g_scaled, g.matrix())
    checks.append(
        _equal("map_energy_conformal_invariance", abs(e_base - e_scaled) / e_base, 0.0, 1e-12)
    )

    col = diagnostics.collar_and_modulus(2.0 * math.pi, 0.5, 2)
    checks.append(_equal("mod_upper_hand_value", col["mod_upper"], 2.0, 1e-12))
    sys0 = 2.0 * math.asinh(1.0)
    col2 = diagnostics.collar_and_modulus(sys0, 0.25, 3)
    checks.append(_equal("l2max_hand_value", col2["l2max"], math.log(1.0 + math.sqrt(2.0)), 1e-12))
    checks.append(
        _record(
            "modulus_lower_degeneration",
            1.0 if math.isinf(diagnostics.modulus_lower_via_flat(0.0, 1.0)) else 0.0,
            1.0,
            0.0,
            math.isinf(diagnostics.modulus_lower_via_flat(0.0, 1.0)),
        )
    )
    imb = diagnostics.intermediate_modulus_bounds(1.0)
    checks.append(_equal("intermediate_modulus_at_one", imb["formula"], 2.0 * math.pi, 1e-12))
    return checks


_SUITE_FUNCS = {
    "jcalc": suite_jcalc,
    "fields": suite_fields,
    "energy": suite_energy,
    "teich": suite_teich,
    "embed": suite_embed,
    "appendix": suite_appendix,
    "diagnostics": suite_diagnostics,
}


def run_suite(name, seed=0):
    """Run one named suite; returns its list of check records."""
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite '{name}'")
    return _SUITE_FUNCS[name](seed=seed)


def run_suites(names, seed=0):
    """Run several suites; returns a report dict with an overall flag."""
    suites = []
    all_pass = True
    for name in names:
        checks = run_suite(name, seed=seed)
        ok = all(c["pass"] for c in checks)
        all_pass = all_pass and ok
        suites.append({"suite": name, "passed": ok, "checks": checks})
    return {"seed": int(seed), "resolutions": [N1, N2], "passed": all_pass, "suites": suites}
