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
from functools import partial

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
from .grid import ConformalMetric, Grid, central_difference, poincare_disk
from .jcalc import (
    ID2,
    J,
    _mul2,
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


def _maxabs(*arrays):
    """Largest |entry| over all the arrays or numbers; a NaN in any of them comes through.

    A builtin ``max`` would drop a NaN that follows a number, because every
    comparison with NaN is false.
    """
    return float(np.max([np.max(np.abs(a), initial=0.0) for a in arrays]))


def _equal(name, lhs, rhs, tol):
    """Record for an equality check |lhs - rhs| <= tol."""
    r = abs(lhs - rhs)
    return _record(name, lhs, rhs, r, r <= tol)


def _vanishes(name, tol, *arrays):
    """Record for the check that every entry of the arrays is at most ``tol`` in size."""
    return _equal(name, _maxabs(*arrays), 0.0, tol)


def _bound(name, lhs, rhs, slack=0.0):
    """Record for a one-sided check lhs >= rhs - slack; a NaN shortfall stays NaN."""
    r = rhs - lhs
    return _record(name, lhs, rhs, 0.0 if r <= 0.0 else r, lhs >= rhs - slack)


def _converging(name, r1, r2, min_ratio=3.5):
    """Record for a residual pair under 2x refinement.

    Passes when the coarse/fine ratio reaches ``min_ratio``, or when both
    residuals already sit at the round-off floor 1e-10.  A NaN residual
    fails and reads as a NaN order; a zero coarse residual reads as -inf.
    """
    if r1 <= 1e-10 and r2 <= 1e-10:
        return _record(name, r1, r2, r2, True)
    ratio = r1 / r2 if r2 != 0 else r1 * math.inf  # NaN * inf is NaN
    order = math.log2(ratio) if ratio != 0 else -math.inf
    ok = r1 / np.maximum(r2, 1e-300) >= min_ratio
    return _record(name, r1, r2, r2, ok, order=np.minimum(order, 16.0))


# --------------------------------------------------------------------------
# jcalc: exact matrix identities on large seeded batches
# --------------------------------------------------------------------------


# Rows per block of suite_jcalc's batched identities, so that no identity
# holds a 100,000-matrix temporary.
_JCALC_BLOCK = 10_000


def _vanishes_by_block(name, tol, residuals, *arrays):
    """Record of :func:`_vanishes` over ``residuals(*rows)``, taken on blocks of rows.

    ``residuals`` returns a tuple of arrays for :data:`_JCALC_BLOCK` rows of
    each of ``arrays``.  Only each block's largest |entry| is kept, and
    :func:`_maxabs` combines them, so a NaN in any block comes through.
    """
    return _vanishes(name, tol, *(
        _maxabs(*residuals(*(x[i:i + _JCALC_BLOCK] for x in arrays)))
        for i in range(0, len(arrays[0]), _JCALC_BLOCK)
    ))


def suite_jcalc(seed):
    rng = rng_for(seed)
    a = rng.standard_normal((100_000, 2, 2))
    th = rng.uniform(0.0, 2.0 * np.pi, size=a.shape[0])
    m = rng.standard_normal((20_000, 2, 2))

    def spd_of(m):
        return np.swapaxes(m, -1, -2) @ m + 0.1 * ID2

    def frobenius(a):
        return (sigma(a) - np.sqrt(np.sum(jlin_part(a) ** 2, axis=(-2, -1))),)

    def rotation(a, th):
        cos, sin = np.cos(th), np.sin(th)
        rot = np.empty_like(a)
        rot[:, 0, 0] = cos
        rot[:, 0, 1] = -sin
        rot[:, 1, 0] = sin
        rot[:, 1, 1] = cos
        sig = sigma(a)
        return sigma(rot @ a) - sig, sigma(a @ rot) - sig

    def antisymmetric(a):
        return (a - np.swapaxes(a, -1, -2) + trace(_mul2(a, J))[..., None, None] * J,)

    def adjugate(a):
        b = a[np.abs(det(a)) > 0.1]
        return (_mul2(_mul2(J, np.swapaxes(b, -1, -2)), J) + det(b)[..., None, None] * inv2(b),)

    def sqrt_roundtrip(m):
        spd = spd_of(m)
        root = spd_sqrt(spd)
        return (root @ root - spd,)

    def dsigma_fd(m):
        spd = spd_of(m)
        bsym = 0.5 * (m + np.swapaxes(m, -1, -2))
        fd = central_difference(lambda t: sigma(spd + t * bsym), 0.0, 1e-6, 1)
        return (fd - dsigma(spd, bsym),)

    g0 = np.swapaxes(m[:64], -1, -2) @ m[:64] + 0.2 * ID2
    h0 = spd_of(m[:64])
    a0 = metric_to_A(g0, h0)
    return [
        _vanishes_by_block("sigma_frobenius_oracle", 1e-12, frobenius, a),
        _vanishes_by_block("sigma_rotation_invariance", 1e-12, rotation, a, th),
        _vanishes_by_block("antisymmetric_part_relation", 1e-14, antisymmetric, a),
        _vanishes_by_block("adjugate_relation", 1e-13, adjugate, a),
        _vanishes_by_block("spd_sqrt_roundtrip", 1e-12, sqrt_roundtrip, m),
        _vanishes("metric_to_A_roundtrip", 1e-12, metric_action(a0, g0) - h0),
        _vanishes_by_block("dsigma_fd_oracle", 1e-8, dsigma_fd, m),
        _vanishes_by_block("b_form_det", 1e-13, lambda a: (b_form(a) + det(a),), a),
    ]


# --------------------------------------------------------------------------
# fields: frame identity and divergence routes on periodic charts
# --------------------------------------------------------------------------


def _periodic_setup(n, seed):
    grid = Grid(n, n, 1.0, 1.0, "periodic")
    g = ConformalMetric(grid, trig_scalar(grid, rng_for(seed + 101), amp=0.3))
    a = trig_endo(grid, rng_for(seed + 202), amp=1.0)
    x = trig_vector(grid, rng_for(seed + 303), amp=1.0)
    return grid, g, a, x


def suite_fields(seed):
    checks = []
    _, g1, a1, x1 = _periodic_setup(N1, seed)
    _, g2, a2, x2 = _periodic_setup(N2, seed)

    checks.append(_vanishes("frame_identity_native", 1e-12, frame_identity_residual(a1, g1, 2)))
    checks.append(
        _converging(
            "frame_identity_crosscheck",
            frame_identity_residual(a1, g1, 4),
            frame_identity_residual(a2, g2, 4),
        )
    )

    def route_gap(a, g):
        return _maxabs(div_endo(a, g) - div_endo_oracle(a, g))

    checks.append(
        _converging(
            "div_endo_two_routes", route_gap(a1, g1), route_gap(a2, g2), min_ratio=3.4
        )
    )

    def vec_gap(x, g):
        return _maxabs(div_vec(x, g) - div_vec_oracle(x, g))

    checks.append(
        _converging(
            "div_vec_two_routes", vec_gap(x1, g1), vec_gap(x2, g2), min_ratio=3.4
        )
    )

    def flat_codazzi(n):
        grid = Grid(n, n, 1.6, 1.6, "dirichlet")
        flat = ConformalMetric.flat(grid)
        af = tracefree_codazzi_flat(grid, rng_for(seed + 404))
        return _maxabs(dnabla_endo(af, flat)[grid.interior(3)])

    checks.append(
        _converging(
            "codazzi_generator_flat", flat_codazzi(N1), flat_codazzi(N2), min_ratio=3.4
        )
    )

    def curvature_gap(g):
        kb = brioschi_curvature(g.grid, g.matrix)
        return _maxabs((kb - curvature(g))[g.grid.interior(3)])

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


def _codazzi_on_disk(n, rng):
    """1.4 Id plus a seeded trace-free Codazzi field on the n-by-n disk, and the disk."""
    gd = _disk(n)
    return 1.4 * ID2 + tracefree_codazzi_conformal(gd, rng, amp=0.25), gd


def suite_energy(seed):
    checks = []
    g = _disk(N2)
    grid = g.grid

    # FD directional derivative of the trace energy vs the weak gradient,
    # along seeded directions correlated with the gradient itself so the
    # pairing never degenerates through cancellation.
    cut = bump(grid) ** 2
    gaps = []
    for k in range(5):
        a = trig_spd(grid, rng_for(seed + 11 + k), amp=0.12, kmax=1)
        h = metric_action(a, g.matrix)
        x = cut[..., None] * energy_gradient(h, g)
        x = 0.3 * x / np.max(np.abs(x))
        fd = flow_derivative_fd(h, g, x)
        pair = gradient_pairing4(h, g, x)
        gaps.append(abs(fd - pair) / abs(pair))
    checks.append(_vanishes("gradient_fd_relative", 1e-3, *gaps))

    h_conf = 2.25 * g.matrix
    checks.append(_vanishes("gradient_zero_at_conformal", 1e-10, energy_gradient(h_conf, g)))

    # FD second derivative at the critical point h = c^2 g vs the form.
    x = random_displacement(grid, rng_for(seed + 31), kmax=1)
    hi = FieldInterpolator(grid, h_conf)

    def e_at(t):
        return trace_energy(pullback_metric(grid, hi, x, t=t), g)

    fd2 = central_difference(e_at, 0.0, 1e-3, 2)
    sv = second_variation(h_conf, g, x)
    checks.append(_equal("second_variation_fd_relative", abs(fd2 - sv) / abs(sv), 0.0, 1e-2))
    svs = [
        second_variation(h_conf, g, random_displacement(grid, rng_for(seed + 41 + k), kmax=2))
        for k in range(3)
    ]
    checks.append(_bound("second_variation_positive", float(np.min(svs)), 0.0))

    def curv_resid(n):
        a, gd = _codazzi_on_disk(n, rng_for(seed + 51))
        # margin scales with n so the residual is measured over a fixed
        # physical subregion; otherwise the moving near-corner maximum
        # degrades the observed order.
        return curvature_identity_residual(a, gd, margin=max(3, n // 8))

    checks.append(
        _converging("curvature_identity", curv_resid(N1), curv_resid(N2))
    )

    gridf = Grid(N2, N2, 2.0, 2.0, "dirichlet")
    dif = ManufacturedDiffeo.seeded(gridf, seed + 11, amp=0.01)
    xx, yy = gridf.meshgrid
    jac = dif.jacobian(xx, yy)
    hflat = np.swapaxes(jac, -1, -2) @ jac
    kflat = brioschi_curvature(gridf, hflat)
    checks.append(_vanishes("flat_pullback_curvature", 1e-3, kflat[gridf.interior(3)]))

    g32 = _disk(N1)
    cut = bump(g32.grid)
    margins = []
    for k in range(50):
        e = trig_endo(g32.grid, rng_for(seed + 500 + k), amp=0.2)
        e = 0.5 * (e + np.swapaxes(e, -1, -2))
        a = np.broadcast_to(ID2, e.shape).copy() + cut[..., None, None] * e
        h = metric_action(a, g32.matrix)
        lhs, rhs = modified_inequality_check(h, g32)
        tol = 1e-8 + 1e-2 * abs(rhs)
        margins.append(lhs - rhs + tol)
    checks.append(_bound("modified_inequality_50_seeds", float(np.min(margins)), 0.0))
    return checks


# --------------------------------------------------------------------------
# teich: deformation families of the relative energy
# --------------------------------------------------------------------------


def suite_teich(seed):
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
    target = c * c * h0.matrix
    e_hat = partial(fam.e_hat_along, target)
    fd1 = central_difference(e_hat, 0.0, 1e-4, 1)
    cf1 = teich.e_hat_first_derivative(a0, b, h0)
    denom = max(1.0, abs(cf1))
    checks.append(_equal("first_derivative_fd", abs(fd1 - cf1) / denom, 0.0, 1e-2))

    t = 0.3
    fdt = central_difference(e_hat, t, 1e-4, 1)
    bt = fam.b_t(t)
    ht = fam.h_t_matrix(t)
    at = spd_sqrt(inv2(ht) @ target)
    bdot = 2.0 * t * fam.phi0[..., None, None] * ID2 + b
    aw = np.sqrt(det(ht)) * grid.cell_weights
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
    xx, yy = patch.grid.meshgrid
    f = 2.0 + 0.3 * np.cos(3.0 * xx) * np.sin(2.0 * yy) + 0.2 * xx * yy
    return f, 0.5 * embedding.codazzi_generator(f, patch)


def suite_embed(seed):
    checks = []
    p = _patch(N2)
    iota = p.nodes
    idf = np.broadcast_to(ID2, iota.shape[:2] + (2, 2)).copy()
    x_id = embedding.integrate_immersion(embedding.edge_segments(idf, p), p, iota[p.base_index])
    checks.append(_vanishes("identity_reproduces_hyperboloid", 1e-10, x_id - iota))
    checks.append(
        _vanishes("support_of_hyperboloid", 1e-10, embedding.support_function(iota, p) + 1.0)
    )

    def defects(n):
        q = _patch(n)
        _, a = _hessian_pair(q)
        segments = embedding.edge_segments(2.0 * a, q)
        xq = embedding.integrate_immersion(segments, q, q.nodes[q.base_index])
        return embedding.plaquette_defect(segments), embedding.induced_metric_error(xq, 2.0 * a, q)

    pd1, ime1 = defects(N1)
    pd2, ime2 = defects(N2)
    checks.append(_converging("plaquette_defect", pd1, pd2))
    checks.append(_converging("induced_metric_error", ime1, ime2))

    def support_sum(n):
        q = _patch(n)
        f, _ = _hessian_pair(q)
        _, _, pp, pm = embedding.support_pair(f, q)
        return _maxabs(pp + pm - f)

    checks.append(_converging("support_sum_equals_f", support_sum(N1), support_sum(N2)))

    po = _patch(65)
    ido = np.broadcast_to(ID2, (65, 65, 2, 2)).copy()
    seg_o = embedding.edge_segments(ido, po)
    xo = embedding.integrate_immersion(seg_o, po, po.nodes[po.base_index])
    _, res_boost = embedding.equivariance_residual(
        xo, embedding.Isometry21.boost(0.1), ido, po
    )
    checks.append(_equal("equivariance_hyperboloid_boost", res_boost, 0.0, 1e-6))

    def rot_resid(n):
        q = _patch(n)
        xx, yy = q.grid.meshgrid
        r2 = xx**2 + yy**2
        f = 2.0 + 0.5 * r2 + 0.3 * r2**2
        a = 0.5 * embedding.codazzi_generator(f, q)
        xq = embedding.integrate_immersion(embedding.edge_segments(a, q), q, q.nodes[q.base_index])
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
    convex = spacelike and definite and side == "future"
    checks.append(_equal("convexity_of_hyperboloid", float(convex), 1.0, 0.0))

    g1 = embedding.Isometry21.boost(0.3, 0.7, translation=np.array([0.1, -0.2, 0.05]))
    g2 = embedding.Isometry21.rotation(1.1, translation=np.array([0.0, 0.3, 0.1]))
    g3 = embedding.Isometry21.boost(-0.2, 2.0, translation=np.array([0.2, 0.0, 0.0]))
    left, right = g1.compose(g2).compose(g3), g1.compose(g2.compose(g3))
    gi = g1.compose(g1.inverse())
    checks.append(_vanishes(
        "isometry_group_algebra", 1e-12, left.linear - right.linear,
        left.translation - right.translation, gi.linear - np.eye(3), gi.translation,
    ))
    return checks


# --------------------------------------------------------------------------
# appendix: symmetric-space geometry of the two-plane metric cone
# --------------------------------------------------------------------------


def suite_appendix(seed):
    # each check runs on one stack of draws; a stacked draw fills in C order,
    # so the generator is read as by draws of one matrix at a time
    rng = rng_for(seed + 7)
    checks = []

    # each point's uniform draws are followed by its normal draw of m from the
    # same stream, so the points are drawn one at a time; |q| <= 0.95 (p + 1)
    # puts every point inside the domain, which psi_tilde still checks
    ps, qs, ms = [], [], []
    for _ in range(200):
        pval = rng.uniform(-0.5, 1.0)
        qmax = 0.95 * (pval + 1.0)
        q = rng.uniform(-qmax, qmax) / np.sqrt(2.0) + 1j * rng.uniform(-qmax, qmax) / np.sqrt(2.0)
        ps.append(pval)
        qs.append(q)
        ms.append(rng.standard_normal((2, 2)))
    points = symspace.BeltramiPoint(np.array(ps), np.array(qs))
    m = np.array(ms)
    g0 = np.swapaxes(m, -1, -2) @ m + 0.2 * ID2
    lhs = symspace.psi_tilde(points, g0)
    mat = ID2 + symspace.beltrami_matrix(points)
    checks.append(_vanishes(
        "beltrami_chart_composition", 1e-14, lhs - np.swapaxes(mat, -1, -2) @ g0 @ mat
    ))

    m = rng.standard_normal((20, 2, 2))
    a = 0.4 * (m + np.swapaxes(m, -1, -2)) / 2.0
    geo = [symspace.geodesic_residual(a, t) for t in (0.0, 0.2, -0.15)]
    checks.append(_vanishes("geodesic_ode_residual", 1e-6, *geo))

    pairs = rng.standard_normal((500, 2, 2, 2))
    bmat, gmat = pairs[:, 0], pairs[:, 1] + 2.0 * ID2
    keep = np.abs(det(gmat)) >= 0.1
    bmat, gmat = bmat[keep], gmat[keep]
    conj = gmat @ bmat @ inv2(gmat)
    checks.append(_vanishes("b_form_conjugation_invariance", 1e-12, b_form(conj) - b_form(bmat)))

    inside = symspace.BeltramiPoint(0.2, 0.3 + 0.4j)
    boundary = symspace.BeltramiPoint(0.0, 0.6 + 0.8j)
    dom_ok = bool(inside.in_domain() and not boundary.in_domain())
    draws = rng.uniform(-2.0, 2.0, (200, 3))
    pval, q = draws[:, 0], draws[:, 1] + 1j * draws[:, 2]
    mat = ID2 + symspace.beltrami_matrix(symspace.BeltramiPoint(pval, q))
    # |Q| and the squares as BeltramiPoint.in_domain takes them
    dq = np.float_power(pval + 1.0, 2) - np.float_power(np.hypot(q.real, q.imag), 2)
    id_err = _maxabs(trace(mat) - 2.0 * (pval + 1.0), det(mat) - dq)
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
    checks.append(_vanishes("exp_map_matches_geodesic", 1e-14, *(
        symspace.geodesic(a, t) - symspace.exp_map(t * a, ID2) for t in (0.1, 0.35, -0.2)
    )))

    bmat = rng.standard_normal((100, 2, 2))
    checks.append(_vanishes(
        "quotient_metric_normalization", 1e-14,
        symspace.quotient_metric(ID2, bmat) - 0.25 * b_form(bmat),
    ))
    return checks


# --------------------------------------------------------------------------
# diagnostics: monitors and scalar formulas
# --------------------------------------------------------------------------


def suite_diagnostics(seed):
    checks = []
    g = _disk(N2)
    a_spd = trig_spd(g.grid, rng_for(seed + 13), amp=0.2)
    jh = diagnostics.intermediate_J(a_spd)
    checks.append(_vanishes("intermediate_J_squares_to_minus_id", 1e-12, jh @ jh + ID2))

    def alpha_resid(n):
        return diagnostics.alpha_harmonic_residual(*_codazzi_on_disk(n, rng_for(seed + 23)))

    checks.append(_converging("alpha_harmonic_codazzi", alpha_resid(N1), alpha_resid(N2)))

    def control_resid(n):
        grid = Grid(n, n, 1.0, 1.0, "dirichlet")
        xx, _ = grid.meshgrid
        a = np.broadcast_to(ID2, (n, n, 2, 2)).copy()
        a[..., 1, 1] = 1.0 + 0.5 * xx
        return diagnostics.alpha_harmonic_residual(a, ConformalMetric.flat(grid))

    ctrl = float(np.min([control_resid(N1), control_resid(N2)]))
    checks.append(_bound("alpha_harmonic_negative_control", ctrl, 0.1))

    def curl_resid(n):
        gd = _disk(n)
        return diagnostics.alpha_curl(trig_spd(gd.grid, rng_for(seed + 33), amp=0.2), gd.grid)

    checks.append(_converging("alpha_curl_exactness", curl_resid(N1), curl_resid(N2), min_ratio=3.0))

    lhs, rhs = diagnostics.energy_identity_check(a_spd, g)
    checks.append(_equal("energy_identity_relative", abs(lhs - rhs) / abs(rhs), 0.0, 1e-10))

    e_base = diagnostics.map_energy(g, g.matrix)
    g_scaled = ConformalMetric(g.grid, g.phi + 0.37)
    e_scaled = diagnostics.map_energy(g_scaled, g.matrix)
    checks.append(
        _equal("map_energy_conformal_invariance", abs(e_base - e_scaled) / e_base, 0.0, 1e-12)
    )

    col = diagnostics.collar_and_modulus(2.0 * math.pi, 0.5, 2)
    checks.append(_equal("mod_upper_hand_value", col["mod_upper"], 2.0, 1e-12))
    sys0 = 2.0 * math.asinh(1.0)
    col2 = diagnostics.collar_and_modulus(sys0, 0.25, 3)
    checks.append(_equal("l2max_hand_value", col2["l2max"], math.log(1.0 + math.sqrt(2.0)), 1e-12))
    degenerate = math.isinf(diagnostics.modulus_lower_via_flat(0.0, 1.0))
    checks.append(_equal("modulus_lower_degeneration", float(degenerate), 1.0, 0.0))
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
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(name, seed):
    """Run one named suite; returns its list of check records."""
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite '{name}'")
    return _SUITE_FUNCS[name](seed=seed)


def run_suites(names, seed):
    """Run several suites; returns a report dict with an overall flag."""
    suites = []
    all_pass = True
    for name in names:
        checks = run_suite(name, seed=seed)
        ok = all(c["pass"] for c in checks)
        all_pass = all_pass and ok
        suites.append({"suite": name, "passed": ok, "checks": checks})
    return {"seed": int(seed), "resolutions": [N1, N2], "passed": all_pass, "suites": suites}
