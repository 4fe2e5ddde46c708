"""Symmetric-space chart model on the cone of positive quadratic forms."""

import numpy as np
import pytest

from codazzi import symspace
from codazzi.jcalc import ID2, b_form, det, inv2, trace
from codazzi.randfields import rng_for


def test_beltrami_chart_composition():
    rng = rng_for(7)
    for _ in range(50):
        point = symspace.BeltramiPoint(
            rng.uniform(-0.4, 0.8),
            0.2 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)),
        )
        if not point.in_domain():
            continue
        m = rng.standard_normal((2, 2))
        g0 = m.T @ m + 0.2 * ID2
        mat = ID2 + symspace.beltrami_matrix(point)
        assert np.max(np.abs(symspace.psi_tilde(point, g0) - mat.T @ g0 @ mat)) < 1e-14


def test_domain_membership_and_identities():
    assert symspace.BeltramiPoint(0.2, 0.3 + 0.4j).in_domain()
    assert not symspace.BeltramiPoint(0.0, 0.6 + 0.8j).in_domain()
    rng = rng_for(11)
    for _ in range(50):
        p = rng.uniform(-2.0, 2.0)
        q = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-2.0, 2.0)
        mat = ID2 + symspace.beltrami_matrix(symspace.BeltramiPoint(p, q))
        assert float(trace(mat)) == pytest.approx(2.0 * (p + 1.0), abs=1e-13)
        assert float(det(mat)) == pytest.approx((p + 1.0) ** 2 - abs(q) ** 2, abs=1e-13)


def test_geodesic_satisfies_ode():
    rng = rng_for(5)
    for _ in range(10):
        m = rng.standard_normal((2, 2))
        a = 0.2 * (m + m.T)
        for t in (0.0, 0.25, -0.1):
            assert symspace.geodesic_residual(a, t) < 1e-6


def test_geodesic_through_identity():
    m = rng_for(2).standard_normal((2, 2))
    a = 0.3 * (m + m.T)
    assert np.max(np.abs(symspace.geodesic(a, 0.0) - ID2)) < 1e-14
    assert np.max(np.abs(symspace.geodesic(a, 0.2) - symspace.exp_map(0.2 * a, ID2))) < 1e-14


def test_b_form_conjugation_invariance():
    rng = rng_for(9)
    for _ in range(100):
        b = rng.standard_normal((2, 2))
        g = rng.standard_normal((2, 2)) + 2.0 * ID2
        if abs(float(det(g))) < 0.1:
            continue
        assert float(b_form(g @ b @ inv2(g))) == pytest.approx(float(b_form(b)), abs=1e-12)


def test_quotient_metric_normalization():
    rng = rng_for(4)
    for _ in range(50):
        b = rng.standard_normal((2, 2))
        assert symspace.quotient_metric(ID2, b) == pytest.approx(
            0.25 * float(b_form(b)), abs=1e-14
        )


# -- stacks: each point or 2x2 block as a one-at-a-time call treats it ------


def _points(rng, n, scale):
    p = rng.uniform(-0.5, 1.5, n)
    q = scale * (p + 1.0) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    return p, q


def test_in_domain_on_a_stack_is_the_one_point_float_test():
    # |Q| within a few ulps of P + 1: the stack must decide every point as
    # Python's float arithmetic on that one point does
    rng = rng_for(17)
    p, q = _points(rng, 100_000, 1.0 + 1e-15 * rng.standard_normal(100_000))
    stacked = symspace.BeltramiPoint(p, q).in_domain()
    one = [pv + 1.0 > 0.0 and (pv + 1.0) ** 2 > abs(qv) ** 2 for pv, qv in zip(p.tolist(), q.tolist())]
    assert stacked.shape == (100_000,)
    assert 0 < stacked.sum() < 100_000
    assert np.array_equal(stacked, one)
    ones = [symspace.BeltramiPoint(pv, qv).in_domain() for pv, qv in zip(p[:5000], q[:5000])]
    assert np.array_equal(stacked[:5000], ones)


def test_beltrami_matrix_and_psi_tilde_on_a_stack_bit_for_bit():
    rng = rng_for(19)
    p, q = _points(rng, 300, 0.9 * rng.uniform(0.0, 1.0, 300))
    m = rng.standard_normal((300, 2, 2))
    g0 = np.swapaxes(m, -1, -2) @ m + 0.2 * ID2
    point = symspace.BeltramiPoint(p, q)
    ones = [symspace.BeltramiPoint(float(pv), complex(qv)) for pv, qv in zip(p, q)]
    mats = symspace.beltrami_matrix(point)
    assert mats.shape == (300, 2, 2)
    assert np.array_equal(mats, [symspace.beltrami_matrix(pt) for pt in ones])
    assert np.array_equal(
        symspace.psi_tilde(point, g0), [symspace.psi_tilde(pt, g) for pt, g in zip(ones, g0)]
    )


def test_geodesic_residual_of_a_stack_is_the_max_over_it():
    m = rng_for(23).standard_normal((20, 2, 2))
    a = 0.2 * (m + np.swapaxes(m, -1, -2))
    for t in (0.0, 0.25, -0.1):
        assert symspace.geodesic_residual(a, t) == max(
            symspace.geodesic_residual(ai, t) for ai in a
        )


def test_quotient_metric_on_a_stack_bit_for_bit():
    rng = rng_for(29)
    b = rng.standard_normal((50, 2, 2))
    m = rng.standard_normal((50, 2, 2))
    a = np.swapaxes(m, -1, -2) @ m + 0.3 * ID2
    assert np.array_equal(
        symspace.quotient_metric(a, b), [symspace.quotient_metric(ai, bi) for ai, bi in zip(a, b)]
    )


def test_psi_tilde_names_the_first_stacked_point_outside_the_domain():
    p = np.full(10, 0.2)
    q = np.full(10, 0.3 + 0.4j)
    q[7] = 0.9 + 0.9j
    q[9] = 2.0
    with pytest.raises(ValueError, match="outside tilde-U at index 7$"):
        symspace.psi_tilde(symspace.BeltramiPoint(p, q), ID2)


def test_psi_tilde_refuses_one_point_outside_the_domain():
    # (P + 1)^2 = |Q|^2 = 1: on the boundary, which tilde-U excludes
    with pytest.raises(ValueError, match="^Beltrami point outside tilde-U$"):
        symspace.psi_tilde(symspace.BeltramiPoint(0.0, 0.6 + 0.8j), ID2)


def test_christoffel_difference_gates_each_block_of_a_stack():
    # the small pair fails its own commuting test, but would pass one scaled
    # by the large commuting pairs around it
    big_a, big_b = np.diag([2e4, 1e4]), np.diag([4e4, 3e4])
    small_a, small_b = np.array([[1.0, 0.01], [0.0, 2.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])
    symspace.christoffel_difference(big_a, big_b, 0.5)
    with pytest.raises(ValueError, match="commuting pair"):
        symspace.christoffel_difference(small_a, small_b, 0.5)
    a = np.stack([big_a, big_a, small_a, big_a])
    b = np.stack([big_b, big_b, small_b, big_b])
    with pytest.raises(ValueError, match="commuting pair"):
        symspace.christoffel_difference(a, b, 0.5)
    assert np.array_equal(
        symspace.christoffel_difference(a[[0, 1]], b[[0, 1]], 0.5),
        [symspace.christoffel_difference(big_a, big_b, 0.5)] * 2,
    )


# -- suite_appendix against its one-matrix loops -----------------------------


def _appendix_by_loops(seed):
    """suite_appendix one matrix at a time, as the suite was first written: its oracle.

    Returns the six records and the generator they were drawn from.
    """
    from codazzi.verify import _equal, _record

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
        _record("domain_trace_det_identities", float(dom_ok), 1.0, id_err, dom_ok and id_err <= 1e-13)
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
            qm_err, abs(symspace.quotient_metric(ID2, bmat) - 0.25 * float(b_form(bmat)))
        )
    checks.append(_equal("quotient_metric_normalization", qm_err, 0.0, 1e-14))
    return checks, rng


@pytest.mark.parametrize("seed", range(5))
def test_suite_appendix_equals_its_one_matrix_loops(monkeypatch, seed):
    from codazzi import verify

    drawn = []

    def spy(s):
        drawn.append(rng_for(s))
        return drawn[-1]

    monkeypatch.setattr(verify, "rng_for", spy)
    got = verify.suite_appendix(seed)
    want, rng = _appendix_by_loops(seed)
    assert len(got) == 6
    assert got == want
    assert len(drawn) == 1
    np.testing.assert_equal(drawn[0].bit_generator.state, rng.bit_generator.state)
