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
