"""Property tests of the 2x2 matrix calculus: identities that hold for every input."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codazzi.jcalc import ID2, det, dspd_sqrt, inv2, is_spd, spd_sqrt


# A fixed, derandomized profile keeps the property tests deterministic.
_PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
_ENTRY = st.floats(-10.0, 10.0)


@st.composite
def _matrices(draw, elements=_ENTRY):
    return np.array([[draw(elements), draw(elements)], [draw(elements), draw(elements)]])


@st.composite
def _spd(draw, low, high):
    """R(theta) diag(l0, l1) R(theta)^T with eigenvalues in [low, high]."""
    lam = [draw(st.floats(low, high)) for _ in range(2)]
    theta = draw(st.floats(0.0, np.pi))
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    m = rot @ np.diag(lam) @ rot.T
    return 0.5 * (m + m.T)


@_PROPERTY
@given(m=_spd(1e-3, 1e3))
def test_spd_sqrt_squares_back_and_is_spd(m):
    a = spd_sqrt(m)
    assert is_spd(a)
    assert np.max(np.abs(a @ a - m)) <= 1e-12 * np.max(np.abs(m))


@_PROPERTY
@given(a=_matrices())
def test_inv2_round_trips(a):
    d = det(a)
    assume(abs(d) >= 0.1)
    inv = inv2(a)
    # the round-off of a 2x2 inverse grows with |a|^2 / |Det a| <= 4000 here
    assert np.max(np.abs(a @ inv - ID2)) <= 1e-12
    assert np.max(np.abs(inv2(inv) - a)) <= 1e-11
    assert abs(det(inv) * d - 1.0) <= 1e-12


@_PROPERTY
@given(a=_matrices(), b=_matrices())
def test_det_is_multiplicative(a, b):
    scale = np.max(np.abs(a)) ** 2 * np.max(np.abs(b)) ** 2
    assert abs(det(a @ b) - det(a) * det(b)) <= 1e-13 * (1.0 + scale)


@_PROPERTY
@given(m=_spd(0.1, 10.0), dm=_matrices(st.floats(-1.0, 1.0)))
def test_dspd_sqrt_agrees_with_central_differences_at_second_order(m, dm):
    exact = dspd_sqrt(m, dm)
    errs = []
    for eps in (1e-3, 1e-4):
        fd = (spd_sqrt(m + eps * dm) - spd_sqrt(m - eps * dm)) / (2.0 * eps)
        errs.append(np.max(np.abs(fd - exact)))
    # O(eps^2): a tenfold smaller step cuts the error at least fiftyfold,
    # down to the round-off floor of the differences
    assert errs[0] <= 1e-4
    assert errs[1] <= errs[0] / 50.0 + 1e-10
