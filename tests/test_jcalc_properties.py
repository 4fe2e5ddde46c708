"""Property tests of the 2x2 matrix calculus: identities that hold for every input."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codazzi.jcalc import (
    ID2,
    check_spd,
    check_symmetric,
    det,
    dsigma,
    dspd_sqrt,
    inv2,
    metric_to_A,
    spd_sqrt,
)


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
    check_spd(a)
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


# Defects planted into an SPD field, with the validators that must refuse them.
_SYMMETRIC_DEFECTS = {"nan", "inf", "-inf", "asym_2x"}
_SPD_DEFECTS = _SYMMETRIC_DEFECTS | {"trace", "det"}
_KINDS = sorted(_SPD_DEFECTS | {"asym_half"})


@st.composite
def _planted_field(draw):
    """A random SPD field of shape (ny, nx, 2, 2) and defects at distinct nodes.

    The asymmetries are 0.5x and 2x the validators' tolerance
    1e-10 (1 + max|a|), max|a| taken over the finite blocks after the other
    defects are planted.  The eigenvalues lie in [1, 3], so in every block
    the larger diagonal entry exceeds |a01| by at least 1, and adding an
    asymmetry cannot move max|a|.
    """
    ny, nx = draw(st.integers(8, 20)), draw(st.integers(8, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = rng.uniform(1.0, 3.0, (ny, nx, 2))
    theta = rng.uniform(0.0, np.pi, (ny, nx))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    a = rot @ (lam[..., :, None] * np.swapaxes(rot, -1, -2))
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    defects = draw(st.lists(
        st.tuples(st.integers(0, ny - 1), st.integers(0, nx - 1), st.sampled_from(_KINDS)),
        max_size=4, unique_by=lambda d: d[:2],
    ))
    planted = {(j, i): kind for j, i, kind in defects}
    for (j, i), kind in planted.items():
        if kind in ("nan", "inf", "-inf"):
            a[j, i, 1, 0] = float(kind)
        elif kind == "trace":  # negative definite: Tr < 0, Det > 0
            a[j, i] = -a[j, i]
        elif kind == "det":  # Tr = 1 > 0, Det = 0
            a[j, i] = [[1.0, 0.0], [0.0, 0.0]]
    finite = np.all(np.isfinite(a), axis=(-2, -1))
    tol = 1e-10 * (1.0 + np.abs(a[finite]).max())
    for (j, i), kind in planted.items():
        if kind.startswith("asym"):
            a[j, i, 0, 1] += (0.5 if kind == "asym_half" else 2.0) * tol
    return a, planted


@_PROPERTY
@given(field=_planted_field())
@pytest.mark.parametrize("check, kinds", [(check_symmetric, _SYMMETRIC_DEFECTS),
                                          (check_spd, _SPD_DEFECTS)],
                         ids=["check_symmetric", "check_spd"])
def test_validator_refuses_exactly_its_defects_and_names_the_first_node(check, kinds, field):
    a, planted = field
    bad = sorted(node for node, kind in planted.items() if kind in kinds)
    batch = a.reshape(-1, 2, 2)
    if not bad:
        assert check(a) is not None and check(batch) is not None
        return
    j, i = bad[0]
    with pytest.raises(ValueError) as exc:
        check(a)
    # plain ints: "(6, 13)", never "(np.int64(6), np.int64(13))"
    assert str(exc.value).endswith(f"at node (j, i) = ({j}, {i})")
    with pytest.raises(ValueError) as exc:
        check(batch)
    assert "node" not in str(exc.value)


@_PROPERTY
@given(m=_spd(1.0, 3.0))
@pytest.mark.parametrize("factor, accepted", [(0.5, True), (2.0, False)])
def test_spd_gates_take_an_asymmetry_below_the_tolerance_only(factor, accepted, m):
    m = m.copy()
    m[0, 1] += factor * 1e-10 * (1.0 + np.abs(m).max())
    calls = (lambda: dsigma(m, ID2), lambda: metric_to_A(m, ID2), lambda: metric_to_A(ID2, m))
    for call in calls:
        if accepted:
            call()
        else:
            with pytest.raises(ValueError, match="non-symmetric"):
                call()
