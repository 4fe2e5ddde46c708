"""Property tests of the 2x2 matrix calculus: identities that hold for every input."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codazzi import teich
from codazzi.grid import ConformalMetric, Grid
from codazzi.jcalc import (
    ID2,
    J,
    _mul2,
    check_spd,
    check_symmetric,
    det,
    dsigma,
    dspd_sqrt,
    inv2,
    metric_action,
    metric_to_A,
    spd_sqrt,
)
from codazzi.symspace import christoffel_difference


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


# Entries a structured product must carry through: signed zeros, infinities,
# NaN, subnormals and values near the overflow and underflow thresholds.
_WILD = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e300, -1e-300]),
    st.floats(),
    st.floats(1e299, 1.7e308),
    st.floats(-1e-299, 1e-299),
)
_FACTORS = {"J": J, "-J": -J, "ID2": ID2, **{f"E{k}": np.eye(4).reshape(4, 2, 2)[k] for k in range(4)}}


@st.composite
def _wild_stack(draw):
    n = draw(st.integers(1, 4))
    return np.array(draw(st.lists(_WILD, min_size=4 * n, max_size=4 * n))).reshape(n, 2, 2)


@_PROPERTY
@given(other=_wild_stack(), stacked=st.booleans(),
       diagonal=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("factor", [*_FACTORS, "diagonal"])
def test_mul2_equals_matmul_with_one_structured_factor(factor, left, other, stacked, diagonal):
    n = len(other)
    if factor == "diagonal":
        # off-diagonals -0.0, as inv2 of a conformal metric's matrix makes them
        s = np.full((n, 2, 2), -0.0)
        s[:, 0, 0], s[:, 1, 1] = diagonal[:n], diagonal[4:4 + n]
    else:
        s = np.repeat(_FACTORS[factor][None], n, axis=0) if stacked else _FACTORS[factor]
    x, y = (s, other) if left else (other, s)
    # equal values, NaN equal to NaN; the sign of a zero entry may differ,
    # as it does between BLAS calls of different shapes
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(_mul2(x, y), x @ y)


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
    1e-10 (1 + max|block|) of their own block.  The eigenvalues lie in
    [1, 3], so in every block the larger diagonal entry exceeds |a01| by at
    least 1, and adding an asymmetry cannot move max|block|.
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
    for (j, i), kind in planted.items():
        if kind.startswith("asym"):
            tol = 1e-10 * (1.0 + np.abs(a[j, i]).max())
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


# Every gate on a stack of 2x2 blocks, called as gate(a, b) on one stack ``a``
# and a second stack ``b`` of the same shape that the one-argument gates ignore.
def _tracefree(a, b):
    """The trace-free gate, reached through critical_sum_check; it takes fields only."""
    zero = np.zeros_like(a)
    h0 = ConformalMetric.flat(Grid(a.shape[1], a.shape[0]))
    return teich.critical_sum_check(zero, zero, a, h0)


_GATES = {
    "check_spd": lambda a, b: check_spd(a),
    "check_symmetric": lambda a, b: check_symmetric(a),
    "inv2": lambda a, b: inv2(a),
    "spd_sqrt": lambda a, b: spd_sqrt(a),
    "dspd_sqrt": dspd_sqrt,
    "metric_action": metric_action,
    "tracefree": _tracefree,
    "christoffel_difference": lambda a, b: christoffel_difference(a, b, 0.5),
}
# A large block each gate passes: beside it, a tolerance taken over the whole
# stack would pass a small block's defect.
_LARGE = {gate: (1e6 * ID2, ID2) for gate in _GATES}
_LARGE["tracefree"] = (1e6 * np.diag([1.0, -1.0]), ID2)
_NODE = " at node (j, i) = "


@st.composite
def _block(draw):
    """One 2x2 block at scale 1e-6, 1 or 1e6, drawn near the edges of the gates.

    Kinds: SPD with an asymmetry of 0, 0.5x or 2x its own block's tolerance;
    trace-free symmetric with a trace of 0, 0.5x or 2x that tolerance; the
    negative of an SPD block; a singular one; SPD with a NaN or infinite
    entry; and entries drawn freely.
    """
    x, y, z, w = (draw(st.floats(-1.0, 1.0)) for _ in range(4))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    kind = draw(st.sampled_from(["asym", "asym", "asym", "tracefree", "tracefree", "negative",
                                 "singular", "nonfinite", "free"]))
    factor = draw(st.sampled_from([0.0, 0.5, 2.0]))
    spd = np.array([[3.0 + x, y], [y, 3.0 + z]])
    if kind == "asym":  # factor 0: SPD
        spd[0, 1] += factor * 1e-10 * (1.0 + np.abs(spd).max())
    elif kind == "tracefree":
        spd = np.array([[x, y], [y, -x]])
        spd[0, 0] += factor * 1e-10 * (1.0 + np.abs(spd).max())
    elif kind == "negative":
        spd = -spd
    elif kind == "singular":
        spd = np.array([[1.0, 1.0], [1.0, 1.0]]) * (2.0 + x)
    elif kind == "nonfinite":
        spd[draw(st.integers(0, 1)), draw(st.integers(0, 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "free":
        spd = np.array([[x, y], [z, w]])
    return scale * spd


@st.composite
def _pair(draw):
    """A block and a partner: a polynomial in it (a commuting pair) or another block."""
    a = draw(_block())
    if draw(st.booleans()):
        with np.errstate(invalid="ignore"):  # 0 * inf
            return a, draw(st.floats(-2.0, 2.0)) * ID2 + draw(st.floats(-2.0, 2.0)) * a
    return a, draw(_block())


def _refusal(call):
    """The message of the ValueError ``call()`` raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def _alone(gate, a, b):
    """The refusal of one block pair, with any node report cut off."""
    if gate == "tracefree":  # at node (0, 0) of an 8x8 field of zeros
        a, b = (np.pad(m[None, None], ((0, 7), (0, 7), (0, 0), (0, 0))) for m in (a, b))
    msg = _refusal(lambda: _GATES[gate](a, b))
    return None if msg is None else msg.split(_NODE)[0]


def _check_stack(gate, pairs, alone, which):
    """The stack ``pairs[which]`` is refused iff one of its blocks is refused
    alone; on a field, the message is that refusal at the first node whose
    block alone gives it."""
    with np.errstate(all="ignore"):
        a, b = (np.array([p[k] for p in pairs])[which] for k in (0, 1))
        msg = _refusal(lambda: _GATES[gate](a, b))
    refused = [alone[k] for k in which.flat if alone[k] is not None]
    if not refused:
        assert msg is None
        return
    assert msg is not None
    if which.ndim == 1:
        assert msg in refused
        return
    base, node = msg.split(_NODE)
    first = divmod(int(np.argmax([alone[k] == base for k in which.flat])), which.shape[1])
    assert alone[which[first]] == base and node == f"{first}"


@_PROPERTY
@given(drawn=st.lists(_pair(), min_size=1, max_size=3), field=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("gate", sorted(_GATES))
def test_a_stack_is_refused_exactly_when_one_block_alone_is(gate, drawn, field, seed):
    """Stacks of the gate's large block and the drawn pairs: all of them mixed,
    and each drawn pair beside the large block only; a 1-D stack, or an 8x8
    field with one of them at each node."""
    pairs = [_LARGE[gate]] + drawn
    with np.errstate(all="ignore"):
        alone = [_alone(gate, a, b) for a, b in pairs]
    field = field or gate == "tracefree"
    rng = np.random.default_rng(seed)
    stacks = [rng.integers(0, len(pairs), (8, 8)) if field else np.arange(len(pairs))]
    for k in range(1, len(pairs)):
        which = np.zeros((8, 8), dtype=int) if field else np.array([0, k])
        which[tuple(rng.integers(0, 8, 2)) if field else 1] = k
        stacks.append(which)
    for which in stacks:
        _check_stack(gate, pairs, alone, which)


_FOUND = np.array([[1.0, 1e-5], [0.0, 1.0]])  # refused alone: asymmetry 1e-5
_TRACE_FOUND = np.array([[1.0, 0.0], [0.0, -1.0 + 1e-5]])  # refused alone: trace 1e-5


def _field_with(block, filler, node=(3, 5)):
    out = np.broadcast_to(filler, (8, 8, 2, 2)).copy()
    out[node] = block
    return out


def test_a_small_defect_beside_a_large_block_is_refused():
    """Beside 1e6 Id, a stack-wide tolerance 1e-10 (1 + 1e6) would pass both defects."""
    big, big_tracefree = 1e6 * ID2, 1e6 * np.diag([1.0, -1.0])
    for stack in (_FOUND, np.stack([_FOUND, big])):
        with pytest.raises(ValueError, match="^non-symmetric, non-finite or non-positive field$"):
            check_spd(stack)
    for check, what in ((check_spd, "non-symmetric, non-finite or non-positive"),
                        (check_symmetric, "non-symmetric or non-finite")):
        with pytest.raises(ValueError) as exc:
            check(_field_with(_FOUND, big))
        assert str(exc.value) == f"{what} field at node (j, i) = (3, 5)"
    with pytest.raises(ValueError, match="^field is not trace-free$"):
        teich._check_tracefree_symmetric(np.stack([_TRACE_FOUND, big_tracefree]))
    b = _field_with(_TRACE_FOUND, big_tracefree)
    zero = np.zeros_like(b)
    with pytest.raises(ValueError, match=r"^field is not trace-free at node \(j, i\) = \(3, 5\)$"):
        teich.critical_sum_check(zero, zero, b, ConformalMetric.flat(Grid(8, 8)))


def test_a_nan_commutator_is_refused():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="commuting pair"):
        christoffel_difference(ID2, np.full((2, 2), np.nan), 0.5)
