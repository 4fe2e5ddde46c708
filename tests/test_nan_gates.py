"""Positivity, range and tolerance gates refuse NaN input instead of passing it through.

The same holds for the verify records: a NaN anywhere in a check's values
makes the check fail, and the record shows the NaN.
"""

import itertools

import numpy as np
import pytest

from codazzi import diagnostics, embedding, symspace, teich, verify
from codazzi.energy import field_A
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.jcalc import ID2, check_spd, dsigma, inv2, metric_action, metric_to_A, spd_sqrt
from codazzi.manufactured import ManufacturedDiffeo, pullback_of_scaled_poincare
from codazzi.maps import FieldInterpolator, FoldOverError, pullback_metric
from codazzi.randfields import rng_for, tracefree_codazzi_conformal, trig_spd

NAN_SPD = np.array([[np.nan, 0.0], [0.0, 1.0]])


def _family_b_t():
    h0 = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    b = tracefree_codazzi_conformal(h0, rng_for(3), amp=0.25)
    return teich.DeformationFamily.build(b, h0).b_t(np.nan)


def _pullback_of_nan_displacement():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    x = np.zeros((16, 16, 2))
    x[8, 8, 0] = np.nan
    return pullback_metric(grid, FieldInterpolator(grid, poincare_disk(grid).matrix), x)


def _field_A_of_nan_h():
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    h = 2.25 * g.matrix
    h[8, 8] = NAN_SPD
    return field_A(h, g)


def _psi_tilde_of_nan_stack():
    p = np.array([0.1, 0.2, np.nan, 0.3])
    return symspace.psi_tilde(symspace.BeltramiPoint(p, np.full(4, 0.1 + 0.1j)), ID2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: spd_sqrt(NAN_SPD), ValueError),
        (lambda: metric_action(NAN_SPD, ID2), ValueError),
        (lambda: symspace.quotient_metric(NAN_SPD, ID2), ValueError),
        (lambda: symspace.geodesic(NAN_SPD, 0.5), ValueError),
        (lambda: symspace.exp_map(NAN_SPD, ID2), ValueError),
        (_family_b_t, ValueError),
        (_pullback_of_nan_displacement, FoldOverError),
        (lambda: dsigma(NAN_SPD, ID2), ValueError),
        (lambda: metric_to_A(ID2, NAN_SPD), ValueError),
        (lambda: diagnostics.intermediate_J(NAN_SPD), ValueError),
        (lambda: check_spd(NAN_SPD), ValueError),
        (_psi_tilde_of_nan_stack, ValueError),
        (_field_A_of_nan_h, ValueError),
    ],
    ids=["spd_sqrt", "metric_action", "quotient_metric", "geodesic", "exp_map",
         "DeformationFamily.b_t", "pullback_metric", "dsigma", "metric_to_A",
         "intermediate_J", "check_spd", "psi_tilde_stack", "field_A"],
)
def test_positivity_gate_refuses_nan(call, error):
    with pytest.raises(error):
        call()


_GRID16 = Grid(16, 16, 0.8, 0.8, "dirichlet")


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: FieldInterpolator(_GRID16, np.zeros((16, 16)))(np.array([np.nan, 0.0])),
         "outside the chart"),
        (lambda: pullback_of_scaled_poincare(
            ManufacturedDiffeo.seeded(_GRID16, 0, amp=np.nan), _GRID16), "leaves the unit disk"),
        (lambda: trig_spd(_GRID16, rng_for(0), amp=np.nan), "amplitude too large"),
    ],
    ids=["FieldInterpolator", "pullback_of_scaled_poincare", "trig_spd"],
)
def test_range_gate_refuses_nan(call, match):
    # the scalar formulas of diagnostics are in the refusal table of test_diagnostics.py
    with pytest.raises(ValueError, match=match):
        call()


def _equivariance_of_nan_field():
    patch = embedding.HyperboloidPatch(Grid(33, 33, 0.8, 0.8, "dirichlet"))
    a = np.broadcast_to(ID2, (33, 33, 2, 2)).copy()
    x = embedding.integrate_immersion(
        embedding.edge_segments(a, patch), patch, patch.nodes[patch.base_index]
    )
    a[20, 20, 0, 0] = np.nan
    return embedding.equivariance_residual(x, embedding.Isometry21.rotation(0.4), a, patch)


@pytest.mark.parametrize(
    "call, match",
    [
        (_equivariance_of_nan_field, "not invariant"),
        (lambda: embedding.Isometry21(np.full((3, 3), np.nan)), "Minkowski form"),
    ],
    ids=["equivariance_residual", "Isometry21"],
)
def test_tolerance_gate_refuses_nan(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_inv2_singular_gate_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="singular or non-finite 2x2 matrix"):
        inv2(np.array([[bad, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_conformal_metric_refuses_a_non_finite_phi(bad):
    phi = np.zeros((16, 16))
    phi[5, 11] = bad
    with pytest.raises(ValueError, match=r"^'phi' is not finite at node \(j, i\) = \(5, 11\)$"):
        ConformalMetric(_GRID16, phi)


@pytest.mark.parametrize("bad", [400.0, -400.0])
def test_conformal_metric_refuses_a_phi_whose_factors_over_or_underflow(bad):
    # e^{2 phi} and e^{-2 phi} are inf and 0 at phi = 400, 0 and inf at -400;
    # accepted, such a phi made diagnostics.map_energy NaN
    phi = np.zeros((16, 16))
    phi[5, 11] = bad
    match = r"^'phi' makes e\^\(\+-2 phi\) over- or underflow at node \(j, i\) = \(5, 11\)$"
    with pytest.raises(ValueError, match=match):
        ConformalMetric(_GRID16, phi)


# -- verify records ------------------------------------------------------------

# each helper's arguments for a passing record, the positions that hold values
# (the others hold tolerances) and the record field where a NaN value shows
PASSING_RECORDS = [
    (verify._equal, ("c", 1.0, 1.0, 1e-12), (1, 2), "residual"),
    (verify._bound, ("c", 1.0, 0.5, 0.1), (1, 2), "residual"),
    (verify._converging, ("c", 1e-3, 1e-4, 3.5), (1, 2), "order"),
    (verify._vanishes, ("c", 1e-12, 0.0, np.zeros((3, 2, 2)), np.zeros(4)), (2, 3, 4), "residual"),
]


def _with_nan(value):
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[-1] = np.nan
        return value
    return np.nan


@pytest.mark.parametrize(
    "helper, args, values, field", PASSING_RECORDS, ids=[c[0].__name__ for c in PASSING_RECORDS]
)
def test_a_record_helper_fails_on_a_nan_in_any_argument(helper, args, values, field):
    assert helper(*args)["pass"]
    for i in range(1, len(args)):
        bad = list(args)
        bad[i] = _with_nan(args[i])
        record = helper(*bad)
        assert not record["pass"], i
        assert np.isnan(record[field]) == (i in values), i


@pytest.mark.parametrize(
    "r1, r2, order, ok",
    [(0.0, 1e-3, -np.inf, False), (np.nan, 0.0, np.nan, False), (1e-3, 0.0, 16.0, True)],
)
def test_converging_with_a_zero_residual_writes_a_record(r1, r2, order, ok):
    record = verify._converging("c", r1, r2)
    assert record["pass"] == ok
    np.testing.assert_equal(record["order"], order)


def test_maxabs_keeps_a_nan_after_a_number():
    assert np.isnan(verify._maxabs(1.0, np.array([0.5, np.nan])))
    assert verify._maxabs(np.array([]), -2.0) == 2.0


def _nan_on_call(monkeypatch, owner, name, n):
    """Make the ``n``-th call of ``owner.name`` return NaN in place of its value."""
    real = getattr(owner, name)
    count = itertools.count(1)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        return np.asarray(out) * np.nan if next(count) == n else out

    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize(
    "owner, name, n, suite, check",
    [
        (symspace, "exp_map", 2, "appendix", "exp_map_matches_geodesic"),
        (verify, "flow_derivative_fd", 3, "energy", "gradient_fd_relative"),
        (verify, "modified_inequality_check", 7, "energy", "modified_inequality_50_seeds"),
        (symspace, "geodesic_residual", 2, "appendix", "geodesic_ode_residual"),
    ],
    ids=["exp_map", "flow_derivative_fd", "modified_inequality_check", "geodesic_residual"],
)
def test_a_nan_in_one_draw_fails_its_check(monkeypatch, owner, name, n, suite, check):
    _nan_on_call(monkeypatch, owner, name, n)
    records = {c["check"]: c for c in verify.run_suite(suite, 0)}
    assert not records[check]["pass"]


class _LastMatrixNaN:
    """A generator whose first ``standard_normal`` batch ends in a matrix holding a NaN."""

    def __init__(self, rng):
        self._rng = rng
        self._first = True

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        if self._first:
            out[-1, 0, 1] = np.nan
        self._first = False
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_a_nan_in_the_last_block_fails_its_jcalc_checks(monkeypatch):
    # the NaN matrix is the last of the 100,000, so it sits in the last block,
    # where a builtin max over the block maxima would drop it
    monkeypatch.setattr(verify, "rng_for", lambda seed: _LastMatrixNaN(rng_for(seed)))
    records = {c["check"]: c for c in verify.suite_jcalc(0)}
    for check in ("sigma_frobenius_oracle", "sigma_rotation_invariance",
                  "antisymmetric_part_relation", "b_form_det"):
        assert not records[check]["pass"], check
        assert np.isnan(records[check]["lhs"]), check
    # the matrices drawn after it are untouched
    assert records["spd_sqrt_roundtrip"]["pass"]
