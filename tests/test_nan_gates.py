"""Positivity and tolerance gates refuse NaN input instead of passing it through."""

import numpy as np
import pytest

from codazzi import embedding, symspace, teich
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2, metric_action, spd_sqrt
from codazzi.maps import FieldInterpolator, FoldOverError, pullback_metric
from codazzi.randfields import rng_for, tracefree_codazzi_conformal

NAN_SPD = np.array([[np.nan, 0.0], [0.0, 1.0]])


def _family_b_t():
    h0 = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    b = tracefree_codazzi_conformal(h0, rng_for(3), amp=0.25)
    return teich.DeformationFamily.build(b, h0).b_t(np.nan)


def _pullback_of_nan_displacement():
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    x = np.zeros((16, 16, 2))
    x[8, 8, 0] = np.nan
    return pullback_metric(grid, FieldInterpolator(grid, poincare_disk(grid).matrix()), x)


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
    ],
    ids=["spd_sqrt", "metric_action", "quotient_metric", "geodesic", "exp_map",
         "DeformationFamily.b_t", "pullback_metric"],
)
def test_positivity_gate_refuses_nan(call, error):
    with pytest.raises(error):
        call()


def _equivariance_of_nan_field():
    patch = embedding.HyperboloidPatch(Grid(33, 33, 0.8, 0.8, "dirichlet"))
    a = np.broadcast_to(ID2, (33, 33, 2, 2)).copy()
    x = embedding.integrate_immersion(a, patch, patch.nodes()[patch.base_index])
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
