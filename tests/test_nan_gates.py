"""Positivity gates refuse NaN input instead of passing it through."""

import numpy as np
import pytest

from codazzi import symspace, teich
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2, metric_action, spd_sqrt
from codazzi.maps import FoldOverError, pullback_metric
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
    return pullback_metric(grid, poincare_disk(grid).matrix(), x)


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
