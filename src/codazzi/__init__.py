"""Numerical calculus of Codazzi fields, one-harmonic maps and spacelike
immersions in Minkowski 3-space.

The package is organised around discretized 2-D conformal charts: pointwise
2x2 matrix algebra (:mod:`codazzi.jcalc`), grids and covariant operators
(:mod:`codazzi.grid`, :mod:`codazzi.operators`), the energy functional and
its variational calculus (:mod:`codazzi.energy`), a Newton/continuation
solver for the critical-point equation (:mod:`codazzi.solver`), deformation
families over conformal structures (:mod:`codazzi.teich`), the immersion
construction (:mod:`codazzi.embedding`), the symmetric-space chart model
(:mod:`codazzi.symspace`) and global diagnostics
(:mod:`codazzi.diagnostics`).  Seeded verification suites live in
:mod:`codazzi.verify` and are also reachable from the command line via
``codazzi verify``.

Importing any module of the package loads numpy only: scipy is imported
inside three functions (the spline's banded fit ``maps._fit_axis``, the
sparse builder ``grid._rows_csr`` and the sparse factor ``grid._splu``), so
``codazzi embed`` never loads it.  The spline (:mod:`codazzi.maps`) and the
Simpson quadrature (:mod:`codazzi.energy`) are the package's own, so
``codazzi solve`` and ``codazzi verify`` load scipy's linear algebra and
nothing else of it.
"""

from .energy import codazzi_residual, energy_gradient, field_A, second_variation
from .grid import ConformalMetric, Grid, poincare_disk
from .jcalc import J, b_form, dsigma, metric_action, metric_to_A, sigma, spd_sqrt
from .solver import continuation_solve, newton_solve
from .verify import run_suite, run_suites

__all__ = [
    "J",
    "sigma",
    "dsigma",
    "b_form",
    "spd_sqrt",
    "metric_to_A",
    "metric_action",
    "Grid",
    "ConformalMetric",
    "poincare_disk",
    "field_A",
    "energy_gradient",
    "second_variation",
    "codazzi_residual",
    "newton_solve",
    "continuation_solve",
    "run_suite",
    "run_suites",
]

__version__ = "0.1.0"
