"""Per-layer metrics of one traced operation, derived from its spans.

Each entry of :data:`LAYER_METRICS` is ``(name, unit, derive)`` where
``derive(spans, observed)`` takes the :class:`tracer.OpSpans` of one op and
the values its gate read from the op's output files.  Times are seconds per
op; ``.s`` is inclusive time, ``self_s`` excludes traced children.  Which
end-to-end metric each layer metric should move, and on which workload, is
listed in ``README.md``.
"""

from tracer import LINALG_PROBES

SUITES = ("jcalc", "fields", "energy", "teich", "embed", "appendix", "diagnostics")

EMBED_CHECKS = (
    "embedding.plaquette_defect",
    "embedding.induced_metric_error",
    "embedding.convexity_check",
    "embedding.support_function",
)


def _residual_evals_per_iter(spans, observed):
    iterations = observed.get("newton_iterations", 0)
    if not iterations:
        return 0.0
    return spans.calls("solver.solver_residual") / iterations


def _linsolve(spans, observed):
    return sum(spans.total_under(name, "solver.newton_solve") for name in LINALG_PROBES)


LAYER_METRICS = (
    ("solver.newton_iterations", "count",
     lambda s, o: o.get("newton_iterations", 0)),
    ("solver.residual_evals", "count",
     lambda s, o: s.calls("solver.solver_residual")),
    ("solver.residual_evals_per_iter", "count", _residual_evals_per_iter),
    ("solver.solver_residual.s", "s",
     lambda s, o: s.total("solver.solver_residual")),
    ("solver.self_s", "s", lambda s, o: s.self_time("solver.newton_solve")),
    ("solver.linsolve_s", "s", _linsolve),
    ("maps.pullback_metric.calls", "count",
     lambda s, o: s.calls("maps.pullback_metric")),
    ("maps.pullback_metric.self_s", "s",
     lambda s, o: s.self_time("maps.pullback_metric")),
    ("maps.spline_eval.s", "s",
     lambda s, o: s.total("maps.FieldInterpolator.__call__")),
    ("maps.foldover_rejections", "count",
     lambda s, o: s.errors("maps.pullback_metric", "FoldOverError")),
    ("energy.field_A.s", "s", lambda s, o: s.total("energy.field_A")),
    ("energy.energy_gradient.self_s", "s",
     lambda s, o: s.self_time("energy.energy_gradient")),
    ("energy.codazzi_residual.s", "s",
     lambda s, o: s.total("energy.codazzi_residual")),
    ("operators.div_endo.calls", "count",
     lambda s, o: s.calls("operators.div_endo")),
    ("operators.div_endo.s", "s", lambda s, o: s.total("operators.div_endo")),
    ("operators.dnabla_endo.s", "s",
     lambda s, o: s.total("operators.dnabla_endo")),
    ("operators.curvature.s", "s", lambda s, o: s.total("operators.curvature")),
    ("jcalc.spd_sqrt_pair.s", "s", lambda s, o: s.total("jcalc.spd_sqrt_pair")),
    ("grid.stencil_calls", "count",
     lambda s, o: s.calls("grid.Grid.ddx", "grid.Grid.ddy")),
    ("fileio.load_field.s", "s", lambda s, o: s.total("fileio.load_field")),
    ("fileio.save_field.s", "s", lambda s, o: s.total("fileio.save_field")),
    ("fileio.write_json.s", "s", lambda s, o: s.total("fileio.write_json")),
    ("fileio.write_mesh_csv.s", "s",
     lambda s, o: s.total("fileio.write_mesh_csv")),
    ("fileio.bytes_read", "bytes", lambda s, o: s.bytes("fileio.load_field")),
    ("fileio.bytes_written", "bytes",
     lambda s, o: s.bytes("fileio.save_field", "fileio.write_json",
                          "fileio.write_mesh_csv")),
    ("embedding.integrate_immersion.s", "s",
     lambda s, o: s.total("embedding.integrate_immersion")),
    ("embedding.checks_s", "s", lambda s, o: s.total(*EMBED_CHECKS)),
    ("manufactured.pullback_of_scaled_poincare.s", "s",
     lambda s, o: s.total("manufactured.pullback_of_scaled_poincare")),
    ("manufactured.recovery_error.s", "s",
     lambda s, o: s.total("manufactured.recovery_error")),
    ("manufactured.recovery_err", "1", lambda s, o: o.get("recovery_err", 0.0)),
) + tuple(
    (f"verify.{suite}.s", "s",
     lambda s, o, suite=suite: s.total("verify.run_suite", label=suite))
    for suite in SUITES
) + (
    ("verify.checks_passed", "count", lambda s, o: o.get("checks_passed", 0)),
    ("verify.checks", "count", lambda s, o: o.get("checks", 0)),
    ("cli.self_s", "s", lambda s, o: s.self_time("cli.main")),
)

# Measured by run.py from paired traced and untraced ops, not from spans.
OVERHEAD_METRIC = ("trace.overhead_frac", "1")


def op_layer_metrics(spans, observed):
    """``{name: value}`` for every entry of :data:`LAYER_METRICS`."""
    return {name: float(derive(spans, observed)) for name, _, derive in LAYER_METRICS}


def units():
    """``{name: unit}`` for every per-layer metric, the overhead included."""
    out = {name: unit for name, unit, _ in LAYER_METRICS}
    out[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return out
