"""The tracer: span arithmetic, patching and restoring, and faithfulness."""

import cProfile
import importlib
import pstats
import sys
import types

import codazzi
import run
from tracer import OpSpans, Span, Target, Tracer, library_targets
from workloads import Solve, Verify

# codazzi.energy is the energy() function the package re-exports, not the module
energy_mod = importlib.import_module("codazzi.energy")
grid_mod = importlib.import_module("codazzi.grid")
operators_mod = importlib.import_module("codazzi.operators")
solver_mod = importlib.import_module("codazzi.solver")


def _tree():
    # index: name, parent, start, end
    rows = [
        ("cli.main", -1, 0.0, 10.0),
        ("solver.newton_solve", 0, 1.0, 9.0),
        ("solver.solver_residual", 1, 2.0, 4.0),
        ("maps.pullback_metric", 2, 2.5, 3.5),
        ("solver.solver_residual", 1, 5.0, 6.0),
        ("scipy.linalg.solve", 1, 7.0, 8.0),
        ("solver.newton_solve", 1, 8.25, 8.75),
    ]
    return OpSpans([Span(n, parent=p, start=s, end=e) for n, p, s, e in rows])


def test_self_time_on_synthetic_span_tree():
    spans = _tree()
    # 8 - (2 + 1 + 0.5): the scipy probe stays in the solver's self time;
    # plus the nested newton_solve's own 0.5
    assert spans.self_time("solver.newton_solve") == 5.0
    assert spans.self_time("cli.main") == 2.0
    assert spans.self_time("solver.solver_residual") == 2.0
    assert spans.self_time("maps.pullback_metric") == 1.0
    # inclusive time counts the outermost span of a name once
    assert spans.total("solver.newton_solve") == 8.0
    assert spans.total("solver.solver_residual") == 3.0
    assert spans.total("solver.solver_residual", "maps.pullback_metric") == 3.0
    assert spans.calls("solver.solver_residual") == 2
    assert spans.total_under("scipy.linalg.solve", "solver.newton_solve") == 1.0
    assert spans.total_under("scipy.linalg.solve", "maps.pullback_metric") == 0.0


def test_spans_nest_record_errors_and_originals_come_back():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    targets = [Target(mod, "inner", "fake.inner"), Target(mod, "outer", "fake.outer")]
    tracer.op = 7
    try:
        with tracer.installed(targets):
            assert mod.outer(3) == 7
            mod.outer(-1)
    except ValueError:
        pass
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.op, s.error) for s in tracer.spans]
    assert names == [
        ("fake.outer", -1, 7, None), ("fake.inner", 0, 7, None),
        ("fake.outer", -1, 7, "ValueError"), ("fake.inner", 2, 7, "ValueError"),
    ]
    assert all(s.end > s.start for s in tracer.spans)


def _codazzi_globals():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "codazzi" or name.startswith("codazzi.")
        for attr, value in vars(mod).items()
    }


def test_every_namespace_is_patched_and_restored():
    before = _codazzi_globals()
    div_endo = operators_mod.div_endo
    ddx = grid_mod.Grid.ddx
    tracer = Tracer()
    with tracer.installed(library_targets()):
        # energy imported div_endo by name; the package re-exports newton_solve
        assert energy_mod.div_endo is operators_mod.div_endo
        assert energy_mod.div_endo is not div_endo
        assert codazzi.newton_solve is solver_mod.newton_solve
        assert codazzi.newton_solve.__traced_original__ is not None
        assert grid_mod.Grid.ddx is not ddx
    after = _codazzi_globals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert grid_mod.Grid.ddx is ddx


def test_traced_op_writes_identical_bytes(tmp_path):
    from codazzi import cli

    workload = Verify(3, str(tmp_path))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    rc, _, _ = run.call_cli(cli, workload.argv(0, str(plain)))
    assert rc == 0
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed(library_targets()):
        rc, _, _ = run.call_cli(cli, workload.argv(0, str(traced)))
    assert rc == 0
    assert run.same_bytes(str(plain), str(traced)) == []
    assert tracer.op_spans(0).calls("verify.run_suite") == 7


def test_residual_count_matches_cprofile(tmp_path):
    """Solve seed 0, op 0: the tracer and cProfile count the same calls
    (1738 at the commit that defined the benchmark)."""
    from codazzi import cli

    argv = Solve(0, str(tmp_path)).argv(0, str(tmp_path))
    tracer = Tracer()
    tracer.op = 0
    with tracer.installed(library_targets()):
        assert run.call_cli(cli, argv)[0] == 0
    traced = tracer.op_spans(0).calls("solver.solver_residual")

    profile = cProfile.Profile()
    profile.enable()
    try:
        assert run.call_cli(cli, argv)[0] == 0
    finally:
        profile.disable()
    profiled = sum(
        stat[1] for (path, _, func), stat in pstats.Stats(profile).stats.items()
        if func == "solver_residual" and path == solver_mod.__file__
    )
    assert traced == profiled > 0
