"""``scripts/verify_seed_sweep.py`` on fixed reports, with no suite run.

The sweep's output is what the rule "the number of failing seeds may only go
down" is read from, so its bookkeeping is checked here: per-check failing
seeds, their union, the failing checks in report order, and the worst
residual with its seed, a NaN counting as the worst.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from codazzi import verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_seed_sweep.py"

# seed -> {suite.check: (pass, residual)}
_RESULTS = {
    10: {"jcalc.a": (True, 1e-14), "jcalc.b": (True, 2e-13), "energy.c": (True, 0.5)},
    11: {"jcalc.a": (False, 3e-3), "jcalc.b": (True, math.nan), "energy.c": (True, 0.25)},
    12: {"jcalc.a": (True, 4e-15), "jcalc.b": (True, math.nan), "energy.c": (False, 0.75)},
    13: {"jcalc.a": (False, 5e-3), "jcalc.b": (True, 1e-12), "energy.c": (True, 0.125)},
}


def _fixed_report(suites, seed):
    """A report of ``verify.run_suites``'s shape, read from :data:`_RESULTS`."""
    assert list(suites) == list(verify.SUITE_NAMES)
    out = {}
    for name, (ok, residual) in _RESULTS[seed].items():
        suite, check = name.split(".")
        out.setdefault(suite, []).append({"check": check, "pass": ok, "residual": residual})
    return {"suites": [{"suite": s, "checks": checks} for s, checks in out.items()]}


@pytest.fixture
def sweep(monkeypatch):
    # the script puts the repo's src/ on sys.path when imported; undo it after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("verify_seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(verify, "run_suites", _fixed_report)
    return module.sweep


def test_sweep_lists_each_checks_failing_seeds_and_their_union(sweep):
    result = sweep(range(10, 14))
    assert result["seeds"] == [10, 13]
    assert list(result["checks"]) == ["jcalc.a", "jcalc.b", "energy.c"]
    assert [e["failing_seeds"] for e in result["checks"].values()] == [[11, 13], [], [12]]
    assert result["failing_seeds"] == [11, 12, 13]
    assert result["failing_checks"] == ["jcalc.a", "energy.c"]


def test_sweep_reports_the_worst_residual_and_its_seed(sweep):
    checks = sweep(range(10, 14))["checks"]
    assert (checks["jcalc.a"]["worst_residual"], checks["jcalc.a"]["worst_seed"]) == (5e-3, 13)
    assert (checks["energy.c"]["worst_residual"], checks["energy.c"]["worst_seed"]) == (0.75, 12)
    # a NaN residual is the worst, at the first seed that read it, even in a
    # check that passes
    assert math.isnan(checks["jcalc.b"]["worst_residual"])
    assert checks["jcalc.b"]["worst_seed"] == 11
