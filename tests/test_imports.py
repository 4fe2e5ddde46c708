"""Importing the package, and running ``codazzi embed``, load no scipy;
``codazzi solve`` and ``codazzi verify`` load only scipy's sparse and dense
linear algebra.

scipy is imported inside three functions, ``maps._fit_axis`` (the
spline's banded fit), ``grid._rows_csr`` (the one sparse builder) and
``grid._splu`` (the one sparse factor), so a process that never fits a
spline, builds a sparse matrix or factors one never pays for its import.
The spline and the Simpson quadrature are the package's own, so no process
loads scipy.interpolate or scipy.integrate for them.  Each check runs in a
fresh interpreter, since the test process itself has scipy loaded.

``import codazzi.<name> as m`` gives the submodule for every module of the
package: the package re-exports no name that is also one of its modules,
since ``import ... as`` reads the package's attribute first.
"""

import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import codazzi
from codazzi import embedding, fileio
from codazzi.grid import Grid

_PKG_ROOT = str(Path(codazzi.__file__).resolve().parents[1])

_REPORT_SCIPY = """
import json, sys
sys.path.insert(0, {root!r})
{body}
print(json.dumps({{
    "result": result,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}}))
"""


def _fresh(body):
    """Run ``body`` in a fresh interpreter; its ``result`` and the scipy modules loaded."""
    code = _REPORT_SCIPY.format(root=_PKG_ROOT, body=body)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_every_submodule_imports_as_a_module():
    for info in pkgutil.iter_modules(codazzi.__path__):
        scope = {}
        exec(f"import codazzi.{info.name} as m", scope)
        assert isinstance(scope["m"], types.ModuleType), info.name


def test_importing_the_package_loads_no_scipy():
    seen = _fresh("import codazzi, codazzi.cli\nresult = None")
    assert seen["scipy"] == []


def test_embed_runs_without_loading_scipy(tmp_path):
    patch = embedding.HyperboloidPatch(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    xx, yy = patch.grid.meshgrid
    endo = 0.5 * embedding.codazzi_generator(2.0 + 0.1 * np.sin(xx) * np.cos(yy), patch)
    path = tmp_path / "field.json"
    fileio.save_field(path, patch.metric, endo=endo)
    argv = ["embed", "--endo", str(path), "--out", str(tmp_path / "e")]
    seen = _fresh(f"from codazzi import cli\nresult = cli.main({argv!r})")
    assert seen["result"] == 0
    assert (tmp_path / "e_mesh.csv").exists()
    assert seen["scipy"] == []


# subpackages that scipy.interpolate and scipy.integrate pull in, and that
# nothing in a solve or a verify run needs
_NOT_LINEAR_ALGEBRA = ("integrate", "interpolate", "optimize", "spatial", "special", "fft")


def _assert_only_linear_algebra(scipy_modules):
    assert {"scipy.linalg", "scipy.sparse.linalg"} <= set(scipy_modules)
    loaded = {m.split(".")[1] for m in scipy_modules if m.count(".")}
    assert loaded.isdisjoint(_NOT_LINEAR_ALGEBRA), sorted(loaded)


def test_solve_loads_no_interpolation_optimisation_or_special_functions(tmp_path):
    argv = ["solve", "--manufactured-seed", "0", "--nx", "16", "--out", str(tmp_path / "s")]
    seen = _fresh(f"from codazzi import cli\nresult = cli.main({argv!r})")
    assert seen["result"] == 0
    assert (tmp_path / "s_report.json").exists()
    # the solve did fit its spline and factor its Jacobian
    _assert_only_linear_algebra(seen["scipy"])


def test_verify_loads_only_linear_algebra(tmp_path):
    argv = ["verify", "--suite", "all", "--seed", "0", "--out", str(tmp_path / "v.json")]
    seen = _fresh(f"from codazzi import cli\nresult = cli.main({argv!r})")
    assert seen["result"] == 0
    assert (tmp_path / "v.json").exists()
    # the run did fit splines, factor the Teichmueller solves and integrate by Simpson's rule
    _assert_only_linear_algebra(seen["scipy"])
