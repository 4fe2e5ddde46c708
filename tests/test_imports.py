"""Importing the package, and running ``codazzi embed``, load no scipy;
``codazzi solve`` loads only scipy's sparse and dense linear algebra.

scipy is imported inside the functions that call it, so a process that
never fits a spline, builds a sparse matrix or runs a Simpson quadrature
never pays for its import, and the spline is the package's own, so no
process loads scipy.interpolate for it.  Each check runs in a fresh
interpreter, since the test process itself has scipy loaded.
"""

import json
import subprocess
import sys
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


# subpackages that scipy.interpolate pulls in, and that nothing in a solve needs
_NOT_IN_A_SOLVE = ("interpolate", "optimize", "spatial", "special", "fft")


def test_solve_loads_no_interpolation_optimisation_or_special_functions(tmp_path):
    argv = ["solve", "--manufactured-seed", "0", "--nx", "16", "--out", str(tmp_path / "s")]
    seen = _fresh(f"from codazzi import cli\nresult = cli.main({argv!r})")
    assert seen["result"] == 0
    assert (tmp_path / "s_report.json").exists()
    # the solve did fit its spline and factor its Jacobian
    assert {"scipy.linalg", "scipy.sparse.linalg"} <= set(seen["scipy"])
    loaded = {m.split(".")[1] for m in seen["scipy"] if m.count(".")}
    assert loaded.isdisjoint(_NOT_IN_A_SOLVE), sorted(loaded)
