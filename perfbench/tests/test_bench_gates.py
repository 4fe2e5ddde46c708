"""Each workload's gate passes a real op's output and rejects corrupted copies."""

import json
import shutil

import pytest

import run
from workloads import Embed, Solve, Verify


def _op(workload, out_dir):
    from codazzi import cli

    out_dir.mkdir()
    rc, _, text = run.call_cli(cli, workload.argv(0, str(out_dir)))
    assert rc == 0, text
    return out_dir


def _corrupt(src, tmp_path, name, edit):
    dst = tmp_path / f"corrupt-{len(list(tmp_path.iterdir()))}"
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text()))
    return dst


def _edit_json(fn):
    def edit(text):
        doc = json.loads(text)
        fn(doc)
        return json.dumps(doc)
    return edit


@pytest.fixture(scope="module")
def solve_op(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solve")
    workload = Solve(0, str(tmp))
    return workload, _op(workload, tmp / "op")


@pytest.fixture(scope="module")
def verify_op(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("verify")
    workload = Verify(0, str(tmp))
    return workload, _op(workload, tmp / "op")


@pytest.fixture(scope="module")
def embed_op(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("embed")
    workload = Embed(0, str(tmp))
    return workload, _op(workload, tmp / "op")


def _perturb_node(doc, value):
    doc["x"][15 * 32 + 15][0] += value


SOLVE_CORRUPTIONS = {
    "perturbed displacement": ("solve_displacement.json",
                               _edit_json(lambda d: _perturb_node(d, 1e-4))),
    "NaN displacement": ("solve_displacement.json",
                         _edit_json(lambda d: _perturb_node(d, float("nan")))),
    "NaN final residual": ("solve_report.json",
                           _edit_json(lambda d: d["residuals"].__setitem__(-1, float("nan")))),
    "residual above tol": ("solve_report.json",
                           _edit_json(lambda d: d["residuals"].__setitem__(-1, 2e-8))),
    "misreported recovery": ("solve_report.json",
                             _edit_json(lambda d: d.__setitem__("recovery_error", 1e-5))),
    "truncated report": ("solve_report.json", lambda text: text[: len(text) // 2]),
}


def test_solve_gate(solve_op, tmp_path):
    workload, out = solve_op
    failures, observed = workload.gate(0, str(out))
    assert failures == []
    assert 0.0 < observed["recovery_err"] <= 1e-4
    for label, (name, edit) in SOLVE_CORRUPTIONS.items():
        failures, _ = workload.gate(0, str(_corrupt(out, tmp_path, name, edit)))
        assert failures, label


def _drop_check(doc):
    doc["suites"][2]["checks"].pop()


def _fail_check(doc):
    doc["suites"][0]["checks"][0]["pass"] = False


VERIFY_CORRUPTIONS = {
    "not passed": _edit_json(lambda d: d.__setitem__("passed", False)),
    "missing check": _edit_json(_drop_check),
    "failed check": _edit_json(_fail_check),
    "wrong seed": _edit_json(lambda d: d.__setitem__("seed", -1)),
}


def test_verify_gate(verify_op, tmp_path):
    workload, out = verify_op
    failures, observed = workload.gate(0, str(out))
    assert failures == []
    assert observed["checks"] == observed["checks_passed"] == 54
    for label, edit in VERIFY_CORRUPTIONS.items():
        failures, _ = workload.gate(0, str(_corrupt(out, tmp_path, "verify_report.json", edit)))
        assert failures, label


def _mesh_edit(row, col, fn):
    """Edit function replacing field ``col`` of mesh data row ``row``."""
    def edit(text):
        lines = text.split("\n")
        fields = lines[1 + row].split(",")
        fields[col] = repr(fn(float(fields[col])))
        lines[1 + row] = ",".join(fields)
        return "\n".join(lines)
    return edit


def _set_side(doc, side):
    doc["convexity"]["side"] = side


EMBED_CORRUPTIONS = {
    "NaN in mesh": ("embed_mesh.csv", _mesh_edit(1000, 4, lambda v: float("nan"))),
    "missing mesh rows": ("embed_mesh.csv", lambda t: "\n".join(t.split("\n")[:-100]) + "\n"),
    "moved base node": ("embed_mesh.csv", _mesh_edit(128 * 256 + 128, 4, lambda v: v + 1e-9)),
    "mixed convexity": ("embed_report.json", _edit_json(lambda d: _set_side(d, "mixed"))),
    "NaN plaquette defect": ("embed_report.json",
                             _edit_json(lambda d: d.__setitem__("plaquette_defect", float("nan")))),
    "large metric error": ("embed_report.json",
                           _edit_json(lambda d: d.__setitem__("induced_metric_error", 0.5))),
}


def test_embed_gate(embed_op, tmp_path):
    workload, out = embed_op
    failures, _ = workload.gate(0, str(out))
    assert failures == []
    for label, (name, edit) in EMBED_CORRUPTIONS.items():
        failures, _ = workload.gate(0, str(_corrupt(out, tmp_path, name, edit)))
        assert failures, label


def test_missing_output_and_exit_code_fail(solve_op, tmp_path):
    workload, _ = solve_op
    assert workload.gate(0, str(tmp_path))[0]
    assert run.gate(workload, 0, str(tmp_path), 1, "error: boom\n")[0] == ["exit code 1: error: boom"]
