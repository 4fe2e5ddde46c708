"""Command-line front end: exit contract, determinism, refusal paths."""

import json
import re

import numpy as np
import pytest

from codazzi import cli, embedding, fileio
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.jcalc import ID2


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli("verify", "--suite", "jcalc", "--seed", "0", "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert "PASS jcalc.sigma_frobenius_oracle" in capsys.readouterr().out


def test_verify_unknown_suite_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--suite", "nonsense")
    assert exc.value.code == 2


def test_verify_corrupted_file_names_file_and_key(tmp_path, capsys):
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    path = tmp_path / "bad.json"
    fileio.save_field(path, g)
    doc = json.loads(path.read_text())
    doc["phi"] = doc["phi"][:-3]
    path.write_text(json.dumps(doc))
    assert run_cli("verify", "--suite", "jcalc", "--g", path) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "phi" in err


def test_verify_failure_injection_exits_one(tmp_path, capsys):
    # an endo far from Codazzi on the input metric fails the input check
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    g = poincare_disk(grid)
    xx, yy = grid.meshgrid()
    a = np.broadcast_to(ID2, (16, 16, 2, 2)).copy()
    a[..., 0, 0] += 2.0 * np.sin(5 * xx) * np.cos(4 * yy)
    path = tmp_path / "inject.json"
    fileio.save_field(path, g, endo=a)
    out = tmp_path / "r.json"
    assert run_cli("verify", "--suite", "jcalc", "--g", path, "--out", out) == 1
    assert "FAIL input.input_codazzi_residual" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [("verify", "--suite", "jcalc"), ("solve", "--manufactured-seed", "3", "--nx", "16")],
)
def test_unwritable_output_is_io_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "r.json"
    assert run_cli(*argv, "--out", out) == 2
    assert str(out) in capsys.readouterr().err


def test_solve_missing_h_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("solve")
    assert exc.value.code == 2


def test_solve_refuses_flat_background(tmp_path, capsys):
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    flat = ConformalMetric.flat(grid)
    gpath = tmp_path / "flat.json"
    fileio.save_field(gpath, flat)
    hpath = tmp_path / "h.json"
    fileio.save_field(hpath, flat, h=2.0 * flat.matrix())
    assert run_cli("solve", "--g", gpath, "--h", hpath) == 1
    assert "negatively curved" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [{0: float("nan")}, {1: 1e3}], ids=["nan", "negative-det"])
def test_solve_refuses_non_spd_h_naming_file_key_and_node(tmp_path, capsys, entries):
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    gpath = tmp_path / "g.json"
    fileio.save_field(gpath, g)
    hpath = tmp_path / "badh.json"
    fileio.save_field(hpath, g, h=g.matrix())
    doc = json.loads(hpath.read_text())
    for entry, value in entries.items():
        doc["h"][4 * 16 + 9][entry] = value
    hpath.write_text(json.dumps(doc))
    assert run_cli("solve", "--g", gpath, "--h", hpath, "--out", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert "badh.json" in err and "'h'" in err and "(4, 9)" in err
    assert not (tmp_path / "s_report.json").exists()


def test_solve_manufactured_reports_recovery(tmp_path):
    prefix = tmp_path / "s"
    code = run_cli(
        "solve", "--manufactured-seed", "3", "--nx", "16", "--out", prefix
    )
    assert code == 0
    rep = json.loads((tmp_path / "s_report.json").read_text())
    # the 1e-4 recovery target applies at 32^2; this quick 16^2 run is
    # one refinement coarser (the acceptance test covers the full case)
    assert rep["recovery_error"] <= 5e-4
    disp = fileio.load_field(tmp_path / "s_displacement.json")
    assert disp["x"].shape == (16, 16, 2)


def test_embed_identity_support_column(tmp_path):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    idf = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    path = tmp_path / "id.json"
    fileio.save_field(path, patch.metric, endo=idf)
    prefix = tmp_path / "e"
    assert run_cli("embed", "--endo", path, "--out", prefix) == 0
    data = np.loadtxt(tmp_path / "e_mesh.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, 5] + 1.0)) < 1e-10
    rep = json.loads((tmp_path / "e_report.json").read_text())
    assert rep["convexity"]["side"] == "future"


def test_embed_refuses_nonsymmetric(tmp_path, capsys):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    a[..., 0, 1] += 0.3
    path = tmp_path / "ns.json"
    fileio.save_field(path, patch.metric, endo=a)
    assert run_cli("embed", "--endo", path) == 1
    assert "non-symmetric" in capsys.readouterr().err


def test_embed_refuses_non_finite_endo(tmp_path, capsys):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    a[8, 3, 0, 0] = np.nan
    path = tmp_path / "nan.json"
    fileio.save_field(path, patch.metric, endo=a)
    prefix = tmp_path / "e"
    assert run_cli("embed", "--endo", path, "--out", prefix) == 1
    assert "non-symmetric" in capsys.readouterr().err
    assert not (tmp_path / "e_mesh.csv").exists()


@pytest.mark.parametrize("command", ["verify", "embed"])
@pytest.mark.parametrize(
    "entry, value", [((0, 0), np.nan), ((1, 0), np.inf), ((0, 1), 0.3)],
    ids=["nan", "inf", "non-symmetric"],
)
def test_bad_endo_is_refused_naming_file_key_and_node(tmp_path, capsys, command, entry, value):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    a[(6, 13) + entry] = value
    a[(9, 2) + entry] = value
    path = tmp_path / "badendo.json"
    fileio.save_field(path, patch.metric, endo=a)
    argv = {
        "verify": ("verify", "--suite", "jcalc", "--g", path, "--out", tmp_path / "r.json"),
        "embed": ("embed", "--endo", path, "--out", tmp_path / "e"),
    }[command]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert "badendo.json" in captured.err and "'endo'" in captured.err
    assert "(j, i) = (6, 13)" in captured.err
    assert "input_codazzi_residual" not in captured.out
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "e_mesh.csv").exists()


@pytest.mark.parametrize("command", ["verify", "embed"])
def test_non_finite_phi_is_refused_naming_file_key_and_node(tmp_path, capsys, command):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    phi = patch.metric.phi.copy()
    phi[5, 11] = np.nan
    path = tmp_path / "nanphi.json"
    endo = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    fileio.save_field(path, ConformalMetric(grid, phi), endo=endo)
    argv = {
        "verify": ("verify", "--suite", "jcalc", "--g", path, "--out", tmp_path / "r.json"),
        "embed": ("embed", "--endo", path, "--out", tmp_path / "e"),
    }[command]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "nanphi.json" in err and "'phi'" in err and "(5, 11)" in err


def test_embed_nan_codazzi_residual_is_refused(tmp_path, capsys, monkeypatch):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    path = tmp_path / "id.json"
    fileio.save_field(path, patch.metric, endo=np.broadcast_to(ID2, (17, 17, 2, 2)))
    monkeypatch.setattr(cli, "codazzi_residual", lambda a, g: float("nan"))
    prefix = tmp_path / "e"
    assert run_cli("embed", "--endo", path, "--out", prefix) == 1
    assert "refusing non-Codazzi input: residual nan" in capsys.readouterr().err
    assert not (tmp_path / "e_mesh.csv").exists()


def test_embed_refuses_non_codazzi_naming_residual(tmp_path, capsys):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    xx, yy = grid.meshgrid()
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    a[..., 0, 0] += 1.5 * np.sin(5 * xx) * np.cos(4 * yy)
    path = tmp_path / "nc.json"
    fileio.save_field(path, patch.metric, endo=a)
    assert run_cli("embed", "--endo", path) == 1
    err = capsys.readouterr().err
    assert "residual" in err


def test_verify_reports_are_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "--suite", "fields", "--seed", "1", "--out", "a.json")
    run_cli("verify", "--suite", "fields", "--seed", "1", "--out", "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("verify", {"--suite", "--seed", "--g", "--tol", "--out"}),
        ("solve", {"--g", "--h", "--nx", "--ny", "--lx", "--ly", "--tol", "--out",
                   "--continuation-steps", "--manufactured-seed"}),
        ("embed", {"--endo", "--tol", "--out"}),
    ],
)
def test_help_lists_exactly_the_flags_each_subcommand_reads(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == 0
    shown = set(re.findall(r"--[a-z0-9][a-z0-9-]*", capsys.readouterr().out))
    assert shown - {"--help"} == flags


def _identity_endo_file(tmp_path):
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    path = tmp_path / "f.json"
    idf = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    fileio.save_field(path, embedding.HyperboloidPatch(grid).metric, endo=idf)
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ("embed", "--endo", "{f}", "--seed", "1"),
        ("embed", "--endo", "{f}", "--h", "{f}"),
        ("verify", "--suite", "jcalc", "--endo", "{f}"),
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--topology", "dirichlet"),
        ("verify", "--suite", "jcalc", "--nx", "16"),
        ("verify", "--suite", "jcalc", "--nx2", "64"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(tmp_path, monkeypatch, argv):
    # --h on embed must not be read as an abbreviation of --help
    monkeypatch.chdir(tmp_path)
    f = _identity_endo_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*(a.format(f=f) for a in argv))
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--continuation-steps", "-3"),
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--tol", "nan"),
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--tol", "-1"),
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--tol", "0"),
        ("solve", "--manufactured-seed", "0", "--nx", "16", "--tol", "inf"),
        ("verify", "--suite", "jcalc", "--tol", "nan"),
        ("embed", "--endo", "{f}", "--tol", "nan"),
        ("embed", "--endo", "{f}", "--tol", "-0.05"),
    ],
)
def test_out_of_range_flag_values_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    f = _identity_endo_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*(a.format(f=f) for a in argv))
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.json"))


def test_embed_refuses_non_integral_header_naming_file_and_key(tmp_path, capsys):
    path = _identity_endo_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["grid"]["nx"] = 17.9
    path.write_text(json.dumps(doc))
    assert run_cli("embed", "--endo", path, "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert "f.json" in err and "'nx'" in err


@pytest.mark.parametrize("shift, code", [(1e-13, 0), (1e-9, 1)], ids=["round-off", "other-metric"])
def test_embed_refuses_a_phi_other_than_the_charts_disk_metric(tmp_path, capsys, shift, code):
    # embed integrates on the Poincare sub-disk metric of the file's grid
    grid = Grid(17, 17, 0.8, 0.8, "dirichlet")
    patch = embedding.HyperboloidPatch(grid)
    phi = patch.metric.phi.copy()
    phi[3, 12] += shift * (1.0 + abs(phi[3, 12]))
    path = tmp_path / "otherphi.json"
    fileio.save_field(path, ConformalMetric(grid, phi), endo=np.broadcast_to(ID2, (17, 17, 2, 2)))
    prefix = tmp_path / "e"
    assert run_cli("embed", "--endo", path, "--out", prefix) == code
    assert (tmp_path / "e_mesh.csv").exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "otherphi.json" in err and "'phi'" in err and "(3, 12)" in err


def test_solve_refuses_an_h_file_on_another_chart_with_the_same_node_counts(tmp_path, capsys):
    other = poincare_disk(Grid(16, 16, 0.6, 0.8, "dirichlet"))
    hpath = tmp_path / "h.json"
    fileio.save_field(hpath, other, h=other.matrix())
    assert run_cli("solve", "--h", hpath, "--nx", "16", "--out", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert "h.json" in err and "lx=0.6" in err and "lx=0.8" in err
    assert not (tmp_path / "s_report.json").exists()


@pytest.mark.parametrize(
    "shift, node, code",
    [(None, (0, 0), 2), (1e-13, None, 0), (1e-9, (3, 12), 2)],
    ids=["flat-phi", "round-off", "other-metric"],
)
def test_solve_refuses_an_h_file_whose_phi_is_not_the_backgrounds(
    tmp_path, capsys, shift, node, code
):
    # the target 2.25 g is read against the background's metric, so the
    # file must carry that metric's phi: the flat phi = 0, or one node moved
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    phi = np.zeros_like(g.phi) if shift is None else g.phi.copy()
    if shift is not None:
        phi[3, 12] += shift * (1.0 + abs(phi[3, 12]))
    hpath = tmp_path / "otherphi.json"
    fileio.save_field(hpath, ConformalMetric(g.grid, phi), h=2.25 * g.matrix())
    assert run_cli("solve", "--h", hpath, "--nx", "16", "--out", tmp_path / "s") == code
    assert (tmp_path / "s_report.json").exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "otherphi.json" in err and "'phi'" in err and f"({node[0]}, {node[1]})" in err


@pytest.mark.parametrize(
    "grid, reason",
    [
        (Grid(16, 16, 0.8, 0.8, "periodic"), "Dirichlet chart"),
        (Grid(16, 16, 1.6, 1.6, "dirichlet"), "leaves the unit disk"),
    ],
    ids=["periodic", "outside-the-disk"],
)
def test_embed_refuses_a_chart_without_a_hyperboloid_patch_naming_the_file(
    tmp_path, capsys, grid, reason
):
    path = tmp_path / "nopatch.json"
    fileio.save_field(
        path, ConformalMetric.flat(grid), endo=np.broadcast_to(ID2, (16, 16, 2, 2))
    )
    assert run_cli("embed", "--endo", path, "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert "nopatch.json" in err and reason in err and f"lx={grid.lx}" in err
    assert not (tmp_path / "e_mesh.csv").exists()


def test_solve_refuses_h_together_with_a_manufactured_seed(tmp_path, capsys):
    # the manufactured run builds its own target and would ignore the file
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    hpath = tmp_path / "h.json"
    fileio.save_field(hpath, g, h=2.25 * g.matrix())
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--manufactured-seed", "0", "--h", hpath, "--nx", "16",
                "--out", tmp_path / "s")
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "s_report.json").exists()


@pytest.mark.parametrize(
    "tilt, node, code",
    [(0.0, None, 0), (0.3, (0, 0), 2)],
    ids=["poincare", "tilted"],
)
def test_solve_manufactured_refuses_a_g_whose_phi_is_not_the_disk_metric(
    tmp_path, capsys, tilt, node, code
):
    # the manufactured target is the pullback of the scaled Poincare metric,
    # so a background with phi = Poincare + 0.3 x would be solved against a
    # target built for another metric
    grid = Grid(16, 16, 0.8, 0.8, "dirichlet")
    xx, _ = grid.meshgrid()
    gpath = tmp_path / "tilted.json"
    fileio.save_field(gpath, ConformalMetric(grid, poincare_disk(grid).phi + tilt * xx))
    prefix = tmp_path / "s"
    assert run_cli("solve", "--manufactured-seed", "0", "--g", gpath, "--out", prefix) == code
    assert (tmp_path / "s_report.json").exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert "tilted.json" in err and "'phi'" in err and f"({node[0]}, {node[1]})" in err


@pytest.mark.parametrize(
    "metric, grid, argv, reason",
    [
        (ConformalMetric.flat, Grid(16, 16, 1.6, 1.6, "dirichlet"),
         ("--manufactured-seed", "0", "--g", "{g}"), "chart leaves the unit disk"),
        (None, Grid(16, 16, 1.6, 1.6, "dirichlet"),
         ("--manufactured-seed", "0", "--nx", "16", "--lx", "1.6"), "chart leaves the unit disk"),
        (poincare_disk, Grid(16, 16, 0.8, 0.8, "periodic"),
         ("--g", "{g}", "--h", "{g}"), "the solver needs a Dirichlet chart"),
        (poincare_disk, Grid(16, 16, 0.8, 0.8, "periodic"),
         ("--manufactured-seed", "0", "--g", "{g}"), "the solver needs a Dirichlet chart"),
    ],
    ids=["outside-the-disk", "outside-the-disk-flags", "periodic", "periodic-manufactured"],
)
def test_solve_refuses_a_chart_naming_the_file_and_the_grid(
    tmp_path, capsys, metric, grid, argv, reason
):
    # with only grid flags there is no file, and the message names the grid
    gpath = tmp_path / "chart.json"
    if metric is not None:
        g = metric(grid)
        fileio.save_field(gpath, g, h=2.25 * g.matrix())
    prefix = tmp_path / "s"
    assert run_cli("solve", *(a.format(g=gpath) for a in argv), "--out", prefix) == 2
    named = "" if metric is None else f"{gpath}: "
    assert capsys.readouterr().err == f"error: {named}grid {grid}: {reason}\n"
    assert not list(tmp_path.glob("s_*"))


@pytest.fixture(scope="module")
def refused_files(tmp_path_factory):
    """A directory holding one field file for each refusal of the table below."""
    d = tmp_path_factory.mktemp("refused")
    grid16 = Grid(16, 16, 0.8, 0.8, "dirichlet")
    disk16 = poincare_disk(grid16)
    xx16, _ = grid16.meshgrid()
    grid17 = Grid(17, 17, 0.8, 0.8, "dirichlet")
    disk17 = poincare_disk(grid17)
    xx17, yy17 = grid17.meshgrid()
    idf17 = np.broadcast_to(ID2, (17, 17, 2, 2))

    def save(name, g, **payload):
        fileio.save_field(d / name, g, **payload)

    save("disk16.json", disk16)
    save("h16.json", disk16, h=2.25 * disk16.matrix())
    doc = json.loads((d / "h16.json").read_text())
    (d / "truncated.json").write_text(json.dumps(dict(doc, phi=doc["phi"][:-3])))
    doc["h"][4 * 16 + 9] = [1.0, 2.0, 1.0]
    (d / "nonspd.json").write_text(json.dumps(doc))
    (d / "notjson.json").write_text("{")
    other = poincare_disk(Grid(16, 16, 0.6, 0.8, "dirichlet"))
    save("othergrid.json", other, h=other.matrix())
    phi = disk16.phi.copy()
    phi[3, 12] += 1e-9 * (1.0 + abs(phi[3, 12]))
    save("otherphi_h.json", ConformalMetric(grid16, phi), h=2.25 * disk16.matrix())
    save("tilted.json", ConformalMetric(grid16, disk16.phi + 0.3 * xx16))
    phi = disk17.phi.copy()
    phi[5, 11] = np.nan
    save("nanphi.json", ConformalMetric(grid17, phi), endo=idf17)
    phi = disk17.phi.copy()
    phi[3, 12] += 1e-9 * (1.0 + abs(phi[3, 12]))
    save("otherphi_endo.json", ConformalMetric(grid17, phi), endo=idf17)
    a = idf17.copy()
    a[6, 13, 0, 1] += 0.3
    save("nonsym.json", disk17, endo=a)
    periodic = ConformalMetric.flat(Grid(16, 16, 0.8, 0.8, "periodic"))
    save("periodic_endo.json", periodic, endo=np.broadcast_to(ID2, (16, 16, 2, 2)))
    wide = ConformalMetric.flat(Grid(16, 16, 1.6, 1.6, "dirichlet"))
    save("outside_endo.json", wide, endo=np.broadcast_to(ID2, (16, 16, 2, 2)))
    save("wide.json", wide)
    a = idf17.copy()
    a[..., 0, 0] += 1.5 * np.sin(5 * xx17) * np.cos(4 * yy17)
    save("noncodazzi.json", disk17, endo=a)
    flat16 = ConformalMetric.flat(grid16)
    save("flat16.json", flat16, h=2.0 * flat16.matrix())
    periodic_disk = poincare_disk(periodic.grid)
    save("periodic_disk.json", periodic_disk, h=2.25 * periodic_disk.matrix())
    return d


# one row per refusal class: argv, exit status, and what the message names
# ("{d}/..." a file; None for the two refusals of a computed quantity)
_REFUSALS = {
    "load-not-json": (("verify", "--suite", "jcalc", "--g", "{d}/notjson.json"), 2,
                      "{d}/notjson.json"),
    "load-absent": (("embed", "--endo", "{d}/absent.json"), 2, "{d}/absent.json"),
    "load-truncated": (("solve", "--h", "{d}/truncated.json", "--nx", "16"), 2,
                       "{d}/truncated.json"),
    "load-non-spd-h": (("solve", "--g", "{d}/disk16.json", "--h", "{d}/nonspd.json"), 2,
                       "{d}/nonspd.json"),
    "missing-key-h": (("solve", "--h", "{d}/disk16.json", "--nx", "16"), 2, "{d}/disk16.json"),
    "missing-key-endo": (("embed", "--endo", "{d}/disk16.json"), 2, "{d}/disk16.json"),
    "grid": (("solve", "--h", "{d}/othergrid.json", "--nx", "16"), 2, "{d}/othergrid.json"),
    "phi-non-finite": (("embed", "--endo", "{d}/nanphi.json"), 2, "{d}/nanphi.json"),
    "phi-solve-h": (("solve", "--h", "{d}/otherphi_h.json", "--nx", "16"), 2,
                    "{d}/otherphi_h.json"),
    "phi-solve-manufactured": (("solve", "--manufactured-seed", "0", "--g", "{d}/tilted.json"),
                               2, "{d}/tilted.json"),
    "phi-embed": (("embed", "--endo", "{d}/otherphi_endo.json"), 1, "{d}/otherphi_endo.json"),
    "endo-verify": (("verify", "--suite", "jcalc", "--g", "{d}/nonsym.json"), 1,
                    "{d}/nonsym.json"),
    "endo-embed": (("embed", "--endo", "{d}/nonsym.json"), 1, "{d}/nonsym.json"),
    "patch-periodic": (("embed", "--endo", "{d}/periodic_endo.json"), 2,
                       "{d}/periodic_endo.json"),
    "patch-outside": (("embed", "--endo", "{d}/outside_endo.json"), 2, "{d}/outside_endo.json"),
    "non-codazzi": (("embed", "--endo", "{d}/noncodazzi.json"), 1, None),
    "curvature": (("solve", "--g", "{d}/flat16.json", "--h", "{d}/flat16.json"), 1, None),
    "chart-outside": (("solve", "--manufactured-seed", "0", "--g", "{d}/wide.json"), 2,
                      "{d}/wide.json"),
    "chart-outside-flags": (("solve", "--manufactured-seed", "0", "--nx", "16", "--lx", "1.6"),
                            2, "grid Grid(nx=16, ny=16, lx=1.6"),
    "chart-periodic": (("solve", "--g", "{d}/periodic_disk.json", "--h",
                        "{d}/periodic_disk.json"), 2, "{d}/periodic_disk.json"),
}


@pytest.mark.parametrize("argv, code, named", _REFUSALS.values(), ids=_REFUSALS.keys())
def test_each_refusal_returns_its_status_with_one_error_line_and_writes_nothing(
    refused_files, tmp_path, capsys, argv, code, named
):
    # a refusal comes back from cli.main as a status, not as a raised SystemExit
    argv = [a.format(d=refused_files) for a in argv]
    assert run_cli(*argv, "--out", tmp_path / "o") == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith("\n")
    if named is not None:
        assert named.format(d=refused_files) in captured.err
    assert not list(tmp_path.iterdir())
