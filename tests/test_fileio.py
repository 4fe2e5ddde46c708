"""Field-file round trips and deterministic serialization."""

import json

import numpy as np
import pytest

from codazzi import fileio
from codazzi.grid import ConformalMetric, Grid, poincare_disk
from codazzi.jcalc import metric_action
from codazzi.randfields import rng_for, trig_endo, trig_spd, trig_vector


@pytest.fixture
def sample(tmp_path):
    grid = Grid(12, 10, 0.8, 0.6, "dirichlet")
    g = poincare_disk(grid)
    h = metric_action(trig_spd(grid, rng_for(1), amp=0.15), g.matrix)
    endo = trig_endo(grid, rng_for(2), amp=0.3)
    x = trig_vector(grid, rng_for(3), amp=0.2)
    return tmp_path, grid, g, h, endo, x


def test_field_roundtrip_is_exact(sample):
    tmp, grid, g, h, endo, x = sample
    path = tmp / "f.json"
    fileio.save_field(path, g, h=h, endo=endo, x=x)
    doc = fileio.load_field(path)
    assert (doc["grid"].nx, doc["grid"].ny) == (grid.nx, grid.ny)
    assert (doc["grid"].lx, doc["grid"].ly) == (grid.lx, grid.ly)
    assert doc["grid"].topology == grid.topology
    assert np.array_equal(doc["g"].phi, g.phi)
    # h is stored as its upper triangle; the reloaded field is exactly
    # symmetric, matching the original up to its own symmetry defect
    assert np.max(np.abs(doc["h"] - h)) < 1e-15
    assert np.array_equal(doc["h"][..., 0, 1], doc["h"][..., 1, 0])
    assert np.array_equal(doc["endo"], endo)
    assert np.array_equal(doc["x"], x)


def test_field_file_in_the_indented_layout_loads_to_identical_arrays(sample):
    import json

    tmp, grid, g, h, endo, x = sample
    compact, indented = tmp / "compact.json", tmp / "indented.json"
    fileio.save_field(compact, g, h=h, endo=endo, x=x)
    # the layout field files had before they were written compactly
    with open(indented, "w") as fh:
        json.dump(json.load(open(compact)), fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")
    assert indented.read_bytes() != compact.read_bytes()
    new, old = fileio.load_field(compact), fileio.load_field(indented)
    assert old["grid"] == new["grid"]
    for key in ("h", "endo", "x"):
        assert old[key].tobytes() == new[key].tobytes()
    assert old["g"].phi.tobytes() == new["g"].phi.tobytes()


def test_load_reports_missing_phi(sample, tmp_path):
    import json

    tmp, grid, g, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g)
    doc = json.load(open(path))
    del doc["phi"]
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match="phi"):
        fileio.load_field(path)


def test_load_reports_truncated_payload(sample):
    import json

    tmp, grid, g, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g)
    doc = json.load(open(path))
    doc["phi"] = doc["phi"][:-1]
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match="phi"):
        fileio.load_field(path)


@pytest.mark.parametrize("key", ["nx", "ny"])
def test_load_refuses_non_integral_node_count(sample, key):
    import json

    tmp, grid, g, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g)
    doc = json.load(open(path))
    doc["grid"][key] += 0.9
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match=f"f.json.*'{key}'"):
        fileio.load_field(path)


@pytest.mark.parametrize("key", ["nx", "ny", "lx", "ly"])
@pytest.mark.parametrize(
    "wrong", [str, lambda v: True, lambda v: None], ids=["string", "true", "null"]
)
def test_load_refuses_a_header_value_that_is_not_a_number(sample, key, wrong):
    # "8" and "0.8" would read as numbers through float(), and true as 1.0
    tmp, grid, g, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g)
    doc = json.load(open(path))
    doc["grid"][key] = wrong(doc["grid"][key])
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match=f"f.json: bad 'grid' header.*'{key}'"):
        fileio.load_field(path)


def test_load_accepts_integral_float_node_count(sample):
    import json

    tmp, grid, g, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g)
    doc = json.load(open(path))
    doc["grid"]["nx"] = float(grid.nx)
    json.dump(doc, open(path, "w"))
    assert fileio.load_field(path)["grid"].nx == grid.nx


@pytest.mark.parametrize(
    "changes",
    [
        {0: np.nan},
        {2: np.inf},  # h00 > 0 and Det = inf > 0: only the finiteness test refuses it
        {1: 1e3},  # Det < 0
        {0: -1.0, 2: -1.0},  # negative definite: Det > 0 but h00 < 0
    ],
    ids=["nan", "inf", "negative-det", "negative-definite"],
)
def test_load_refuses_non_spd_h_naming_file_key_and_node(sample, changes):
    import json

    tmp, grid, g, h, *_ = sample
    path = tmp / "f.json"
    fileio.save_field(path, g, h=h)
    doc = json.load(open(path))
    for entry, value in changes.items():
        doc["h"][3 * grid.nx + 7][entry] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"f\.json: key 'h' .* \(j, i\) = \(3, 7\)"):
        fileio.load_field(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="JSON"):
        fileio.load_field(path)


def test_write_json_is_byte_deterministic(tmp_path):
    doc = {"b": [1.0, 2.5], "a": {"z": 0.1, "y": -3}}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    fileio.write_json(p1, doc)
    fileio.write_json(p2, doc)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_csv_shape_and_header(sample):
    tmp, grid, *_ = sample
    x = np.zeros((grid.ny, grid.nx, 3))
    phi = np.ones((grid.ny, grid.nx))
    path = tmp / "m.csv"
    fileio.write_mesh_csv(path, grid, x, phi)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,x1,x2,x3,phi_support"
    assert len(lines) == 1 + grid.nx * grid.ny
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (grid.nx * grid.ny, 6)
    # row-major with u fastest: the first nx rows share the lowest v
    assert np.all(data[: grid.nx, 1] == data[0, 1])


def _one_call_document(g, h, endo, x):
    """The field file as one json.dumps of the whole document: save_field's oracle."""
    grid = g.grid
    doc = {
        "grid": {
            "nx": grid.nx, "ny": grid.ny, "lx": grid.lx, "ly": grid.ly,
            "topology": grid.topology,
        },
        "phi": g.phi.ravel().tolist(),
    }
    if h is not None:
        tri = np.stack([h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]], axis=-1)
        doc["h"] = tri.reshape(-1, 3).tolist()
    if endo is not None:
        doc["endo"] = endo.reshape(-1, 4).tolist()
    if x is not None:
        doc["x"] = x.reshape(-1, 2).tolist()
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny]


# 120 nodes fill part of one chunk of rows, 4096 exactly one, 4550 one and a part
@pytest.mark.parametrize(
    "grid",
    [
        Grid(12, 10, 0.8, 0.6, "dirichlet"),
        Grid(64, 64, 1.0, 1.0, "periodic"),
        Grid(70, 65, 0.7, 0.9, "dirichlet"),
    ],
    ids=["120-nodes", "4096-nodes", "4550-nodes"],
)
@pytest.mark.parametrize(
    "keys", [(), ("h",), ("endo",), ("x",), ("h", "endo", "x")], ids="+".join
)
def test_save_field_writes_the_one_call_document_byte_for_byte(tmp_path, grid, keys):
    rng = np.random.default_rng(grid.nx + len(keys))

    def field(*comp):
        f = rng.standard_normal((grid.ny, grid.nx) + comp)
        f.reshape(-1)[rng.choice(f.size, len(_SPECIAL), replace=False)] = _SPECIAL
        return f

    g = ConformalMetric(grid, field())
    payloads = {"h": field(2, 2), "endo": field(2, 2), "x": field(2)}
    payloads = {k: (v if k in keys else None) for k, v in payloads.items()}
    path = tmp_path / "f.json"
    fileio.save_field(path, g, **payloads)
    assert path.read_text() == _one_call_document(g, **payloads)


def _one_row_at_a_time_mesh(grid, x, phi):
    """The mesh file written row by row, each value its own repr: write_mesh_csv's oracle."""
    lines = ["u,v,x1,x2,x3,phi_support\n"]
    for j in range(grid.ny):
        for i in range(grid.nx):
            row = [grid.x[i], grid.y[j], *x[j, i], phi[j, i]]
            lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


_MESH_SPECIAL = [-0.0, 5e-324, 1e300, -1e300, np.nan, np.inf, -np.inf]


# 72 rows fill part of one chunk of rows, 4225 and 4171 one and a part
@pytest.mark.parametrize(
    "grid",
    [
        Grid(8, 9, 0.7, 0.9, "dirichlet"),
        Grid(65, 65, 0.8, 0.8, "dirichlet"),
        Grid(97, 43, 1.0, 0.5, "periodic"),
    ],
    ids=["8x9", "65x65", "97x43"],
)
def test_mesh_csv_writes_the_one_row_at_a_time_file_byte_for_byte(tmp_path, grid):
    rng = np.random.default_rng(grid.nx)
    x = rng.standard_normal((grid.ny, grid.nx, 3))
    phi = rng.standard_normal((grid.ny, grid.nx))
    x.reshape(-1)[rng.choice(x.size, len(_MESH_SPECIAL), replace=False)] = _MESH_SPECIAL
    phi.reshape(-1)[rng.choice(phi.size, len(_MESH_SPECIAL), replace=False)] = _MESH_SPECIAL
    path = tmp_path / "m.csv"
    fileio.write_mesh_csv(path, grid, x, phi)
    assert path.read_bytes() == _one_row_at_a_time_mesh(grid, x, phi).encode()


def test_mesh_csv_refuses_shapes_that_do_not_match_the_grid(sample):
    tmp, *_ = sample
    grid = Grid(12, 9)
    path = tmp / "m.csv"
    with pytest.raises(ValueError, match=r"\(5, 9, 3\).*\(9, 12\)"):
        fileio.write_mesh_csv(path, grid, np.zeros((5, 9, 3)), np.zeros((9, 12)))
    with pytest.raises(ValueError, match=r"\(9, 12, 3\).*\(12, 9\)"):
        fileio.write_mesh_csv(path, grid, np.zeros((9, 12, 3)), np.zeros((12, 9)))
