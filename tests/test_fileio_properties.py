"""Property tests of the serializers: field files and mesh rows keep every bit."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codazzi import fileio
from codazzi.grid import ConformalMetric, Grid


# A fixed, derandomized profile keeps the property tests deterministic.
_PROPERTY = settings(
    derandomize=True,
    database=None,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTENT = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def _grids(draw):
    return Grid(
        draw(st.integers(8, 11)), draw(st.integers(8, 11)), draw(_EXTENT), draw(_EXTENT),
        "dirichlet",
    )


def _node_arrays(grid, *comps, elements=_FINITE):
    return hnp.arrays(np.float64, (grid.ny, grid.nx) + comps, elements=elements)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@_PROPERTY
@given(data=st.data())
def test_field_file_round_trips_bit_for_bit(tmp_path, data):
    grid = data.draw(_grids())
    # a metric refuses a phi whose e^{+-2 phi} over- or underflows
    phi = data.draw(_node_arrays(grid, elements=st.floats(-354.0, 354.0)))
    # an SPD h: positive diagonal, |h01| < sqrt(h00 h11)
    diag = data.draw(_node_arrays(grid, 2, elements=st.floats(1e-3, 1e3)))
    r = data.draw(_node_arrays(grid, elements=st.floats(-0.99, 0.99)))
    h = np.empty((grid.ny, grid.nx, 2, 2))
    h[..., 0, 0] = diag[..., 0]
    h[..., 1, 1] = diag[..., 1]
    h[..., 0, 1] = h[..., 1, 0] = r * np.sqrt(diag[..., 0] * diag[..., 1])
    endo = data.draw(_node_arrays(grid, 2, 2))
    x = data.draw(_node_arrays(grid, 2))
    path = tmp_path / "f.json"
    fileio.save_field(path, ConformalMetric(grid, phi), h=h, endo=endo, x=x)
    doc = fileio.load_field(path)
    assert doc["grid"] == grid
    assert _same_bits(doc["g"].phi, phi)
    assert _same_bits(doc["h"], h)
    assert _same_bits(doc["endo"], endo)
    assert _same_bits(doc["x"], x)


@_PROPERTY
@given(data=st.data())
def test_mesh_rows_parse_back_to_the_floats_written(tmp_path, data):
    grid = data.draw(_grids())
    x = data.draw(_node_arrays(grid, 3))
    phi = data.draw(_node_arrays(grid))
    path = tmp_path / "m.csv"
    fileio.write_mesh_csv(path, grid, x, phi)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + grid.nx * grid.ny
    u, v = grid.x, grid.y
    for k, line in enumerate(lines[1:]):
        j, i = divmod(k, grid.nx)
        want = [u[i], v[j], x[j, i, 0], x[j, i, 1], x[j, i, 2], phi[j, i]]
        got = [float(f) for f in line.split(",")]
        assert _same_bits(np.array(got), np.array(want))
