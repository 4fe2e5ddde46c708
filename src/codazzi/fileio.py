"""Field-file, report and mesh serialization.

Field files are compact JSON with a grid header and row-major node payloads
(x fastest).  Reports are indented JSON.  Both sort their keys, so identical
runs produce byte-identical artifacts; meshes are plain CSV for plotting
tools.
"""

import json
from itertools import chain, cycle, islice, repeat

import numpy as np

from .grid import ConformalMetric, Grid
from .jcalc import check_spd

__all__ = [
    "save_field",
    "load_field",
    "write_json",
    "write_mesh_csv",
]


# Rows per json.dumps call in save_field and per write in write_mesh_csv:
# bounds the memory of the lists and strings built, whatever the grid size.
_ROWS_PER_CHUNK = 4096


def _dumps(obj):
    # compact json.dumps runs json's C encoder; json.dump and any indent fall
    # back to the pure-Python one
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_field(path, g: ConformalMetric, h=None, endo=None, x=None):
    """Write a field file: conformal factor plus optional matrix/vector payloads.

    The file is the compact, key-sorted JSON document of the grid header and
    the payloads; each payload is written in chunks of rows, so no string
    or list of the whole document is ever built.
    """
    grid = g.grid
    header = {
        "nx": grid.nx,
        "ny": grid.ny,
        "lx": grid.lx,
        "ly": grid.ly,
        "topology": grid.topology,
    }
    payloads = {"phi": g.phi.reshape(-1)}
    if h is not None:
        h = grid.check_field(h, rank=2)
        tri = np.stack([h[..., 0, 0], h[..., 0, 1], h[..., 1, 1]], axis=-1)
        payloads["h"] = tri.reshape(-1, 3)
    if endo is not None:
        payloads["endo"] = grid.check_field(endo, rank=2).reshape(-1, 4)
    if x is not None:
        payloads["x"] = grid.check_field(x, rank=1).reshape(-1, 2)
    with open(path, "w") as fh:
        for k, key in enumerate(sorted(["grid", *payloads])):
            fh.write(("{" if k == 0 else ",") + _dumps(key) + ":")
            if key == "grid":
                fh.write(_dumps(header))
                continue
            rows = payloads[key]
            for start in range(0, len(rows), _ROWS_PER_CHUNK):
                chunk = _dumps(rows[start:start + _ROWS_PER_CHUNK].tolist())
                # the chunk's own brackets open and close the whole list
                fh.write(("[" if start == 0 else ",") + chunk[1:-1])
            fh.write("]")
        fh.write("}\n")


def _header_number(header, key):
    """A grid header value as a float; refuses "0.8", true or null instead of coercing them."""
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{key}' must be a JSON number, got {value!r}")
    return float(value)


def _node_count(header, key):
    """Integral node count from a grid header; refuses 17.9 instead of truncating."""
    n = _header_number(header, key)
    if not n.is_integer():
        raise ValueError(f"'{key}' must be a whole number, got {header[key]!r}")
    return int(n)


def load_field(path):
    """Read a field file; returns a dict with the metric and any payloads.

    Raises ValueError naming the file and offending key on malformed input,
    and the first node (j, i) of a ``phi`` that :class:`ConformalMetric`
    refuses (a non-finite one, or one whose e^{+-2 phi} over- or
    underflows) or of an ``h`` that
    :func:`codazzi.jcalc.check_spd` refuses.  A non-finite ``endo`` is left to
    :func:`codazzi.jcalc.check_symmetric` at its point of use.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        gd = doc["grid"]
        grid = Grid(
            _node_count(gd, "nx"), _node_count(gd, "ny"), _header_number(gd, "lx"),
            _header_number(gd, "ly"), str(gd["topology"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad 'grid' header ({exc})") from None
    out = {"grid": grid}
    nnode = grid.nx * grid.ny

    def _payload(key, ncomp):
        what = f"{path}: key '{key}' must hold {nnode} nodes of {ncomp} reals"
        try:
            raw = np.asarray(doc[key], dtype=float)
        except (TypeError, ValueError):  # ragged rows, strings, objects
            raise ValueError(what) from None
        if raw.shape != (nnode, ncomp) and not (ncomp == 1 and raw.shape == (nnode,)):
            raise ValueError(what)
        return raw

    try:
        phi = _payload("phi", 1).reshape(grid.ny, grid.nx)
    except KeyError:
        raise ValueError(f"{path}: missing required key 'phi'") from None
    try:
        out["g"] = ConformalMetric(grid, phi)
    except ValueError as exc:
        raise ValueError(f"{path}: key {exc}") from None
    if "h" in doc:
        # rows (h00, h01, h11) spread to [[h00, h01], [h01, h11]]
        h = _payload("h", 3)[:, [0, 1, 1, 2]].reshape(grid.ny, grid.nx, 2, 2)
        try:
            out["h"] = check_spd(h)
        except ValueError as exc:
            raise ValueError(f"{path}: key 'h' holds a {exc}") from None
    if "endo" in doc:
        out["endo"] = _payload("endo", 4).reshape(grid.ny, grid.nx, 2, 2)
    if "x" in doc:
        out["x"] = _payload("x", 2).reshape(grid.ny, grid.nx, 2)
    return out


def write_json(path, doc):
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2, separators=(",", ": "))
        fh.write("\n")


def write_mesh_csv(path, grid: Grid, x, phi_support):
    """Mesh rows "u,v,x1,x2,x3,phi_support", row-major with u fastest.

    Raises ValueError unless ``x`` is (ny, nx, 3) and ``phi_support`` is
    (ny, nx) on ``grid``.
    """
    x = np.asarray(x, dtype=float)
    phi_support = np.asarray(phi_support, dtype=float)
    if x.shape != (grid.ny, grid.nx, 3) or phi_support.shape != (grid.ny, grid.nx):
        raise ValueError(f"mesh x {x.shape} and phi_support {phi_support.shape} do not "
                         f"match grid ({grid.ny}, {grid.nx})")
    # one repr per chart column (u) and per chart row (v), u fastest; the
    # other values' reprs and the rows are made in C, a chunk of rows at a time
    u_col = cycle(map(repr, grid.x.tolist()))
    v_col = chain.from_iterable(map(repeat, map(repr, grid.y.tolist()), repeat(grid.nx)))
    cols = (*x.reshape(-1, 3).T, phi_support.reshape(-1))
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,x3,phi_support\n")
        for start in range(0, grid.nx * grid.ny, _ROWS_PER_CHUNK):
            chunk = slice(start, start + _ROWS_PER_CHUNK)
            # islice ends a full chunk without drawing a row's u or v ahead
            rows = zip(islice(u_col, _ROWS_PER_CHUNK), islice(v_col, _ROWS_PER_CHUNK),
                       *(map(repr, c[chunk].tolist()) for c in cols))
            fh.write("\n".join(map(",".join, rows)) + "\n")
