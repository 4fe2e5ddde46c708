"""Property test of the CLI's exit contract on corrupted field files.

Each corrupted file must be refused with exit 2, returned by ``cli.main``,
and a message that names it, before any suite, solve or integration runs;
no corruption may escape as a traceback or as a raised ``SystemExit``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codazzi import cli, embedding, fileio, solver, verify
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2


# A fixed, derandomized profile keeps the property tests deterministic.
_PROPERTY = settings(derandomize=True, database=None, max_examples=80, deadline=None)
_N = 8
_NODES = st.integers(0, _N * _N - 1)

# each command: the payload it requires besides 'grid' and 'phi', and its
# argv for the field file under test and a valid background file
_COMMANDS = {
    "solve": (("h",), lambda f, bg, out: ["solve", "--g", bg, "--h", f, "--out", out]),
    "embed": (("endo",), lambda f, bg, out: ["embed", "--endo", f, "--out", out]),
    "verify": ((), lambda f, bg, out: ["verify", "--suite", "jcalc", "--g", f, "--out", out]),
}
_KINDS = [
    "missing key", "missing header key", "truncated payload", "short node", "non-finite",
    "non-SPD h", "fractional count", "not JSON",
]


class _Ran(AssertionError):
    """The command got past its input checks to the work itself."""


def _work(*args, **kwargs):
    raise _Ran("a command ran on its input")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory, a valid field file in it, and that file's JSON document."""
    d = tmp_path_factory.mktemp("contract")
    g = poincare_disk(Grid(_N, _N, 0.8, 0.8, "dirichlet"))
    valid = d / "valid.json"
    fileio.save_field(valid, g, h=g.matrix(), endo=np.broadcast_to(ID2, (_N, _N, 2, 2)))
    return d, valid, json.loads(valid.read_text())


def _run(argv):
    """``(exit code, stderr)`` of the CLI, with the work after the input checks disabled."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        for module, name in [
            (verify, "run_suites"), (solver, "newton_solve"), (solver, "continuation_solve"),
            (embedding, "integrate_immersion"),
        ]:
            mp.setattr(module, name, _work)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@st.composite
def _corrupted(draw, doc, required):
    """``(kind, bytes)``: the document ``doc`` with one thing broken."""
    kind = draw(st.sampled_from(_KINDS))
    doc = json.loads(json.dumps(doc))
    if kind == "missing key":
        del doc[draw(st.sampled_from(("grid", "phi") + required))]
    elif kind == "missing header key":
        del doc["grid"][draw(st.sampled_from(sorted(doc["grid"])))]
    elif kind == "truncated payload":
        key = draw(st.sampled_from(["phi", "h", "endo"]))
        doc[key] = doc[key][: draw(_NODES)]
    elif kind == "short node":
        doc[draw(st.sampled_from(["h", "endo"]))][draw(_NODES)].pop()
    elif kind == "non-finite":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            doc["phi"][draw(_NODES)] = value
        else:
            doc["h"][draw(_NODES)][draw(st.integers(0, 2))] = value
    elif kind == "non-SPD h":
        triple = draw(st.sampled_from([[-1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [0.0, 0.0, 0.0]]))
        doc["h"][draw(_NODES)] = triple
    elif kind == "fractional count":
        doc["grid"][draw(st.sampled_from(["nx", "ny"]))] = _N + draw(st.floats(0.01, 0.99))
    else:  # not JSON: the text cut before its closing brace, or bytes that are not UTF-8
        text = json.dumps(doc).encode()
        if draw(st.booleans()):
            return kind, text[: draw(st.integers(0, len(text) - 1))]
        return kind, draw(st.binary(max_size=16)) + b"\xff"
    return kind, json.dumps(doc).encode()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_the_valid_file_reaches_the_work(files, command):
    # without a corruption every command gets past its checks, so the
    # property below is not met by a command that refuses everything
    d, valid, _ = files
    with pytest.raises(_Ran):
        _run(_COMMANDS[command][1](valid, valid, d / "out"))


@_PROPERTY
@given(data=st.data())
def test_a_corrupted_field_file_exits_2_naming_the_file_before_any_work(files, data):
    d, valid, doc = files
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    required, argv = _COMMANDS[command]
    kind, raw = data.draw(_corrupted(doc, required))
    path = d / "corrupted.json"
    path.write_bytes(raw)
    code, err = _run(argv(path, valid, d / "out"))
    assert code == 2, (command, kind, err)
    assert err.startswith("error: ") and "corrupted.json" in err, (command, kind, err)
    assert not list(d.glob("out*"))
