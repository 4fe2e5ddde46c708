"""Immersion construction on the hyperboloid patch and its isometry group."""

import contextlib
import dataclasses
import hashlib
import io

import numpy as np
import pytest

from codazzi import cli, embedding, fileio, verify
from codazzi.energy import codazzi_residual
from codazzi.grid import Grid
from codazzi.jcalc import ID2


def _patch(n, l=0.8):
    return embedding.HyperboloidPatch(Grid(n, n, l, l, "dirichlet"))


def _hessian_field(patch, scale=1.0):
    xx, yy = patch.grid.meshgrid
    f = 2.0 + 0.3 * np.cos(3.0 * xx) * np.sin(2.0 * yy) + 0.2 * xx * yy
    return f, scale * embedding.codazzi_generator(f, patch)


def test_patch_nodes_lie_on_hyperboloid():
    p = _patch(33)
    iota = p.nodes
    q = embedding.mdot(iota, iota)
    assert np.max(np.abs(q + 1.0)) < 1e-12
    assert np.min(iota[..., 2]) > 0.0


def test_patch_nodes_are_cached_read_only_and_equal_a_fresh_computation():
    p = embedding.HyperboloidPatch(Grid(24, 17, 0.8, 0.6, "dirichlet"))
    nodes = p.nodes
    assert p.nodes is nodes
    assert not nodes.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.nodes = None
    fresh = embedding._disk_immersion(*np.meshgrid(p.grid.x, p.grid.y))
    assert nodes.shape == fresh.shape and nodes.tobytes() == fresh.tobytes()


def test_identity_field_reproduces_hyperboloid():
    p = _patch(33)
    iota = p.nodes
    idf = np.broadcast_to(ID2, iota.shape[:2] + (2, 2)).copy()
    segments = embedding.edge_segments(idf, p)
    x = embedding.integrate_immersion(segments, p, iota[p.base_index], sign=1)
    assert np.max(np.abs(x - iota)) < 1e-10


def test_support_function_of_hyperboloid():
    p = _patch(33)
    iota = p.nodes
    assert np.max(np.abs(embedding.support_function(iota, p) + 1.0)) < 1e-10


def test_plaquette_defect_converges():
    def defect(n):
        q = _patch(n)
        _, a = _hessian_field(q)
        return embedding.plaquette_defect(embedding.edge_segments(a, q))

    assert defect(32) / defect(64) > 3.5


def test_induced_metric_error_converges():
    def err(n):
        q = _patch(n)
        _, a = _hessian_field(q)
        x = embedding.integrate_immersion(embedding.edge_segments(a, q), q, q.nodes[q.base_index])
        return embedding.induced_metric_error(x, a, q)

    assert err(32) / err(64) > 3.5


def test_support_pair_sums_to_f():
    def gap(n):
        q = _patch(n)
        f, _ = _hessian_field(q)
        _, _, pp, pm = embedding.support_pair(f, q)
        return float(np.max(np.abs(pp + pm - f)))

    assert gap(32) / gap(64) > 3.5


def test_equivariance_under_boost():
    p = _patch(65)
    idf = np.broadcast_to(ID2, (65, 65, 2, 2)).copy()
    segments = embedding.edge_segments(idf, p)
    x = embedding.integrate_immersion(segments, p, p.nodes[p.base_index], sign=1)
    _, res = embedding.equivariance_residual(
        x, embedding.Isometry21.boost(0.1), idf, p
    )
    assert res < 1e-6


def test_convexity_of_hyperboloid():
    p = _patch(33)
    x = p.nodes
    spacelike, definite, side = embedding.convexity_check(x, p)
    assert spacelike and definite and side == "future"


def test_isometry_group_axioms():
    g1 = embedding.Isometry21.boost(0.3, 0.7, translation=np.array([0.1, -0.2, 0.05]))
    g2 = embedding.Isometry21.rotation(1.1, translation=np.array([0.0, 0.3, 0.1]))
    comp = g1.compose(g2)
    v = np.array([0.2, -0.1, 1.3])
    assert np.max(np.abs(comp.apply(v) - g1.apply(g2.apply(v)))) < 1e-12
    gi = g1.compose(g1.inverse())
    assert np.max(np.abs(gi.linear - np.eye(3))) < 1e-12
    assert np.max(np.abs(gi.translation)) < 1e-12


def test_isometries_preserve_minkowski_form():
    for gam in (embedding.Isometry21.boost(0.4, 1.2), embedding.Isometry21.rotation(0.9)):
        u = np.array([0.3, -0.5, 1.1])
        v = np.array([-0.2, 0.7, 0.9])
        assert embedding.mdot(gam.apply_linear(u), gam.apply_linear(v)) == pytest.approx(
            embedding.mdot(u, v), abs=1e-13
        )


def test_certify_codazzi_rejects_non_codazzi():
    p = _patch(33)
    xx, yy = p.grid.meshgrid
    a = np.broadcast_to(ID2, (33, 33, 2, 2)).copy()
    a[..., 0, 0] += 0.4 * np.sin(3 * xx) * np.cos(2 * yy)
    r = codazzi_residual(a, p.metric)
    with pytest.raises(embedding.PathDependenceError,
                       match=f"^residual {r:.3e} exceeds 1.000e-03$"):
        embedding.certify_codazzi(a, p, 1e-3)
    assert embedding.certify_codazzi(a, p, r) == r
    # the integration itself certifies nothing
    x = embedding.integrate_immersion(embedding.edge_segments(a, p), p, p.nodes[p.base_index])
    assert np.all(np.isfinite(x))


def test_certify_codazzi_refuses_nan_residual(monkeypatch):
    p = _patch(17)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    monkeypatch.setattr(embedding, "codazzi_residual", lambda a, g: float("nan"))
    with pytest.raises(embedding.PathDependenceError, match="^residual nan exceeds 5.000e-02$"):
        embedding.certify_codazzi(a, p, 0.05)


@pytest.mark.parametrize("defect", ["asymmetric", "nan"])
def test_edge_segments_rejects_non_symmetric_or_non_finite(defect):
    p = _patch(17)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    if defect == "nan":
        a[8, 3, 0, 0] = np.nan
    else:
        a[8, 3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="non-symmetric or non-finite"):
        embedding.edge_segments(a, p)


def test_integrate_immersion_refuses_a_sign_other_than_one():
    p = _patch(17)
    a = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    with pytest.raises(ValueError, match="sign must be \\+1 or -1"):
        embedding.integrate_immersion(embedding.edge_segments(a, p), p, p.nodes[p.base_index], 2)


def test_isometry_refuses_an_improper_linear_part():
    # diag(1, -1, 1) preserves the Minkowski form but has determinant -1
    with pytest.raises(ValueError, match="proper and future-preserving"):
        embedding.Isometry21(np.diag([1.0, -1.0, 1.0]))


def test_equivariance_refuses_an_isometry_that_moves_the_patch_off_itself():
    p = _patch(17)
    idf = np.broadcast_to(ID2, (17, 17, 2, 2)).copy()
    x = embedding.integrate_immersion(embedding.edge_segments(idf, p), p, p.nodes[p.base_index])
    with pytest.raises(ValueError, match="insufficient overlap"):
        embedding.equivariance_residual(x, embedding.Isometry21.boost(3.0), idf, p)


def test_convexity_of_the_past_hyperboloid_and_of_a_saddle():
    p = _patch(33)
    idf = np.broadcast_to(ID2, (33, 33, 2, 2)).copy()
    segments = embedding.edge_segments(idf, p)
    past = embedding.integrate_immersion(segments, p, -p.nodes[p.base_index], sign=-1)
    assert embedding.convexity_check(past, p) == (True, True, "past")
    xx, yy = p.grid.meshgrid
    saddle = np.stack([xx, yy, 0.5 * (xx**2 - yy**2)], axis=-1)
    assert embedding.convexity_check(saddle, p) == (True, False, "mixed")


@pytest.fixture
def segment_builds(monkeypatch):
    """Every edge-segment build from here on: (builder, field shape, sha256 of the field)."""
    builds = []
    for name in ("_segments_x", "_segments_y"):
        def spy(a, patch, name=name, build=getattr(embedding, name)):
            builds.append((name, a.shape, hashlib.sha256(a.tobytes()).hexdigest()))
            return build(a, patch)

        monkeypatch.setattr(embedding, name, spy)
    return builds


def test_embed_builds_the_edge_segments_once(tmp_path, segment_builds):
    p = _patch(17)
    path = tmp_path / "id.json"
    fileio.save_field(path, p.metric, endo=np.broadcast_to(ID2, (17, 17, 2, 2)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["embed", "--endo", str(path), "--out", str(tmp_path / "e")]) == 0
    assert sorted(name for name, *_ in segment_builds) == ["_segments_x", "_segments_y"]


def test_suite_embed_builds_each_fields_edge_segments_once(segment_builds):
    verify.suite_embed(0)
    # the identity at two sizes, the Hessian field's defects and support pair
    # at two sizes each, and the rotation-invariant field at two sizes
    assert len(segment_builds) == 2 * 8
    assert len(set(segment_builds)) == len(segment_builds)
