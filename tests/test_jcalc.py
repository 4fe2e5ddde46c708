"""Pointwise 2x2 matrix calculus against independent oracles."""

import json

import numpy as np
import pytest

from codazzi import verify
from codazzi.grid import central_difference
from codazzi.jcalc import (
    ID2,
    J,
    b_form,
    det,
    dsigma,
    inv2,
    jlin_part,
    metric_action,
    metric_to_A,
    sigma,
    spd_sqrt,
    spd_sqrt_pair,
    trace,
)
from codazzi.randfields import rng_for


@pytest.fixture
def batch():
    return rng_for(12345).standard_normal((5000, 2, 2))


def test_sigma_matches_frobenius_of_jlinear_part(batch):
    fro = np.sqrt(np.sum(jlin_part(batch) ** 2, axis=(-2, -1)))
    assert np.max(np.abs(sigma(batch) - fro)) < 1e-12


def test_sigma_vanishes_exactly_on_j_antilinear(batch):
    # a J-antilinear matrix anticommutes with J: [[p, q], [q, -p]]
    p = batch[:, 0, 0]
    q = batch[:, 0, 1]
    anti = np.empty_like(batch)
    anti[:, 0, 0] = p
    anti[:, 0, 1] = q
    anti[:, 1, 0] = q
    anti[:, 1, 1] = -p
    assert np.max(sigma(anti)) < 1e-13


def _sigma_by_matmul(a):
    return np.sqrt(0.5 * trace(a) ** 2 + 0.5 * trace(J @ a) ** 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigma_equals_the_matmul_route_bit_for_bit(seed):
    rng = rng_for(seed)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e-300, 1e300, -1e300])
    a = rng.standard_normal((4000, 2, 2)) * 10.0 ** rng.integers(-8, 9, (4000, 2, 2))
    pick = rng.random(a.shape) < 0.4
    a[pick] = rng.choice(special, pick.sum())
    with np.errstate(over="ignore"):  # 1e300 squared
        assert sigma(a).tobytes() == _sigma_by_matmul(a).tobytes()


def test_sigma_is_non_finite_wherever_the_input_is():
    rng = rng_for(3)
    a = rng.standard_normal((3000, 2, 2))
    pick = rng.random(a.shape) < 0.05
    a[pick] = rng.choice([np.nan, np.inf, -np.inf], pick.sum())
    bad = ~np.all(np.isfinite(a), axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf - inf
        assert bad.any() and not np.any(np.isfinite(sigma(a)[bad]))
    assert sigma(a[~bad]).tobytes() == _sigma_by_matmul(a[~bad]).tobytes()


def test_sigma_of_identity():
    assert sigma(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_two_dim_matrix_relations(batch):
    a = batch
    anti = a - np.swapaxes(a, -1, -2) + trace(a @ J)[..., None, None] * J
    assert np.max(np.abs(anti)) < 1e-14
    good = a[np.abs(det(a)) > 0.1]
    adj = J @ np.swapaxes(good, -1, -2) @ J + det(good)[..., None, None] * inv2(good)
    assert np.max(np.abs(adj)) < 1e-13


def test_dsigma_against_finite_differences(batch):
    spd = np.swapaxes(batch, -1, -2) @ batch + 0.1 * ID2
    b = 0.5 * (batch + np.swapaxes(batch, -1, -2))
    eps = 1e-6
    fd = (sigma(spd + eps * b) - sigma(spd - eps * b)) / (2.0 * eps)
    exact = dsigma(spd, b)
    assert np.max(np.abs(fd - exact)) < 1e-8


def test_dsigma_rejects_non_spd():
    with pytest.raises(ValueError):
        dsigma(np.diag([1.0, -1.0]), np.eye(2))


def test_spd_sqrt_closed_form(batch):
    spd = np.swapaxes(batch, -1, -2) @ batch + 0.1 * ID2
    root = spd_sqrt(spd)
    assert np.max(np.abs(root @ root - spd)) < 1e-12
    # against eigendecomposition on a subsample
    for m in spd[:50]:
        w, v = np.linalg.eigh(m)
        ref = v @ np.diag(np.sqrt(w)) @ v.T
        assert np.max(np.abs(spd_sqrt(m) - ref)) < 1e-12


def test_metric_to_A_roundtrip(batch):
    g = np.swapaxes(batch[:200], -1, -2) @ batch[:200] + 0.2 * ID2
    h = np.swapaxes(batch[200:400], -1, -2) @ batch[200:400] + 0.2 * ID2
    a = metric_to_A(g, h)
    assert np.max(np.abs(metric_action(a, g) - h)) < 1e-11
    assert np.max(np.abs(spd_sqrt_pair(g, h) - a)) < 1e-12


def test_metric_to_A_rejects_non_spd():
    with pytest.raises(ValueError):
        metric_to_A(np.eye(2), np.diag([1.0, -2.0]))


def test_b_form_is_minus_det(batch):
    assert np.max(np.abs(b_form(batch) + det(batch))) < 1e-13


def _one_batch_suite_jcalc(seed):
    """The jcalc suite with each identity on the whole 100,000-matrix batch at once.

    The oracle of the blocked suite: the same draws in the same order, and
    every record from one reduction over the batch.
    """
    vanishes = verify._vanishes
    rng = rng_for(seed)
    a = rng.standard_normal((100_000, 2, 2))
    checks = []
    sig = sigma(a)

    fro = np.sqrt(np.sum(jlin_part(a) ** 2, axis=(-2, -1)))
    checks.append(vanishes("sigma_frobenius_oracle", 1e-12, sig - fro))

    th = rng.uniform(0.0, 2.0 * np.pi, size=a.shape[0])
    cos, sin = np.cos(th), np.sin(th)
    rot = np.empty_like(a)
    rot[:, 0, 0] = cos
    rot[:, 0, 1] = -sin
    rot[:, 1, 0] = sin
    rot[:, 1, 1] = cos
    checks.append(vanishes(
        "sigma_rotation_invariance", 1e-12, sigma(rot @ a) - sig, sigma(a @ rot) - sig
    ))

    anti = a - np.swapaxes(a, -1, -2) + trace(a @ J)[..., None, None] * J
    checks.append(vanishes("antisymmetric_part_relation", 1e-14, anti))

    b = a[np.abs(det(a)) > 0.1]
    adj = J @ np.swapaxes(b, -1, -2) @ J + det(b)[..., None, None] * inv2(b)
    checks.append(vanishes("adjugate_relation", 1e-13, adj))

    m = rng.standard_normal((20_000, 2, 2))
    spd = np.swapaxes(m, -1, -2) @ m + 0.1 * ID2
    root = spd_sqrt(spd)
    checks.append(vanishes("spd_sqrt_roundtrip", 1e-12, root @ root - spd))

    g0 = np.swapaxes(m[:64], -1, -2) @ m[:64] + 0.2 * ID2
    h0 = spd[:64]
    a0 = metric_to_A(g0, h0)
    checks.append(vanishes("metric_to_A_roundtrip", 1e-12, metric_action(a0, g0) - h0))

    bsym = 0.5 * (m + np.swapaxes(m, -1, -2))
    fd = central_difference(lambda t: sigma(spd + t * bsym), 0.0, 1e-6, 1)
    checks.append(vanishes("dsigma_fd_oracle", 1e-8, fd - dsigma(spd, bsym)))

    checks.append(vanishes("b_form_det", 1e-13, b_form(a) + det(a)))
    return checks


@pytest.mark.parametrize("seed", range(5))
def test_blocked_suite_equals_one_batch_bit_for_bit(seed):
    # json writes each float by its shortest round-trip repr, so equal text is equal bits
    assert json.dumps(verify.suite_jcalc(seed)) == json.dumps(_one_batch_suite_jcalc(seed))
