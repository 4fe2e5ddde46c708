"""Exact 2x2 matrix calculus with the standard complex structure J.

All functions accept numpy arrays of shape ``(..., 2, 2)`` and operate on
the trailing two axes, so that the same routines serve single matrices and
whole endomorphism fields.  Matrices are plain ``float`` arrays; wherever
the mathematics requires a symmetric positive-definite ("SPD") argument,
:func:`check_spd` validates it.

Conventions
-----------
* ``J = [[0, -1], [1, 0]]`` is the standard complex structure.
* The (1,0)-seminorm ``sigma`` is the Frobenius norm of the J-linear part
  of a matrix (NOT the operator norm, which differs by sqrt(2) on
  conformal matrices).
* A metric ``h`` acted on by ``A`` means the bilinear form
  ``(A h)(u, v) = h(Au, Av)``, i.e. ``A^T h A`` on matrices.
* A product with J, ``ID2``, a unit or a diagonal matrix (a conformal
  metric's ``matrix`` or its ``inv2``) as a factor is ``_mul2``, entry by
  entry: each entry has one exact term, so it has the value of ``@``
  without a BLAS call per block.  Every other product is ``@``.
"""

import numpy as np

from .grid import first_node

J = np.array([[0.0, -1.0], [1.0, 0.0]])
ID2 = np.eye(2)

__all__ = [
    "J",
    "ID2",
    "trace",
    "det",
    "jlin_part",
    "sigma",
    "dsigma",
    "b_form",
    "metric_action",
    "metric_to_A",
    "spd_sqrt",
    "dspd_sqrt",
    "spd_sqrt_pair",
    "inv2",
    "check_symmetric",
    "check_spd",
]


def trace(a):
    """Trace over the trailing 2x2 axes."""
    a = np.asarray(a, dtype=float)
    return a[..., 0, 0] + a[..., 1, 1]


def det(a):
    """Determinant over the trailing 2x2 axes."""
    a = np.asarray(a, dtype=float)
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def inv2(a):
    """Closed-form inverse of 2x2 matrices; raises on singular or non-finite input.

    The gate reads only Det: an infinite entry makes it inf or NaN and a
    NaN entry makes it NaN, so |Det| in [1e-300, inf) passes only finite,
    non-singular blocks (and refuses a Det that overflows).
    """
    a = np.asarray(a, dtype=float)
    d = det(a)
    ad = np.abs(d)
    _require((ad >= 1e-300) & (ad < np.inf), "singular or non-finite 2x2 matrix")
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / d[..., None, None]


def jlin_part(a):
    """J-linear component (a - J a J) / 2.

    Equals ``Tr(a)/2 * Id - Tr(aJ)/2 * J`` identically.
    """
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - _mul2(_mul2(J, a), J))


def _mul2(a, b):
    """``a @ b`` of 2x2 blocks over broadcast leading axes, entry by entry.

    Entry (i, j) is ``a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]``.
    With J, ``ID2``, a unit or a diagonal matrix as a factor one term is
    exact, so the value is that of ``@``'s fused BLAS sum (a zero's sign
    aside); on a general product the two round differently.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (2, 2))
    for i in range(2):
        for j in range(2):
            np.multiply(a[..., i, 0], b[..., 0, j], out=out[..., i, j])
            out[..., i, j] += a[..., i, 1] * b[..., 1, j]
    return out


def sigma(a):
    """(1,0)-seminorm sqrt(Tr(a)^2/2 + Tr(Ja)^2/2).

    Coincides with the Frobenius norm of ``jlin_part(a)`` and vanishes
    exactly on J-antilinear matrices.  Tr(Ja) is read off the entries as
    a01 - a10: a product with J only moves entries and flips signs, so
    this equals the trace of the matrix product on finite input.
    """
    a = np.asarray(a, dtype=float)
    tr = trace(a)
    trj = a[..., 0, 1] - a[..., 1, 0]
    return np.sqrt(0.5 * tr**2 + 0.5 * trj**2)


def dsigma(a, b):
    """First derivative of sigma at a symmetric positive-definite ``a``.

    At such a point sigma(a) = Tr(a)/sqrt(2), so the derivative in
    direction ``b`` is Tr(b)/sqrt(2); a central-difference oracle on
    :func:`sigma` confirms the normalization.  The general (non-symmetric)
    branch is not implemented; :func:`check_spd` refuses any other ``a``.
    """
    check_spd(a)
    return trace(np.asarray(b, dtype=float)) / np.sqrt(2.0)


def b_form(b):
    """Indefinite quadratic form Tr(b J b^T J)/2 = -Det(b)."""
    return -det(b)


def _positive(t, d):
    """Per-node mask of Tr > 0 and Det > 0 from the trace and determinant; NaN fails."""
    return (t > 0.0) & (d > 0.0)


def _block_max(a):
    """max|entry| of each trailing 2x2 block, NaN where the block holds a NaN."""
    m = np.abs(a)
    return np.maximum(np.maximum(m[..., 0, 0], m[..., 0, 1]), np.maximum(m[..., 1, 0], m[..., 1, 1]))


def _require(good, what):
    """ValueError(what) unless the per-block mask ``good`` holds everywhere.

    On a field-shaped (ny, nx) mask the message names the first failing
    node (j, i) in row-major order.
    """
    if not np.all(good):
        if np.ndim(good) == 2:
            what = f"{what} at node (j, i) = {first_node(~good)}"
        raise ValueError(what)


def _check(a, spd):
    """:func:`check_symmetric`, and with ``spd`` :func:`check_spd`, in one
    per-block mask.  A block's bound 1e-10 (1 + max|block|) is inf or NaN
    exactly when one of its entries is, so bound < inf is its finiteness test."""
    a = np.asarray(a, dtype=float)
    bound = 1e-10 * (1.0 + _block_max(a))
    good = (np.abs(a[..., 0, 1] - a[..., 1, 0]) <= bound) & (bound < np.inf)
    if spd:
        good &= _positive(trace(a), det(a))
    what = "non-symmetric, non-finite or non-positive" if spd else "non-symmetric or non-finite"
    _require(good, f"{what} field")
    return a


def check_symmetric(a):
    """``a`` as a float array; ValueError unless it is finite and symmetric.

    Symmetric means |a01 - a10| <= 1e-10 (1 + max|block|) in every trailing
    2x2 block, with max|block| that block's largest |entry|, and a NaN
    anywhere fails the test; a stack is refused exactly when one of its
    blocks is refused alone.  On an endomorphism field, shape
    (ny, nx, 2, 2), the message names the first failing node (j, i) in
    row-major order.
    """
    return _check(a, False)


def check_spd(a):
    """``a`` as a float array; ValueError unless it is finite and SPD.

    The test of :func:`check_symmetric`, with its per-block tolerance and
    its node report, plus Tr > 0 and Det > 0 in every trailing 2x2 block.
    """
    return _check(a, True)


def metric_action(a, h):
    """Pull back the SPD form ``h`` through ``a``: returns a^T h a.

    ``a`` must be orientation preserving (Det > 0).
    """
    a = np.asarray(a, dtype=float)
    h = np.asarray(h, dtype=float)
    _require(det(a) > 0, "metric_action requires Det(a) > 0")
    at = np.swapaxes(a, -1, -2)
    return at @ h @ a


def _sqrt_terms(m):
    """``(sqrt(Det m), sqrt(Tr m + 2 sqrt(Det m)))``; refuses a non-positive spectrum."""
    d = det(m)
    t = trace(m)
    _require(_positive(t, d), "spd_sqrt requires positive spectrum (Tr > 0 and Det > 0)")
    s = np.sqrt(d)
    return s, np.sqrt(t + 2.0 * s)


def spd_sqrt(m):
    """Principal square root of 2x2 matrices with positive spectrum.

    Uses the closed form ``(m + sqrt(Det m) Id) / sqrt(Tr m + 2 sqrt(Det m))``,
    which is exact and branch-free.  ``m`` need not be symmetric: any matrix
    similar to an SPD one (e.g. g-self-adjoint positive operators) works.
    """
    m = np.asarray(m, dtype=float)
    s, denom = _sqrt_terms(m)
    return (m + s[..., None, None] * ID2) / denom[..., None, None]


def dspd_sqrt(m, dm):
    """Derivative of :func:`spd_sqrt` at ``m`` in the direction ``dm``.

    Differentiates the closed form: with s = sqrt(Det m) and
    r = sqrt(Tr m + 2 s), ds = Tr(adj(m) dm) / (2 s) and
    dr = (Tr dm + 2 ds) / (2 r), so the derivative of (m + s Id) / r is
    (dm + ds Id) / r - spd_sqrt(m) dr / r.  ``m`` and ``dm`` broadcast
    over their leading axes.
    """
    m = np.asarray(m, dtype=float)
    dm = np.asarray(dm, dtype=float)
    s, r = _sqrt_terms(m)
    ddet = (
        m[..., 1, 1] * dm[..., 0, 0] + m[..., 0, 0] * dm[..., 1, 1]
        - m[..., 0, 1] * dm[..., 1, 0] - m[..., 1, 0] * dm[..., 0, 1]
    )
    ds = ddet / (2.0 * s)
    dr = (trace(dm) + 2.0 * ds) / (2.0 * r)
    root = (m + s[..., None, None] * ID2) / r[..., None, None]
    return ((dm + ds[..., None, None] * ID2) - root * dr[..., None, None]) / r[..., None, None]


def metric_to_A(g, h):
    """Unique g-self-adjoint positive-definite A with h = g(A., A.).

    Both ``g`` and ``h`` are SPD bilinear forms, which :func:`check_spd`
    validates.  A is the principal square root of the g-self-adjoint
    operator g^{-1} h, so that ``metric_action(A, g) == h`` holds to
    round-off.
    """
    return spd_sqrt_pair(check_spd(g), check_spd(h))


def spd_sqrt_pair(g, h):
    """:func:`metric_to_A` without the :func:`check_spd` scans.

    Intended for node-indexed SPD fields that are symmetric by
    construction; :func:`spd_sqrt` still refuses a g^{-1} h whose spectrum
    is not positive.
    """
    return spd_sqrt(inv2(np.asarray(g, dtype=float)) @ np.asarray(h, dtype=float))
