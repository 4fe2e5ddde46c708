"""Seeded, reproducible smooth test fields.

All randomness flows through a counter-based Philox generator so that every
platform reproduces bit-identical fields from the same seed.  Random fields
are finite trigonometric sums (periodic-smooth by construction); Dirichlet
displacement fields are cut off by a polynomial bump vanishing to first
order on the chart boundary.
"""

import numpy as np

from .grid import Grid


def rng_for(seed):
    """Counter-based generator; the only RNG construction in the package."""
    return np.random.Generator(np.random.Philox(int(seed)))


def trig_scalar(grid: Grid, rng, nmodes=4, kmax=2, amp=1.0):
    """Random finite trigonometric sum, periodic over the chart."""
    xx, yy = grid.meshgrid()
    out = np.zeros((grid.ny, grid.nx))
    for _ in range(nmodes):
        kx = rng.integers(-kmax, kmax + 1)
        ky = rng.integers(-kmax, kmax + 1)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c = rng.uniform(-1.0, 1.0)
        out += c * np.cos(2.0 * np.pi * (kx * xx / grid.lx + ky * yy / grid.ly) + phase)
    return amp * out / nmodes


def trig_vector(grid: Grid, rng, **kw):
    return np.stack([trig_scalar(grid, rng, **kw) for _ in range(2)], axis=-1)


def trig_endo(grid: Grid, rng, **kw):
    comps = [trig_scalar(grid, rng, **kw) for _ in range(4)]
    out = np.empty((grid.ny, grid.nx, 2, 2))
    out[..., 0, 0], out[..., 0, 1] = comps[0], comps[1]
    out[..., 1, 0], out[..., 1, 1] = comps[2], comps[3]
    return out


def trig_spd(grid: Grid, rng, amp=0.2, **kw):
    """SPD matrix field Id + symmetric trigonometric perturbation."""
    a = trig_scalar(grid, rng, amp=amp, **kw)
    b = trig_scalar(grid, rng, amp=amp, **kw)
    c = trig_scalar(grid, rng, amp=amp, **kw)
    out = np.empty((grid.ny, grid.nx, 2, 2))
    out[..., 0, 0] = 1.0 + a
    out[..., 1, 1] = 1.0 + b
    out[..., 0, 1] = c
    out[..., 1, 0] = c
    # keep eigenvalues safely positive
    lo = np.minimum(out[..., 0, 0], out[..., 1, 1]) - np.abs(c)
    if np.any(lo <= 0.1):
        raise ValueError("perturbation amplitude too large for an SPD field")
    return out


def bump(grid: Grid):
    """Scalar cutoff vanishing (with its gradient) on the Dirichlet boundary."""
    xx, yy = grid.meshgrid()
    u = 2.0 * xx / grid.lx
    v = 2.0 * yy / grid.ly
    return ((1.0 - u**2) * (1.0 - v**2)) ** 2


def random_displacement(grid: Grid, rng, **kw):
    """Compactly supported smooth vector field on a Dirichlet chart, amplitude 0.3."""
    x = trig_vector(grid, rng, **kw)
    return 0.3 * bump(grid)[..., None] * x


def harmonic_scalar(grid: Grid, rng, degmax=4, amp=1.0):
    """Random harmonic polynomial: sum of Re/Im of c_n z^n, n = 2..degmax."""
    xx, yy = grid.meshgrid()
    z = xx + 1j * yy
    out = np.zeros((grid.ny, grid.nx))
    for n in range(2, degmax + 1):
        c = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
        out += np.real(c * z**n)
    return amp * out


def holomorphic_values(grid: Grid, rng, amp=1.0):
    """Values of a random cubic polynomial Q(z); returns (Re Q, Im Q)."""
    xx, yy = grid.meshgrid()
    z = xx + 1j * yy
    q = np.zeros((grid.ny, grid.nx), dtype=complex)
    for n in range(4):
        q += (rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)) * z**n
    return amp * np.real(q), amp * np.imag(q)


def tracefree_codazzi_flat(grid: Grid, rng):
    """Trace-free symmetric field Hess(u) for a seeded harmonic u of degree 4, amplitude 0.5.

    On a flat chart this is exactly Codazzi in the continuum; the discrete
    residual is O(h^2).
    """
    u = harmonic_scalar(grid, rng, degmax=4, amp=0.5)
    uxx = grid.ddx(grid.ddx(u))
    uyy = grid.ddy(grid.ddy(u))
    uxy = grid.ddy(grid.ddx(u))
    out = np.empty((grid.ny, grid.nx, 2, 2))
    out[..., 0, 0] = 0.5 * (uxx - uyy)
    out[..., 1, 1] = -0.5 * (uxx - uyy)
    out[..., 0, 1] = uxy
    out[..., 1, 0] = uxy
    return out


def tracefree_codazzi_conformal(g, rng, amp=0.1):
    """Trace-free Codazzi endomorphism field of a conformal metric.

    Built from a seeded holomorphic quadratic differential Q dz^2 of degree
    at most 3: the endomorphism e^{-2 phi} [[u, -v], [-v, -u]] with
    Q = u + i v is symmetric w.r.t. the metric, trace-free, and Codazzi in
    the continuum.
    """
    u, v = holomorphic_values(g.grid, rng, amp=amp)
    w = np.exp(-2.0 * g.phi)
    out = np.empty((g.grid.ny, g.grid.nx, 2, 2))
    out[..., 0, 0] = w * u
    out[..., 1, 1] = -w * u
    out[..., 0, 1] = -w * v
    out[..., 1, 0] = -w * v
    return out
