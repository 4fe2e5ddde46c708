"""The benchmark's workloads: seeded inputs, CLI argv per op, and oracle gates.

One op is one in-process call of ``codazzi.cli.main(argv)`` writing into an
output directory.  The gate then reads what the op wrote and checks it
against an oracle that does not reuse the library code path it checks.  Each
gate bound is written ``not (value <= bound)``, so a NaN fails it.

A workload is built from the workload seed alone: the same seed gives
byte-identical inputs (see :meth:`Workload.digest`).
"""

import hashlib
import json
import os

import numpy as np

# Per-op seeds are drawn up front; a run never performs this many ops.
MAX_OPS = 4096


class GateError(Exception):
    """An output file is missing or malformed."""


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"{os.path.basename(path)}: {exc}") from None


def _op_seeds(seed, high):
    return [int(s) for s in np.random.default_rng(seed).integers(0, high, size=MAX_OPS)]


class Workload:
    """Base: ``argv(i, out_dir)`` is op ``i``; ``gate(i, out_dir)`` returns
    ``(failures, observed)`` for the files that op wrote."""

    name = None

    def digest(self):
        raise NotImplementedError

    def argv(self, i, out_dir):
        raise NotImplementedError

    def check(self, i, out_dir, failures, observed):
        raise NotImplementedError

    def gate(self, i, out_dir):
        failures, observed = [], {}
        try:
            self.check(i, out_dir, failures, observed)
        except (GateError, KeyError, TypeError, IndexError, ValueError) as exc:
            failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return failures, observed


# --------------------------------------------------------------------------
# solve: manufactured Newton solve on a 32^2 Poincare sub-disk
# --------------------------------------------------------------------------

SOLVE_NX = 32
SOLVE_EXTENT = 0.8          # the CLI's default --lx/--ly
# Tighter than the CLI's default 1e-8, so that every op takes three Newton
# iterations: at 1e-8 about one manufactured seed in six stops after two,
# which splits op times into a 4 s and a 6 s group.  The third iterate sits
# at the finite-difference floor, 1e-11 to 6e-11, far below this.
SOLVE_TOL = 1e-9
RECOVERY_BOUND = 1e-4       # acceptance criterion 07
MANUFACTURED_AMP = 0.0025   # ManufacturedDiffeo.seeded's default amplitude


def manufactured_displacement(coef, x, y, extent=SOLVE_EXTENT, amp=MANUFACTURED_AMP):
    """Closed form of the manufactured diffeomorphism's displacement at (x, y)."""
    u = 2.0 * x / extent
    v = 2.0 * y / extent
    bump = ((1.0 - u**2) * (1.0 - v**2)) ** 2
    lin = coef[:, 0] + coef[:, 1] * (x / extent)[..., None] + coef[:, 2] * (y / extent)[..., None]
    return amp * bump[..., None] * lin


def recovery_error_oracle(manufactured_seed, x):
    """max |psi(p + X(p)) - p| over the nodes, from the closed form of psi.

    The coefficients are the ones ``ManufacturedDiffeo.seeded`` draws: a
    Philox generator keyed by the seed, uniform on [-1, 1], shape (2, 3).
    """
    coef = np.random.Generator(np.random.Philox(int(manufactured_seed))).uniform(
        -1.0, 1.0, size=(2, 3))
    nodes = np.linspace(-0.5 * SOLVE_EXTENT, 0.5 * SOLVE_EXTENT, SOLVE_NX)
    xx, yy = np.meshgrid(nodes, nodes)
    p = np.stack([xx, yy], axis=-1)
    q = p + x
    image = q + manufactured_displacement(coef, q[..., 0], q[..., 1])
    return float(np.max(np.abs(image - p)))


class Solve(Workload):
    """``codazzi solve --manufactured-seed S --nx 32 --tol 1e-9``, a new S per op."""

    name = "solve"

    def __init__(self, seed, input_dir):
        self.op_seeds = _op_seeds(seed, 2**31 - 1)

    def digest(self):
        return hashlib.sha256(json.dumps(self.op_seeds).encode()).hexdigest()

    def argv(self, i, out_dir):
        return ["solve", "--manufactured-seed", str(self.op_seeds[i % MAX_OPS]),
                "--nx", str(SOLVE_NX), "--tol", repr(SOLVE_TOL),
                "--out", os.path.join(out_dir, "solve")]

    def check(self, i, out_dir, failures, observed):
        report = _read_json(os.path.join(out_dir, "solve_report.json"))
        observed["newton_iterations"] = int(report["iterations"])
        final = float(report["residuals"][-1])
        if not (final <= SOLVE_TOL):
            failures.append(f"final residual {final!r} above tol {SOLVE_TOL}")
        doc = _read_json(os.path.join(out_dir, "solve_displacement.json"))
        x = np.asarray(doc["x"], dtype=float)
        if x.shape != (SOLVE_NX * SOLVE_NX, 2):
            raise GateError(f"displacement has shape {x.shape}")
        if not np.all(np.isfinite(x)):
            failures.append("displacement file holds non-finite values")
        err = recovery_error_oracle(self.op_seeds[i % MAX_OPS],
                                    x.reshape(SOLVE_NX, SOLVE_NX, 2))
        observed["recovery_err"] = err
        if not (err <= RECOVERY_BOUND):
            failures.append(f"recovery error {err!r} above {RECOVERY_BOUND}")
        reported = float(report["recovery_error"])
        if not (abs(reported - err) <= 1e-9 * RECOVERY_BOUND):
            failures.append(f"reported recovery error {reported!r} != oracle {err!r}")


# --------------------------------------------------------------------------
# verify: every seeded verification suite at the CLI default resolutions
# --------------------------------------------------------------------------

# Op seeds are drawn from 0..VERIFY_SEED_RANGE-1.  Every check passes on these
# at the commit that defined the benchmark; about one seed in three above
# this range fails energy.gradient_fd_relative (see README.md).
VERIFY_SEED_RANGE = 20
VERIFY_SUITES = ("jcalc", "fields", "energy", "teich", "embed", "appendix", "diagnostics")
VERIFY_CHECKS = 54


class Verify(Workload):
    """``codazzi verify --suite all --seed S``, a new S per op."""

    name = "verify"

    def __init__(self, seed, input_dir):
        self.op_seeds = _op_seeds(seed, VERIFY_SEED_RANGE)

    def digest(self):
        return hashlib.sha256(json.dumps(self.op_seeds).encode()).hexdigest()

    def argv(self, i, out_dir):
        return ["verify", "--suite", "all", "--seed", str(self.op_seeds[i % MAX_OPS]),
                "--out", os.path.join(out_dir, "verify_report.json")]

    def check(self, i, out_dir, failures, observed):
        report = _read_json(os.path.join(out_dir, "verify_report.json"))
        if report["seed"] != self.op_seeds[i % MAX_OPS]:
            failures.append(f"report is for seed {report['seed']!r}")
        if report["passed"] is not True:
            failures.append("report does not say passed")
        suites = tuple(s["suite"] for s in report["suites"])
        if suites != VERIFY_SUITES:
            failures.append(f"suites {suites} != {VERIFY_SUITES}")
        names = {f"{s['suite']}.{c['check']}" for s in report["suites"] for c in s["checks"]}
        passed = sum(c["pass"] is True for s in report["suites"] for c in s["checks"])
        observed["checks"] = len(names)
        observed["checks_passed"] = passed
        if len(names) != VERIFY_CHECKS:
            failures.append(f"{len(names)} distinct checks, expected {VERIFY_CHECKS}")
        if passed != len(names):
            failures.append(f"{len(names) - passed} checks did not pass")


# --------------------------------------------------------------------------
# embed: integrate a Codazzi field on a 256^2 hyperboloid patch
# --------------------------------------------------------------------------

EMBED_N = 256
EMBED_EXTENT = 0.8
# Field draws whose smallest eigenvalue anywhere is below this are redrawn:
# only a positive-definite Codazzi field has a future-convex immersion, which
# is what the gate expects.  About one draw in twelve is redrawn.
EMBED_MIN_EIGENVALUE = 0.1
EMBED_CODAZZI_TOL = 0.05     # the CLI's default refusal threshold
PLAQUETTE_BOUND = 1e-5       # seeds 0-4 give at most 1.2e-6
METRIC_ERROR_BOUND = 1e-2    # seeds 0-4 give at most 3.8e-3


def hyperboloid_lift(x, y):
    """The future unit hyperboloid point over the Poincare-disk point (x, y)."""
    r2 = x * x + y * y
    return np.array([2.0 * x, 2.0 * y, 1.0 + r2]) / (1.0 - r2)


class Embed(Workload):
    """``codazzi embed --endo FILE``; the field file is written at set-up.

    The field is ``0.5 * codazzi_generator(f)`` with
    ``f = 2 + trig_scalar(amp=0.05, kmax=2)``.
    """

    name = "embed"

    def __init__(self, seed, input_dir):
        from codazzi import embedding, fileio
        from codazzi.grid import Grid
        from codazzi.randfields import rng_for, trig_scalar

        patch = embedding.HyperboloidPatch(
            Grid(EMBED_N, EMBED_N, EMBED_EXTENT, EMBED_EXTENT, "dirichlet"))
        draws = np.random.default_rng(seed)
        while True:
            f = 2.0 + trig_scalar(patch.grid, rng_for(int(draws.integers(0, 2**31 - 1))),
                                  amp=0.05, kmax=2)
            endo = 0.5 * embedding.codazzi_generator(f, patch)
            sym = 0.5 * (endo + np.swapaxes(endo, -1, -2))
            if np.linalg.eigvalsh(sym)[..., 0].min() >= EMBED_MIN_EIGENVALUE:
                break
        self.path = os.path.join(input_dir, "field.json")
        fileio.save_field(self.path, patch.metric, endo=endo)
        nodes = np.linspace(-0.5 * EMBED_EXTENT, 0.5 * EMBED_EXTENT, EMBED_N)
        # integration starts at the node nearest the origin, on the hyperboloid
        self.base_row = (EMBED_N // 2) * EMBED_N + EMBED_N // 2
        self.base_lift = hyperboloid_lift(nodes[EMBED_N // 2], nodes[EMBED_N // 2])

    def digest(self):
        with open(self.path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def argv(self, i, out_dir):
        return ["embed", "--endo", self.path, "--out", os.path.join(out_dir, "embed")]

    def check(self, i, out_dir, failures, observed):
        report = _read_json(os.path.join(out_dir, "embed_report.json"))
        conv = report["convexity"]
        if (conv["side"], conv["spacelike"], conv["definite"]) != ("future", True, True):
            failures.append(f"convexity {conv!r}, expected a future-convex spacelike mesh")
        for key, bound in (("plaquette_defect", PLAQUETTE_BOUND),
                           ("induced_metric_error", METRIC_ERROR_BOUND),
                           ("codazzi_residual", EMBED_CODAZZI_TOL)):
            value = float(report[key])
            if not (value <= bound):
                failures.append(f"{key} {value!r} above {bound}")
        try:
            with open(os.path.join(out_dir, "embed_mesh.csv"), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise GateError(f"embed_mesh.csv: {exc}") from None
        lines = data.split(b"\n")
        if lines[0] != b"u,v,x1,x2,x3,phi_support" or lines[-1] != b"":
            raise GateError("embed_mesh.csv: bad header or truncated")
        rows = lines[1:-1]
        if len(rows) != EMBED_N * EMBED_N:
            failures.append(f"mesh has {len(rows)} rows, expected {EMBED_N * EMBED_N}")
        # repr() writes non-finite floats as nan / inf; no finite value or the
        # header contains either
        if b"nan" in data or b"inf" in data:
            failures.append("mesh holds non-finite values")
        base = np.array([float(v) for v in rows[self.base_row].split(b",")[2:5]])
        if not (np.max(np.abs(base - self.base_lift)) <= 1e-12):
            failures.append(f"mesh base node {base!r} is not on the hyperboloid")


WORKLOADS = {w.name: w for w in (Solve, Verify, Embed)}
