"""Command-line front end: verification suites, the critical-point solver,
and immersion meshes.

Each subcommand accepts only the flags it reads; any other flag, and any
abbreviation of a flag, is a usage error:

* ``verify``: ``--suite --seed --g --tol --out``.  The suites run at their
  fixed resolutions (32 and 64 for the refinement checks);
* ``solve``: ``--g --h --nx --ny --lx --ly --tol --out
  --continuation-steps --manufactured-seed``.  The solver runs on Dirichlet
  charts only; without ``--g`` the background is the Dirichlet Poincare
  sub-disk chart given by the grid flags;
* ``embed``: ``--endo --tol --out``.

Exit-status contract: 0 when every requested check passes, 1 when a check
or a mathematical precondition fails (wrong curvature sign, non-Codazzi
input, failed suite, an ``embed`` file whose ``phi`` is not the Poincare
sub-disk metric of its grid), 2 for usage and I/O errors (unknown flags, a
``--tol`` that is not finite and positive, a negative ``--continuation-steps``,
missing or malformed files, a ``solve --h`` file on another grid or with
another ``phi`` than the background's, ``solve --h`` with
``--manufactured-seed``, a ``solve --manufactured-seed`` whose ``--g`` ``phi``
is not the Poincare sub-disk metric of its grid, an ``embed`` file whose
chart cannot carry a hyperboloid patch).  All outputs are written through
deterministic serializers, so two runs with the same configuration produce
byte-identical artifacts.
"""

import argparse
import sys

import numpy as np

from . import embedding, fileio, solver, verify
from .energy import codazzi_residual
from .grid import DIRICHLET, Grid, first_node, poincare_disk
from .jcalc import check_symmetric
from .manufactured import ManufacturedDiffeo, pullback_of_scaled_poincare, recovery_error

__all__ = ["main"]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="codazzi",
        description="Verification suites and solvers for Codazzi-field geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev=False: a flag a subcommand lacks (--h on embed) must be
    # refused, not read as an abbreviation of another (--help)

    pv = sub.add_parser("verify", help="run seeded verification suites", allow_abbrev=False)
    pv.set_defaults(run=cmd_verify)
    pv.add_argument(
        "--suite",
        default="all",
        choices=verify.SUITE_NAMES + ("all",),
        help="which suite to run",
    )
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--g", metavar="FILE", help="field file to validate; an endo in it is checked")
    pv.add_argument("--tol", type=float, default=1e-2, help="Codazzi residual bound of that endo")
    pv.add_argument("--out", default="verify_report.json", help="report path")

    ps = sub.add_parser(
        "solve", help="solve for a one-harmonic displacement field", allow_abbrev=False
    )
    ps.set_defaults(run=cmd_solve)
    ps.add_argument("--g", metavar="FILE", help="background metric field file (Dirichlet chart)")
    # a manufactured run builds its own target, so it takes no --h
    target = ps.add_mutually_exclusive_group(required=True)
    target.add_argument("--h", metavar="FILE", help="target metric field file")
    ps.add_argument("--nx", type=int, default=32)
    ps.add_argument("--ny", type=int, default=None, help="default nx")
    ps.add_argument("--lx", type=float, default=0.8)
    ps.add_argument("--ly", type=float, default=None, help="default lx")
    ps.add_argument("--tol", type=float, default=1e-8, help="Newton residual tolerance")
    ps.add_argument("--out", default="solve", help="output prefix")
    ps.add_argument("--continuation-steps", type=int, default=0)
    target.add_argument(
        "--manufactured-seed",
        type=int,
        default=None,
        help="build a manufactured (g, h) pair instead of reading --h, and report the recovery error",
    )

    pe = sub.add_parser(
        "embed", help="integrate a Codazzi field to a Minkowski mesh", allow_abbrev=False
    )
    pe.set_defaults(run=cmd_embed)
    pe.add_argument("--endo", metavar="FILE", required=True, help="endomorphism field file")
    pe.add_argument("--tol", type=float, default=0.05, help="Codazzi residual bound of the endo")
    pe.add_argument("--out", default="embed", help="output prefix")
    return parser


def _background(args):
    """Background metric from --g or from the grid flags (Poincare sub-disk)."""
    if args.g is not None:
        return _load_or_usage(args.g)["g"]
    ny = args.ny if args.ny is not None else args.nx
    ly = args.ly if args.ly is not None else args.lx
    return poincare_disk(Grid(args.nx, ny, args.lx, ly, DIRICHLET))


def _load_or_usage(path):
    try:
        return fileio.load_field(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _phi_refused(path, phi, expected, what):
    """Print a refusal and return True if ``phi`` differs from ``expected`` at some node.

    A node differs when the gap exceeds 1e-12 (1 + |expected|), so the
    round-off of a file written from the same metric passes.  The message
    names the file, the key and the first such node.
    """
    node = first_node(np.abs(phi - expected) > 1e-12 * (1.0 + np.abs(expected)))
    if node is not None:
        print(f"error: {path}: key 'phi' is not {what} at node (j, i) = {node}", file=sys.stderr)
    return node is not None


def _endo_refused(path, endo):
    """Print a refusal and return True if ``endo`` is not finite and symmetric.

    The message names the file, the key and the first bad node.
    """
    try:
        check_symmetric(endo)
    except ValueError as exc:
        print(f"error: {path}: refusing 'endo': {exc}", file=sys.stderr)
        return True
    return False


def cmd_verify(args, parser):
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    # optional input field: validated, and checked when it carries an endo
    report_extra = []
    if args.g is not None:
        doc = _load_or_usage(args.g)
        if "endo" in doc:
            if _endo_refused(args.g, doc["endo"]):
                return 1
            resid = codazzi_residual(doc["endo"], doc["g"])
            report_extra.append(
                {
                    "check": "input_codazzi_residual",
                    "lhs": resid,
                    "rhs": 0.0,
                    "residual": resid,
                    "order": None,
                    "pass": resid <= args.tol,
                }
            )
    report = verify.run_suites(names, seed=args.seed)
    if report_extra:
        report["suites"].append(
            {
                "suite": "input",
                "passed": all(c["pass"] for c in report_extra),
                "checks": report_extra,
            }
        )
        report["passed"] = report["passed"] and report["suites"][-1]["passed"]
    for s in report["suites"]:
        for c in s["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            order = "" if c["order"] is None else f" order={c['order']:.2f}"
            print(
                f"{status} {s['suite']}.{c['check']}"
                f" residual={c['residual']:.3e}{order}"
            )
    fileio.write_json(args.out, report)
    print(("all checks passed" if report["passed"] else "some checks FAILED"))
    return 0 if report["passed"] else 1


def cmd_solve(args, parser):
    if args.continuation_steps < 0:
        parser.error("argument --continuation-steps: must be 0 or more")
    g = _background(args)
    diffeo = None
    if args.manufactured_seed is not None:
        # the target is built for the Poincare sub-disk metric, so a --g must hold it
        disk = poincare_disk(g.grid).phi
        if _phi_refused(args.g, g.phi, disk, "the Poincare sub-disk metric of its grid"):
            return 2
        diffeo = ManufacturedDiffeo.seeded(g.grid, args.manufactured_seed)
        h = pullback_of_scaled_poincare(diffeo, g.grid)
    else:
        doc = _load_or_usage(args.h)
        if "h" not in doc:
            print(f"error: {args.h}: missing required key 'h'", file=sys.stderr)
            return 2
        if doc["grid"] != g.grid:
            print(
                f"error: {args.h}: grid {doc['grid']} does not match the background grid {g.grid}",
                file=sys.stderr,
            )
            return 2
        if _phi_refused(args.h, doc["g"].phi, g.phi, "the background's"):
            return 2
        h = doc["h"]
    try:
        if args.continuation_steps > 0:
            # march from the trivial pair (target = background, solution 0)
            x, report = solver.continuation_solve(
                g, h, steps=args.continuation_steps, tol=args.tol
            )
        else:
            x, report = solver.newton_solve(g, h, tol=args.tol)
    except (solver.SolverError, solver.CurvatureSignError) as exc:
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return 1
    fileio.save_field(f"{args.out}_displacement.json", g, x=x)
    rep = report.to_dict()
    if diffeo is not None:
        rep["recovery_error"] = float(recovery_error(diffeo, g.grid, x))
    fileio.write_json(f"{args.out}_report.json", rep)
    last = rep["residuals"][-1] if rep["residuals"] else float("nan")
    print(
        f"converged in {rep['iterations']} iterations, final residual {last:.3e}, "
        f"codazzi residual {rep['codazzi_residual']:.3e}"
    )
    if "recovery_error" in rep:
        print(f"manufactured recovery error {rep['recovery_error']:.3e}")
    return 0


def cmd_embed(args, parser):
    doc = _load_or_usage(args.endo)
    if "endo" not in doc:
        print(f"error: {args.endo}: missing required key 'endo'", file=sys.stderr)
        return 2
    grid = doc["grid"]
    if _endo_refused(args.endo, doc["endo"]):
        return 1
    a = doc["endo"]
    try:
        patch = embedding.HyperboloidPatch(grid)
    except ValueError as exc:
        print(f"error: {args.endo}: grid {grid}: {exc}", file=sys.stderr)
        return 2
    # the field is integrated on the chart's Poincare metric, so the file's
    # phi must be that metric's
    if _phi_refused(
        args.endo, doc["g"].phi, patch.metric.phi, "the Poincare sub-disk metric of its grid"
    ):
        return 1
    resid = codazzi_residual(a, patch.metric)
    if not (resid <= args.tol):
        print(
            f"error: refusing non-Codazzi input: residual {resid:.3e} exceeds {args.tol:.3e}",
            file=sys.stderr,
        )
        return 1
    u = patch.nodes()[patch.base_index]
    x = embedding.integrate_immersion(a, patch, u, sign=1, codazzi_tol=None)
    phi = embedding.support_function(x, patch, sign=1)
    fileio.write_mesh_csv(f"{args.out}_mesh.csv", grid, x, phi)
    spacelike, definite, side = embedding.convexity_check(x, patch)
    companion = {
        "codazzi_residual": float(resid),
        "plaquette_defect": float(embedding.plaquette_defect(a, patch)),
        "induced_metric_error": float(embedding.induced_metric_error(x, a, patch)),
        "convexity": {
            "spacelike": bool(spacelike),
            "definite": bool(definite),
            "side": side,
        },
    }
    fileio.write_json(f"{args.out}_report.json", companion)
    print(
        f"mesh written: plaquette defect {companion['plaquette_defect']:.3e}, "
        f"induced-metric error {companion['induced_metric_error']:.3e}, "
        f"convexity {side}"
    )
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # every subcommand has --tol; the test is written so that NaN fails it
    if not 0.0 < args.tol < np.inf:
        parser.error(f"argument --tol: must be finite and positive, got {args.tol}")
    try:
        return args.run(args, parser)
    except (ValueError, OSError) as exc:
        # OSError: an output path that cannot be written; its message names it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
