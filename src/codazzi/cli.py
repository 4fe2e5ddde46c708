"""Command-line front end: verification suites, the critical-point solver,
and immersion meshes.

Each subcommand accepts only the flags it reads; any other flag, and any
abbreviation of a flag, is a usage error, reported under the subcommand's
usage line:

* ``verify``: ``--suite --seed --g --tol --out``.  The suites run at their
  fixed resolutions (32 and 64 for the refinement checks);
* ``solve``: ``--g --h --nx --lx --tol --out --continuation-steps
  --manufactured-seed``.  The solver runs on Dirichlet charts only; without
  ``--g`` the background is the Dirichlet Poincare sub-disk chart on the
  square of ``--nx`` nodes (32) and extent ``--lx`` (0.8) on each side, and
  a non-square chart comes in through ``--g``, which takes neither flag;
* ``embed``: ``--endo --tol --out``.  The field is certified once, by
  :func:`codazzi.embedding.certify_codazzi` at ``--tol``, before it is
  integrated.

Exit-status contract: 0 when every requested check passes, 1 when a check or a
mathematical precondition fails (wrong curvature sign, non-Codazzi input,
failed suite, an ``embed`` file whose ``phi`` is not the Poincare sub-disk
metric of its grid), 2 for usage and I/O errors (unknown flags, a ``--tol``
that is not finite and positive, a negative ``--seed``, ``--manufactured-seed``
or ``--continuation-steps``, a ``solve --nx`` or ``--lx`` whose built-in chart
:class:`~codazzi.grid.Grid` refuses, a ``solve --nx`` or ``--lx`` together with
``--g``, missing or malformed files, a ``solve
--h`` file on another grid or with another ``phi`` than the background's,
``solve --h`` with ``--manufactured-seed``, a ``solve --manufactured-seed``
whose ``--g`` ``phi`` is not the Poincare sub-disk metric of its grid, a
``solve`` chart that is periodic or, where its Poincare sub-disk metric is
needed, leaves the unit disk, an ``embed`` file whose chart cannot carry a
hyperboloid patch).  Each refusal is raised where it is found, and its
exception class sets the status: ``_Refused`` 1, ``ValueError`` and
``OSError`` 2; :func:`main` alone prints ``error: <message>`` and returns
it.  All outputs are written through deterministic serializers, so two runs
with the same configuration produce byte-identical artifacts.
"""

import argparse
import dataclasses
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
    pv.set_defaults(run=cmd_verify, parser=pv)
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
    ps.set_defaults(run=cmd_solve, parser=ps)
    ps.add_argument("--g", metavar="FILE", help="background metric field file (Dirichlet chart)")
    # a manufactured run builds its own target, so it takes no --h
    target = ps.add_mutually_exclusive_group(required=True)
    target.add_argument("--h", metavar="FILE", help="target metric field file")
    # no defaults here, so that a chart flag next to --g, which it cannot change, is refused
    ps.add_argument("--nx", type=int, help="nodes per side of the built-in square chart (32)")
    ps.add_argument("--lx", type=float, help="side of the built-in square chart (0.8)")
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
    pe.set_defaults(run=cmd_embed, parser=pe)
    pe.add_argument("--endo", metavar="FILE", required=True, help="endomorphism field file")
    pe.add_argument("--tol", type=float, default=0.05, help="Codazzi residual bound of the endo")
    pe.add_argument("--out", default="embed", help="output prefix")
    return parser


class _Refused(Exception):
    """A check or a mathematical precondition failed: exit status 1."""


def _disk(grid, chart):
    """Poincare sub-disk metric of ``grid``; its refusal is prefixed by ``chart``."""
    try:
        return poincare_disk(grid)
    except ValueError as exc:
        raise ValueError(f"{chart}: {exc}") from None


def _check_phi(refusal, path, phi, expected, what):
    """Raise ``refusal`` if ``phi`` differs from ``expected`` at some node.

    A node differs when the gap exceeds 1e-12 (1 + |expected|), so the
    round-off of a file written from the same metric passes.  The message
    names the file, the key and the first such node.
    """
    node = first_node(np.abs(phi - expected) > 1e-12 * (1.0 + np.abs(expected)))
    if node is not None:
        raise refusal(f"{path}: key 'phi' is not {what} at node (j, i) = {node}")


def _check_endo(path, endo):
    """Refuse an ``endo`` that is not finite and symmetric.

    The message names the file, the key and the first bad node.
    """
    try:
        check_symmetric(endo)
    except ValueError as exc:
        raise _Refused(f"{path}: refusing 'endo': {exc}") from None


def cmd_verify(args, parser):
    if args.seed < 0:
        parser.error("argument --seed: must be 0 or more")
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    # optional input field: validated, and checked when it carries an endo
    check = None
    if args.g is not None:
        doc = fileio.load_field(args.g)
        if "endo" in doc:
            _check_endo(args.g, doc["endo"])
            resid = codazzi_residual(doc["endo"], doc["g"])
            check = verify._equal("input_codazzi_residual", resid, 0.0, args.tol)
    report = verify.run_suites(names, seed=args.seed)
    if check is not None:
        report["suites"].append({"suite": "input", "passed": check["pass"], "checks": [check]})
        report["passed"] = report["passed"] and check["pass"]
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
    if args.manufactured_seed is not None and args.manufactured_seed < 0:
        parser.error("argument --manufactured-seed: must be 0 or more")
    # the background: a --g file, or the Poincare sub-disk chart of the grid flags
    if args.g is None:
        nx = 32 if args.nx is None else args.nx
        lx = 0.8 if args.lx is None else args.lx
        try:
            grid = Grid(nx, nx, lx, lx, DIRICHLET)
        except ValueError as exc:
            parser.error(f"argument --nx/--lx: {exc}")
        chart = f"grid {grid}"
        g = _disk(grid, chart)
    else:
        if args.nx is not None or args.lx is not None:
            parser.error("argument --nx/--lx: not allowed with argument --g")
        g = fileio.load_field(args.g)["g"]
        chart = f"{args.g}: grid {g.grid}"
        if args.manufactured_seed is not None:
            # the target is built for the Poincare sub-disk metric, so a --g must hold it
            disk = _disk(g.grid, chart).phi
            _check_phi(ValueError, args.g, g.phi, disk, "the Poincare sub-disk metric of its grid")
    diffeo = None
    if args.manufactured_seed is not None:
        diffeo = ManufacturedDiffeo.seeded(g.grid, args.manufactured_seed)
        h = pullback_of_scaled_poincare(diffeo, g.grid)
    else:
        doc = fileio.load_field(args.h)
        if "h" not in doc:
            raise ValueError(f"{args.h}: missing required key 'h'")
        if doc["grid"] != g.grid:
            raise ValueError(
                f"{args.h}: grid {doc['grid']} does not match the background grid {g.grid}"
            )
        _check_phi(ValueError, args.h, doc["g"].phi, g.phi, "the background's")
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
        raise _Refused(f"{chart}: solve failed: {exc}") from None
    except ValueError as exc:
        # the solver's refusal of the chart itself (a periodic one)
        raise ValueError(f"{chart}: {exc}") from None
    fileio.save_field(f"{args.out}_displacement.json", g, x=x)
    rep = dataclasses.asdict(report)
    if diffeo is not None:
        rep["recovery_error"] = float(recovery_error(diffeo, g.grid, x))
    fileio.write_json(f"{args.out}_report.json", rep)
    last = rep["residuals"][-1]
    print(
        f"converged in {rep['iterations']} iterations, final residual {last:.3e}, "
        f"codazzi residual {rep['codazzi_residual']:.3e}"
    )
    if "recovery_error" in rep:
        print(f"manufactured recovery error {rep['recovery_error']:.3e}")
    return 0


def cmd_embed(args, parser):
    doc = fileio.load_field(args.endo)
    if "endo" not in doc:
        raise ValueError(f"{args.endo}: missing required key 'endo'")
    grid = doc["grid"]
    _check_endo(args.endo, doc["endo"])
    a = doc["endo"]
    try:
        patch = embedding.HyperboloidPatch(grid)
    except ValueError as exc:
        raise ValueError(f"{args.endo}: grid {grid}: {exc}") from None
    # the field is integrated on the chart's Poincare metric, so the file's
    # phi must be that metric's
    disk = patch.metric.phi
    _check_phi(_Refused, args.endo, doc["g"].phi, disk, "the Poincare sub-disk metric of its grid")
    try:
        resid = embedding.certify_codazzi(a, patch, args.tol)
    except embedding.PathDependenceError as exc:
        raise _Refused(f"{args.endo}: refusing non-Codazzi input: {exc}") from None
    segments = embedding.edge_segments(a, patch)
    x = embedding.integrate_immersion(segments, patch, patch.nodes[patch.base_index], sign=1)
    defect = embedding.plaquette_defect(segments)
    del segments  # not alive through the mesh write
    phi = embedding.support_function(x, patch, sign=1)
    fileio.write_mesh_csv(f"{args.out}_mesh.csv", grid, x, phi)
    spacelike, definite, side = embedding.convexity_check(x, patch)
    companion = {
        "codazzi_residual": float(resid),
        "plaquette_defect": float(defect),
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
    args = _build_parser().parse_args(argv)
    # a usage error prints the usage line of the subcommand it concerns
    parser = args.parser
    # every subcommand has --tol; the test is written so that NaN fails it
    if not 0.0 < args.tol < np.inf:
        parser.error(f"argument --tol: must be finite and positive, got {args.tol}")
    try:
        return args.run(args, parser)
    except (_Refused, ValueError, OSError) as exc:
        # OSError: an output path that cannot be written; its message names it
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _Refused) else 2


if __name__ == "__main__":
    sys.exit(main())
