"""Acceptance criteria: one test (one pass/fail line under pytest -v) per
criterion, with stated tolerances and runtime budgets.

Each test prints a summary line "criterion NN PASS/FAIL: ..." so a plain
``pytest -v -s`` run shows both the pytest verdict and the measured numbers.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import codazzi
from codazzi import fileio, solver, verify
from codazzi.energy import second_variation
from codazzi.grid import Grid, poincare_disk
from codazzi.jcalc import ID2
from codazzi.manufactured import ManufacturedDiffeo, pullback_of_scaled_poincare, recovery_error
from codazzi.operators import curvature
from codazzi.randfields import random_displacement, rng_for


def _disk(n, l=0.8):
    return poincare_disk(Grid(n, n, l, l, "dirichlet"))


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_jcalc_exactness():
    t0 = time.perf_counter()
    checks = verify.suite_jcalc(seed=0)
    elapsed = time.perf_counter() - t0
    by_name = {c["check"]: c for c in checks}
    core = (
        "sigma_frobenius_oracle",
        "sigma_rotation_invariance",
        "antisymmetric_part_relation",
        "adjugate_relation",
    )
    ok = all(by_name[n]["pass"] for n in core) and elapsed < 5.0
    worst = max(by_name[n]["residual"] for n in core)
    _report(1, ok, f"J-calculus oracles on 1e5 matrices, worst residual "
                   f"{worst:.2e}, {elapsed:.2f}s")


def _checks(records):
    return {c["check"]: c for c in records}


def test_criterion_02_frame_identity_refinement():
    t0 = time.perf_counter()
    ratios = []
    for k in range(10):
        c = _checks(verify.suite_fields(seed=k))["frame_identity_crosscheck"]
        ratios.append(c["lhs"] / c["rhs"])  # residual at 32^2 over 64^2
    elapsed = time.perf_counter() - t0
    ok = min(ratios) >= 3.5 and elapsed < 10.0
    _report(2, ok, f"frame identity 32^2 -> 64^2 ratio over 10 seeds: min "
                   f"{min(ratios):.2f}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def energy_suite():
    """One ``verify.suite_energy(seed=0)`` run, as records by name, and its wall time."""
    t0 = time.perf_counter()
    checks = _checks(verify.suite_energy(seed=0))
    return checks, time.perf_counter() - t0


def test_criterion_03_energy_gradient(energy_suite):
    checks, elapsed = energy_suite
    worst = checks["gradient_fd_relative"]["lhs"]
    zero = checks["gradient_zero_at_conformal"]["lhs"]
    ok = worst <= 1e-3 and zero <= 1e-10 and elapsed < 30.0
    _report(3, ok, f"gradient FD vs weak pairing: worst rel {worst:.2e} over "
                   f"5 seeds, conformal zero {zero:.2e}, {elapsed:.2f}s")


def test_criterion_04_second_variation(energy_suite):
    # the FD second derivative is verify's; verify tests positivity along
    # only 3 directions, this criterion along 20
    checks, _ = energy_suite
    rel = checks["second_variation_fd_relative"]["lhs"]
    g = _disk(64)
    assert np.max(curvature(g)) < 0.0
    h = 2.25 * g.matrix
    values = [
        second_variation(h, g, random_displacement(g.grid, rng_for(41 + k), kmax=2))
        for k in range(20)
    ]
    ok = rel <= 1e-2 and min(values) > 0.0
    _report(4, ok, f"second variation FD rel {rel:.2e}, min over 20 seeded "
                   f"directions {min(values):.3e} (all > 0)")


def test_criterion_05_curvature_identity(energy_suite):
    # curvature_identity passes at a 32^2 -> 64^2 residual ratio of 3.5,
    # order log2(3.5) = 1.81; flat_pullback_curvature at 1e-3
    checks, _ = energy_suite
    ident = checks["curvature_identity"]
    flat = checks["flat_pullback_curvature"]
    # a pair at the round-off floor passes with no order; it must not pass here
    order = float("nan") if ident["order"] is None else ident["order"]
    ok = ident["pass"] and order >= 1.8 and flat["pass"]
    _report(5, ok, f"curvature identity order {order:.2f}, flat-pullback "
                   f"kappa[h] residual {flat['lhs']:.2e}")


def test_criterion_06_modified_inequality(energy_suite):
    # the check's value is the smallest lhs - rhs + slack over the 50 seeds,
    # with slack 1e-8 + 1e-2 |rhs|; a seed fails when its term is negative
    checks, _ = energy_suite
    worst_margin = checks["modified_inequality_50_seeds"]["lhs"]
    ok = worst_margin >= 0.0
    _report(6, ok, f"modified inequality on 50 seeds: "
                   f"{'no' if ok else 'some'} failures, worst margin {worst_margin:.3e}")


def test_criterion_07_one_harmonic_recovery():
    t0 = time.perf_counter()
    grid = Grid(32, 32, 0.8, 0.8, "dirichlet")
    g = poincare_disk(grid)
    diffeo = ManufacturedDiffeo.seeded(grid, 0)
    h = pullback_of_scaled_poincare(diffeo, grid)
    x, rep = solver.newton_solve(g, h, tol=1e-9)
    rec = float(recovery_error(diffeo, grid, x))
    contraction = rep.residuals[-1] / rep.residuals[-2]
    try:
        solver.continuation_solve(g, h, steps=10, tol=1e-8)
        continuation_ok = True
    except solver.SolverError:
        continuation_ok = False
    elapsed = time.perf_counter() - t0
    ok = rec <= 1e-4 and contraction <= 0.5 and continuation_ok and elapsed < 300.0
    _report(7, ok, f"recovery {rec:.2e}, terminal contraction {contraction:.2f}, "
                   f"10-step continuation {'ok' if continuation_ok else 'UNDERFLOW'}, "
                   f"{elapsed:.1f}s")


def test_criterion_08_teich_variation():
    checks = verify.suite_teich(seed=0)
    by_name = {c["check"]: c for c in checks}
    need = (
        "phi0_nonnegative",
        "first_derivative_fd",
        "first_derivative_general",
        "second_derivative_lower_bound",
        "second_derivative_rhs_positive",
    )
    ok = all(by_name[n]["pass"] for n in need)
    _report(8, ok, "phi0 >= -1e-10, first derivative within 1e-2 of FD, FD "
                   "second derivative positive and above the lower bound")


def test_criterion_09_embedding():
    checks = verify.suite_embed(seed=0)
    by_name = {c["check"]: c for c in checks}
    need = (
        "identity_reproduces_hyperboloid",
        "plaquette_defect",
        "induced_metric_error",
        "support_sum_equals_f",
        "equivariance_hyperboloid_boost",
        "equivariance_rotation_invariant",
    )
    ok = all(by_name[n]["pass"] for n in need)
    _report(9, ok, "hyperboloid to 1e-10, plaquette/metric/support defects "
                   "O(h^2), equivariance residual O(h^2)")


def test_criterion_10_appendix():
    checks = verify.suite_appendix(seed=0)
    by_name = {c["check"]: c for c in checks}
    need = (
        "beltrami_chart_composition",
        "geodesic_ode_residual",
        "b_form_conjugation_invariance",
        "domain_trace_det_identities",
    )
    ok = all(by_name[n]["pass"] for n in need)
    _report(10, ok, "chart composition 1e-14, geodesic ODE 1e-6, b-form "
                    "conjugation 1e-12, domain trace/det identities exact")


def test_criterion_11_diagnostics():
    checks = verify.suite_diagnostics(seed=0)
    by_name = {c["check"]: c for c in checks}
    need = (
        "intermediate_J_squares_to_minus_id",
        "alpha_harmonic_codazzi",
        "alpha_harmonic_negative_control",
        "energy_identity_relative",
        "mod_upper_hand_value",
    )
    ok = all(by_name[n]["pass"] for n in need)
    _report(11, ok, "J-hat^2 = -Id to 1e-12, alpha-harmonic O(h^2) with "
                    "negative control, energy identity, collar hand values")


def test_criterion_12_cli_determinism(tmp_path):
    # The subprocess runs from tmp_path, where a relative PYTHONPATH (such as
    # PYTHONPATH=src) no longer resolves; prepend the absolute directory of
    # the codazzi imported here so the CLI under test is the same package.
    pkg_root = str(Path(codazzi.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "codazzi.cli", *map(str, argv)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )

    def read(name):
        path = tmp_path / name
        return path.read_bytes() if path.exists() else None

    r1 = run("verify", "--suite", "all", "--seed", "0", "--out", "a.json")
    r2 = run("verify", "--suite", "all", "--seed", "0", "--out", "b.json")
    a_bytes, b_bytes = read("a.json"), read("b.json")
    identical = a_bytes is not None and a_bytes == b_bytes

    # failure injections exercising the exit contract
    g = poincare_disk(Grid(16, 16, 0.8, 0.8, "dirichlet"))
    xx, yy = g.grid.meshgrid
    a = np.broadcast_to(ID2, (16, 16, 2, 2)).copy()
    a[..., 0, 0] += 2.0 * np.sin(5 * xx) * np.cos(4 * yy)
    fileio.save_field(tmp_path / "inject.json", g, endo=a)
    r_fail = run("verify", "--suite", "jcalc", "--g", "inject.json",
                 "--out", "c.json")
    doc = json.loads((tmp_path / "inject.json").read_text())
    del doc["phi"]
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    r_io = run("verify", "--suite", "jcalc", "--g", "broken.json")
    r_usage = run("solve")

    # exit 1 alone is also what a broken interpreter start gives
    fail_named = "FAIL input.input_codazzi_residual" in r_fail.stdout
    ok = (
        r1.returncode == 0 and r2.returncode == 0 and identical
        and r_fail.returncode == 1 and fail_named and r_io.returncode == 2
        and r_usage.returncode == 2
    )
    detail = (f"byte-identical={identical}, exits: pass={r1.returncode}, "
              f"check-failure={r_fail.returncode} (check named: {fail_named}), "
              f"io={r_io.returncode}, usage={r_usage.returncode}")
    missing = [n for n, b in (("a.json", a_bytes), ("b.json", b_bytes)) if b is None]
    if missing:
        detail += f"; not written: {', '.join(missing)}"
    runs = (("pass a.json", r1, 0), ("pass b.json", r2, 0),
            ("check-failure", r_fail, 1), ("io", r_io, 2), ("usage", r_usage, 2))
    for label, r, expected in runs:
        if r.returncode != expected:
            tail = r.stderr.strip().splitlines()[-3:]
            detail += (f"; {label}: returncode={r.returncode} (expected "
                       f"{expected}), stderr tail: {' | '.join(tail)!r}")
    _report(12, ok, detail)
