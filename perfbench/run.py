"""Benchmark entry point.

    python3 perfbench/run.py --workload solve|verify|embed --seed N --seconds S --trace 0|1

Runs one workload in process through ``codazzi.cli.main``, in a closed loop:
one caller, and the next op starts only after the previous one has finished
and its outputs have passed their oracle gate.  A new op starts only if an
op of median length still ends within ``--seconds``; at least one always
runs.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median over
fresh processes of the time from process start until the first op is
ready), ``op_s`` (median seconds per op) and ``peak_rss_mb``.  Both times
are rescaled to a fixed reference machine speed by a probe that runs
alongside them (see speed.py); the raw wall times are printed in the
summary lines.
``--trace 1`` runs each op twice, untraced and then traced, derives the
per-layer metrics from the traced op's spans, reports the tracing overhead
as the median over pairs of traced over untraced seconds, minus 1, and fails
the op if the two runs wrote different bytes.

A human-readable summary goes first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run artifacts (provenance, op times, spans) go to
``perfbench/.work/<workload>-trace<0|1>/``.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

from speed import SpeedProbe, normalise

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120


class SetupError(RuntimeError):
    """A set-up process failed; the run cannot produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs into DIR, print their digest, exit
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pin_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


# -- set-up -------------------------------------------------------------------


def setup_only(name, seed, input_dir):
    """Everything a run does before its first op: imports and inputs.

    Prints the inputs' digest and the speed probe's samples as one JSON line.
    """
    probe = SpeedProbe()
    with probe:
        import codazzi.cli  # noqa: F401  (the op entry point; importing it is set-up)
        from workloads import WORKLOADS

        workload = WORKLOADS[name](seed, input_dir)
    print(json.dumps({"digest": workload.digest(), "spin_sum": sum(probe.samples),
                      "spin_mean": probe.spin_mean()}), flush=True)
    return 0


def measure_setup(args, work):
    """Set-up seconds and input digests from SETUP_SAMPLES fresh processes.

    Each sample runs from the process launch until the child reports its
    inputs ready on standard output.  Returns the wall seconds, the seconds
    at reference speed and the digests.
    """
    walls, samples, digests = [], [], []
    for k in range(SETUP_SAMPLES):
        input_dir = os.path.join(work, f"setup{k}")
        os.makedirs(input_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only", input_dir]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                rc = proc.wait()
            finally:
                watchdog.cancel()
        try:
            report = json.loads(line)
        except ValueError:
            report = None
        if rc != 0 or report is None:
            raise SetupError(f"set-up process exited with {rc}")
        walls.append(elapsed)
        samples.append(normalise(elapsed, report["spin_sum"], report["spin_mean"]))
        digests.append(report["digest"])
        shutil.rmtree(input_dir)
    return walls, samples, digests


# -- one op ---------------------------------------------------------------------


def _clear(directory):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)


def call_cli(cli, argv, probe=None):
    """``(exit code, seconds, captured text)`` of one ``cli.main(argv)`` call.

    With a ``probe``, the speed probe samples while the call runs.
    """
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            probe or contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = 0 if exc.code is None else exc.code
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            sink.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
    return rc, elapsed, sink.getvalue()


def gate(workload, i, out_dir, rc, text):
    if rc != 0:
        tail = text.strip().splitlines()[-1:] or [""]
        return [f"exit code {rc!r}: {tail[0]}"], {}
    return workload.gate(i, out_dir)


def same_bytes(dir_a, dir_b):
    """Failures unless both directories hold the same files, byte for byte."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return [f"traced run wrote {sorted(os.listdir(dir_b))}, untraced {names}"]
    out = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                out.append(f"traced run wrote different bytes to {name}")
    return out


# -- the measured loops ------------------------------------------------------------


class Tally:
    """Attempted and failed ops, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.ops = []

    def add(self, i, failures, seconds, traced=False, **extra):
        self.attempted += 1
        self.ops.append({"op": i, "traced": traced, "seconds": seconds, **extra,
                         "failures": failures})
        if failures:
            self.failed += 1
            self.messages.extend(f"op {i}: {f}" for f in failures[:3])


def more_ops(deadline, times):
    """Whether an op of median length, started now, still ends by ``deadline``."""
    return not times or time.perf_counter() + statistics.median(times) <= deadline


def run_plain(cli, workload, seconds, work, tally):
    """Wall seconds, seconds at reference speed and gate observations per op."""
    out_dir = os.path.join(work, "op")
    walls, times, observed = [], [], []
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    i = 0
    while more_ops(deadline, walls):
        _clear(out_dir)
        gc.collect()  # keep collector pauses of earlier ops out of this op's time
        rc, elapsed, text = call_cli(cli, workload.argv(i, out_dir), probe)
        seconds_ref = normalise(elapsed, sum(probe.samples), probe.spin_mean())
        failures, obs = gate(workload, i, out_dir, rc, text)
        tally.add(i, failures, elapsed, seconds_ref=seconds_ref, spin_samples=len(probe.samples))
        walls.append(elapsed)
        times.append(seconds_ref)
        observed.append(obs)
        i += 1
    return walls, times, observed


def run_traced(cli, workload, seconds, work, tally):
    from layers import op_layer_metrics
    from tracer import Tracer, library_targets

    tracer = Tracer()
    targets = library_targets()
    plain_dir = os.path.join(work, "op")
    traced_dir = os.path.join(work, "op-traced")
    plain_times, traced_times, per_op = [], [], []
    pair_times = []
    deadline = time.perf_counter() + seconds
    i = 0
    while more_ops(deadline, pair_times):
        _clear(plain_dir)
        gc.collect()
        rc, elapsed, text = call_cli(cli, workload.argv(i, plain_dir))
        failures, _ = gate(workload, i, plain_dir, rc, text)
        tally.add(i, failures, elapsed)
        plain_times.append(elapsed)

        _clear(traced_dir)
        gc.collect()
        tracer.op = i
        with tracer.installed(targets):
            rc, elapsed, text = call_cli(cli, workload.argv(i, traced_dir))
        tracer.op = None
        failures, observed = gate(workload, i, traced_dir, rc, text)
        failures += same_bytes(plain_dir, traced_dir)
        tally.add(i, failures, elapsed, traced=True)
        traced_times.append(elapsed)
        pair_times.append(plain_times[-1] + elapsed)
        per_op.append(op_layer_metrics(tracer.op_spans(i), observed))
        i += 1
    return plain_times, traced_times, per_op, tracer


# -- reporting --------------------------------------------------------------------


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None):
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not os.path.isfile(os.path.join(ROOT, "src", "codazzi", "__init__.py")):
        print(f"error: no codazzi sources at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.setup_only)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]

    # artifacts are kept per workload and mode; op inputs and outputs live in
    # a temporary directory of this process, removed when the run ends
    artifacts = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(artifacts, ignore_errors=True)
    os.makedirs(artifacts)
    tmp_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return measure(args, workload_cls, nproc, artifacts, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def measure(args, workload_cls, nproc, artifacts, work):
    correct = True
    notes = []
    setup_walls, setup_samples = [], []
    if args.trace == 0:
        try:
            setup_walls, setup_samples, digests = measure_setup(args, work)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    from codazzi import cli
    from provenance import provenance

    input_dir = os.path.join(work, "inputs")
    os.makedirs(input_dir)
    workload = workload_cls(args.seed, input_dir)
    digest = workload.digest()
    if args.trace == 0 and set(digests) != {digest}:
        correct = False
        notes.append(f"inputs differ between processes for seed {args.seed}: "
                     f"{sorted(set(digests) | {digest})}")

    tally = Tally()
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
             f"seconds={args.seconds:g} blas_threads={os.environ[BLAS_THREAD_VARS[0]]}"]
    if args.trace == 0:
        walls, times, observed = run_plain(cli, workload, args.seconds, work, tally)
        q1, q3 = quartiles(times)
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "op_s": metric(statistics.median(times), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        lines.append(f"  setup_s      {metrics['setup_s']['value']:.4f} s  "
                     f"(median of {len(setup_samples)} fresh processes; "
                     f"wall {statistics.median(setup_walls):.4f} s)")
        lines.append(f"  op_s         {metrics['op_s']['value']:.4f} s  "
                     f"(median of {len(times)} ops, quartiles {q1:.4f}..{q3:.4f})")
        lines.append(f"  op_wall_s    {statistics.median(walls):.4f} s  "
                     f"(median wall time, not rescaled)")
        lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
        errs = [o["recovery_err"] for o in observed if "recovery_err" in o]
        if errs:
            lines.append(f"  recovery_err {max(errs):.3e}  (largest over {len(errs)} ops)")
    else:
        from layers import OVERHEAD_METRIC, units

        plain, traced, per_op, tracer = run_traced(cli, workload, args.seconds, work, tally)
        unit_of = units()
        metrics = {
            name: metric(statistics.median(op[name] for op in per_op), unit_of[name])
            for name in per_op[0]
        }
        # each traced op runs right after its untraced twin, so the ratio of
        # the pair is not swayed by the machine getting slower over the run
        overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        metrics[OVERHEAD_METRIC[0]] = metric(overhead, OVERHEAD_METRIC[1])
        lines.append(f"  {len(per_op)} traced ops, {len(tracer.spans)} spans; "
                     f"median of the per-op values:")
        lines.extend(f"  {name:45s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items())
        tracer.write_jsonl(os.path.join(artifacts, "trace.jsonl"))
        with open(os.path.join(artifacts, "layers.json"), "w") as fh:
            json.dump(per_op, fh, indent=1)
    lines.append(f"  fail_frac    {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / tally.attempted:.4g}")

    prov = provenance(ROOT, args.workload, args.seed, digest,
                      os.environ[BLAS_THREAD_VARS[0]], nproc)
    with open(os.path.join(artifacts, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1, sort_keys=True)
    with open(os.path.join(artifacts, "ops.json"), "w") as fh:
        json.dump({"setup_s": setup_samples, "setup_wall_s": setup_walls, "ops": tally.ops},
                  fh, indent=1)
    lines.append("  provenance " + json.dumps(prov, sort_keys=True))

    for message in (tally.messages + notes)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
