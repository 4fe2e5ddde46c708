"""Machine-speed probe: rescales wall times to a fixed reference speed.

The reference machine is shared.  Other tenants slow its CPUs down by up to
1.8x, for seconds to minutes at a time, so the wall time of one op, and even
the median op of a 30 s run, swings by more than any bound worth gating on.
CPU time swings the same way: the slowdown is in the CPU's own speed, not in
time spent waiting for it.

While a probe is active it times a fixed kernel, ``spin``, every
``INTERVAL_S`` of wall time, from a SIGALRM handler on the main thread.  The
handler runs between bytecodes of whatever the main thread is doing, so the
samples see the CPU the op runs on, at the moments it runs.  Their mean is
how slow the machine was over the op.  :func:`normalise` takes
the probe's own samples out of the op's wall time and rescales the rest by
``SPIN_REF_S / mean sample``: the op's seconds on a machine where ``spin``
takes ``SPIN_REF_S``.

``spin`` mixes a pure-Python loop with calls on 16x16 numpy arrays, as the
library's kernels do.  Of the four kernels tried, it tracked the op times of
the three workloads best.  Over 80-120 s of ops, the spread (interquartile
range over median) of op seconds over mean sample was 5-12%, against 13-23%
for the raw op seconds.

The probe costs about 1% of an op's wall time.  A Python signal handler
waits until a C call returns, so a long BLAS call gets no samples inside it.
"""

import signal
import statistics
import time

# The fastest time of ``spin`` on the reference machine (2-CPU Xeon VM,
# Python 3.11, numpy 2.4), measured over 3000 back-to-back calls.
SPIN_REF_S = 2.4e-4
INTERVAL_S = 0.025


class SpeedProbe:
    """``with SpeedProbe() as probe:`` samples ``spin`` until the block ends.

    numpy is imported on construction, so build a probe only after the BLAS
    thread count is set.
    """

    def __init__(self):
        import numpy as np

        self.samples = []
        self._previous = None
        self._np = np
        self._m = np.random.default_rng(0).standard_normal((16, 16))

    def spin(self):
        np, m = self._np, self._m
        s = 0.0
        d = {}
        for k in range(1500):
            s += k * 0.5
            d[k & 15] = s
        for _ in range(30):
            s += float(np.sqrt(np.abs(m @ m + m))[0, 0])
        return s

    def spin_seconds(self):
        t0 = time.perf_counter()
        self.spin()
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.samples.append(self.spin_seconds())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def spin_mean(self):
        """Mean sample; one sample is taken now if the block was too short."""
        return statistics.mean(self.samples) if self.samples else self.spin_seconds()


def normalise(wall_s, spin_sum, spin_mean):
    """``wall_s`` less the probe's own ``spin_sum``, at reference speed."""
    return (wall_s - spin_sum) * SPIN_REF_S / spin_mean
