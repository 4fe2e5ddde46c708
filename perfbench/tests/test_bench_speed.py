"""The speed probe: its arithmetic, its sampling, and that it cleans up."""

import signal
import time

from speed import SPIN_REF_S, SpeedProbe, normalise


def test_normalise_removes_probe_time_and_rescales():
    # half speed: each sample takes twice the reference time
    assert abs(normalise(1.0, 0.01, 2 * SPIN_REF_S) - 0.495) < 1e-12
    assert abs(normalise(2.0, 0.0, SPIN_REF_S) - 2.0) < 1e-12


def test_probe_samples_while_active_and_restores_the_handler():
    probe = SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            sum(range(100))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert all(s > 0 for s in probe.samples)
    assert probe.spin_mean() > 0


def test_probe_takes_one_sample_when_the_block_was_too_short():
    probe = SpeedProbe()
    with probe:
        pass
    assert probe.samples == []
    assert probe.spin_mean() > 0
