"""The host's speed, sampled while the program runs, to scale its times.

The benchmark's host lends its virtual CPUs from a shared machine, and their
speed moves between levels about a quarter apart, for seconds to minutes at a
time, whatever the program does.  A fixed probe (a few small numpy operations,
the kind of work the program's kernel does) is run about every INTERVAL
seconds from a SIGALRM handler, on the same CPU and in the same process as the
program, and its CPU time is recorded.  A time measured over the same interval
is then scaled to the reference speed at which one probe takes REFERENCE_S:

    scaled = measured * REFERENCE_S / (mean CPU time of one probe)

The probe does not use the program, so a change to the program moves the
scaled times as much as the measured ones.  Its own time is taken out of the
measured times before scaling.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.01
REFERENCE_S = 1.0e-4
_X = np.arange(1.0, 257.0)


def probe() -> None:
    """The fixed piece of work whose CPU time gives the host's speed."""
    for _ in range(25):
        y = np.sqrt(_X * 1.5 + 2.0)
        int(np.count_nonzero(y > 3.0))


def probe_s(repeats: int) -> float:
    """Mean CPU seconds of one probe over ``repeats`` back-to-back probes."""
    probe()
    start = time.thread_time()
    for _ in range(repeats):
        probe()
    return (time.thread_time() - start) / repeats


class SpeedProbe:
    """Context manager that runs the probe every INTERVAL seconds of wall time.

    After the block, ``wall_s`` and ``cpu_s`` hold the time the probes took
    and ``scale`` the factor that takes a time measured during the block to
    the reference speed.
    """

    def __init__(self) -> None:
        self.probe_cpu: list[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        probe()
        cpu = time.thread_time() - cpu
        self.probe_cpu.append(cpu)
        self.cpu_s += cpu
        self.wall_s += time.perf_counter() - wall

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        if not self.probe_cpu:
            # A block shorter than INTERVAL: probe once now instead.
            return REFERENCE_S / probe_s(10)
        return REFERENCE_S / statistics.fmean(self.probe_cpu)
