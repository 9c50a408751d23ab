"""Machine-speed correction for timings taken on a shared machine.

On a shared virtual machine the speed of a core drifts by half or more
between phases that last seconds.  The benchmark times a fixed reference
kernel, which does not use ccfour, before, during and after each operation
on the same pinned core, and reports each operation's time scaled to the
kernel's nominal duration: seconds at nominal speed.  Raw wall times stay in the
report line.  The kernel mixes the work a census does: small-array Python
loops and batched 8x8 solves.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import subprocess
import time

import numpy as np

# Median duration of reference_kernel() on the machine the benchmark was
# defined on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, slow phase).
NOMINAL_S = 0.020

_MATRICES = (np.eye(8) * 4.0
             + np.random.default_rng(7).uniform(-1.0, 1.0, (256, 8, 8)))
_RHS = np.ones((256, 8, 1))
_GRID = np.linspace(0.5, 2.0, 4096 * 6).reshape(4096, 6)


def reference_kernel() -> float:
    acc = 0.0
    for i in range(1, 1501):
        p = np.array([[-1.0, 0.0], [i * 1e-3, 0.0], [0.5, 1.0], [-0.5, -1.0]])
        acc += (math.sqrt(float(np.sum((p[0] - p[2]) ** 2)))
                + math.atan2(p[2][1], p[2][0]))
    for _ in range(10):
        acc += float(np.sum(_GRID ** -1.5))
    for _ in range(3):
        acc += float(np.linalg.solve(_MATRICES, _RHS).sum())
    return acc


def probe() -> float:
    """Seconds one reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def pin_to_one_core() -> int:
    """Pin this process, and the children it starts, to one allowed core,
    so that operations and probes run on the same core."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class Speedometer:
    """Probes the core's speed before, during and after each operation.

    During an operation in this process a SIGALRM handler probes every
    INTERVAL_S; while a child process runs, wait() probes instead, with the
    child at the lowest priority so that a probe is not shared with it.
    Probe time is taken out of the operation's time before scaling.
    """

    INTERVAL_S = 0.5

    def __init__(self):
        self.probes = [probe()]
        self._during: list[float] = []

    def mark(self) -> None:
        """Probe again after work that is not an operation."""
        self.probes.append(probe())

    @contextlib.contextmanager
    def sampling(self):
        """Probe by timer signal while an operation runs in this process."""
        def handler(signum, frame):
            self._during.append(probe())

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def popen(self, cmd, **kwargs) -> subprocess.Popen:
        """Start a child at the lowest priority, for wait()."""
        return subprocess.Popen(cmd, preexec_fn=lambda: os.nice(19),
                                **kwargs)

    def wait(self, proc: subprocess.Popen, timeout: float):
        """communicate() with `proc`, probing while it runs."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                return proc.communicate(timeout=self.INTERVAL_S)
            except subprocess.TimeoutExpired:
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.communicate()
                    raise
                self._during.append(probe())

    def scale(self, seconds: float) -> float:
        """Nominal-speed seconds for an operation that just took `seconds`
        of wall time, probes during it included."""
        before = self.probes[-1]
        self.probes.append(probe())
        samples = [before, *self._during, self.probes[-1]]
        busy = seconds - sum(self._during)
        self._during.clear()
        return busy * NOMINAL_S / (sum(samples) / len(samples))
