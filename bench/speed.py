"""Machine-speed probe: expresses measured times at a fixed reference speed.

On a small shared virtual machine the same work runs up to 1.35x slower
or faster from one second to the next, and the drift lasts long enough
that the median of a whole run moves by about a tenth.  A short probe
kernel, built only from numpy and the interpreter and never from the
program under test, is timed just before and just after every timed
command and, from a ``SIGALRM`` handler, every ``PERIOD_S`` seconds while
the command runs.  A command's time net of the probes it contains,
multiplied by the mean of ``REFERENCE_PROBE_S / probe time`` over those
probes, is its time at the reference speed.

The probe mixes the two kinds of work the program spends its time on:
small ``numpy.linalg.eigh`` calls with complex exponentials, and
interpreter loops over numpy scalars and fancy indexing.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Median probe time measured on the machine that produced the reference
# figures in bench/README.md (2 vCPU Xeon VM, Python 3.11, numpy 2.4).
# Normalized times are seconds at that machine's median speed.
REFERENCE_PROBE_S = 1.45e-3

# Probe period while a command runs, kernel repetitions per probe, and
# probes taken just before and just after each timed block.
PERIOD_S = 0.1
REPS = 2
BRACKET = 3

_A = np.array([[2.0, 0.3, 0.1, 0.0],
               [0.3, 1.0, 0.2, 0.05],
               [0.1, 0.2, -0.5, 0.4],
               [0.0, 0.05, 0.4, -1.5]])
_IDX = np.arange(4)


def _kernel() -> float:
    s = 0.0
    a = _A.copy()
    for _ in range(6):
        w, v = np.linalg.eigh(_A)
        u = v @ (np.exp(-1j * w * 0.01) * (v.conj().T @ _A[0]))
        b = v[:, 1:3] @ v[1:3, :]
        s += float(abs(u[0])) + float(w[0]) + float(b[0, 0])
        for p in range(3):
            for q in range(p + 1, 4):
                apq = a[p, q]
                t = math.copysign(1.0, apq) / (abs(apq) + math.hypot(apq, 1.0))
                idx = _IDX[(_IDX != p) & (_IDX != q)]
                a[idx, p] = a[idx, p] * 0.999
                s += t
        for j in range(60):
            s = s * 0.5 + j
    return s


def probe() -> tuple[float, float]:
    """Run the probe once; return ``(start, duration)`` in perf_counter s."""
    t0 = time.perf_counter()
    for _ in range(REPS):
        _kernel()
    return t0, time.perf_counter() - t0


class Sampler:
    """Collects probe samples, periodically from SIGALRM while active.

    ``samples`` holds ``(start, duration)`` pairs.  A probe requested while
    another is running is skipped, so a sample never contains another.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def bracket(self) -> None:
        """Take ``BRACKET`` samples back to back, next to a timed block."""
        for _ in range(BRACKET):
            self.sample()

    def normalize(self, t0: float, t1: float) -> tuple[float, float]:
        """Time of the block [t0, t1] net of probes, and at reference speed.

        The samples inside the block and the ``BRACKET`` samples taken just
        before and just after it set the speed factor.
        """
        inside = [d for s, d in self.samples if t0 <= s < t1]
        net = (t1 - t0) - sum(inside)
        around = [d for s, d in self.samples if s < t0][-BRACKET:]
        around += [d for s, d in self.samples if s >= t1][:BRACKET]
        factors = [REFERENCE_PROBE_S / d for d in around + inside]
        return net, net * (sum(factors) / len(factors))
