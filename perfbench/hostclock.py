"""Timings at reference host speed, from probes sampled while the work runs.

On a shared host the speed that this process gets swings by up to 2x within
seconds and drifts for minutes at a time, as other tenants load the same
physical cores.  CPU time swings with wall time, so neither is a steady
measure of what the program costs.  ``HostClock`` runs a short probe from a
SIGALRM handler every ``INTERVAL`` seconds, in the benchmark's own thread,
while the measured work runs.  The probes take turns among three fixed loops
(small numpy operations; small dense solves, NNLS, dicts and string
formatting; plain Python integer and dict work), because kinds of code differ
in how much a busy host slows them, and the mix tracks the program better
than any one of them.  Each probe's time over its loop's reference time is
the host's slowdown at that moment; a running median of ``WINDOW`` probes
smooths it.  Each stretch of work between two probes is divided by the
slowdown on either side of it, and the probes' own time is left out.  The
result is the time the work would take at reference speed.  The probes touch
no sweeplab code, so a change to the program leaves their cost alone.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import nnls

_clock = time.perf_counter

INTERVAL = 0.02   # seconds between probes; a probe takes about 1 ms
WINDOW = 3        # probes in the running median

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
_B = np.array([1.0, -2.0, 0.5])


def _numpy_loop() -> float:
    a = np.linspace(0.0, 1.0, 8)
    b = np.empty(8)
    s = 0.0
    for i in range(300):
        np.multiply(a, 0.5, out=b)
        b += 0.25
        a = np.minimum(b, 1.0)
        s += float(a[i & 7])
    return s


def _solver_loop() -> float:
    s = 0.0
    rows = []
    for i in range(40):
        x = np.linalg.solve(_A, _B + i)
        y, r = nnls(_A, _B + 0.1 * i)
        d = {"a": i, "b": float(x[0]), "c": float(y[1])}
        rows.append(f"{d['b']:.6g},{d['c']:.6g}")
        order = sorted(((j * 7 + i) % 13, j) for j in range(16))
        s += float(np.dot(_A[order[0][1] % 3], x)) + r + len(rows[-1])
    return s


def _python_loop() -> int:
    s = 0
    d = {}
    for i in range(4000):
        d[i & 63] = d.get(i & 63, 0) + i
        s += (i * i) % 7
    return s


# Each probe loop with its time at reference speed: the median on a 2-vCPU
# Xeon VM at 2.1 GHz, over several minutes of the benchmark's workloads.
PROBES = ((_numpy_loop, 1.29e-3), (_solver_loop, 1.60e-3), (_python_loop, 0.965e-3))


class HostClock:
    """Context manager that samples the probes for as long as it is entered."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self.slowdowns = array("d")
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:   # a signal that arrives during a probe is dropped
            return
        self._busy = True
        loop, ref = PROBES[len(self.starts) % len(PROBES)]
        t0 = _clock()
        loop()
        t1 = _clock()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.slowdowns.append((t1 - t0) / ref)
        self._busy = False

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, spans) -> list[tuple[float, float]]:
        """For each (start, end) clock reading: (work seconds, reference seconds).

        Work seconds are the span minus the probes inside it.  A handler runs
        between two bytecodes of the measured code, so every probe lies
        wholly inside or wholly outside a span.
        """
        t = np.frombuffer(self.starts, dtype=np.float64).copy()
        d = np.frombuffer(self.durations, dtype=np.float64).copy()
        slow = np.frombuffer(self.slowdowns, dtype=np.float64).copy()
        if len(d) == 0:
            raise RuntimeError("no host probe ran; the run was too short to scale")
        pad = WINDOW // 2
        slow = np.median(sliding_window_view(np.pad(slow, pad, mode="edge"), WINDOW), axis=1)
        out = []
        for a, b in spans:
            i0, i1 = np.searchsorted(t, a), np.searchsorted(t, b)
            lo = np.concatenate([[a], t[i0:i1] + d[i0:i1]])
            hi = np.concatenate([t[i0:i1], [b]])
            k = np.arange(i1 - i0 + 1)
            left = np.clip(i0 - 1 + k, 0, len(d) - 1)
            right = np.clip(i0 + k, 0, len(d) - 1)
            work = hi - lo
            out.append((float(work.sum()), float((work / (0.5 * (slow[left] + slow[right]))).sum())))
        return out
