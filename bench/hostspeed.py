"""The speed of the host, measured with a fixed reference pass.

On the machine of README.md the speed of the same single-threaded code
drifts by up to 2x over seconds to minutes, and it moves all kinds of work
much alike, memory-bound work most closely.  A time measured next to reference passes is scaled to a host on
which one pass takes ``REFERENCE_S``: multiplied by ``REFERENCE_S`` over the
passes' mean or median.
"""

from __future__ import annotations

import io
import signal
import time

import numpy as np

# REFERENCE_S is the median of 1,572 passes in 15 runs on the machine of
# README.md; a scaled time is a time on that machine at that speed.
REFERENCE_S = 0.027
METER_PERIOD_S = 0.5
# arrays held for the life of the process (10 MB), so that a pass allocates
# little and barely moves a peak RSS it happens to coincide with
_SIGNAL = np.exp(2j * np.pi * np.random.default_rng(0).random(131072))
_SPECTRUM = np.empty_like(_SIGNAL)
_BACK = np.empty_like(_SIGNAL)
_STREAM = np.random.default_rng(2).standard_normal(524288)
_TABLE = np.random.default_rng(1).standard_normal((1500, 3))


def reference() -> float:
    """Seconds one reference pass takes now.  It is package-free work of the
    kinds the workloads do: a large FFT and inverse FFT, many small FFTs,
    CSV formatting, and passes over an array larger than the CPU's L2
    cache."""
    start = time.perf_counter()
    np.fft.fft(_SIGNAL, out=_SPECTRUM)
    np.fft.ifft(_SPECTRUM, out=_BACK)
    for k in range(300):
        np.fft.fft(_SIGNAL[k:k + 512])
    np.savetxt(io.StringIO(), _TABLE, fmt="%.17g", delimiter=",")
    for _ in range(9):
        np.negative(_STREAM, out=_STREAM)
    return time.perf_counter() - start


def passes(n: int) -> list:
    """``n`` reference passes after a warm-up one (FFT plans, first-touch
    pages)."""
    reference()
    return [reference() for _ in range(n)]


class Meter:
    """While open, times a reference pass every METER_PERIOD_S of wall time
    from a SIGALRM handler, which Python runs in the main thread between
    bytecodes, so the passes sample the host's speed during the work.
    ``spent`` is the time the handler took in all, to be taken out of the
    times measured around it.  Work shorter than one period gets one pass,
    timed after it."""

    def __init__(self):
        self.passes, self.spent = [], 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.passes.append(reference())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, METER_PERIOD_S, METER_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.passes:
            self.passes.append(reference())
