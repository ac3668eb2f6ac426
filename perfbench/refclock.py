"""Run time in seconds of a host at a fixed reference speed.

The host this benchmark was built on runs the same code up to about
twice as slow for seconds or minutes at a time, CPU time included, and
no fast phase need occur within a run. So a raw time, or a low quantile
of raw times, moves with the host from one run to the next.

A RefClock cuts the timed block into slices of SLICE_S wall seconds with
an interval timer (a signal, no thread). At each cut it runs a fixed
reference kernel and scales the slice by REF_NOMINAL_S over the
kernel's mean time at the slice's two ends: a slice that ran while the
host was 1.6x slow is counted at 1/1.6 of its length. The result reads
in seconds of a host that runs the kernel in REF_NOMINAL_S, which is
about this host's fast phase. Kernel time itself is left out.

The kernel mixes what the workloads do: interpreted scalar math, small
numpy calls, a small FFT and a 4 MB streaming read.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

#: Wall seconds between cuts.
SLICE_S = 0.02
#: Kernel time on this host in its fast phase (2 vCPU Xeon at 2.1 GHz,
#: Python 3.11, numpy 2.4); scaled times read in seconds of that host.
REF_NOMINAL_S = 7.0e-4

_SMALL = np.linspace(0.0, 6.0, 4)
_FRAME = np.arange(4096, dtype=float)
_STREAM = np.ones(1 << 19)


def reference_kernel() -> float:
    """Wall seconds the fixed reference work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        acc += math.cos(i * 0.01)
        np.mod(_SMALL + 0.001 * np.cos(_SMALL), 6.28)
    acc += float(np.abs(np.fft.rfft(_FRAME)).sum())
    acc += float(_STREAM.sum())
    return time.perf_counter() - t0


class RefClock:
    """Context manager: `scaled`, `host` and `raw` seconds of the block it wraps.

    raw is the block's wall time including the kernels run at the cuts;
    host leaves the kernels out; scaled leaves them out and rescales
    every slice.
    """

    def __init__(self):
        self.scaled = 0.0
        self.host = 0.0
        self.raw = 0.0

    def _cut(self, *_signal) -> None:
        t_in = time.perf_counter()
        ref = reference_kernel()
        self.host += t_in - self._t_last
        self.scaled += (t_in - self._t_last) * REF_NOMINAL_S / (0.5 * (self._ref + ref))
        self._ref = ref
        self._t_last = time.perf_counter()

    def __enter__(self):
        self._ref = reference_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._cut)
        self._t0 = self._t_last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cut()
        self.raw = time.perf_counter() - self._t0


def _warm_kernel() -> float:
    # the first run after a wait finds cold caches; keep the fastest of three
    return min(reference_kernel() for _ in range(3))


def scaled_call(fn) -> float:
    """Seconds fn() takes, scaled by the warm kernel time on each side."""
    before = _warm_kernel()
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    return elapsed * REF_NOMINAL_S / (0.5 * (before + _warm_kernel()))
