"""Machine-speed calibration: a fixed kernel sampled during each measurement.

On a 2-vCPU Intel Xeon virtual machine shared with other tenants, the CPU
speed swings by up to 1.8x between runs and by tens of percent within
seconds, which no amount of repetition inside a 180 s run averages out. So
every timed region runs under a `SpeedSampler`: an interval timer interrupts
the program every SAMPLE_EVERY_S seconds and times a small fixed kernel. The
kernel's time is excluded from the region's time, and the region is
reported in reference seconds:

    scaled = raw seconds * mean(REFERENCE_S / kernel time)

The kernel is a 16 MB streaming pass plus a small dense matmul. Of the
candidates tried against stand-ins for the program's hot spots (a dense eigh
at n = 1023, DCT loops, cosine tables, interpreter loops), the streaming pass
tracked all of them best and the matmul added to it helped the eigh, so the
neighbours mostly contend for memory bandwidth and the floating-point units.
The kernel never calls fchpulse, so a change to the program moves the scaled
time as it moves the raw one; the raw seconds are kept in the results file.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Typical kernel time inside a workload on that 2-vCPU Xeon machine
# (harmonic mean over 30 runs), so scaled seconds read close to raw seconds
# there.
REFERENCE_S = 0.0028
SAMPLE_EVERY_S = 0.2

_RNG = np.random.default_rng(12345)
_MAT = _RNG.standard_normal((192, 192))
# Preallocated, so the kernel's time does not depend on the allocator state
# the measured code left behind.
_STREAM = np.ones(2_000_000)  # 16 MB, well beyond the shared cache slice
# Resident from import to exit; taken off the measured peak memory.
FOOTPRINT_MIB = (_STREAM.nbytes + _MAT.nbytes) / 2**20


def _kernel():
    np.multiply(_STREAM, 1.0, out=_STREAM)  # memory bandwidth
    return float((_MAT @ _MAT)[0, 0])  # floating-point units, in cache


def speed(kernel_s):
    """Mean machine speed relative to the reference, from kernel times.

    Samples are evenly spaced in time, so the mean of their speeds is the
    time-averaged speed; a preempted kernel run weighs little in it.
    """
    return float(np.mean([REFERENCE_S / k for k in kernel_s]))


class SpeedSampler:
    """Context manager timing a region in raw and in reference seconds.

    Single use, in the main thread; it owns SIGALRM while active.
    """

    def __init__(self):
        self.kernel_s = []
        self._paused = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.kernel_s.append(time.perf_counter() - start)
        self._paused += time.perf_counter() - start

    def __enter__(self):
        _kernel()  # the first call pays for lazy set-up, outside the region
        self._sample(None, None)  # at least one sample, even for short regions
        self._paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = end - self._start - self._paused
        self.scaled_s = self.raw_s * speed(self.kernel_s)
        return False
