"""Machine-speed calibration for the timed figures.

On a shared machine the same exact computation can take 0.7x to 1.5x its
usual wall time for seconds at a stretch, because other tenants load the
cores.  Process CPU time drifts the same way, so the slowdown is shared
hardware, not waiting for a CPU.  That drift is as large as the
regression bounds in BENCHMARK.json, so the benchmark measures it and
takes it out.

Two fixed kernels measure the speed, each for the kind of time it
scales.  Both use only the standard library, so no change to `bihom`
can change them.

- `kernel`: exact-rational and dict/tuple work, the two kinds of work
  `bihom` does in process.  It scales the query times of the library
  workloads, and it picks the CPU to pin.
- `spawn_kernel`: starting `python -c pass`.  It scales the times that
  are mostly process start: the CLI commands and set-up.

A time measured at kernel speed k becomes the time at reference speed,
the speed at which the kernel takes its reference time, by the factor
(reference / k) ** exponent.  The compute kernel's exponent is
K_EXPONENT < 1: under the same load it slows down more than `bihom`
does.  Fitting log query time against log kernel time, for the same
query across rounds and runs, gave slopes of 0.61 (complex_large),
0.73 (catalog_small) and 0.84 (cochain_eval); scaled by the full ratio,
`complex_large` spread more than its raw times.  Process start follows
the spawn kernel one to one.  The references and exponents are
constants: figures from two commits stay comparable, and on a machine
running at reference speed the scaled figures equal the raw ones.  The
raw figures are reported alongside.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

K_REF_S = 0.0045
K_EXPONENT = 0.7
SPAWN_REF_S = 0.065
INTERVAL_S = 0.25
WINDOW_S = 1.0
SPAWN_WINDOW_S = 2.5
MIN_WINDOW_SAMPLES = 3


def kernel() -> float:
    """Seconds for one pass of the fixed kernel, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        d: dict = {}
        for i in range(2000):
            key = (i % 13, (i * 7) % 17)
            d[key] = d.get(key, 0) + i
        sorted(d.items())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def spawn_kernel() -> float:
    """Seconds to start and end one `python -c pass` process.

    No timeout: `subprocess` waits for a child with a timeout by polling
    with sleeps of up to 50 ms, which would quantise the time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


class Calibrator:
    """Samples a kernel during the timed loop and scales query times by
    the samples taken within a window of each query.

    Use as a context manager around the timed loop.  With `timer=True`
    a SIGALRM handler samples every INTERVAL_S.  The handler runs
    between bytecodes of whatever is executing, so samples also land
    inside long queries; `spent_in` gives the kernel time to take back
    out of a query's wall time.  With `timer=False` the caller samples
    between queries instead: a query that runs in a child process on the
    same CPU would otherwise share it with the kernel.
    """

    def __init__(self, kernel=kernel, k_ref: float = K_REF_S, exponent: float = K_EXPONENT,
                 window: float = WINDOW_S, timer: bool = True):
        self.kernel = kernel
        self.k_ref = k_ref
        self.exponent = exponent
        self.window = window
        self.timer = timer
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.costs: list[float] = []

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        k = self.kernel()
        self.times.append(t0)
        self.kernels.append(k)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        if self.timer:
            self._old = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)

    def spent_in(self, start: float, end: float) -> float:
        """Seconds the sampler itself took inside [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.costs[lo:hi])

    def scale_at(self, start: float, end: float) -> float:
        """Factor from seconds measured in [start, end] to seconds at
        reference speed, from the kernel samples within `window` seconds
        of that interval, or from all samples when too few fall there."""
        lo = bisect.bisect_left(self.times, start - self.window)
        hi = bisect.bisect_right(self.times, end + self.window)
        near = self.kernels[lo:hi]
        if len(near) < MIN_WINDOW_SAMPLES:
            near = self.kernels
        return (self.k_ref / statistics.median(near)) ** self.exponent

    def summary(self) -> dict:
        return {
            "kernel": self.kernel.__name__,
            "k_ref_s": self.k_ref,
            "exponent": self.exponent,
            "window_s": self.window,
            "samples": len(self.kernels),
            "kernel_median_s": statistics.median(self.kernels),
            "kernel_min_s": min(self.kernels),
            "kernel_max_s": max(self.kernels),
        }


def pin_to_fastest_cpu() -> int | None:
    """Pin this process (and the children it starts) to the CPU on which
    the kernel runs fastest now; return that CPU, or None if the platform
    has no affinity call.

    The two logical CPUs of a shared machine can differ in speed by half
    when another tenant loads one of them, and a process that migrates
    between them changes speed mid-run.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    speed = {}
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = statistics.median(kernel() for _ in range(7))
        best = min(cpus, key=speed.__getitem__)
        os.sched_setaffinity(0, {best})
    except OSError:
        os.sched_setaffinity(0, cpus)
        return None
    return best
