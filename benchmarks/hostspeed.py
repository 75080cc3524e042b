"""Host-speed reference: scale measured times to a fixed host speed.

On a shared host the same pure-Python loop can run at speeds that differ by
1.3-1.8x, switching within a second and drifting over minutes.  Timing a
fixed reference kernel all through a run and dividing each op's time by
the kernel's speed around the op removes that drift from the comparison of
two commits.  No kernel uses qdet, so no change to the package moves them.

* `fraction_kernel` does exact rational arithmetic, as the package does,
  and is sampled every 0.1 s from a SIGALRM handler, also in the middle of
  a long op.  On the 2-core host of the baseline, its ratio to exact and
  float qdet operations varied by about 1% across 5-10 s windows while each
  of them varied by 4-6%.  It scales in-process ops.
* `startup_kernel` is a fresh interpreter importing numpy and the stdlib
  modules the CLI uses, run between ops at most once a second.  It scales
  CLI invocations and set-up probes, which the fraction kernel does not
  track.  Its single samples are bimodal, so their mean is used.

A scaled time reads as "seconds on this host when the kernel takes its
nominal time"; the nominal values are typical of the baseline host, so
scaled and raw times are of the same size there.
"""

import contextlib
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

_PAIRS = [(Fraction(i % 13 - 6, 1 + i % 5), Fraction(i % 7 + 1, 3 + i % 4)) for i in range(64)]


def fraction_kernel():
    for _ in range(8):
        for a, b in _PAIRS:
            a * b + a


STARTUP_NOMINAL_S = 0.24


def startup_kernel(env, cwd):
    subprocess.run([sys.executable, "-c", "import argparse, fractions, re, numpy"],
                   env=env, cwd=cwd, check=True, timeout=170)


class HostSpeed:
    """Samples a reference kernel every `interval` s of wall time.

    With `use_signal`, `sampling()` runs the kernel from a SIGALRM handler,
    so samples are also taken in the middle of a long op; `stolen` adds up
    the time the handler took, for the caller to subtract from the op it
    interrupted.  Otherwise the caller runs `maybe_sample()` between ops.
    """

    def __init__(self, kernel, nominal, interval, window, average, use_signal):
        self.kernel = kernel
        self.nominal = nominal
        self.interval = interval
        self.window = window
        self.average = average
        self.use_signal = use_signal
        self.samples = []  # (midpoint, seconds)
        self.stolen = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # a signal arrived during the kernel itself
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self._busy = False
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.stolen += t1 - t0

    def maybe_sample(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        if not self.use_signal:
            yield self
            return
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start, end):
        """nominal / the kernel's average time from `window` s before
        `start` to `window` s after `end`."""
        local = [s for t, s in self.samples if start - self.window <= t <= end + self.window]
        if not local:
            local = [min(self.samples, key=lambda ts: abs(ts[0] - (start + end) / 2))[1]]
        return self.nominal / self.average(local)

    def median_seconds(self):
        return statistics.median(s for _, s in self.samples)


def for_inprocess():
    return HostSpeed(fraction_kernel, nominal=2.5e-3, interval=0.1, window=0.2,
                     average=statistics.median, use_signal=True)


def for_subprocess(env, cwd):
    return HostSpeed(lambda: startup_kernel(env, cwd), nominal=STARTUP_NOMINAL_S, interval=1.0, window=3.0,
                     average=statistics.fmean, use_signal=False)
