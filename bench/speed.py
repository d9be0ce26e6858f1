"""Speed-normalised timing on hosts whose effective CPU speed swings.

On a shared host the same op can take twice as long from one second to the
next, and the slow and fast phases last long enough to move whole runs.
SpeedProbe times a fixed numpy reference kernel on a SIGALRM timer while the
ops run, in the same thread, so every op interval is bracketed by samples of
the machine's current speed. An op's normalised time is its measured time
times K_REF / k, with k the median kernel time around it: the time the op
would take on a machine where the kernel takes K_REF seconds. Work done by
the library scales the normalised time; a change in host speed moves it much
less than it moves the raw time.
"""

import signal
import time

import numpy as np

K_REF = 3e-4  # kernel seconds on the reference machine
INTERVAL = 0.05  # seconds between speed samples
WINDOW = 0.5  # speed samples this close to an interval normalise it
_X = np.linspace(0.1, 3.0, 512)


def kernel():
    for i in range(40):
        np.exp(-_X * (1.0 + i * 1e-3)).sum()


def kernel_seconds(repeats=5):
    """Median kernel time over a few back-to-back runs."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return float(np.median(out))


class SpeedProbe:
    """Samples the kernel every INTERVAL seconds while active.

    The samples run inside the timed code, so `adjust` subtracts their own
    duration from an interval before normalising it.
    """

    def __init__(self):
        self.starts = []
        self.kernels = []

    def sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.kernels.append(time.perf_counter() - t0)

    def __enter__(self):
        # samples taken by hand on entry and exit give every interval
        # neighbours on both sides, however short the timed code is
        self.sample()
        self.sample()
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.sample()
        self.sample()

    def adjust(self, t0, t1):
        """(net seconds, normalised seconds) for the interval [t0, t1]."""
        starts = np.asarray(self.starts)
        kernels = np.asarray(self.kernels)
        i, j = np.searchsorted(starts, [t0, t1])
        net = (t1 - t0) - float(kernels[i:j].sum())
        lo, hi = np.searchsorted(starts, [t0 - WINDOW, t1 + WINDOW])
        near = kernels[lo:hi]
        return net, net * K_REF / float(np.median(near))
