"""Host speed, sampled with a fixed reference kernel beside the program.

On a shared host the same code runs up to 1.6x slower for tens of seconds
at a time, whatever it is: the neighbours' load changes, not ours.  So the
benchmark times a fixed kernel, which no change to embinvert can touch,
before, during and after each command, and scales the command's wall time
by ``REF_S / median(kernel times)``.  A change to the program moves the
scaled time as much as the wall time; a slow phase of the host moves the
command and the kernel, and mostly cancels.

The kernel mixes the kinds of work the package does: small numpy calls on
a fresh generator per vector (pool sampling), a matmul with a row
normalisation over a working set of a few MB (embedding, ranking), and
plain Python (bookkeeping).
"""
import statistics
import time

import numpy as np

# Median kernel time on the host in its usual state (2-vCPU shared VM,
# Python 3.11, numpy 2.4, OpenBLAS 1 thread): the scaled times read as
# seconds on that host in its usual state.
REF_S = 0.004
BOUNDARY_REPEATS = 3     # kernel runs before and after each timed call
EVERY_S = 0.2            # at most one kernel run per this many seconds inside

_rng = np.random.default_rng(20250425)
_W = _rng.standard_normal((768, 128)) / 28.0
_X = _rng.standard_normal((512, 768))
_V = _rng.standard_normal(64)


def kernel():
    s = 0.0
    for i in range(40):
        s += float(np.random.default_rng(i).standard_normal(64) @ _V)
    y = np.tanh(_X @ _W)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    counts = {}
    for i in range(1000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return s + float(y[0, 0]) + len(counts)


class HostSpeed:
    """Times ``kernel`` around and inside timed calls.

    With ``enabled`` false it only times, and every factor is 1.
    """

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.samples = []        # kernel seconds, in the order run
        self.spent = 0.0         # seconds spent in the kernel so far
        self._last = -float("inf")

    def sample(self, repeats):
        """Times ``repeats`` kernel runs after an untimed one.

        The untimed run brings the kernel's data back into the caches, so
        that how much of them the program used does not change the time.
        """
        clock = time.perf_counter
        start = clock()
        kernel()
        for _ in range(repeats):
            mark = clock()
            kernel()
            end = clock()
            self.samples.append(end - mark)
        self.spent += end - start
        self._last = end

    def maybe_sample(self):
        """One kernel sample, if the last is ``EVERY_S`` old; for hooks."""
        if self.enabled and time.perf_counter() - self._last >= EVERY_S:
            self.sample(1)

    def factor(self, first):
        return REF_S / statistics.median(self.samples[first:])

    def timed(self, fn):
        """``fn()``; returns (its result, wall seconds less the kernel's,
        the scale factor from the kernel runs around and inside it)."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn()
            return result, time.perf_counter() - start, 1.0
        self.sample(BOUNDARY_REPEATS)
        first = len(self.samples) - BOUNDARY_REPEATS
        spent = self.spent
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start - (self.spent - spent)
        self.sample(BOUNDARY_REPEATS)
        return result, wall, self.factor(first)

    def hook(self, owner, attr):
        """Run the kernel (at most every ``EVERY_S``) before each call of
        ``owner.attr``; returns the function that undoes it."""
        original = getattr(owner, attr)

        def sampled(*args, **kwargs):
            self.maybe_sample()
            return original(*args, **kwargs)

        setattr(owner, attr, sampled)
        return lambda: setattr(owner, attr, original)
