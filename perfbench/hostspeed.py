"""Host-speed reference: a fixed piece of work timed all through a run.

On a shared virtual machine the same code can run 1.3 to 1.8 times slower
or faster for stretches of a second to minutes, depending on what other
guests do.  Wall times alone then differ between two runs of one commit
by more than any useful regression bound.  So while the passes run, a
SIGALRM timer interrupts the process every INTERVAL_S and times
``reference_work`` (about 0.3 ms).  The harness takes that time out of
every op and span it interrupted (``Sampler.clock``), and reports each op
at reference host speed:

    scaled time = work time * REFERENCE_S / median(reference times taken during the op)

An op interrupted fewer than MIN_SAMPLES times also uses the samples taken
just before and after it.  A set-up-only run samples every
SETUP_INTERVAL_S from its first line and scales its set-up time by the
median of those samples.

The reference work does not call qudenc, so a change to the library moves
the scaled times exactly as it moves the wall times; only the host's
speed cancels.  It is interpreted Python (dict and tuple updates, as in
the optimizer and the encoder).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

# About the median reference time of a timer tick on a 2-vCPU x86-64 VM
# (Python 3.11); it only sets the scale of the reported times.
REFERENCE_S = 0.00033
INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01  # set-up lasts 0.1 to 1 s
MIN_SAMPLES = 7  # samples behind one op's factor


def reference_work() -> int:
    table: dict = {}
    acc = 0
    for i in range(1000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
        acc += i * i % 7
    return acc


def probe() -> float:
    """Wall time of one reference_work call, in seconds."""
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def factor(samples) -> float:
    """Multiplier that turns work seconds measured alongside ``samples``
    into seconds at reference host speed."""
    return REFERENCE_S / statistics.median(samples)


def op_factor(samples: list[float], begin: int, end: int) -> float:
    """factor() for an op during which samples[begin:end] were taken.  An
    op with fewer than MIN_SAMPLES of its own borrows the nearest ones
    taken before and after it."""
    missing = max(0, MIN_SAMPLES - (end - begin))
    lo = max(0, begin - (missing + 1) // 2)
    hi = min(len(samples), end + missing // 2)
    return factor(samples[lo:hi] or samples)


class Sampler:
    """Times reference_work from a SIGALRM handler every ``interval`` s."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler so far

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_work()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.spent += d

    def clock(self) -> float:
        """perf_counter minus the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no tick between the two reads
                return now - spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def running(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()
