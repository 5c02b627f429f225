"""The pace probe: how fast the host runs Python at the moment.

The benchmark is calibrated on a virtual machine whose host changes
speed by up to 80% within seconds, with CPU time rising with wall time:
the process is not waiting but running slower.  Run-to-run spreads of
raw times reach 30-40% there, more than any useful bound.  So the
workload process measures the host's pace beside its own work: a wall
clock interval timer interrupts it every :data:`INTERVAL_S` and the
handler times :func:`probe`, a small fixed piece of pure-Python work
that no change to the program under test can touch, in thread CPU time.

A span's pace is the harmonic mean of the probe costs sampled during
it: the inverse of the host's mean speed over the span, because the
samples are spread evenly in time.  A time ``t`` at pace ``p``
corresponds to ``t * REFERENCE_S / p`` at the reference pace, the pace
at which the probe costs :data:`REFERENCE_S`.  A change that makes the
program do more or less work moves paced times as it moves raw ones; a
host that runs slower for a while moves raw times only.
"""

import signal
import statistics
import time

__all__ = ["INTERVAL_S", "REFERENCE_S", "MIN_SAMPLES", "probe", "Pace",
           "paced"]

#: Wall-clock seconds between two samples.  A probe costs about 0.1 ms,
#: so sampling takes about 1% of the process's time.
INTERVAL_S = 0.01

#: The probe's cost at the reference pace: about its cost on the
#: calibration machine in a fast stretch (see README.md).
REFERENCE_S = 100e-6

#: A span with fewer samples than this (an operation shorter than about
#: ``MIN_SAMPLES * INTERVAL_S``) takes the pace of the latest ones.
MIN_SAMPLES = 8


def probe():
    """Fixed pure-Python work of the program's kind: hashing into a
    dict, building, upper-casing and sorting short strings."""
    table = {}
    for i in range(300):
        key = (i * 2654435761) & 0x3FF
        table[key] = table.get(key, 0) + 1
    words = sorted(f"x{i}_{7 * i}".upper() for i in range(200))
    return len(table) + len(words)


class Pace:
    """Probe costs sampled on the main thread from :meth:`start` to
    :meth:`stop`, by a ``SIGALRM`` handler on an ``ITIMER_REAL`` timer.
    Forked children do not inherit the timer, so they are not
    sampled."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        started = time.thread_time()
        probe()
        self.samples.append(time.thread_time() - started)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A mark for :meth:`since`: the number of samples so far."""
        return len(self.samples)

    def since(self, mark):
        """The pace (seconds per probe) of the span that began at
        ``mark``, or of the latest :data:`MIN_SAMPLES` samples when the
        span has fewer."""
        window = self.samples[mark:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        return statistics.harmonic_mean(window)


def paced(seconds, pace):
    """``seconds`` spent at ``pace``, in seconds at the reference pace."""
    return seconds * REFERENCE_S / pace
