"""Host speed during a timed section, sampled with a fixed reference computation.

The benchmark runs on a few cores of a shared host whose speed changes by up
to half, within a tenth of a second and in phases of tens of seconds, with
CPU time equal to wall time: the program is not waiting, every instruction
is slower.  A run of a minute sees several such phases, so its wall times
move with the host as much as with the program.

:class:`HostSpeed` runs :func:`reference` (fixed interpreter and small-array
work, none of it the program's code) from a ``SIGALRM`` timer every
``INTERVAL_S`` seconds, and :meth:`HostSpeed.corrected` turns a wall interval
into seconds at the reference speed ``NOMINAL_S``: the interval less the time
the samples took, times ``NOMINAL_S`` over the mean duration of the samples
taken in it.  A change in the program moves a corrected time as it moves the
wall time; a change in host speed moves the program and the samples alike,
and cancels.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

#: Duration of one :func:`reference` call at the host's usual speed: the
#: median of 6032 samples taken during five minutes of FIX-1D and FIX-R
#: battery passes on the machine of ``record.json``.
NOMINAL_S = 0.00277

#: Seconds between the timer's samples; one costs about 5% of that.
INTERVAL_S = 0.05

#: An interval with fewer samples inside takes its speed from this many
#: samples closest to it.  Host speed changes within a tenth of a second (the
#: correlation of samples 50 ms apart is about one half), so samples from
#: further off say little about the interval.
NEAREST = 3


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def combine(self, other):
        return _Pair(self.a + other.b, 0.5 * self.b + other.a)


#: Index tables the size of a small jet's product table (gather, gather, scatter).
_II = np.array([0, 1, 2, 3, 4, 5, 1, 2, 3, 0])
_JJ = np.array([0, 0, 0, 0, 0, 0, 1, 1, 2, 3])
_OO = np.array([0, 1, 2, 3, 4, 5, 3, 4, 5, 5])


def reference() -> float:
    """A fixed amount of interpreter and small-array work; returns a checksum.

    Half is method calls, small objects and dict updates, half is tiny
    ``np.bincount`` products, the two kinds of work the program spends its
    time on.  The cyclic garbage collector is held off, so that a collection
    of the program's objects never lands inside a sample.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x, memo = _Pair(1.0, 2.0), {}
        for i in range(500):
            x = x.combine(_Pair(i * 0.001, 1.0))
            key = (i & 15, i & 3)
            memo[key] = memo.get(key, 0.0) + 1e-9 * x.a
        c = np.linspace(0.1, 1.0, 6)
        for _ in range(200):
            p = np.bincount(_OO, weights=c[_II] * c[_JJ], minlength=6)
            c = 0.5 * (c + p / p.sum())
        return x.a + sum(memo.values()) + float(c[0])
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Samples :func:`reference` from a timer between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []   # (perf_counter at start, seconds)
        self._previous = None
        for _ in range(5):   # first calls pay numpy's and the interpreter's warm-up
            reference()

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference()
        self.ticks.append((t, time.perf_counter() - t))

    def sample(self, count: int) -> None:
        """Take ``count`` samples now, as the timer would."""
        for _ in range(count):
            self._tick(None, None)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def corrected(self, start: float, end: float) -> float:
        """Seconds of program work in ``[start, end)`` at the reference speed.

        The speed is the mean of the samples taken inside the interval, or of
        the ``NEAREST`` samples closest to it when fewer fell inside.
        """
        inside = [d for t, d in self.ticks if start <= t < end]
        near = inside
        if len(inside) < NEAREST:
            def distance(tick):
                return start - tick[0] if tick[0] < start else tick[0] - end
            near = [d for _, d in sorted(self.ticks, key=distance)[:NEAREST]]
        if not near:
            raise ValueError("no host speed sample was taken")
        return (end - start - sum(inside)) * NOMINAL_S / (sum(near) / len(near))
