"""Host-speed normalisation of the benchmark's timings.

The 2-core host the reference figures come from shares its cores and its
last-level cache with other machines.  The same Monte Carlo call runs up to
1.7 times slower for tens of seconds at a time, and CPU time tracks wall
time, so raw times of whole runs spread by 12-21% from run to run.  A fixed
reference loop doing the same kind of work slows down by nearly the same
factor.

So every timed call is preceded by a reference reading, and the call is
reported as its wall time scaled by the reference's nominal time over its
recent wall time: the time the call would take on the reference host when
it is quiet.  Two references exist, one per kind of hot path:

* ``python`` -- list indexing and integer arithmetic in the interpreter, like
  the partition engine and the CLI;
* ``numpy`` -- ``np.partition`` and a reweight over 2**16 doubles, like the
  dense sort path, which slows down more than the interpreter when
  neighbours contend for the cache.

The raw times are kept next to the normalised ones in the result files.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_PY_DATA = list(range(50))
_NP_DATA = np.random.default_rng(0).random(1 << 16)


def _python_reference() -> None:
    data = _PY_DATA
    acc = 0
    for i in range(20_000):
        acc += data[i % 50] * 3 % 7


def _numpy_reference() -> None:
    for _ in range(4):
        np.partition(_NP_DATA, 1000)
        w = _NP_DATA * 0.5
        w /= w.sum()


# kind -> (reference, its wall time on an idle core of the reference host:
# 2.1 GHz Xeon, Python 3.11, numpy 2.4)
REFERENCES = {
    "python": (_python_reference, 1.25e-3),
    "numpy": (_numpy_reference, 1.20e-3),
}

# A call is scaled by the median of the last few reference readings, so that
# one reading caught by an interrupt does not skew it.
WINDOW = 5


class HostClock:
    """Reference readings of one run, shared by all its Timings."""

    def __init__(self, kind: str) -> None:
        self.reference, self.nominal = REFERENCES[kind]
        self.readings: list[float] = []

    def read(self) -> float:
        """Take a reading; return nominal time / median of the latest WINDOW
        readings: the factor that turns a wall time into a quiet-host time."""
        t0 = time.perf_counter()
        self.reference()
        self.readings.append(time.perf_counter() - t0)
        return self.nominal / statistics.median(self.readings[-WINDOW:])


class Timings:
    """Normalised and raw times of repeated calls."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.normalised: list[float] = []
        self.raw: list[float] = []

    def time(self, fn, *args, **kwargs):
        """Run fn after a reference reading; record its times; return its result."""
        scale = self.clock.read()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.raw.append(raw)
        self.normalised.append(raw * scale)
        return result

    def median(self) -> float:
        return statistics.median(self.normalised)

    def raw_median(self) -> float:
        return statistics.median(self.raw)
