"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts by 20-50%
over seconds to minutes: the same pure-Python loop, timed again a minute
later, can take 1.5 times as long. No statistic over one run removes a
slow stretch that lasts the whole run. So while the benchmark times the
engine, a timer signal interrupts it every `INTERVAL` seconds and times a
fixed piece of reference work (`reference_work`: tuple hashing and dict
lookups, with no allocation, so the collector's schedule is not shifted).
The engine and the reference run on the same core in the same stretch of
time, so they slow down together.

An operation's normalised time is its wall time, minus the time the
reference samples took inside it, times `NOMINAL_S / d`, where `d` is the
median duration of the reference samples taken during the operation (or,
for an operation shorter than `MIN_SAMPLES` intervals, of the last
`MIN_SAMPLES` samples). It reads as the operation's seconds on a host that
runs the reference work in `NOMINAL_S`. On the benchmark's reference host
(a 2-vCPU Intel Xeon virtual machine at 2.1 GHz, Python 3.11) the
reference work takes about 100 us in the host's fast phases and about
170 us in its slow ones; the engine slows down in the same proportion
(within about 8% over a window of 3 s), so a pass normalised this way
varies far less than its wall time. A change to the engine changes the
wall time and not the reference work, so it shows in full in the
normalised figures.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

INTERVAL = 0.01          # seconds between two reference samples
MIN_SAMPLES = 25         # samples a factor is taken over, at the least
NOMINAL_S = 1.5e-4       # seconds of reference work at the reference speed
_ROUNDS = 40

_KEYS = tuple((i % 7, i % 11, "v") for i in range(48))
_TABLE = {key: n for n, key in enumerate(_KEYS)}


def reference_work() -> int:
    """The fixed work one sample times."""
    table = _TABLE
    total = 0
    for _ in range(_ROUNDS):
        for key in _KEYS:
            total += table[key]
    return total


class HostSpeed:
    """Samples the host's speed on the reference work while active.

    Use as a context manager around timed code: `mark()` before an
    operation; after it, `sampling_seconds(mark)` is the time to take off
    its wall time and `factor(mark)` the factor to multiply the rest by.
    """

    def __init__(self) -> None:
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        for _ in range(MIN_SAMPLES):      # a first window before any operation
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.durations)

    def sampling_seconds(self, mark: int) -> float:
        """Seconds the samples since `mark` took."""
        return sum(self.durations[mark:])

    def factor(self, mark: int) -> float:
        """NOMINAL_S over the median sample since `mark` (at least the last
        MIN_SAMPLES samples): below 1 when the host runs slow."""
        start = min(mark, len(self.durations) - MIN_SAMPLES)
        return NOMINAL_S / statistics.median(self.durations[start:])
