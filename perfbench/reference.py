"""Reference work sampled during each timed command: a yardstick for host speed.

On a small shared machine, single-thread speed drifts by up to 1.5x, on
time scales from tens of milliseconds to minutes, with other tenants'
load; CPU time drifts with wall time, so neither clock gives steady
figures. The benchmark therefore reports times in units of a fixed
reference chunk ("ref"): while a command runs, an interval timer
interrupts it every ``PERIOD_S`` and times one chunk, and the command's
own time (its wall time less the chunks) is divided by the mean chunk
time seen during that command. A command that reads 20000 ref reads that
whatever the host speed at the moment.

The chunk belongs to the benchmark, not to ldba_synth, so changes to the
program never change the yardstick. Its mix of tuple-keyed dict lookups,
small-list updates, random draws and float arithmetic is the kind of
interpreter work the program does.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

PERIOD_S = 0.05
CHUNK_ITERATIONS = 2000
MIN_SAMPLES = 5

_rng = random.Random(20221001)
_table: dict[tuple, list[float]] = {}


def reference_chunk() -> float:
    acc = 0.0
    for i in range(CHUNK_ITERATIONS):
        key = ((i % 89, i % 11), i % 7)
        row = _table.get(key)
        if row is None:
            row = _table[key] = [0.0, 0.0, 0.0, 0.0]
        j = _rng.randrange(4)
        row[j] = 0.9 * row[j] + _rng.random()
        acc += max(row)
    return acc


class Yardstick:
    """Samples the reference chunk on a timer while a command runs.

    Usage: ``with Yardstick() as y: work()`` then ``y.refs(seconds)``
    converts the command's wall seconds into reference chunks.
    """

    def __init__(self):
        self.samples = 0
        self.sampled_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_chunk()
        self.sampled_s += perf_counter() - start
        self.samples += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def refs(self, wall_s: float) -> float:
        """The command's own time, in mean reference-chunk durations."""
        own_s = wall_s - self.sampled_s
        while self.samples < MIN_SAMPLES:  # commands shorter than a few periods
            self._sample(None, None)
        return own_s / (self.sampled_s / self.samples)
