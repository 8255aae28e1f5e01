"""Machine-speed probe for timed passes.

On a shared machine the speed can drift by 10-20% over seconds (seen on
a 2-core host running Python 3.11). A timer signal runs a fixed
reference loop every ``INTERVAL`` seconds in the worker's own thread;
each sample records how long the loop took. A measured interval is then
reported in *reference seconds*: its time net of the probe's own
samples, scaled by ``REF_NOMINAL_S`` over the median sample time around
it. On a machine whose reference loop takes ``REF_NOMINAL_S``, reference
seconds are wall seconds; when the machine runs slow, both the program
and the loop slow down and the ratio stays.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
import statistics
from time import perf_counter

INTERVAL = 0.05       # seconds between samples
REF_NOMINAL_S = 0.0008
WINDOW = 1.0          # seconds of samples on each side of an interval


def reference_loop() -> int:
    """About 0.8 ms of standard-library work of the kind a query does:
    build and run an argument parser, JSON out and back in, small tuples
    and dict operations.  None of it is program code, so a faster or
    slower program leaves it unchanged; it tracks the machine's speed for
    the program far better than a loop of arithmetic alone."""
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("action", choices=("a", "b", "c"))
    parser.add_argument("--x", type=int, default=0)
    parser.add_argument("--y", help="unused")
    args = parser.parse_args(["b", "--x", "3"])
    obj = json.loads(json.dumps({"rows": [[i, i * 3 % 7] for i in range(40)],
                                 "action": args.action}, sort_keys=True))
    table = {}
    acc = len(obj["rows"])
    for i in range(400):
        table[(i, i * 7 % 13, i & 5)] = i
        acc = (acc + table.get((i - 1, (i - 1) * 7 % 13, (i - 1) & 5), 0)) % 1000003
    return acc


class SpeedProbe:
    """Collects (start, end) reference samples while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._old_handler = None

    def _tick(self, _signum, _frame) -> None:
        a = perf_counter()
        reference_loop()
        self.samples.append((a, perf_counter()))

    def start(self) -> None:
        self._tick(None, None)
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick(None, None)
        self._starts = [a for a, _b in self.samples]

    def net(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent inside the probe's samples."""
        total = t1 - t0
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        for a, b in self.samples[lo:hi]:
            total -= min(b, t1) - a
        return total

    def speed_ratio(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the median sample time near [t0, t1]."""
        lo = bisect.bisect_left(self._starts, t0 - WINDOW)
        hi = bisect.bisect_left(self._starts, t1 + WINDOW)
        window = self.samples[lo:hi] or self.samples
        return REF_NOMINAL_S / statistics.median(b - a for a, b in window)

    def median_sample_s(self) -> float:
        return statistics.median(b - a for a, b in self.samples)

    def reference_seconds(self, t0: float, t1: float) -> float:
        return self.net(t0, t1) * self.speed_ratio(t0, t1)
