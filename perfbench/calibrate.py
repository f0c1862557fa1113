"""Fixed reference computations that track the speed of the host.

On a shared host the speed of the same code drifts by a third or more over
tens of seconds, as other tenants come and go: one fixed dmax call took from
49 to 72 ms within two minutes. Each process of a run therefore times a
reference between its timed operations, and every time the run reports is
scaled by the reference's nominal time over the median of the reference
timings nearest to it. Calibrated times read as milliseconds on a host where
the reference takes its nominal time; the raw times stay in the run's
report. The spreads below are interquartile ranges, as a share of the
median, of a fixed operation's median time in 5-second blocks over 100 s.

Two references, each for the work it tracks:

- in-process operations: a computation of the engine's kind, a max/min
  length recurrence over a list and a recursive enumeration that builds
  tuples, written here so a change to the program does not change it.
  Against it, a fixed dense-like and a fixed sparse-like operation spread
  6% and 8% where they spread 36% and 28% raw;
- operations that start processes (cli-cold, and every set-up): a bare
  interpreter start, `python -c pass`. A fixed CLI call over it spread 4%
  where the raw call spread 23%.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

NEAREST = 5  # reference timings that calibrate one timed span


def _reference() -> int:
    # a length table over 20 000 values, as large as the engine's tables on
    # a mid-size sparse-large input, so that contention for caches and memory
    # slows it as it slows the engine
    steps = (3, 7)
    hi, lo = [0], [0]
    for v in range(1, 20_000):
        best = least = None
        for g in steps:
            w = v - g
            if w >= 0 and hi[w] is not None:
                if best is None or hi[w] + 1 > best:
                    best = hi[w] + 1
                if least is None or lo[w] + 1 < least:
                    least = lo[w] + 1
        hi.append(best)
        lo.append(least)
    gens = (7, 11, 13, 17)
    out = []
    coeffs = [0] * len(gens)

    def descend(i: int, rem: int) -> None:
        g = gens[i]
        if i == len(gens) - 1:
            if rem % g == 0:
                coeffs[i] = rem // g
                out.append(tuple(coeffs))
            return
        for c in range(rem // g, -1, -1):
            coeffs[i] = c
            descend(i + 1, rem - c * g)
        coeffs[i] = 0

    descend(0, 330)
    return len(out) + sum(x for x in hi if x)


def time_reference() -> float:
    """Seconds one in-process reference computation takes now."""
    t = time.perf_counter()
    _reference()
    return time.perf_counter() - t


def time_spawn() -> float:
    """Seconds one bare interpreter start takes now."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t


class Clock:
    """Reference timings of one process, taken between timed operations.

    `every` is the least time between two timings, chosen so that timing the
    reference takes about 3% of a run, or 12% for a spawn, which costs 60 ms
    but must follow the short slow spells that set a CLI run's p90."""

    def __init__(self, spawn: bool = False) -> None:
        self.measure, self.nominal_ms, self.every = (
            (time_spawn, 60.0, 0.5) if spawn else (time_reference, 10.0, 0.3)
        )
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), self.measure()))

    def tick(self) -> None:
        """Time the reference if `every` has passed since the last time."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.every:
            self.sample()

    def scale(self) -> float:
        """Factor from this process's seconds to calibrated ones, from the
        median of all its reference timings."""
        return self.nominal_ms / 1000 / statistics.median(s for _, s in self.samples)

    def scale_at(self, when: float) -> float:
        """Factor from seconds at `when` to calibrated seconds, from the
        median of the NEAREST reference timings."""
        while len(self.samples) < NEAREST:
            self.sample()
        i = bisect.bisect_left(self.samples, (when,))
        lo = max(0, min(i - NEAREST // 2, len(self.samples) - NEAREST))
        near = [s for _, s in self.samples[lo : lo + NEAREST]]
        return self.nominal_ms / 1000 / statistics.median(near)
