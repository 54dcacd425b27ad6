"""Reference-speed time: work timed against a fixed yardstick run beside it.

The speed of a small shared machine drifts by up to 1.6x over tens of
seconds, which no run length averages away.  So the benchmark runs a fixed
yardstick before and after each piece of work and scales the work's wall
time by the yardstick's reference time over its mean time beside it.  The
result reads as seconds on a machine on which the yardstick takes its
reference time.  No yardstick contains code of the program, so a change to
the program cannot move it.  Raw wall times are reported beside.

Two yardsticks: COMPUTE (numpy Poisson draws and cumulative sums, then a
Python loop over a dict, a mix like a Monte Carlo trial) for work in the
process, and SPAWN (a fresh interpreter importing numpy) for set-up, which
is mostly process start and imports and follows the compute one poorly.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# Work between two yardstick runs is at least this long, except where a
# caller forces a run to close a measurement.
MIN_GAP_S = 0.25


def _compute() -> None:
    rng = np.random.Generator(np.random.Philox(12345))
    total = 0
    for _ in range(4):
        total += int(np.cumsum(rng.poisson(0.05, size=(2000, 100)), axis=0)[-1].sum())
    table = {}
    for i in range(200_000):
        total += i & 7
        table[i & 1023] = total


def _spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)


# (yardstick, its median time on the two-core machine the benchmark was tuned on)
COMPUTE = (_compute, 0.042)
SPAWN = (_spawn, 0.14)


class SteadyClock:
    """Yardstick runs as (start, end) pairs, and reference-speed time between them."""

    def __init__(self, yardstick=COMPUTE) -> None:
        self.yardstick, self.reference_s = yardstick
        self.runs: list[tuple[float, float]] = []

    def tick(self, force: bool = False) -> None:
        """Run the yardstick, unless it ran less than MIN_GAP_S ago."""
        if not force and self.runs and perf_counter() - self.runs[-1][1] < MIN_GAP_S:
            return
        start = perf_counter()
        self.yardstick()
        self.runs.append((start, perf_counter()))

    def yardstick_s(self) -> list[float]:
        return [end - start for start, end in self.runs]

    def steady_seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds of the work in [a, b]; yardstick runs count 0.

        Work between yardstick runs i and i+1 is scaled by the reference time
        over their mean time; work before the first or after the last run by that
        run's time alone.
        """
        runs = self.runs
        if not runs:
            raise ValueError("no yardstick run yet")
        durations = self.yardstick_s()
        total = 0.0
        # segment k spans from the end of run k-1 to the start of run k
        for k in range(len(runs) + 1):
            lo = runs[k - 1][1] if k > 0 else -np.inf
            hi = runs[k][0] if k < len(runs) else np.inf
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                near = [durations[j] for j in (k - 1, k) if 0 <= j < len(runs)]
                total += overlap * self.reference_s / (sum(near) / len(near))
        return total
