"""The machine's pace, probed between the timed stages of a pass.

On a shared VM the same code runs up to twice as slow for seconds to minutes
at a time, and a run's median moves with those episodes.  The probe is a
fixed kernel of the benchmark's own (no admmkit code), timed between stages.
A stage's paced time is its wall time scaled by the kernel's nominal time
over the kernel time measured around the stage, i.e. its wall time on a
machine where the kernel takes its nominal time.  A change to admmkit moves
paced times exactly as it moves wall times; a change of machine speed
largely cancels out.

The kernel is a sum of parts of about a millisecond each, one per kind of
work the solvers do.  Slow episodes hit the kinds differently, so each
workload is paced by the parts that tracked it best in 5- to 7-minute runs:
desk-mix, whose solver loops make many numpy calls on short vectors, by that
part alone (the sum of all parts tracked it up to twice as badly in a slow
episode); the two large workloads by the sum of all parts.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from statistics import median

import numpy as np
import scipy.linalg

# nominal time of one part: what a part takes on the 2-vCPU VM the bounds were set on
NOMINAL_PART_S = 0.001
# a stage starts with a fresh probe once this long has passed since the last one
PROBE_GAP_S = 0.2
# a stage's pace is the median of the probes this close to it (and the two around it)
WINDOW_S = 0.5
# a probe times the kernel this many times back to back and keeps the fastest
REPEATS = 3


class Pace:
    """Probes the pace on demand and converts stage wall times to paced times."""

    PARTS = ("python", "short_vectors", "grid", "matmul", "matvec", "triangular")

    def __init__(self, parts=PARTS, clock=time.perf_counter):
        rng = np.random.default_rng(12345)
        self.clock = clock
        self.parts = [getattr(self, f"_{name}") for name in parts]
        self.nominal_s = NOMINAL_PART_S * len(parts)
        self._short = rng.standard_normal((2, 64))
        self._grid_data = rng.standard_normal((96, 96))
        self._square = rng.standard_normal((280, 280))
        # 8 MB, larger than L2; diagonally dominant so triangular solves stay bounded
        self._matrix = rng.standard_normal((1024, 1024)) / 32 + 4 * np.eye(1024)
        self._vector = rng.standard_normal(1024)
        self.starts, self.ends, self.seconds = [], [], []

    def _python(self):
        acc = 0
        for i in range(12000):
            acc += i * i % 7
        return acc

    def _short_vectors(self):
        a, b = self._short
        x = a.copy()
        for _ in range(150):
            x = np.maximum(0.5 * x + b, 0.0)
            x -= 0.01 * float(np.linalg.norm(x))
        return x

    def _grid(self):
        g = self._grid_data
        for _ in range(16):
            dx = np.diff(g, axis=0, append=g[-1:])
            dy = np.diff(g, axis=1, append=g[:, -1:])
            g = np.clip(0.5 * g + 0.1 * (dx + dy), -3.0, 3.0)
        return g

    def _matmul(self):
        return self._square @ self._square

    def _matvec(self):
        y = self._vector
        for _ in range(3):
            y = self._matrix @ y
            y /= float(np.abs(y).max())
        return y

    def _triangular(self):
        return scipy.linalg.solve_triangular(self._matrix, self._vector)

    def probe(self):
        """Time the kernel REPEATS times back to back and keep the fastest."""
        start = self.clock()
        best = float("inf")
        for _ in range(REPEATS):
            t0 = self.clock()
            for part in self.parts:
                part()
            best = min(best, self.clock() - t0)
        self.starts.append(start)
        self.ends.append(self.clock())
        self.seconds.append(best)

    def before_stage(self):
        """Probe unless the last probe ended less than PROBE_GAP_S ago."""
        if not self.ends or self.clock() - self.ends[-1] > PROBE_GAP_S:
            self.probe()

    def local(self, start, end):
        """Median kernel time of the probes around [start, end].

        These are the last probe before the stage, the first after it, and
        every probe within WINDOW_S of it; a single probe is a few
        milliseconds and jitters, while slow episodes last seconds.
        """
        first = min(bisect_right(self.ends, start) - 1,
                    bisect_left(self.ends, start - WINDOW_S))
        last = max(bisect_left(self.starts, end), bisect_right(self.starts, end + WINDOW_S) - 1)
        near = self.seconds[max(first, 0):last + 1]
        if not near:
            raise ValueError("no probe brackets the stage")
        return median(near)

    def paced(self, start, end):
        """Wall time of [start, end] at the nominal pace."""
        return (end - start) * self.nominal_s / self.local(start, end)
