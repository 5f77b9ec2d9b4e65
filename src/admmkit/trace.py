"""Per-iteration solver diagnostics.

A Trace is what `a3dmm.run_a3dmm` writes and `bench.write_trace_csv`
persists: one row per outer iteration plus a flat metadata map.  Absent
quantities (for example the angle at the first iteration, or distances when
no reference solution exists) are stored as None and must never be
serialized as NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TraceRow:
    k: int
    norm_v: float
    cos_theta: Optional[float]
    dist_z: Optional[float]
    dist_x: Optional[float]
    objective: Optional[float]
    extrapolated: bool
    ms: float


class Trace:
    """Append-only iteration log with run metadata."""

    def __init__(self, meta=None):
        self.rows: list[TraceRow] = []
        self.meta: dict[str, str] = dict(meta or {})
        # applied acceleration increments ||a_k * E_k||, not persisted to CSV
        self.applied_increments: list[float] = []

    def append(self, row):
        if self.rows and row.k <= self.rows[-1].k:
            raise ValueError("iteration counter must be strictly increasing")
        self.rows.append(row)

    def column(self, name):
        return [getattr(r, name) for r in self.rows]

    def first_row(self, name, threshold):
        """First row whose column value is <= threshold, or None."""
        for r in self.rows:
            val = getattr(r, name)
            if val is not None and val <= threshold:
                return r
        return None

    def iterations_to(self, name, threshold):
        """First k whose column value is <= threshold, or None."""
        row = self.first_row(name, threshold)
        return None if row is None else row.k
