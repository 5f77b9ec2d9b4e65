"""Span recording around admmkit's public functions, installed from outside.

A SpanRecorder keeps every span (name, start, end, parent) in memory.  The
`installed` context manager replaces the attributes the solver loop looks
up with recording wrappers and puts the originals back on exit; the oracle
proxy does the same for one problem's two prox oracles.  Nothing under
`src/` knows about any of this, so untraced runs execute the original code.

Self time is a span's duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.clear()

    def clear(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.bytes = {}
        self._stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name, fn, result_bytes=None):
        """Wrapper of fn that records one span per call.

        `result_bytes(result)` adds a computed byte count under `name`.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if result_bytes is not None:
                self.bytes[name] = self.bytes.get(name, 0) + result_bytes(result)
            return result
        return wrapper


def self_times(starts, ends, parents):
    """Per span: duration minus the union of its children's intervals, clipped to it."""
    n = len(starts)
    covered = [0.0] * n
    cursor = list(starts)  # end of the already-covered prefix of each parent
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], cursor[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            cursor[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def summarize(recorder):
    """{name: {"count", "total_s", "self_s"}} over all recorded spans."""
    selfs = self_times(recorder.starts, recorder.ends, recorder.parents)
    out = {}
    for i, name in enumerate(recorder.names):
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += recorder.ends[i] - recorder.starts[i]
        row["self_s"] += selfs[i]
    return out


def count_within(recorder, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    inside = [False] * len(recorder.names)
    hits = 0
    for i, span_name in enumerate(recorder.names):
        p = recorder.parents[i]
        if p >= 0:
            inside[i] = inside[p] or recorder.names[p] == ancestor
        if inside[i] and span_name == name:
            hits += 1
    return hits


class OracleProxy:
    """Stand-in for a prox oracle that records a span around `evaluate`.

    It forwards `dim` and `name`, and `configure`/`reset` only when the
    wrapped oracle has them, because the solver entry points probe for
    those two attributes to tell inexact oracles from exact ones.
    """

    def __init__(self, oracle, span_name, recorder):
        self._oracle = oracle
        self._span = span_name
        self._recorder = recorder
        self.dim = oracle.dim
        self.name = oracle.name
        for attr in ("configure", "reset"):
            method = getattr(oracle, attr, None)
            if callable(method):
                setattr(self, attr, method)

    def evaluate(self, w, gamma):
        i = self._recorder.open(self._span)
        try:
            return self._oracle.evaluate(w, gamma)
        finally:
            self._recorder.close(i)


def trace_oracles(problem, recorder):
    """Put recording proxies in place of a SplitProblem's two oracles."""
    problem.prox_r = OracleProxy(problem.prox_r, "prox.x", recorder)
    problem.prox_j = OracleProxy(problem.prox_j, "prox.y", recorder)


@contextmanager
def installed(recorder):
    """Patch the layer entry points admmkit's loop looks up; restore them on exit."""
    import scipy.linalg

    import admmkit.a3dmm as a3dmm
    import admmkit.bench as bench
    import admmkit.extrapolate as extrapolate
    import admmkit.problems as problems
    from admmkit.prox import LinearMap
    from admmkit.splitting import SplitProblem
    from admmkit.trace import Trace

    targets = [
        (a3dmm, "variant_step", "splitting.step", None),
        (a3dmm, "trajectory_angle", "spectra.angle", None),
        # run_inexact reaches the loop through a3dmm's global, run_solver and
        # compute_reference through bench's imported name
        (a3dmm, "run_a3dmm", "a3dmm.loop", None),
        (bench, "run_a3dmm", "a3dmm.loop", None),
        (extrapolate, "fit_coefficients", "extrapolate.fit", None),
        (extrapolate, "push_difference", "extrapolate.push", None),
        (extrapolate, "extrapolate_finite", "extrapolate.predict", None),
        (extrapolate, "extrapolate_infinite", "extrapolate.predict", None),
        (problems, "operator_norm", "problems.operator_norm", None),
        (LinearMap, "apply", "prox.linmap", None),
        (LinearMap, "apply_adjoint", "prox.linmap", None),
        (SplitProblem, "objective", "trace.objective", None),
        (Trace, "append", "trace.append", None),
        (scipy.linalg, "cho_factor", "prox.factor", lambda r: r[0].nbytes),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    try:
        for (owner, attr, name, result_bytes), (_, _, original) in zip(targets, saved):
            setattr(owner, attr, recorder.wrap(name, original, result_bytes))
        yield recorder
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
