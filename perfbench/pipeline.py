"""Workloads and the measured pass of the admmkit benchmark.

One pass drives the public pipeline of `admmkit.bench` over every instance
of a workload: `build_instance`, `compute_reference`, `run_solver` for each
solver of the default comparison set, then `write_trace_csv` for each trace.
Every stage is timed from outside.  A traced pass runs the same calls with
the wrappers of `spantrace` installed.

Instance data are fixed per workload (the instance each workload is named
after), because fresh random instances move the iteration counts far more
than the benchmark's bounds: at seeds 0-9, admm on tv-inpaint needs 70 to
249 outer iterations and a3dmm on lasso-wide 50 to 66.  The benchmark seed
sets the order in which a pass visits instances and solvers.  On desk-mix
it also derives one extra instance of each desk config that reached its
tolerance at every seed tried (lasso, qp_box and feasibility, seeds
1000-1199).  bp_l1 is left out because it needs 449 to 4000+ iterations
across seeds 0-5, and lasso_spiral because its fixed budget of 400
iterations ends 2.8e-4 from the reference at seed 1202.

Timings are wall times taken around each call, each also converted to the
machine's nominal pace with the probes of `pace` made between stages.  A run
repeats passes; an end-to-end metric sums over instances the median over
passes of each stage's paced time (see end_to_end).
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from admmkit.a3dmm import InnerSolver
from admmkit.bench import (RunConfig, build_instance, compute_reference,
                           resolve_gamma, run_solver, write_trace_csv)
from admmkit.spectra import SPIRAL, InsufficientData, classify_trajectory

import spantrace
from metrics import SOLVER_KEYS
from pace import Pace

# a solve is accurate when its final dist_x is within this share of max(1, ||x_ref||)
DIST_X_REL_TOL = 1e-6

DESK_CONFIGS = {
    # the shipped configs/*.cfg problem parameters, copied so that editing a
    # config does not silently change the benchmark
    "lasso": dict(problem="lasso", seed=0, gamma="K2/10", tol=1e-10, max_iter=3000),
    "lasso_spiral": dict(problem="lasso", seed=14, sparsity=20, mu=0.15, gamma="K2/10",
                         tol=0.0, max_iter=400),
    "bp_l1": dict(problem="bp-l1", seed=0, gamma=1, tol=1e-10, max_iter=4000),
    "qp_box": dict(problem="qp", seed=0, n=50, gamma=0.5, tol=1e-10, max_iter=2000),
    "feasibility": dict(problem="feasibility", seed=0, alpha=math.pi / 6, gamma=1,
                        tol=1e-12, max_iter=2000),
}
DESK_SEEDED = ("lasso", "qp_box", "feasibility")

# the parts of the pace probe (pace.py) whose speed tracked each workload's best
PACE_PARTS = {
    "lasso-wide": Pace.PARTS,
    "tv-inpaint": Pace.PARTS,
    "desk-mix": ("short_vectors",),
}


def workload_configs(workload, seed):
    """The RunConfigs of one workload, in the seed's visiting order."""
    if workload == "lasso-wide":
        configs = [RunConfig(problem="lasso", seed=0, m=200, n=2000, sparsity=20,
                             gamma="K2/10", tol=1e-8, max_iter=3000)]
    elif workload == "tv-inpaint":
        configs = [RunConfig(problem="tv", seed=0, size=96, mask_density=0.5,
                             inner_steps=20, gamma=1, tol=1e-6, max_iter=3000)]
    elif workload == "desk-mix":
        configs = [RunConfig(**kw) for kw in DESK_CONFIGS.values()]
        configs += [RunConfig(**dict(DESK_CONFIGS[name], seed=1000 + seed))
                    for name in DESK_SEEDED]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    return [configs[i] for i in rng.permutation(len(configs))]


def solver_order(seed, index):
    """Seeded order of the comparison set for the index-th instance of a pass."""
    rng = np.random.default_rng([seed, index])
    return [int(j) for j in rng.permutation(len(SOLVER_KEYS))]


@dataclass
class Solve:
    key: str
    iters: int = 0
    rel_dist_x: float = math.nan
    digest: str = ""
    error: str = ""
    finite: bool = True
    extrapolated: int = 0
    trace: object = None

    @property
    def accurate(self):
        return not self.error and self.finite and self.rel_dist_x <= DIST_X_REL_TOL


@dataclass
class InstanceRecord:
    descriptor: str
    p: int
    n: int
    m: int
    trajectory: str
    reference_finite: bool
    solves: list


def metric_sums(units):
    """Per-metric sums over instances of {"<metric>/<instance index>": seconds}, and their total."""
    out = {}
    for key, seconds in units.items():
        metric = key.rsplit("/", 1)[0]
        out[metric] = out.get(metric, 0.0) + seconds
    out["total_s"] = sum(units.values())
    return out


@dataclass
class PassResult:
    # wall seconds per timed unit, keyed "<metric>/<instance index>"
    units: dict = field(default_factory=dict)
    # the same units' seconds at the nominal pace
    paced: dict = field(default_factory=dict)
    instances: list = field(default_factory=list)

    @property
    def total_s(self):
        return sum(self.units.values())

    def solves(self):
        return [s for inst in self.instances for s in inst.solves]

    def digests(self):
        return [(inst.descriptor, s.key, s.digest) for inst in self.instances
                for s in inst.solves]


def _row_digest(trace):
    """Digest of every trace column except the wall-clock `ms`."""
    h = hashlib.sha1()
    for r in trace.rows:
        h.update(repr((r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective,
                       r.extrapolated)).encode())
    return h.hexdigest()


def _finite_row(row):
    vals = (row.norm_v, row.cos_theta, row.dist_z, row.dist_x, row.objective)
    return all(v is None or math.isfinite(v) for v in vals)


def _trajectory(trace):
    try:
        return classify_trajectory(trace.column("cos_theta")).classification
    except InsufficientData:
        return "short"


def _file_name(index, label):
    safe = label.replace("(", "_").replace(")", "").replace(",", "_").replace(".", "p")
    return f"{index}-{safe}.csv"


def run_pass(configs, seed, out_dir, pace, recorder=None):
    """One timed pass over the workload; spans are recorded when `recorder` is set.

    `pace` (a pace.Pace) is probed before stages and once at the end, so
    that every stage has a probe on each side.
    """
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    result = PassResult()
    intervals = {}
    clock = time.perf_counter

    @contextmanager
    def timed(key):
        pace.before_stage()
        t0 = clock()
        try:
            yield
        finally:
            intervals[key] = (t0, clock())

    for index, config in enumerate(configs):
        with timed(f"setup_s/{index}"), span("problems.build"):
            instance = build_instance(config)
        if recorder is not None:
            spantrace.trace_oracles(instance.problem, recorder)
        gamma = resolve_gamma(config.gamma, instance.norm_K) \
            if config.gamma is not None else instance.gamma_default
        inner = InnerSolver(max_steps=config.inner_steps)

        with timed(f"reference_s/{index}"), span("bench.reference"):
            reference = compute_reference(instance, gamma, config.tol, config.max_iter)
        ref_scale = max(1.0, float(np.linalg.norm(reference.x)))

        solves = [Solve(key=k) for k in SOLVER_KEYS]
        for j in solver_order(seed, index):
            solve, spec = solves[j], config.solvers[j]
            with timed(f"solve_s.{solve.key}/{index}"):
                try:
                    with span("bench.solve"):
                        solve.trace = run_solver(instance, spec, gamma, config.tol,
                                                 config.max_iter, inner=inner)
                except Exception as exc:  # noqa: BLE001 - a raising solve is counted as failed
                    solve.error = f"{type(exc).__name__}: {exc}"

        with timed(f"write_s/{index}"):
            for solve in solves:
                if solve.trace is not None:
                    with span("bench.write"):
                        write_trace_csv(solve.trace, os.path.join(
                            out_dir, _file_name(index, solve.trace.meta["solver"])))

        for solve in solves:
            if solve.trace is None:
                continue
            last = solve.trace.rows[-1]
            solve.iters = last.k
            solve.finite = _finite_row(last)
            solve.rel_dist_x = (last.dist_x if last.dist_x is not None else math.inf) / ref_scale
            solve.digest = _row_digest(solve.trace)
            solve.extrapolated = sum(r.extrapolated for r in solve.trace.rows)
        admm = solves[0].trace
        problem = instance.problem
        result.instances.append(InstanceRecord(
            descriptor=instance.descriptor, p=problem.p, n=problem.n, m=problem.m,
            trajectory=_trajectory(admm) if admm is not None else "failed",
            reference_finite=bool(np.all(np.isfinite(reference.x))),
            solves=solves))
        for solve in solves:
            solve.trace = None  # keep a pass's memory to one instance
    pace.probe()
    for key, (start, end) in intervals.items():
        result.units[key] = end - start
        result.paced[key] = pace.paced(start, end)
    return result


def end_to_end(passes):
    """End-to-end metric values of an untraced run.

    Each timed unit (one stage of one instance) counts with its median paced
    time over the run's passes, and a metric sums its units over instances;
    `total_s` sums every unit, the CSV writes included.
    """
    first = passes[0]
    out = metric_sums({key: median(p.paced[key] for p in passes) for key in first.paced})
    del out["write_s"]
    for k in SOLVER_KEYS:
        out[f"iters.{k}"] = sum(s.iters for s in first.solves() if s.key == k)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    solves = [s for p in passes for s in p.solves()]
    out["ok_frac"] = sum(s.accurate for s in solves) / len(solves)
    return out


def wall_medians(passes):
    """The timed metrics as plain wall-clock medians, for comparison with the paced ones."""
    first = passes[0]
    out = metric_sums({key: median(p.units[key] for p in passes) for key in first.units})
    del out["write_s"]
    return out


def layer_metrics(recorder, traced, untraced):
    """Per-layer metric values of one traced pass and the untraced pass after it."""
    spans = spantrace.summarize(recorder)

    def get(name, column):
        return spans.get(name, {}).get(column, 0)

    traced_total = traced.total_s
    fits = get("extrapolate.fit", "count")
    applied = sum(s.extrapolated for s in traced.solves())
    records = traced.instances
    return {
        "problems.build_s": get("problems.build", "total_s"),
        "problems.operator_norm_calls": get("problems.operator_norm", "count"),
        "problems.operator_norm_share": get("problems.operator_norm", "total_s") / traced_total,
        "prox.factorizations": get("prox.factor", "count"),
        "prox.factor_share": get("prox.factor", "total_s") / traced_total,
        "prox.factor_mb": recorder.bytes.get("prox.factor", 0) / 1e6,
        "prox.y_calls": get("prox.y", "count"),
        "prox.y_s": get("prox.y", "self_s"),
        "prox.x_calls": get("prox.x", "count"),
        "prox.x_s": get("prox.x", "self_s"),
        "prox.linmap_calls": get("prox.linmap", "count"),
        "prox.linmap_s": get("prox.linmap", "total_s"),
        "prox.x_linmap_calls": spantrace.count_within(recorder, "prox.linmap", "prox.x"),
        "splitting.steps": get("splitting.step", "count"),
        "splitting.step_self_s": get("splitting.step", "self_s"),
        "extrapolate.fits": fits,
        "extrapolate.fit_s": get("extrapolate.fit", "total_s"),
        "extrapolate.predict_s": get("extrapolate.predict", "total_s"),
        "extrapolate.push_s": get("extrapolate.push", "total_s"),
        "extrapolate.accept_ratio": applied / fits if fits else 0.0,
        "spectra.angle_s": get("spectra.angle", "total_s"),
        "spectra.spiral_share": sum(r.trajectory == SPIRAL for r in records) / len(records),
        "trace.objective_s": get("trace.objective", "total_s"),
        "trace.append_s": get("trace.append", "total_s"),
        "a3dmm.loop_self_s": get("a3dmm.loop", "self_s"),
        "bench.reference_iters": spantrace.count_within(recorder, "splitting.step",
                                                        "bench.reference"),
        "bench.write_s": get("bench.write", "total_s"),
        "bench.untraced_total_s": untraced.total_s,
        "bench.trace_overhead_s": traced_total - untraced.total_s,
    }

