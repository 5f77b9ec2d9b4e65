"""admmkit benchmark: time to the stopping rule per solver, and a traced layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload lasso-wide --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 40

`--trace 0` repeats untraced passes over the workload while another pass
still ends within `--seconds` (at least MIN_PASSES of them) and reports the
end-to-end metrics: for each timed stage of each instance, the median over
passes of its time at the machine's nominal pace (see pace.py), summed over
instances.  The plain wall-clock medians are printed beside them.  `--trace 1`
runs one warm-up pass, then repeats pairs of one traced and one untraced pass
and reports the per-layer metrics, each a median over the pairs; the
untraced twin of each traced pass gives the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `attempted` counts solves;
`failed` counts those that raised, ended on a non-finite trace row, or
stopped with dist_x above 1e-6 * max(1, ||x_ref||).  `correct` is false when
a solve raised or went non-finite, a reference is non-finite, or two passes
of the run (traced or not) gave different trace rows in any column but `ms`.
`--all` runs every workload in its own process, untraced and traced, and
prints one table.

The package is imported from `src/` of the checkout this file sits in, in a
single process pinned to one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import admmkit from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import admmkit
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import admmkit from {SRC}: {exc}") from None
    if SRC not in Path(admmkit.__file__).resolve().parents:
        raise SystemExit(f"perfbench: admmkit came from {admmkit.__file__}, not {SRC}")
    return admmkit


def blas_info(np):
    """BLAS vendor and version from numpy's build record, thread count from the library."""
    import ctypes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset") + " (env)"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def lscpu():
    """CPU model and cache sizes as lscpu reports them ({} when lscpu is missing)."""
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20,
                              check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    keys = ("Model name", "L1d cache", "L2 cache", "L3 cache")
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in keys:
            out[key.strip()] = value.strip()
    return out


def environment(admmkit):
    import numpy as np
    import scipy
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "admmkit": admmkit.__version__,
           "nproc": os.cpu_count(), **blas_info(np), **lscpu()}
    # the widest design's factor: lasso-wide's 2000 x 2000 float64 Cholesky factor
    env["note"] = (f"lasso-wide's n x n factor is {2000 * 2000 * 8 / 1e6:.0f} MB and fits "
                   f"in the reported L3 ({env.get('L3 cache', 'unknown')}); bytes figures "
                   "are computed from array sizes, not measured bandwidth")
    return env


def print_instances(result):
    for inst in result.instances:
        print(f"instance {inst.descriptor}: p={inst.p} n={inst.n} m={inst.m} "
              f"trajectory={inst.trajectory}")
        for s in inst.solves:
            status = "ok" if s.accurate else "FAIL"
            if s.error:
                status += f" ({s.error})"
            elif not s.finite:
                status += " (non-finite)"
            print(f"  {s.key:<10} iters={s.iters:<6d} rel_dist_x={s.rel_dist_x:.3e} {status}")
    spirals = sum(inst.trajectory == "spiral" for inst in result.instances)
    print(f"workload: {len(result.instances)} instances, spiral share "
          f"{spirals / len(result.instances):.3f} (admm trajectory class)")


def run_workload(args):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"
    admmkit = import_package()
    import pipeline
    import spantrace
    from pace import Pace

    env = environment(admmkit)
    for key, value in env.items():
        print(f"env {key}: {value}")
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = pipeline.workload_configs(args.workload, args.seed)

    passes, layers, span_tables = [], [], []
    pace = Pace(pipeline.PACE_PARTS[args.workload])
    clock = time.perf_counter
    start = clock()

    def another(count, minimum, step_s):
        """Whether to run another step: below the minimum, or it still ends in time."""
        return count < minimum or clock() - start + step_s <= args.seconds

    step_s = 0.0
    if args.trace == 0:
        while another(len(passes), MIN_PASSES, step_s):
            t0 = clock()
            passes.append(pipeline.run_pass(configs, args.seed, out_dir, pace))
            step_s = clock() - t0
        metrics = pipeline.end_to_end(passes)
        specs = END_TO_END
    else:
        # an untimed warm-up pass first, so that neither side of a pair runs cold
        passes.append(pipeline.run_pass(configs, args.seed, out_dir, pace))
        recorder = spantrace.SpanRecorder()
        while another(len(layers), 1, step_s):
            t0 = clock()
            with spantrace.installed(recorder):
                traced = pipeline.run_pass(configs, args.seed, out_dir, pace, recorder)
            untraced = pipeline.run_pass(configs, args.seed, out_dir, pace)
            step_s = clock() - t0
            layers.append(pipeline.layer_metrics(recorder, traced, untraced))
            span_tables.append(spantrace.summarize(recorder))
            recorder.clear()
            passes += [traced, untraced]
        metrics = {name: median([m[name] for m in layers]) for name, _ in PER_LAYER}
        specs = PER_LAYER

    print_instances(passes[0])
    first = passes[0].digests()
    mismatches = {d for p in passes for d in p.digests() if d not in first}
    identical = not mismatches
    for descriptor, key, _ in sorted(mismatches):
        print(f"identity check FAILED: {descriptor} {key} rows differ between passes")
    solves = [s for p in passes for s in p.solves()]
    correct = (identical
               and all(not s.error and s.finite for s in solves)
               and all(i.reference_finite for p in passes for i in p.instances)
               and all(math.isfinite(v) for v in metrics.values()))
    wall = pipeline.wall_medians(passes) if args.trace == 0 else {}
    width = max(len(name) for name, _ in specs)
    for name, unit in specs:
        plain = f"  (wall {wall[name]:.6g} {unit})" if name in wall else ""
        print(f"{name:<{width}}  {metrics[name]:>14.6g} {unit}{plain}")
    print(f"pace: {len(pace.seconds)} probes, median {median(pace.seconds) * 1e3:.3f} ms, "
          f"nominal {pace.nominal_s * 1e3:.3f} ms")
    print(f"passes={len(passes)} wall_s={clock() - start:.1f} "
          f"output={out_dir.relative_to(HERE.parent)}")
    (out_dir / "run.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "wall_medians": wall,
         "passes": [p.units for p in passes], "paced": [p.paced for p in passes],
         "probes": list(zip(pace.starts, pace.ends, pace.seconds)),
         "spans": span_tables, "digests": first}, indent=1))
    return {"correct": bool(correct), "attempted": len(solves),
            "failed": sum(not s.accurate for s in solves),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs}}


def run_all(args):
    """Every workload untraced then traced, each in its own process; one summary table."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: {workload} --trace {trace} exited "
                                 f"with {proc.returncode}")
            results[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    for trace, specs in ((0, END_TO_END), (1, PER_LAYER)):
        width = max(len(name) for name, _ in specs)
        print(f"{'metric':<{width}}  " + "".join(f"{w:>14}" for w in WORKLOADS) + "  unit")
        for name, unit in specs:
            cells = "".join(f"{results[w, trace]['metrics'][name]['value']:>14.6g}"
                            for w in WORKLOADS)
            print(f"{name:<{width}}  {cells}  {unit}")
        print()
    summary = {f"{w}/trace{t}": {k: r[k] for k in ("correct", "attempted", "failed")}
               for (w, t), r in results.items()}
    print(json.dumps(summary))
    return all(r["correct"] for r in results.values())


def main(argv=None):
    args = parse_args(argv)
    if args.all:
        return 0 if run_all(args) else 1
    result = run_workload(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
