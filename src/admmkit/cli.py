"""Command line interface.

Subcommands: `solve` (one problem, one solver), `bench` (comparison per run
config), `angles` (trajectory diagnostics report), `spectra` (momentum
regime-map CSV) and `inpaint` (total-variation experiment with PSNR).  Flags
mirror the flat key=value config-file format; explicit flags override file
values.  Every subcommand that solves builds its run the way `bench` does:
flags -> RunConfig -> build_instance -> penalty.  Exit codes: 0 success, 1
runtime failure, 2 usage error (a bad flag, config key or out-of-range value,
found before any solve), 141 (128 + SIGPIPE, the shell's status for a writer
whose pipe closed) when standard output is closed before the output is
written, as in `| head`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .a3dmm import ExtrapConfig, run_a3dmm
from .bench import (PROBLEMS, ConfigError, EmptySelection, RunConfig, SolverSpec,
                    build_instance, compute_reference, emit_plot_svg, penalty,
                    provenance, run_experiment, run_spec, trace_file_name,
                    write_trace_csv)
from .problems import psnr
from .spectra import classify_trajectory, inertial_regime_map, write_regime_csv
from .splitting import SolverConfig
from .trace import Trace


CONFIG_KEYS = {
    "problem": str, "seed": int, "gamma": str, "variant": str, "q": int,
    "s": str, "tol": float, "max_iter": int, "out": str, "solvers": str,
    "m": int, "n": int, "sparsity": int, "mu": float, "alpha": float,
    "size": int, "mask_density": float, "phi": float,
    "window": int, "iters": int, "image": str,
}


EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


def parse_config_file(path):
    """Flat "key = value" lines; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _merge(args, file_values):
    """Fill argparse values that were left at None from the config file."""
    for key, text in file_values.items():
        attr = key
        if getattr(args, attr, None) is None and hasattr(args, attr):
            caster = CONFIG_KEYS[key]
            try:
                setattr(args, attr, caster(text))
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
    return args


def _run_config_from(args, **fixed):
    """RunConfig of the flags that are set, by field name; `fixed` overrides them."""
    values = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    values["out_dir"] = args.out
    if values["solvers"] is not None:
        values["solvers"] = tuple(s.strip() for s in values["solvers"].split(";") if s.strip())
    values.update(fixed)
    return RunConfig(**{key: value for key, value in values.items() if value is not None})


def _build_run(args, **fixed):
    """(run config, instance, gamma) of a subcommand's flags."""
    run_cfg = _run_config_from(args, **fixed)
    instance = build_instance(run_cfg)
    return run_cfg, instance, penalty(run_cfg, instance)


def _add_common(parser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--gamma", help="number, 'K2/10' or 'K2+0.1'")
    parser.add_argument("--variant", choices=("standard", "relaxed", "symmetric"))
    parser.add_argument("--phi", type=float)
    parser.add_argument("--q", type=int)
    parser.add_argument("--s", help="extrapolation depth: positive integer or 'inf'")
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--problem", choices=PROBLEMS)
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--sparsity", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--size", type=int)
    parser.add_argument("--mask-density", dest="mask_density", type=float)


def cmd_solve(args):
    run_cfg, instance, gamma = _build_run(args)
    # SolverSpec cannot express an extrapolated relaxed or symmetric run, so
    # solve builds its solver configs from the flags itself
    variant = args.variant or "standard"
    try:
        cfg = SolverConfig(gamma=gamma, phi=args.phi if args.phi is not None else 1.0,
                           variant=variant, tol=run_cfg.tol, max_iter=run_cfg.max_iter,
                           z0=instance.z0)
        extrap = None
        if args.s is not None:
            s = math.inf if args.s.lower() == "inf" else int(args.s)
            extrap = ExtrapConfig(q=args.q if args.q is not None else 6, s=s)
    except ValueError as exc:
        raise UsageError(f"solver flags: {exc}") from None
    label = "a3dmm" if extrap is not None else variant_label(variant, cfg.phi)
    trace = Trace(meta=provenance(label, instance))
    compute_reference(instance, gamma, cfg.tol, cfg.max_iter)
    result = run_a3dmm(instance.problem, cfg, extrap=extrap, trace=trace,
                       reference=instance.reference)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(result.trace, path)
    status = "converged" if result.converged else "max-iter reached"
    print(f"{instance.descriptor}: {status} after {result.state.k} iterations, "
          f"||v|| = {result.trace.rows[-1].norm_v:.3e}; trace at {path}")
    return 0


def variant_label(variant, phi):
    return f"relaxed({phi:g})" if variant == "relaxed" else variant


def cmd_bench(args):
    run_cfg = _run_config_from(args)
    reference, traces = run_experiment(run_cfg)
    width = max(len(t.meta["solver"]) for t in traces)
    print(f"benchmark: {traces[0].meta['problem']}")
    print(f"  reference: iters={reference.iterations}  stop={reference.stop}  "
          f"extrapolated={reference.extrapolated}")
    for trace in traces:
        last = trace.rows[-1]
        reached = trace.iterations_to("dist_x", 1e-6)
        reach_txt = f"dist_x<=1e-6 at k={reached}" if reached is not None else "dist_x>1e-6"
        print(f"  {trace.meta['solver']:<{width}}  iters={last.k:>6}  "
              f"||v||={last.norm_v:.3e}  {reach_txt}")
    if run_cfg.out_dir:
        for quantity in ("dist_z", "cos_theta"):
            try:
                emit_plot_svg(traces, quantity,
                              os.path.join(run_cfg.out_dir, f"{quantity}.svg"))
            except EmptySelection:  # a quantity no trace holds gets no plot
                pass
        print(f"traces and plots written to {run_cfg.out_dir}")
    return 0


def cmd_angles(args):
    run_cfg, instance, gamma = _build_run(args)
    result = run_spec(instance, SolverSpec(), gamma, run_cfg.tol, run_cfg.max_iter)
    values = result.trace.column("cos_theta")
    window = args.window if args.window is not None else 50
    series = classify_trajectory(values, window=window)
    print(f"{instance.descriptor}: gamma={gamma:.6g}, {result.state.k} iterations")
    print(f"trajectory: {series.classification}")
    print(f"trailing cos(theta): mean={series.limit:.8f}, half-band={series.band:.3e}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_trace_csv(result.trace, os.path.join(args.out, "angles.csv"))
    return 0


def cmd_spectra(args):
    avals = np.round(np.linspace(0.0, 1.0, 101), 6)
    rows = []
    rows += inertial_regime_map(np.arange(0.0, 0.992, 0.01), avals)
    angles = [np.pi / 4, np.pi / 8, np.pi / 16, np.pi / 32, np.pi / 64, np.pi / 128]
    for mag in (0.9, 0.98):
        rows += inertial_regime_map([mag * np.exp(1j * a) for a in angles], avals)
    rows += inertial_regime_map(
        [np.cos(a) * np.exp(1j * a) for a in angles], avals)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "regime_map.csv")
    write_regime_csv(rows, path)
    print(f"{len(rows)} rows written to {path}")
    return 0


def cmd_inpaint(args):
    run_cfg, instance, gamma = _build_run(
        args, problem="tv", tol=0.0, max_iter=args.iters if args.iters is not None else 30)
    image = instance.extra["image"]
    observed = image.ravel().copy()
    observed[~instance.extra["mask"].ravel()] = 0.0
    print(f"{instance.descriptor}: gamma={gamma:g}, {run_cfg.max_iter} iterations")
    print(f"  observed image PSNR = {psnr(observed, image):.4f} dB")
    out_dir = run_cfg.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for spec in run_cfg.solvers:
        result = run_spec(instance, spec, gamma, run_cfg.tol, run_cfg.max_iter)
        value = psnr(result.state.x, image)
        print(f"  {spec.label:<14} PSNR = {value:.4f} dB")
        if out_dir:
            name = trace_file_name(spec.label)
            write_trace_csv(result.trace, os.path.join(out_dir, f"inpaint_{name}.csv"))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="admmkit",
        description="ADMM-family solvers with trajectory-following acceleration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("solve", cmd_solve, ()),
            ("bench", cmd_bench, ("solvers",)),
            ("angles", cmd_angles, ("window",)),
            ("spectra", cmd_spectra, ()),
            ("inpaint", cmd_inpaint, ("iters", "image"))):
        p = sub.add_parser(name)
        _add_common(p)
        if "solvers" in extra:
            p.add_argument("--solvers", help="semicolon-separated solver specs")
        if "window" in extra:
            p.add_argument("--window", type=int, help="classification window")
        if "iters" in extra:
            p.add_argument("--iters", type=int, help="fixed iteration budget")
        if "image" in extra:
            p.add_argument("--image", help="PGM image path")
        p.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        if args.config:
            _merge(args, parse_config_file(args.config))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the flush at exit
        # finds nothing to report
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
