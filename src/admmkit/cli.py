"""Command line interface.

Subcommands: `solve` (one problem, one solver), `bench` (comparison per run
config), `angles` (trajectory diagnostics report), `spectra` (momentum
regime-map CSV) and `inpaint` (total-variation experiment with PSNR).  Flags
mirror the flat key=value config-file format; explicit flags override file
values.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .a3dmm import ExtrapConfig, InnerSolver, run_a3dmm
from .bench import (DEFAULT_COMPARISON, ConfigError, EmptySelection, RunConfig,
                    build_instance, compute_reference, emit_plot_svg,
                    parse_solver_spec, resolve_gamma, run_experiment, run_spec,
                    trace_file_name, write_trace_csv)
from .problems import load_pgm, make_tv_inpainting, psnr
from .spectra import classify_trajectory, inertial_regime_map, write_regime_csv
from .splitting import SolverConfig
from .trace import Trace


CONFIG_KEYS = {
    "problem": str, "seed": int, "gamma": str, "variant": str, "q": int,
    "s": str, "tol": float, "max_iter": int, "out": str, "solvers": str,
    "m": int, "n": int, "sparsity": int, "mu": float, "alpha": float,
    "size": int, "mask_density": float, "inner_steps": int, "phi": float,
    "window": int, "iters": int, "image": str,
}


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


def _parse_s(text):
    if text is None:
        return None
    if str(text).lower() == "inf":
        return math.inf
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"--s expects a positive integer or 'inf', got {text!r}") from None
    if value < 1:
        raise UsageError("--s must be at least 1")
    return value


def _run_config_from(args):
    kwargs = dict(problem=args.problem or "lasso", seed=args.seed if args.seed is not None else 0,
                  gamma=args.gamma, tol=args.tol if args.tol is not None else 1e-9,
                  max_iter=args.max_iter if args.max_iter is not None else 2000)
    for key in ("m", "n", "sparsity"):
        if getattr(args, key, None) is not None:
            kwargs[key] = getattr(args, key)
    for key in ("mu", "alpha", "size", "mask_density", "inner_steps"):
        if getattr(args, key, None) is not None:
            kwargs[key] = getattr(args, key)
    if getattr(args, "solvers", None):
        kwargs["solvers"] = tuple(s.strip() for s in args.solvers.split(";") if s.strip())
    if getattr(args, "out", None):
        kwargs["out_dir"] = args.out
    return RunConfig(**kwargs)


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
    parser.add_argument("--problem",
                        choices=("lasso", "bp-l1", "bp-l12", "bp-nuclear", "qp",
                                 "feasibility", "tv"))
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--sparsity", type=int)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--size", type=int)
    parser.add_argument("--mask-density", dest="mask_density", type=float)
    parser.add_argument("--inner-steps", dest="inner_steps", type=int)


def cmd_solve(args):
    run_cfg = _run_config_from(args)
    instance = build_instance(run_cfg)
    gamma = resolve_gamma(args.gamma, instance.norm_K) if args.gamma is not None \
        else instance.gamma_default
    s = _parse_s(args.s)
    variant = args.variant or "standard"
    cfg = SolverConfig(gamma=gamma, phi=args.phi if args.phi is not None else 1.0,
                       variant=variant, tol=run_cfg.tol, max_iter=run_cfg.max_iter,
                       z0=instance.z0)
    extrap = ExtrapConfig(q=args.q if args.q is not None else 6, s=s) \
        if s is not None else None
    label = "a3dmm" if extrap is not None else variant_label(variant, cfg.phi)
    trace = Trace(meta={"solver": label, "problem": instance.descriptor,
                        "seed": str(instance.seed), "version": __version__})
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
    traces = run_experiment(run_cfg)
    width = max(len(t.meta["solver"]) for t in traces)
    print(f"benchmark: {traces[0].meta['problem']}")
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
    run_cfg = _run_config_from(args)
    instance = build_instance(run_cfg)
    gamma = resolve_gamma(args.gamma, instance.norm_K) if args.gamma is not None \
        else instance.gamma_default
    cfg = SolverConfig(gamma=gamma, tol=run_cfg.tol, max_iter=run_cfg.max_iter,
                       z0=instance.z0)
    result = run_a3dmm(instance.problem, cfg)
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
    size = args.size if args.size is not None else 64
    density = args.mask_density if args.mask_density is not None else 0.5
    seed = args.seed if args.seed is not None else 0
    inner = InnerSolver(max_steps=args.inner_steps if args.inner_steps is not None else 20)
    if args.image:
        with open(args.image, "rb") as fh:
            image = load_pgm(fh.read())
        if image.shape[0] != image.shape[1]:
            side = min(image.shape)
            image = image[:side, :side]
        instance = make_tv_inpainting(image=image, mask_density=density, seed=seed,
                                      inner=inner)
    else:
        instance = make_tv_inpainting(mask_density=density, seed=seed, size=size,
                                      inner=inner)
    iters = args.iters if args.iters is not None else 30
    gamma = resolve_gamma(args.gamma, instance.norm_K) if args.gamma is not None else 1.0
    image = instance.extra["image"]
    observed = image.ravel().copy()
    observed[~instance.extra["mask"].ravel()] = 0.0
    print(f"{instance.descriptor}: gamma={gamma:g}, {iters} iterations")
    print(f"  observed image PSNR = {psnr(observed, image):.4f} dB")
    out_dir = args.out
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    for text in DEFAULT_COMPARISON:
        spec = parse_solver_spec(text)
        result = run_spec(instance, spec, gamma, 0.0, iters)
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
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
