"""Command line interface.

Subcommands: `solve` (one problem, one solver), `bench` (comparison per run
config), `angles` (trajectory diagnostics report), `spectra` (momentum
regime-map CSV) and `inpaint` (total-variation experiment with PSNR).  One
flag table, FLAGS, gives each subcommand only the flags its handler reads,
and a config file (flat key=value lines) may set exactly the keys its
subcommand has flags for; explicit flags override file values.  Every
subcommand that solves builds its run the way `bench` does: flags ->
RunConfig -> build_instance -> penalty, then a SolverSpec -> run_spec
(`solve` turns its --variant/--phi/--q/--s into one SolverSpec).  `solve`
and `bench` print the reference's stop and certificate.  Exit codes: 0
success, 1 runtime failure (also a reference that solved nothing), 2 usage
error (a flag or config key the subcommand does not take, or an
out-of-range value, found before any solve), 141 (128 + SIGPIPE, the
shell's status for a writer whose pipe closed) when standard output is
closed before the output is written, as in `| head`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .bench import (PROBLEMS, ConfigError, EmptySelection, RunConfig, SolverSpec,
                    build_instance, compute_reference, emit_plot_svg, penalty,
                    run_experiment, run_spec, trace_file_name, write_trace_csv)
from .problems import CERTIFICATE_TOL, psnr
from .spectra import classify_trajectory, inertial_regime_map, write_regime_csv
from .splitting import VARIANTS


_RUN = ("solve", "bench", "angles")  # the subcommands that take a whole RunConfig
_SOLVING = _RUN + ("inpaint",)

# (flag, the subcommands whose handler reads it, argparse keywords); a
# config key is the flag's dest and is parsed with its type
FLAGS = (
    ("--config", _SOLVING, dict(help="flat key=value config file")),
    ("--seed", _SOLVING, dict(type=int)),
    ("--gamma", _SOLVING, dict(help="number, 'K2/10' or 'K2+0.1'")),
    ("--variant", ("solve",), dict(choices=VARIANTS)),
    ("--phi", ("solve",), dict(type=float, help="relaxation of --variant relaxed")),
    ("--q", ("solve",), dict(type=int, help="extrapolation window; needs --s")),
    ("--s", ("solve",), dict(type=float, help="extrapolation depth: positive integer or inf")),
    ("--tol", _RUN, dict(type=float)),
    ("--max-iter", _RUN, dict(type=int)),
    ("--out", _SOLVING + ("spectra",), dict(help="output directory")),
    ("--problem", _RUN, dict(choices=PROBLEMS)),
    ("--m", _RUN, dict(type=int)),
    ("--n", _RUN, dict(type=int)),
    ("--sparsity", _RUN, dict(type=int)),
    ("--mu", _RUN, dict(type=float)),
    ("--alpha", _RUN, dict(type=float)),
    ("--size", _SOLVING, dict(type=int)),
    ("--mask-density", _SOLVING, dict(type=float)),
    ("--solvers", ("bench",), dict(help="semicolon-separated solver specs")),
    ("--window", ("angles",), dict(type=int, help="classification window")),
    ("--iters", ("inpaint",), dict(type=int, help="fixed iteration budget")),
    ("--image", ("inpaint",), dict(help="PGM image path")),
)


EXIT_BROKEN_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are UsageErrors, reported like every other one."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def parse_config_file(path, keys):
    """Flat "key = value" lines; '#' starts a comment.  A key outside `keys` is a usage error."""
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
                if key not in keys:
                    raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return values


def _config_keys(parser):
    """{key: type} of the options a subcommand's config file may set."""
    return {a.dest: a.type or str for a in parser._actions if a.dest not in ("help", "config")}


def _merge(args, file_values):
    """Fill argparse values that were left at None from the config file."""
    for key, text in file_values.items():
        if getattr(args, key) is not None:
            continue
        try:
            setattr(args, key, args.config_keys[key](text))
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


def _solve_spec(args):
    """The SolverSpec of solve's --variant, --phi, --q and --s."""
    if args.q is not None and args.s is None:
        raise UsageError("--q needs --s: it is the window of the extrapolation --s turns on")
    if args.phi is not None and args.variant != "relaxed":
        raise UsageError("--phi needs --variant relaxed: it is that variant's relaxation")
    given = dict(variant=args.variant, phi=args.phi, q=args.q, s=args.s)
    try:
        return SolverSpec(kind="admm" if args.s is None else "a3dmm",
                          **{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:
        raise UsageError(f"solver flags: {exc}") from None


def _report_reference(reference):
    """Print the reference's line and its certificate's.

    Returns None, or the runtime failure to raise once the output is written
    when the reference solved nothing (a budget stop or a failed certificate).
    """
    print(f"  reference: iters={reference.iterations}  stop={reference.stop}  "
          f"extrapolated={reference.extrapolated}")
    cert = reference.certificate
    if cert is not None:
        print(f"  certificate: gap={cert.gap:.3e}  residual={cert.residual:.3e}  "
              f"bound={CERTIFICATE_TOL:g}  {'pass' if cert.passed else 'FAIL'}")
    if reference.solved:
        return None
    return RuntimeError(
        f"the reference stopped on its budget of {reference.iterations} steps"
        if reference.stop == "budget" else "the reference failed its certificate")


def cmd_solve(args):
    spec = _solve_spec(args)
    run_cfg, instance, gamma = _build_run(args)
    # solve names its trace by the variant, or "a3dmm" when it extrapolates
    label = ("a3dmm" if spec.kind == "a3dmm"
             else "standard" if spec.variant == "standard" else spec.label)
    reference = compute_reference(instance, gamma, run_cfg.tol, run_cfg.max_iter)
    result = run_spec(instance, spec, gamma, run_cfg.tol, run_cfg.max_iter, label=label)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace.csv")
    write_trace_csv(result.trace, path)
    status = "converged" if result.converged else "max-iter reached"
    print(f"{instance.descriptor}: {status} after {result.state.k} iterations, "
          f"||v|| = {result.trace.rows[-1].norm_v:.3e}; trace at {path}")
    failure = _report_reference(reference)
    if failure is not None:
        raise failure
    return 0


def cmd_bench(args):
    run_cfg = _run_config_from(args)
    reference, traces = run_experiment(run_cfg)
    width = max(len(t.meta["solver"]) for t in traces)
    print(f"benchmark: {traces[0].meta['problem']}")
    failure = _report_reference(reference)
    for trace in traces:
        last = trace.rows[-1]
        stop = "tol" if trace.meta["converged"] == "1" else "budget"
        # the paper's metric, time to tolerance, off the trace's ms column
        reached = trace.first_row("dist_x", 1e-6)
        reach_txt = ("dist_x n/a" if failure is not None else "dist_x>1e-6" if reached is None
                     else f"dist_x<=1e-6 at k={reached.k} in {reached.ms:.2f} ms")
        print(f"  {trace.meta['solver']:<{width}}  iters={last.k:>6}  stop={stop:<6}  "
              f"wall={last.ms:>8.2f} ms  ||v||={last.norm_v:.3e}  {reach_txt}")
    if run_cfg.out_dir:
        for quantity in ("dist_z", "cos_theta"):
            try:
                emit_plot_svg(traces, quantity,
                              os.path.join(run_cfg.out_dir, f"{quantity}.svg"))
            except EmptySelection:  # a quantity no trace holds gets no plot
                pass
        print(f"traces and plots written to {run_cfg.out_dir}")
    if failure is not None:
        raise failure
    return 0


def cmd_angles(args):
    window = args.window if args.window is not None else 50
    if window < 1:
        raise UsageError(f"--window must be at least 1, got {window}")
    run_cfg, instance, gamma = _build_run(args)
    if run_cfg.max_iter < window:  # a run has at most max_iter angle samples
        raise UsageError(f"max_iter {run_cfg.max_iter} is below the window {window}: "
                         "the run can never fill it")
    result = run_spec(instance, SolverSpec(), gamma, run_cfg.tol, run_cfg.max_iter)
    values = result.trace.column("cos_theta")
    series = classify_trajectory(values, window=window)
    print(f"{instance.descriptor}: gamma={gamma:.6g}, {result.state.k} iterations")
    print(f"trajectory: {series.classification}")
    if series.limit is None:  # too few angle samples in the window to estimate either
        print("trailing cos(theta): mean=n/a, half-band=n/a")
    else:
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
    parser = _Parser(
        prog="admmkit",
        description="ADMM-family solvers with trajectory-following acceleration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("bench", cmd_bench), ("angles", cmd_angles),
                     ("spectra", cmd_spectra), ("inpaint", cmd_inpaint)):
        p = sub.add_parser(name, allow_abbrev=False)  # --m is not --mask-density
        for flag, commands, options in FLAGS:
            if name in commands:
                p.add_argument(flag, **options)
        p.set_defaults(func=fn, config_keys=_config_keys(p))
    return parser


def main(argv=None):
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return exc.code
        if getattr(args, "config", None):
            _merge(args, parse_config_file(args.config, args.config_keys))
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
