"""Experiment harness: solver comparisons, trace persistence and plots.

A RunConfig names a gallery problem (a GALLERY entry), a penalty rule and a
comparison set of solver specifications (each read through SPEC_FORMS, with
a label of its own).  The harness first computes a reference solution
(`compute_reference`: standard ADMM steps that keep no trace, accelerated
when the instance allows it, under the reference's own stop rules and the
instance's certificate).  It then runs every solver against the reference
(the distance to its z only on an instance whose fixed point is unique, and
no distance at all to a reference that solved nothing) and persists one CSV
trace per solver.  Plot emission writes standalone, byte-deterministic SVG
files.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from .a3dmm import ExtrapConfig, iterate, run_a3dmm
from .problems import (CERTIFICATE_TOL, GAMMA_RULES, FormatError, Reference, load_pgm,
                       make_bp_l1, make_bp_l12, make_bp_nuclear, make_feasibility, make_lasso,
                       make_qp_box, make_tv_inpainting, resolve_gamma)
from .splitting import SolverConfig


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


class EmptySelection(ValueError):
    """No trace holds the requested plot quantity."""


KINDS = ("admm", "iadmm", "a3dmm")


@dataclass(frozen=True)
class SolverSpec:
    """One entry of a comparison set: an accelerator on top of a scheme variant.

    kind names the accelerator: "admm" (none), "iadmm" (momentum (a, b)) or
    "a3dmm" (window q, depth s).  variant names the scheme it steps:
    "standard", "relaxed" (with relaxation phi) or "symmetric".  A
    non-finite momentum, or a value that the SolverConfig or ExtrapConfig
    it turns into rejects, raises ValueError here.
    """

    kind: str = "admm"
    a: float = 0.0
    b: float = 0.0
    q: int = 6
    s: float = math.inf
    phi: float = 1.0
    variant: str = "standard"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}; expected one of {KINDS}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"momentum (a, b) = ({self.a}, {self.b}) must be finite")
        # the range checks of the solver configs the spec turns into
        _solver_pieces(self, gamma=1.0, tol=0.0, max_iter=1, z0=None)

    @property
    def label(self):
        if self.kind == "iadmm":
            if self.b:
                return f"iadmm({self.a:g},{self.b:g})"
            return f"iadmm({self.a:g})"
        if self.kind == "a3dmm":
            s = "inf" if self.s == math.inf else f"{int(self.s)}"
            return f"a3dmm({self.q},{s})"
        if self.variant == "relaxed":
            return f"relaxed({self.phi:g})"
        return self.kind if self.variant == "standard" else self.variant


# name -> (the SolverSpec fields its arguments fill, in order, each read with
# the field's type; how many of them it needs; the fields the name fixes)
SPEC_FORMS = {
    "admm": ((), 0, {}),
    "symmetric": ((), 0, {"variant": "symmetric"}),
    "iadmm": (("a", "b"), 1, {"kind": "iadmm"}),
    "a3dmm": (("q", "s"), 2, {"kind": "a3dmm"}),
    "relaxed": (("phi",), 1, {"variant": "relaxed"}),
}


def parse_solver_spec(text):
    """Parse "admm", "iadmm(0.3)", "iadmm(0.4,-0.2)", "a3dmm(6,inf)", "relaxed(1.5)", "symmetric"."""
    text = text.strip()
    name, paren, args = text.partition("(")
    if paren and not args.endswith(")"):
        raise ConfigError(f"solvers: unbalanced parentheses in {text!r}")
    name = name.strip()
    if name not in SPEC_FORMS:
        raise ConfigError(f"solvers: unknown solver kind {name!r}")
    names, needed, fixed = SPEC_FORMS[name]
    parts = [p.strip() for p in args[:-1].split(",")] if args[:-1].strip() else []
    if not needed <= len(parts) <= len(names):
        forms = (f"({','.join(names[:n])})" for n in range(needed, len(names) + 1))
        raise ConfigError(f"solvers: {name} takes {' or '.join(forms)}, got {text!r}")
    try:
        return SolverSpec(**fixed, **{key: type(getattr(SolverSpec, key))(part)
                                      for key, part in zip(names, parts)})
    except ValueError as exc:
        raise ConfigError(f"solvers: bad argument in {text!r}: {exc}") from None


DEFAULT_COMPARISON = ("admm", "iadmm(0.3)", "a3dmm(6,100)", "a3dmm(6,inf)")

# problem name -> (its constructor, the names of its parameters): a problem reads
# those KNOBS (RunConfig fields) that are its constructor's parameters
GALLERY = {name: (make, frozenset(inspect.signature(make).parameters)) for name, make in (
    ("lasso", make_lasso), ("bp-l1", make_bp_l1), ("bp-l12", make_bp_l12),
    ("bp-nuclear", make_bp_nuclear), ("qp", make_qp_box), ("feasibility", make_feasibility),
    ("tv", make_tv_inpainting))}
PROBLEMS = tuple(GALLERY)
KNOBS = ("m", "n", "sparsity", "mu", "alpha", "size", "mask_density", "image")


@dataclass
class RunConfig:
    """Validated experiment description."""

    problem: str = "lasso"
    seed: int = 0
    gamma: object = None  # absolute number or "K2/10" / "K2+0.1"; None: instance default
    tol: float = 1e-9
    max_iter: int = 2000
    solvers: tuple = DEFAULT_COMPARISON
    out_dir: Optional[str] = None
    # problem-specific knobs; None leaves the constructor's default
    m: Optional[int] = None
    n: Optional[int] = None
    sparsity: Optional[int] = None
    mu: Optional[float] = None
    alpha: Optional[float] = None
    size: Optional[int] = None
    mask_density: Optional[float] = None
    # accepted and ignored, as is run_solver's `inner`: every x-oracle is
    # exact; kept only because perfbench/pipeline.py still sets both
    inner_steps: int = 20
    image: Optional[str] = None  # tv: PGM file, cropped to its top-left square

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem: unknown problem {self.problem!r}")
        if not 0 <= self.tol < math.inf:  # an infinite tol would stop every solve at k = 1
            raise ConfigError(f"tol: must be finite and nonnegative, got {self.tol!r}")
        if self.max_iter < 1:
            raise ConfigError("max_iter: must be at least 1")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps: must be at least 1")
        if not self.solvers:
            raise ConfigError("solvers: comparison set must not be empty")
        if self.gamma is not None:
            try:  # the rule's text, read with a placeholder ||K||
                resolve_gamma(self.gamma, norm_K=1.0)
            except ValueError:
                raise ConfigError(f"gamma: {self.gamma!r} is neither a number nor one of "
                                  f"{', '.join(GAMMA_RULES)}") from None
        self.solvers = tuple(
            s if isinstance(s, SolverSpec) else parse_solver_spec(s) for s in self.solvers)
        labels = [s.label for s in self.solvers]  # each names a trace file and a legend entry
        if len(set(labels)) < len(labels):
            raise ConfigError(f"solvers: {max(labels, key=labels.count)} appears more than once")


def build_instance(config):
    """Construct the gallery instance selected by a RunConfig.

    A set knob that the problem does not read (see GALLERY), an image file
    that cannot be read or decoded, and a constructor's ValueError (a size,
    density or angle out of range) are ConfigErrors.
    """
    make, reads = GALLERY[config.problem]
    knobs = {key: getattr(config, key) for key in KNOBS if getattr(config, key) is not None}
    for key in knobs:
        if key not in reads:
            raise ConfigError(f"{key}: problem {config.problem} does not read it")
    if "image" in knobs:
        if "size" in knobs:  # the image sets the size
            raise ConfigError("size: problem tv does not read it with an image")
        path = knobs["image"]
        try:
            with open(path, "rb") as fh:
                image = load_pgm(fh.read())
        except (OSError, FormatError) as exc:
            raise ConfigError(f"image: cannot read {path}: {exc}") from None
        side = min(image.shape)
        knobs["image"] = image[:side, :side]
    try:
        return make(seed=config.seed, **knobs)
    except ValueError as exc:
        raise ConfigError(f"{config.problem}: {exc}") from None


def penalty(config, instance):
    """The run's gamma: config.gamma's rule on the instance, else the instance default.

    A gamma that is not finite and positive, or a rule relative to ||K||^2
    on an instance without an operator norm, is a ConfigError.
    """
    if config.gamma is None:
        gamma = instance.gamma_default
    else:
        try:
            gamma = resolve_gamma(config.gamma, instance.norm_K)
        except ValueError:  # RunConfig checked the text: a rule on an instance without ||K||
            raise ConfigError(f"gamma: rule {config.gamma!r} needs ||K||, which a "
                              f"{config.problem} instance does not have") from None
    if not (math.isfinite(gamma) and gamma > 0):
        raise ConfigError(f"gamma: must be finite and positive, got {gamma:g}")
    return gamma


def provenance(label, instance):
    """Trace metadata naming the solver, the problem instance and the package version."""
    return {"solver": label, "problem": instance.descriptor,
            "seed": str(instance.seed), "version": __version__}


def _solver_pieces(spec, gamma, tol, max_iter, z0):
    cfg = SolverConfig(gamma=gamma, phi=spec.phi, variant=spec.variant, tol=tol,
                       max_iter=max_iter, z0=z0)
    extrap = ExtrapConfig(q=spec.q, s=spec.s) if spec.kind == "a3dmm" else None
    momentum = (spec.a, spec.b) if spec.kind == "iadmm" else None
    return cfg, extrap, momentum


# The standard scheme's fixed-point map is firmly nonexpansive, so ||v_k||
# never rises in exact arithmetic; once it is within this many eps of ||z_k||
# the iterates move by rounding alone.
FLOOR_FACTOR = 10.0
_EPS = np.finfo(float).eps


def compute_reference(instance, gamma, tol, max_iter):
    """Reference solution by standard ADMM steps through `a3dmm.iterate`, keeping no trace.

    On an instance with a unique solution or a certificate
    (`ProblemInstance.accelerated_reference`) the steps are accelerated as
    A3DMM(6, inf) with the ExtrapConfig defaults; other instances take plain
    steps only.  The stop rules are tested only after a plain step, one that
    started from z_bar = z, so one plain step moves the returned point by at
    most t/100, t = min(tol, CERTIFICATE_TOL), or it is at its rounding
    floor: ||v_k|| <= t/100 (stop "tol"), ||v_k|| <= FLOOR_FACTOR * eps *
    ||z_k|| (stop "floor").  10 * max_iter steps end the run in any case
    (stop "budget").  The instance's certificate, when it has one, is read
    at the final (x, y, psi) and held to CERTIFICATE_TOL, whatever the
    solvers' tol, so a loose tol cannot certify a point that solves
    nothing.  An accelerated run that applied a prediction, met a stop
    rule and fails its certificate is replaced by the plain run from z0; one
    that stopped on its budget solved nothing either way and is not run
    again.  Stores the Reference, with the number of predictions applied and
    the certificate, on the instance and returns it (`Reference.solved` is
    False when the stop is "budget" or the certificate failed); a non-finite
    ||v_k|| raises Divergence.
    """
    cfg = SolverConfig(gamma=gamma, tol=min(tol, CERTIFICATE_TOL) / 100.0,
                       max_iter=10 * max_iter, z0=instance.z0)
    reference = _reference_run(instance, cfg, instance.accelerated_reference)
    if reference.extrapolated and reference.stop != "budget" and not reference.solved:
        reference = _reference_run(instance, cfg, False)
    instance.reference = reference
    return reference


def _reference_run(instance, cfg, accelerate):
    """The steps of compute_reference under cfg, accelerated or plain; returns the Reference.

    `rule`, iterate's stop, names the stop rule a step meets; the last step
    meets none when the budget ran out.
    """
    def rule(state, nv, plain):
        if plain:
            if nv <= cfg.tol:
                return "tol"
            if nv <= FLOOR_FACTOR * _EPS * math.sqrt(float(state.z @ state.z)):
                return "floor"
        return None

    extrapolated = 0
    for state, nv, plain, applied in iterate(instance.problem, cfg,
                                             ExtrapConfig() if accelerate else None, stop=rule):
        extrapolated += applied is not None
    certify = instance.certificate
    return Reference(z=state.z.copy(), x=state.x.copy(), iterations=state.k,
                     stop=rule(state, nv, plain) or "budget", extrapolated=extrapolated,
                     certificate=None if certify is None
                     else certify(state.x, state.y, state.psi))


def run_spec(instance, spec, gamma, tol, max_iter, label=None):
    """Run one comparison entry against the instance's reference; returns the RunResult.

    The trace names the solver `label`, spec.label unless given.  A
    reference that stopped on its budget or failed its certificate solved
    nothing (`Reference.solved`), so against it the trace's distance columns
    stay empty.  On an instance whose fixed point may not be unique the
    reference's z is one of many, which a run need not approach, so the
    dist_z column stays empty there.
    """
    cfg, extrap, momentum = _solver_pieces(spec, gamma, tol, max_iter, instance.z0)
    reference = instance.reference
    if reference is not None and not reference.solved:
        reference = None
    elif reference is not None and not instance.unique_solution:
        reference = replace(reference, z=None)
    result = run_a3dmm(instance.problem, cfg, extrap=extrap, reference=reference,
                       momentum=momentum)
    result.trace.meta.update(provenance(label or spec.label, instance))
    return result


def run_solver(instance, spec, gamma, tol, max_iter, inner=None):
    """run_spec's trace: perfbench's entry point, kept with InnerSolver and inner_steps."""
    return run_spec(instance, spec, gamma, tol, max_iter).trace


def trace_file_name(label):
    """File-name stem of a solver label: "iadmm(0.3)" -> "iadmm_0p3"."""
    return label.replace("(", "_").replace(")", "").replace(",", "_").replace(".", "p")


def run_experiment(config):
    """Reference run followed by every solver in the comparison set.

    Returns (reference, traces), the traces one per solver in comparison-set
    order; writes them as CSV when config.out_dir is set.
    """
    instance = build_instance(config)
    gamma = penalty(config, instance)
    reference = compute_reference(instance, gamma, config.tol, config.max_iter)
    traces = [run_spec(instance, spec, gamma, config.tol, config.max_iter).trace
              for spec in config.solvers]
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        for trace in traces:
            name = trace_file_name(trace.meta["solver"])
            write_trace_csv(trace, os.path.join(config.out_dir, f"{name}.csv"))
    return reference, traces


# ---------------------------------------------------------------------------
# trace persistence

CSV_HEADER = "k,norm_v,cos_theta,dist_z,dist_x,objective,extrapolated,ms"


def _cell(value):
    # absent or non-finite quantities become empty cells, never NaN text
    if value is None or not math.isfinite(value):
        return ""
    return repr(float(value))


def write_trace_csv(trace, path):
    """Persist a trace: "# key=value" metadata lines, exact header, one row per iteration.

    Floats are serialized with repr so parsing them back is lossless; absent
    values become empty cells.
    """
    lines = [f"# {key}={trace.meta[key]}" for key in sorted(trace.meta)]
    lines.append(CSV_HEADER)
    for r in trace.rows:
        lines.append(",".join([
            str(r.k), _cell(r.norm_v), _cell(r.cos_theta), _cell(r.dist_z),
            _cell(r.dist_x), _cell(r.objective), "1" if r.extrapolated else "0",
            _cell(r.ms)]))
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG plots

_LOG_QUANTITIES = ("norm_v", "dist_z", "dist_x")
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x):
    return f"{x:.4f}".rstrip("0").rstrip(".")


def emit_plot_svg(traces, quantity, path):
    """Standalone 640 x 420 SVG of one trace column versus iteration.

    Distance-like quantities get a log y-axis (nonpositive samples are
    skipped); the legend uses each trace's solver id.  Output depends only on
    the input data, so identical runs give identical bytes.
    """
    series = []
    for trace in traces:
        pts = []
        for r in trace.rows:
            val = vars(r).get(quantity)
            if val is None:
                continue
            if quantity in _LOG_QUANTITIES and val <= 0.0:
                continue
            pts.append((r.k, val))
        if pts:
            series.append((trace.meta.get("solver", f"run{len(series)}"), pts))
    if not series:
        raise EmptySelection(f"no trace holds quantity {quantity!r}")

    log_y = quantity in _LOG_QUANTITIES
    xs = [k for _, pts in series for k, _ in pts]
    ys = [v for _, pts in series for _, v in pts]
    x_lo, x_hi = min(xs), max(xs)
    if log_y:
        y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    else:
        y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1
    width, height = 640, 420
    mleft, mright, mtop, mbot = 60, 20, 20, 40
    pw, ph = width - mleft - mright, height - mtop - mbot

    def sx(k):
        return mleft + pw * (k - x_lo) / (x_hi - x_lo)

    def sy(v):
        t = (math.log10(v) if log_y else v)
        return mtop + ph * (1.0 - (t - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{mleft}" y="{mtop}" width="{pw}" height="{ph}" fill="none" '
           f'stroke="#444" stroke-width="1"/>']
    # y ticks: decades when log, 5 linear ticks otherwise
    if log_y:
        ticks = range(math.ceil(y_lo), math.floor(y_hi) + 1)
        tick_vals = [(10.0 ** d, f"1e{d}") for d in ticks]
    else:
        tick_vals = [(y_lo + i * (y_hi - y_lo) / 4.0, "") for i in range(5)]
        tick_vals = [(v, _fmt(v)) for v, _ in tick_vals]
    for val, label in tick_vals:
        y = sy(10.0 ** math.log10(val) if log_y else val)
        out.append(f'<line x1="{mleft}" y1="{_fmt(y)}" x2="{width - mright}" '
                   f'y2="{_fmt(y)}" stroke="#ddd" stroke-width="1"/>')
        out.append(f'<text x="{mleft - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
                   f'font-size="11" font-family="sans-serif">{label}</text>')
    for i in range(5):
        k = x_lo + i * (x_hi - x_lo) / 4.0
        out.append(f'<text x="{_fmt(sx(k))}" y="{height - mbot + 16}" text-anchor="middle" '
                   f'font-size="11" font-family="sans-serif">{_fmt(k)}</text>')
    out.append(f'<text x="{mleft + pw / 2}" y="{height - 6}" text-anchor="middle" '
               f'font-size="12" font-family="sans-serif">k</text>')
    out.append(f'<text x="14" y="{mtop + ph / 2}" text-anchor="middle" font-size="12" '
               f'font-family="sans-serif" transform="rotate(-90 14 {mtop + ph / 2})">'
               f'{quantity}</text>')
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_fmt(sx(k))},{_fmt(sy(v))}" for k, v in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = mtop + 16 + 16 * i
        out.append(f'<line x1="{width - mright - 130}" y1="{ly - 4}" '
                   f'x2="{width - mright - 106}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{width - mright - 100}" y="{ly}" font-size="11" '
                   f'font-family="sans-serif">{label}</text>')
    out.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
