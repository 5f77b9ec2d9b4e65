"""Experiment harness: solver comparisons, trace persistence and plots.

A RunConfig names a gallery problem, a penalty rule and a comparison set of
solver specifications.  The harness first computes a reference solution by
standard ADMM steps that keep no trace; it stops at the first of
||v_k|| <= tol/100, the rounding floor ||v_k|| <= 10 eps ||z_k||, and 10x
the iteration budget.  It then runs every solver against the reference and
persists one CSV trace per solver.  Plot emission writes standalone,
byte-deterministic SVG files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .a3dmm import ExtrapConfig, checked_step, run_a3dmm
from .problems import (GAMMA_RULES, Reference, load_pgm, make_affine_constrained,
                       make_feasibility, make_lasso, make_qp_box, make_tv_inpainting,
                       resolve_gamma)
from .splitting import IterateState, SolverConfig
from .trace import Trace, TraceRow


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the field path."""


class EmptySelection(ValueError):
    """No trace holds the requested plot quantity."""


@dataclass(frozen=True)
class SolverSpec:
    """One entry of a comparison set.

    kind: "admm" | "iadmm" | "a3dmm" | "relaxed" | "symmetric".
    iadmm uses momentum (a, b); a3dmm uses window q and depth s.
    """

    kind: str = "admm"
    a: float = 0.0
    b: float = 0.0
    q: int = 6
    s: float = math.inf
    phi: float = 1.0

    @property
    def label(self):
        if self.kind == "iadmm":
            if self.b:
                return f"iadmm({self.a:g},{self.b:g})"
            return f"iadmm({self.a:g})"
        if self.kind == "a3dmm":
            s = "inf" if self.s == math.inf else f"{int(self.s)}"
            return f"a3dmm({self.q},{s})"
        if self.kind == "relaxed":
            return f"relaxed({self.phi:g})"
        return self.kind


def parse_solver_spec(text):
    """Parse "admm", "iadmm(0.3)", "iadmm(0.4,-0.2)", "a3dmm(6,inf)", "relaxed(1.5)", "symmetric"."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ConfigError(f"solvers: unbalanced parentheses in {text!r}")
        kind, args = text[:-1].split("(", 1)
        parts = [p.strip() for p in args.split(",")] if args.strip() else []
    else:
        kind, parts = text, []
    kind = kind.strip()
    try:
        if kind == "admm" or kind == "symmetric":
            if parts:
                raise ConfigError(f"solvers: {kind} takes no arguments")
            spec = SolverSpec(kind=kind)
        elif kind == "iadmm":
            if not 1 <= len(parts) <= 2:
                raise ConfigError("solvers: iadmm takes (a) or (a,b)")
            spec = SolverSpec(kind="iadmm", a=float(parts[0]),
                              b=float(parts[1]) if len(parts) == 2 else 0.0)
        elif kind == "a3dmm":
            if len(parts) != 2:
                raise ConfigError("solvers: a3dmm takes (q,s)")
            s = math.inf if parts[1] in ("inf", "Inf", "INF") else float(parts[1])
            spec = SolverSpec(kind="a3dmm", q=int(parts[0]), s=s)
        elif kind == "relaxed":
            if len(parts) != 1:
                raise ConfigError("solvers: relaxed takes (phi)")
            spec = SolverSpec(kind="relaxed", phi=float(parts[0]))
        else:
            raise ConfigError(f"solvers: unknown solver kind {kind!r}")
        # the range checks of the solver configs the spec turns into
        _solver_pieces(spec, gamma=1.0, tol=0.0, max_iter=1, z0=None)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"solvers: bad argument in {text!r}: {exc}") from None
    return spec


DEFAULT_COMPARISON = ("admm", "iadmm(0.3)", "a3dmm(6,100)", "a3dmm(6,inf)")
PROBLEMS = ("lasso", "bp-l1", "bp-l12", "bp-nuclear", "qp", "feasibility", "tv")


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
    # problem-specific knobs
    m: Optional[int] = None
    n: Optional[int] = None
    sparsity: Optional[int] = None
    mu: float = 1.0
    alpha: float = math.pi / 4
    size: int = 64
    mask_density: float = 0.5
    # accepted and ignored, as is run_solver's `inner`: every x-oracle is
    # exact; kept only because perfbench/pipeline.py still sets both
    inner_steps: int = 20
    image: Optional[str] = None  # tv: PGM file, cropped to its top-left square

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"problem: unknown problem {self.problem!r}")
        if self.tol < 0:
            raise ConfigError("tol: must be nonnegative")
        if self.max_iter < 1:
            raise ConfigError("max_iter: must be at least 1")
        if self.inner_steps < 1:
            raise ConfigError("inner_steps: must be at least 1")
        if not self.solvers:
            raise ConfigError("solvers: comparison set must not be empty")
        if self.gamma is not None and str(self.gamma).strip() not in GAMMA_RULES:
            try:
                float(self.gamma)
            except (TypeError, ValueError):
                raise ConfigError(f"gamma: {self.gamma!r} is neither a number nor one of "
                                  f"{', '.join(GAMMA_RULES)}") from None
        self.solvers = tuple(
            s if isinstance(s, SolverSpec) else parse_solver_spec(s) for s in self.solvers)


def build_instance(config):
    """Construct the gallery instance selected by a RunConfig.

    A constructor's ValueError (a size, density or angle out of range) is
    re-raised as a ConfigError.
    """
    c = config
    sizes = {key: value for key, value in (("m", c.m), ("n", c.n), ("sparsity", c.sparsity))
             if value is not None}
    image = None
    if c.problem == "tv" and c.image is not None:
        with open(c.image, "rb") as fh:
            image = load_pgm(fh.read())
        side = min(image.shape)
        image = image[:side, :side]
    try:
        if c.problem == "lasso":
            return make_lasso(mu=c.mu, seed=c.seed, **sizes)
        if c.problem.startswith("bp-"):
            return make_affine_constrained(regularizer=c.problem[3:], seed=c.seed, **sizes)
        if c.problem == "qp":
            return make_qp_box(n=c.n if c.n is not None else 50, seed=c.seed)
        if c.problem == "feasibility":
            return make_feasibility(alpha=c.alpha, seed=c.seed)
        if c.problem == "tv":
            return make_tv_inpainting(image=image, mask_density=c.mask_density,
                                      seed=c.seed, size=c.size)
    except ValueError as exc:
        raise ConfigError(f"{c.problem}: {exc}") from None
    raise ConfigError(f"problem: unknown problem {c.problem!r}")


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
    variant = "standard"
    phi = 1.0
    if spec.kind == "symmetric":
        variant = "symmetric"
    elif spec.kind == "relaxed":
        variant, phi = "relaxed", spec.phi
    cfg = SolverConfig(gamma=gamma, phi=phi, variant=variant, tol=tol,
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
    """Reference solution by standard ADMM steps that keep no trace.

    The steps stop at the first of ||v_k|| <= tol/100 (stop "tol"),
    ||v_k|| <= FLOOR_FACTOR * eps * ||z_k|| (stop "floor": the iteration has
    reached its rounding floor) and 10 * max_iter steps (stop "budget").
    Stores the Reference on the instance and returns it; a non-finite
    ||v_k|| raises Divergence.
    """
    problem = instance.problem
    cfg = SolverConfig(gamma=gamma, tol=tol / 100.0, max_iter=10 * max_iter,
                       z0=instance.z0)
    state = IterateState.initial(problem, cfg.z0)
    stop = "budget"
    for _ in range(cfg.max_iter):
        state, nv = checked_step(problem, state, cfg)
        if nv <= cfg.tol:
            stop = "tol"
            break
        if nv <= FLOOR_FACTOR * _EPS * math.sqrt(float(state.z @ state.z)):
            stop = "floor"
            break
    instance.reference = Reference(z=state.z.copy(), x=state.x.copy(), y=state.y.copy(),
                                   iterations=state.k, stop=stop)
    return instance.reference


def run_spec(instance, spec, gamma, tol, max_iter):
    """Run one comparison entry against the instance's reference; returns the RunResult."""
    cfg, extrap, momentum = _solver_pieces(spec, gamma, tol, max_iter, instance.z0)
    trace = Trace(meta=provenance(spec.label, instance))
    return run_a3dmm(instance.problem, cfg, extrap=extrap, trace=trace,
                     reference=instance.reference, momentum=momentum)


def run_solver(instance, spec, gamma, tol, max_iter, inner=None):
    """The trace of run_spec; `inner` is accepted and ignored (see RunConfig.inner_steps)."""
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
    traces = []
    for spec in config.solvers:
        trace = run_solver(instance, spec, gamma, config.tol, config.max_iter)
        traces.append(trace)
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


def read_trace_csv(path):
    """Inverse of write_trace_csv."""
    trace = Trace()
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            trace.meta[key] = value
        elif line:
            body.append(line)
    if not body or body[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing trace header")
    for line in body[1:]:
        cells = line.split(",")
        opt = lambda c: None if c == "" else float(c)
        trace.append(TraceRow(
            k=int(cells[0]), norm_v=float(cells[1]), cos_theta=opt(cells[2]),
            dist_z=opt(cells[3]), dist_x=opt(cells[4]), objective=opt(cells[5]),
            extrapolated=cells[6] == "1", ms=float(cells[7])))
    return trace


# ---------------------------------------------------------------------------
# SVG plots

_LOG_QUANTITIES = ("norm_v", "dist_z", "dist_x")
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x):
    return f"{x:.4f}".rstrip("0").rstrip(".")


def emit_plot_svg(traces, quantity, path, width=640, height=420):
    """Standalone SVG of one trace column versus iteration.

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
