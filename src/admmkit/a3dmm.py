"""Adaptively accelerated ADMM: cadence control, guards and momentum.

`run_a3dmm` is the one solver entry point.  It performs plain steps of the
variant named in the SolverConfig (standard, relaxed or symmetric) and,
every `q + spacing` iterations once q+1 difference vectors are banked, fits
the difference recurrence and replaces the stepping point z_bar by the
trajectory-following prediction.  The prediction is applied only when the
fitted companion matrix is contractive, and an online safeguard caps the
applied increment so that the accumulated perturbations stay absolutely
summable, which preserves convergence of the underlying fixed-point
iteration.  Iterations without a prediction may take a momentum fill-in
instead.

`checked_step`, started from `IterateState.initial`, is the stepping core
that `run_a3dmm` shares with the traceless reference solve of
`bench.compute_reference`.  Every oracle is exact and stateless, so a run
needs no set-up beyond its initial state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import extrapolate as ex
from .splitting import Divergence, IterateState, inertial_predict, variant_step
from .spectra import trajectory_angle
from .trace import Trace, TraceRow


@dataclass
class ExtrapConfig:
    """Window size q, prediction depth s (int or math.inf) and guard constants.

    The cadence q_bar = q + spacing controls how often a prediction is
    attempted.  The default spacing of 2 is the smallest one for which the
    fitted window never contains the difference vector straddling the
    previous prediction jump (that vector does not follow the local linear
    recurrence, so windows containing it fit a corrupted model).

    The online rule a_k = min(a, b / (k^(1+delta) * scale)) bounds the
    applied increments; b is `guard_b_rel` times the first difference norm
    (`guard_b_rel` itself when that norm is zero), and the run records it as
    the trace metadata `guard_b`.  With `guard_on_increment` the scale is the
    increment norm itself, which makes ||a_k E_k|| <= b * k^-(1+delta) hold
    by construction; switching it off uses the difference norm
    ||z_k - z_{k-1}|| as the scale instead.
    """

    q: int = 6
    s: float = math.inf
    spacing: int = 2
    guard_a: float = 1.0
    guard_b_rel: float = 1e6
    guard_delta: float = 3.0
    guard_on_increment: bool = True

    def __post_init__(self):
        if not (1 <= self.q <= ex.MAX_ORDER):
            raise ValueError(f"window size q must lie in [1, {ex.MAX_ORDER}]")
        if self.spacing < 1:
            raise ValueError("cadence spacing must be at least 1")
        if self.s != math.inf and (self.s < 1 or int(self.s) != self.s):
            raise ValueError("s must be a positive integer or inf")
        if not (0.0 <= self.guard_a <= 1.0):
            raise ValueError("guard coefficient a must lie in [0, 1]")
        if self.guard_b_rel <= 0:
            raise ValueError("guard scale b_rel must be positive")
        if self.guard_delta <= 0:
            raise ValueError("guard exponent delta must be positive")

    @property
    def cadence(self):
        return self.q + self.spacing


@dataclass
class InnerSolver:
    """Inner step budget, accepted and ignored: every x-oracle is exact.

    Kept only because `perfbench/pipeline.py` still builds one; nothing in
    the package reads it.
    """

    max_steps: int = 20

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


def safeguard_coefficient(k, a, b, delta, increment_norm):
    """Online coefficient a_k = min(a, b / (k^(1+delta) * increment_norm)).

    A zero increment needs no damping, so a_k = a in that case.
    """
    if increment_norm == 0.0:
        return a
    return min(a, b / (k ** (1.0 + delta) * increment_norm))


@dataclass
class RunResult:
    state: IterateState
    trace: Trace
    converged: bool

    def __iter__(self):  # allows `state, trace = run_...`
        return iter((self.state, self.trace))


def _norm(v):
    """Euclidean norm of a 1-D float array, bit-identical to np.linalg.norm."""
    return math.sqrt(float(v @ v))


def checked_step(problem, state, config):
    """One step of config's variant from state.z_bar; returns (state, ||v_k||).

    A non-finite ||v_k|| raises Divergence.
    """
    state = variant_step(problem, state, config)
    nv = _norm(state.v)
    if not math.isfinite(nv):
        raise Divergence(f"||v_{state.k}|| is not finite")
    return state, nv


def _norm_or_none(a, b):
    return None if b is None else _norm(a - b)


def run_a3dmm(problem, config, extrap=None, trace=None, reference=None,
              momentum=None):
    """Run the accelerated solver; returns (final IterateState, Trace).

    With `extrap` None the trace is the plain variant scheme.
    `momentum=(a, b)` applies the two/three-point momentum fill-in at
    iterations without a prediction (pure inertial scheme when extrapolation
    is off).  `reference`, when given, carries `z` and `x` for the
    distance columns.  Stops at ||v_k|| <= tol or max_iter (soft, flagged in
    the trace metadata); a non-finite ||v_k|| raises Divergence.
    """
    cfg = config
    ext = extrap
    trace = trace if trace is not None else Trace()
    trace.meta.setdefault("gamma", repr(cfg.gamma))
    trace.meta.setdefault("variant", cfg.variant)
    if cfg.variant == "relaxed":
        trace.meta.setdefault("phi", repr(cfg.phi))
    if ext is not None:
        trace.meta.setdefault("q", str(ext.q))
        trace.meta.setdefault("s", "inf" if ext.s == math.inf else str(int(ext.s)))

    ref_z = reference.z if reference is not None else None
    ref_x = reference.x if reference is not None else None

    state = IterateState.initial(problem, cfg.z0)
    window = ex.DiffWindow(problem.p, ext.q + 1) if ext is not None else None
    z_prev2 = state.z.copy()  # z_{k-2} for three-point momentum
    v_prev = None
    nv_prev = None
    guard_b = None
    v1_norm = None
    converged = False
    t0 = time.perf_counter()

    for k in range(1, cfg.max_iter + 1):
        prev_z = state.z
        state, nv = checked_step(problem, state, cfg)
        v = state.v
        if k == 1:
            v1_norm = nv
            if ext is not None:
                guard_b = ext.guard_b_rel * nv if nv > 0 else ext.guard_b_rel
                trace.meta["guard_b"] = repr(guard_b)
        if cfg.variant == "symmetric" and v1_norm is not None and nv > 1e6 * max(v1_norm, 1e-30):
            raise Divergence(f"||v_{k}|| = {nv:.3e} exceeds 1e6 * ||v_1||")

        extrapolated = False
        if nv <= cfg.tol:
            converged = True
        else:
            if ext is not None:
                ex.push_difference(window, v)
                if k % ext.cadence == 0 and window.is_full:
                    fit = ex.fit_coefficients(window)
                    if fit.rho < 1.0 and (ext.s != math.inf
                                          or abs(1.0 - fit.coeff_sum) > 1e-12):
                        if ext.s == math.inf:
                            z_pred = ex.extrapolate_infinite(state.z, window, fit)
                        else:
                            z_pred = ex.extrapolate_finite(state.z, window, fit, ext.s)
                        incr = z_pred - state.z
                        scale = _norm(incr) if ext.guard_on_increment else nv
                        a_k = safeguard_coefficient(k, ext.guard_a, guard_b,
                                                    ext.guard_delta, scale)
                        if a_k > 0.0:
                            state.z_bar = state.z + a_k * incr
                            trace.applied_increments.append(_norm(a_k * incr))
                            extrapolated = True
            if not extrapolated and momentum is not None:
                a_m, b_m = momentum
                state.z_bar = inertial_predict(state.z, prev_z, z_prev2, a_m, b_m)

        trace.append(TraceRow(
            k=k, norm_v=nv,
            cos_theta=(trajectory_angle(v, v_prev, nv, nv_prev)
                       if v_prev is not None else None),
            dist_z=_norm_or_none(state.z, ref_z),
            dist_x=_norm_or_none(state.x, ref_x),
            objective=problem.objective(state.x, state.y),
            extrapolated=extrapolated,
            ms=(time.perf_counter() - t0) * 1e3))
        if converged:
            break
        v_prev, nv_prev = v, nv
        z_prev2 = prev_z

    trace.meta["converged"] = "1" if converged else "0"
    trace.meta["iterations"] = str(state.k)
    return RunResult(state=state, trace=trace, converged=converged)

