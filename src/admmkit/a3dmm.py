"""Adaptively accelerated ADMM: cadence control, guards and momentum.

`iterate` is the one iteration loop.  It performs plain steps of the
variant named in the SolverConfig (standard, relaxed or symmetric) and,
every `q + SPACING` iterations once q+1 difference vectors are banked, fits
the difference recurrence and replaces the stepping point z_bar by the
trajectory-following prediction.  The prediction is applied only when the
fitted companion matrix is contractive, and an online safeguard caps the
applied increment so that the accumulated perturbations stay absolutely
summable, which preserves convergence of the underlying fixed-point
iteration.  Iterations without a prediction may take a momentum fill-in
instead.  Every step is one `splitting.variant_step` from `IterateState.initial`.
`run_a3dmm`, the one solver entry point, records its steps in a trace, and
`bench.compute_reference` steps it under the reference's stop rules.  Every
oracle is exact and stateless, so a run needs no set-up beyond its initial state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import extrapolate as ex
from .splitting import Divergence, IterateState, momentum_move, variant_step
from .spectra import trajectory_angle
from .trace import Trace, TraceRow


# The cadence is q + SPACING.  2 is the smallest spacing for which the fitted
# window never contains the difference vector straddling the previous
# prediction jump (that vector does not follow the local linear recurrence,
# so windows containing it fit a corrupted model).
SPACING = 2


@dataclass
class ExtrapConfig:
    """Window size q, prediction depth s (int or math.inf) and the safeguard's b and delta.

    A prediction is attempted every `cadence` = q + SPACING iterations.  The
    online rule a_k = min(1, b / (k^(1+delta) * ||E_k||)) damps the
    increment E_k, so ||a_k E_k|| <= b * k^-(1+delta) holds by construction
    and the applied increments are summable; b is `guard_b_rel` times the
    first difference norm (`guard_b_rel` itself when that norm is zero), and
    the run records it as the trace metadata `guard_b`.
    """

    q: int = 6
    s: float = math.inf
    guard_b_rel: float = 1e6
    guard_delta: float = 3.0

    def __post_init__(self):
        if not (1 <= self.q <= ex.MAX_ORDER):
            raise ValueError(f"window size q must lie in [1, {ex.MAX_ORDER}]")
        if not (self.s == math.inf or (self.s >= 1 and int(self.s) == self.s)):
            raise ValueError("s must be a positive integer or inf")
        if not 0 < self.guard_b_rel < math.inf:  # NaN or inf would void the safeguard
            raise ValueError(f"guard scale b_rel must be finite and positive: {self.guard_b_rel}")
        if not 0 < self.guard_delta < math.inf:
            raise ValueError(f"guard delta must be finite and positive: {self.guard_delta}")

    @property
    def cadence(self):
        return self.q + SPACING

    def guard_b(self, v1_norm):
        """The safeguard scale b of a run whose first difference has norm v1_norm."""
        return self.guard_b_rel * v1_norm if v1_norm > 0 else self.guard_b_rel


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


def safeguard_coefficient(k, b, delta, increment_norm):
    """Online coefficient a_k = min(1, b / (k^(1+delta) * increment_norm)).

    A zero increment needs no damping, so a_k = 1 in that case.
    """
    if increment_norm == 0.0:
        return 1.0
    return min(1.0, b / (k ** (1.0 + delta) * increment_norm))


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


def _predict(window, ext, guard_b, state):
    """Move state to its guarded prediction; returns the applied increment's norm or None.

    Fits the full window and, if the companion is contractive (and, for
    s = inf, |1 - sum(c)| > NEAR_SINGULAR_SUM), sets z_bar = z_k + a_k
    (z_{k+s} - z_k) without an image (the next step forms K z_bar densely
    on a problem that carries one).
    """
    fit = ex.fit_coefficients(window)
    if not (fit.rho < 1.0 and (ext.s != math.inf
                               or abs(1.0 - fit.coeff_sum) > ex.NEAR_SINGULAR_SUM)):
        return None
    if ext.s == math.inf:
        z_pred = ex.extrapolate_infinite(state.z, window, fit)
    else:
        z_pred = ex.extrapolate_finite(state.z, window, fit, ext.s)
    incr = z_pred - state.z
    incr_norm = _norm(incr)
    a_k = safeguard_coefficient(state.k, guard_b, ext.guard_delta, incr_norm)
    if not a_k > 0.0:
        return None
    if a_k != 1.0:
        incr *= a_k
        incr_norm = _norm(incr)
    state.move_to(state.z + incr)
    return incr_norm


def iterate(problem, config, extrap=None, momentum=None, stop=None):
    """Step config's variant from config.z0; yields (state, ||v_k||, plain, applied).

    `plain` says the step started from z_bar = z; `applied` is the applied
    prediction increment's norm, or None.  `stop(state, nv, plain)` is tested
    after each step, before the stepping point moves (default: ||v_k|| <=
    config.tol); a step that meets it is yielded unmoved and ends the run, as
    config.max_iter steps do.  Otherwise `extrap` banks v_k and moves the
    stepping point to the guarded prediction at a cadence point with a full
    window; a step without one takes the fill-in `momentum=(a, b)` if given,
    from the states one and two steps back (`splitting.momentum_move`, which
    decides whether a carried image moves with the point).  A non-finite
    ||v_k|| raises Divergence, as does a symmetric-scheme ||v_k|| above
    1e6 * ||v_1||.
    """
    stop = stop or (lambda state, nv, plain: nv <= config.tol)
    state = IterateState.initial(problem, config.z0)
    window = ex.DiffWindow(problem.p, extrap.q + 1) if extrap is not None else None
    # prev and prev2, the states one and two steps back, are kept for momentum only
    prev = state if momentum is not None else None
    for k in range(1, config.max_iter + 1):
        plain = state.z_bar is state.z
        if momentum is not None:
            prev2, prev = prev, state
        state = variant_step(problem, state, config)
        nv = _norm(state.v)
        if not math.isfinite(nv):
            raise Divergence(f"||v_{k}|| is not finite")
        if k == 1:
            v1_norm = nv
            guard_b = extrap.guard_b(nv) if extrap is not None else None
        if config.variant == "symmetric" and nv > 1e6 * max(v1_norm, 1e-30):
            raise Divergence(f"||v_{k}|| = {nv:.3e} exceeds 1e6 * ||v_1||")
        if stop(state, nv, plain):
            yield state, nv, plain, None
            return
        applied = None
        if extrap is not None:
            ex.push_difference(window, state.v)
            if k % extrap.cadence == 0 and window.is_full:
                applied = _predict(window, extrap, guard_b, state)
        if applied is None and momentum is not None:
            momentum_move(state, prev, prev2, momentum, config)
        yield state, nv, plain, applied


def _dist(a, b, buf):
    """||a - b|| formed in buf, or None without a reference b."""
    return None if b is None else _norm(np.subtract(a, b, out=buf))


def run_a3dmm(problem, config, extrap=None, reference=None, momentum=None):
    """Run the accelerated solver; returns (final IterateState, Trace).

    The trace records every step of `iterate`, which stops at
    ||v_k|| <= tol or max_iter (soft, flagged in the trace metadata), and
    its metadata holds the run's settings.  With `extrap` None the trace is
    the plain variant scheme.  `momentum=(a, b)` applies the two/three-point
    momentum fill-in at iterations without a prediction (pure inertial
    scheme when extrapolation is off).  `reference`, when given, carries `z`
    and `x` for the distance columns (a None `z` leaves dist_z empty).
    """
    trace = Trace(meta={"gamma": repr(config.gamma), "variant": config.variant})
    if config.variant == "relaxed":
        trace.meta["phi"] = repr(config.phi)
    if extrap is not None:
        trace.meta["q"] = str(extrap.q)
        trace.meta["s"] = "inf" if extrap.s == math.inf else str(int(extrap.s))

    ref_z, ref_x = (reference.z, reference.x) if reference is not None else (None, None)
    buf_z, buf_x = np.empty(problem.p), np.empty(problem.n)
    v_prev = nv_prev = None
    t0 = time.perf_counter()
    for state, nv, _, applied in iterate(problem, config, extrap, momentum):
        if state.k == 1 and extrap is not None:
            trace.meta["guard_b"] = repr(extrap.guard_b(nv))
        if applied is not None:
            trace.applied_increments.append(applied)
        trace.append(TraceRow(
            k=state.k, norm_v=nv,
            cos_theta=(trajectory_angle(state.v, v_prev, nv, nv_prev)
                       if v_prev is not None else None),
            dist_z=_dist(state.z, ref_z, buf_z),
            dist_x=_dist(state.x, ref_x, buf_x),
            objective=problem.objective(state.x, state.y, state.psi),
            extrapolated=applied is not None,
            ms=(time.perf_counter() - t0) * 1e3))
        v_prev, nv_prev = state.v, nv

    converged = nv <= config.tol  # iterate's default stop, met only by its last step
    trace.meta["converged"] = "1" if converged else "0"
    trace.meta["iterations"] = str(state.k)
    return RunResult(state=state, trace=trace, converged=converged)

