"""One-step state transitions for the ADMM family and their dual fixed-point twins.

The solver state is the four-point tuple (x, y, psi, z) plus the latest
difference v = z - z_prev.  Steps consume the stepping point `z_bar`
carried by the state (z_bar = z when no acceleration is active) and update
the blocks in the order y -> psi -> x -> z, which confines any acceleration
of the iteration to the single variable z.  The dual steps run the same
fixed-point iteration through the conjugate proximal maps and serve as
equivalence oracles: Douglas-Rachford for the standard/relaxed scheme,
Peaceman-Rachford for the symmetric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .prox import LinearMap, ProxOracle


class BadRelaxation(ValueError):
    """Relaxation parameter outside the open interval (0, 2)."""


class SubproblemFailure(RuntimeError):
    """A prox subproblem could not be solved."""


class Divergence(RuntimeError):
    """Non-finite difference norms, or a blow-up of the symmetric scheme."""


VARIANTS = ("standard", "relaxed", "symmetric")


@dataclass
class SplitProblem:
    """Problem data for min R(x) + J(y) s.t. A x + B y = b.

    `prox_r` solves argmin R + (gamma/2)||A x - w||^2 and `prox_j` solves
    argmin J + (gamma/2)||B y - w||^2; the maps A, B are also carried
    explicitly for the multiplier and constraint algebra.
    """

    prox_r: ProxOracle
    prox_j: ProxOracle
    A: LinearMap
    B: LinearMap
    b: np.ndarray
    r_value: Optional[callable] = None
    j_value: Optional[callable] = None

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.A.rows != self.B.rows or self.A.rows != self.b.size:
            raise ValueError("A, B and b must agree on the constraint dimension")
        if self.A.cols != self.prox_r.dim or self.B.cols != self.prox_j.dim:
            raise ValueError("prox oracle dimensions must match the maps")

    @property
    def n(self):
        return self.A.cols

    @property
    def m(self):
        return self.B.cols

    @property
    def p(self):
        return self.b.size

    def objective(self, x, y):
        """Finite part of R(x) + J(y); indicator terms contribute zero."""
        val = 0.0
        if self.r_value is not None:
            val += self.r_value(x)
        if self.j_value is not None:
            val += self.j_value(y)
        return val


@dataclass
class IterateState:
    """Four-point state; `z_bar` is the point the next step starts from."""

    x: np.ndarray
    y: np.ndarray
    psi: np.ndarray
    z: np.ndarray
    z_bar: np.ndarray
    v: Optional[np.ndarray]
    k: int = 0

    @classmethod
    def initial(cls, problem, z0=None):
        p = problem.p
        z = np.zeros(p) if z0 is None else np.asarray(z0, dtype=float).copy()
        return cls(x=np.zeros(problem.n), y=np.zeros(problem.m),
                   psi=np.zeros(p), z=z, z_bar=z.copy(), v=None, k=0)


@dataclass
class SolverConfig:
    """Penalty, relaxation, scheme variant and stopping rule."""

    gamma: float
    phi: float = 1.0
    variant: str = "standard"
    tol: float = 1e-9
    max_iter: int = 1000
    z0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "relaxed" and not (0.0 < self.phi < 2.0):
            raise BadRelaxation(f"phi={self.phi} outside the open interval (0, 2)")


def _advance(problem, state, gamma, z_update):
    """Shared y -> psi -> x body; `z_update(psi, Ax, By)` picks the scheme."""
    zb = state.z_bar
    try:
        y = problem.prox_j.evaluate(problem.b - zb / gamma, gamma)
    except Exception as exc:  # noqa: BLE001 - oracle failures become solver errors
        raise SubproblemFailure("y-subproblem failed") from exc
    By = problem.B.apply(y)
    psi = zb + gamma * (By - problem.b)
    try:
        x = problem.prox_r.evaluate((zb - 2.0 * psi) / gamma, gamma)
    except Exception as exc:  # noqa: BLE001
        raise SubproblemFailure("x-subproblem failed") from exc
    Ax = problem.A.apply(x)
    z = z_update(psi, Ax, By)
    return IterateState(x=x, y=y, psi=psi, z=z, z_bar=z.copy(),
                        v=z - state.z, k=state.k + 1)


def admm_step(problem, state, gamma):
    """One standard ADMM step: z = psi + gamma * A x."""
    return _advance(problem, state, gamma,
                    lambda psi, Ax, By: psi + gamma * Ax)


def relaxed_step(problem, state, gamma, phi):
    """One relaxed step: z = psi + gamma * (phi*A x - (1 - phi)*(B y - b)).

    Reduces to `admm_step` at phi = 1; over-relaxed for phi in (1, 2).
    """
    if not (0.0 < phi < 2.0):
        raise BadRelaxation(f"phi={phi} outside the open interval (0, 2)")
    return _advance(problem, state, gamma,
                    lambda psi, Ax, By: psi + gamma * (phi * Ax - (1.0 - phi) * (By - problem.b)))


def symmetric_step(problem, state, gamma):
    """One symmetric (double multiplier update) step: z = psi + gamma*(2 A x + B y - b).

    Convergence needs stronger assumptions than the standard scheme; callers
    should watch for `Divergence`.
    """
    return _advance(problem, state, gamma,
                    lambda psi, Ax, By: psi + gamma * (2.0 * Ax + By - problem.b))


def variant_step(problem, state, config):
    """Dispatch on config.variant with config.gamma / config.phi."""
    if config.variant == "relaxed":
        return relaxed_step(problem, state, config.gamma, config.phi)
    if config.variant == "symmetric":
        return symmetric_step(problem, state, config.gamma)
    return admm_step(problem, state, config.gamma)


def inertial_predict(z, z_prev, z_prev2=None, a=0.0, b=0.0):
    """Momentum point z + a*(z - z_prev) + b*(z_prev - z_prev2)."""
    out = z + a * (z - z_prev)
    if b != 0.0:
        if z_prev2 is None:
            raise ValueError("three-point momentum needs z_prev2")
        out = out + b * (z_prev - z_prev2)
    return out


def _conjugate_prox(oracle, lin_map, w, gamma):
    """Resolvent of gamma * (f^* o -M^T) at w, via the primal oracle of f.

    Returns (u, xhat) with u = w + gamma * M xhat and
    xhat = argmin f + (gamma/2)||M x + w/gamma||^2.
    """
    xhat = oracle.evaluate(-w / gamma, gamma)
    return w + gamma * lin_map.apply(xhat), xhat


def dr_dual_step(problem, z, gamma, variant="standard", phi=1.0):
    """One dual fixed-point step on z; returns (u, z_next, psi).

    Runs Douglas-Rachford splitting on the dual problem (standard/relaxed)
    or Peaceman-Rachford (symmetric).  The z-sequence coincides with the one
    produced by the corresponding primal step functions.
    """
    try:
        psi, _y = _conjugate_prox(problem.prox_j, problem.B, z - gamma * problem.b, gamma)
        u, _x = _conjugate_prox(problem.prox_r, problem.A, 2.0 * psi - z, gamma)
    except SubproblemFailure:
        raise
    except Exception as exc:  # noqa: BLE001
        raise SubproblemFailure("dual resolvent failed") from exc
    if variant == "symmetric":
        z_next = z + 2.0 * (u - psi)
    elif variant == "relaxed":
        z_next = z + phi * (u - psi)
    else:
        z_next = z + (u - psi)
    return u, z_next, psi
