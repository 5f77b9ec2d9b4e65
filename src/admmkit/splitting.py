"""One-step state transitions for the ADMM family.

Every problem has the split form min R(x) + J(y) s.t. A x = y (the
constraint A x - y = 0 of Boyd et al. 2011).  The solver state is the
four-point tuple (x, y, psi, z) plus the latest difference v = z - z_prev.
The one primal step, `variant_step`, runs the variant a SolverConfig names
(standard, relaxed or symmetric).  It consumes the stepping point `z_bar`
carried by the state (z_bar = z when no acceleration is active; an
accelerator moves it with `IterateState.move_to`) and updates
the blocks in the order y -> psi -> x -> z, which confines any acceleration
of the iteration to the single variable z.  A step costs one call of each
oracle, one apply of A and a few vector passes.  On a split that declares a
wide least-squares y-block (`SplitProblem.wide_lsq`) the state also carries
the image K z, and K z_bar when it is known; the y-step then runs from the
image in place of `prox_j`, with one dense pass over K instead of two,
forms K A x from A x's few nonzero columns of K (gathered again only when
that support changes).  A prediction leaves K z_bar to be formed densely
by the next step, and so does momentum on any scheme but the standard one,
whose step absorbs an error in K z_bar (`momentum_move`).  Its dual
twin, which runs the same fixed-point
iteration through the conjugate proximal maps (Douglas-Rachford for the
standard/relaxed scheme, Peaceman-Rachford for the symmetric one), is the
tests' equivalence check and lives beside them in `tests/reference_twins.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .prox import LinearMap, ProxOracle, WideLeastSquares


class BadRelaxation(ValueError):
    """Relaxation parameter outside the open interval (0, 2)."""


class BadStart(ValueError):
    """Starting point z0 whose shape is not (p,)."""


class SubproblemFailure(RuntimeError):
    """A prox subproblem could not be solved."""


class Divergence(RuntimeError):
    """Non-finite difference norms, or a blow-up of the symmetric scheme."""


VARIANTS = ("standard", "relaxed", "symmetric")


@dataclass
class SplitProblem:
    """Problem data for min R(x) + J(y) s.t. A x = y.

    `prox_r` solves argmin R + (gamma/2)||A x - w||^2 and `prox_j` is J's
    own prox, argmin J + (gamma/2)||y - w||^2.  A is the identity on the
    x-block unless given, and is carried explicitly for the multiplier and
    constraint algebra.  `r_value(x)` and `j_value(y, psi)` give the finite
    parts of R and J; `j_value` also receives the step's multiplier psi,
    an element of the subdifferential of J at y.  `wide_lsq`, when given,
    declares J = 0.5||K y - f||^2 for a wide K: steps then carry K z beside
    z and take J's prox from it in place of `prox_j`.
    """

    prox_r: ProxOracle
    prox_j: ProxOracle
    A: Optional[LinearMap] = None
    r_value: Optional[callable] = None
    j_value: Optional[callable] = None
    wide_lsq: Optional[WideLeastSquares] = None

    def __post_init__(self):
        if self.A is None:
            self.A = LinearMap.identity(self.prox_r.dim)
        if self.A.cols != self.prox_r.dim or self.A.rows != self.prox_j.dim:
            raise ValueError("prox oracle dimensions must match A")
        if self.wide_lsq is not None and self.wide_lsq.K.shape[1] != self.prox_j.dim:
            raise ValueError("the wide least-squares design must act on the y-block")

    @property
    def n(self):
        return self.A.cols

    @property
    def m(self):
        return self.A.rows

    @property
    def p(self):
        return self.A.rows

    def objective(self, x, y, psi):
        """Finite part of R(x) + J(y); indicator terms contribute zero.

        psi is the multiplier of the step that produced y: y = prox_j(w)
        makes psi = gamma*(w - y) a subgradient of J at y, which lets a
        quadratic J be valued without applying its data matrix.
        """
        val = 0.0
        if self.r_value is not None:
            val += self.r_value(x)
        if self.j_value is not None:
            val += self.j_value(y, psi)
        return val


class IterateState:
    """Four-point state; `z_bar` is the point the next step starts from.

    A state starts at z_bar = z (with Kz_bar = Kz), and steps never write
    into a state's arrays, so after a plain step z_bar is z itself;
    extrapolation and momentum move it to a fresh point.  On a `wide_lsq`
    problem `Kz` is K z and `Kz_bar` is K z_bar or None when unknown.
    `move_to` is the one setter of z_bar, and it sets or clears the image
    with it, so a point set without its image never meets a stale one.
    `columns` is None or the (support, K[:, support]) pair from which the
    step formed K A x (`WideLeastSquares.image`); the next step reuses the
    gathered columns only when A x keeps that exact support, so they never
    depend on where z_bar was moved.
    """

    __slots__ = ("x", "y", "psi", "z", "v", "k", "Kz", "columns", "_z_bar", "_Kz_bar")

    def __init__(self, x, y, psi, z, v, k=0, Kz=None, columns=None):
        self.x, self.y, self.psi, self.z, self.v, self.k, self.Kz = x, y, psi, z, v, k, Kz
        self.columns = columns
        self.move_to(z, Kz)

    @property
    def z_bar(self):
        return self._z_bar

    @property
    def Kz_bar(self):
        return self._Kz_bar

    def move_to(self, z_bar, Kz_bar=None):
        """Make z_bar the next stepping point, with its image K z_bar when known."""
        self._z_bar = z_bar
        self._Kz_bar = Kz_bar

    @classmethod
    def initial(cls, problem, z0=None):
        p = problem.p
        z = np.zeros(p) if z0 is None else np.array(z0, dtype=float)
        if z.shape != (p,):
            raise BadStart(f"z0 has shape {z.shape}; expected ({p},)")
        lsq = problem.wide_lsq
        return cls(x=np.zeros(problem.n), y=np.zeros(problem.m), psi=np.zeros(p), z=z,
                   v=None, k=0, Kz=None if lsq is None else lsq.K @ z)


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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma={self.gamma} must be finite and positive")
        if not self.tol >= 0:
            raise ValueError(f"tol={self.tol} must be non-negative")
        if self.max_iter < 1:
            raise ValueError(f"max_iter={self.max_iter} must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant == "relaxed" and not (0.0 < self.phi < 2.0):
            raise BadRelaxation(f"phi={self.phi} outside the open interval (0, 2)")


def variant_step(problem, state, config):
    """One step of config.variant from state.z_bar: y -> psi -> x -> z.

    With gamma = config.gamma: y = prox_j(z_bar/gamma), psi = z_bar - gamma*y,
    x = prox_r((z_bar - 2psi)/gamma) and z = psi + gamma*u, where u is A x
    (standard), phi*A x + (1 - phi)*y (relaxed, phi = config.phi; over-relaxed
    for phi in (1, 2)) or 2 A x - y (symmetric, which needs stronger
    assumptions than the standard scheme; run_a3dmm watches it for
    Divergence).  On a `wide_lsq` problem the y-step runs from K z_bar
    (formed densely when the state does not carry it), with its K't panel
    order set by the parity of state.k, and returns t = K y,
    so K psi = K z_bar - gamma*t and the new image is
    K z = K z_bar + gamma*(K u - t), with K A x formed from A x's nonzero
    columns of K, gathered again only when that support differs from the
    one state.columns holds.  At gamma = 1 it skips dividing z_bar and
    z_bar - 2psi by gamma and multiplying y and u by it (a/1.0 and 1.0*a
    are a, bit for bit), and hands z_bar itself to the y-oracle, which must
    not write into it.  Writes only into arrays it made.
    """
    gamma = config.gamma
    unit = gamma == 1.0
    zb = state.z_bar
    lsq = problem.wide_lsq
    try:
        if lsq is None:
            y = problem.prox_j.evaluate(zb if unit else zb / gamma, gamma)
        else:
            Kzb = state.Kz_bar
            if Kzb is None:
                Kzb = lsq.K @ zb
            y, t = lsq.prox(zb, Kzb, gamma, state.k)
    except Exception as exc:  # noqa: BLE001 - oracle failures become solver errors
        raise SubproblemFailure("y-subproblem failed") from exc
    if unit:
        psi = zb - y
    else:
        psi = gamma * y
        np.subtract(zb, psi, out=psi)
    w = 2.0 * psi
    np.subtract(zb, w, out=w)
    if not unit:
        w /= gamma
    try:
        x = problem.prox_r.evaluate(w, gamma)
    except Exception as exc:  # noqa: BLE001
        raise SubproblemFailure("x-subproblem failed") from exc
    Ax = problem.A.apply(x)
    u = _combine(config, Ax, y)
    if unit:
        z = u + psi
    else:
        z = gamma * u
        z += psi
    Kz = columns = None
    if lsq is not None:
        KAx, columns = lsq.image(Ax, state.columns)
        Kz = _combine(config, KAx, t)
        Kz -= t
        Kz *= gamma
        Kz += Kzb
    return IterateState(x=x, y=y, psi=psi, z=z, v=z - state.z, k=state.k + 1, Kz=Kz,
                        columns=columns)


def _combine(config, Ax, y):
    """The u of config.variant from A x and y: A x, phi*A x + (1 - phi)*y or 2 A x - y.

    Images combine the same way (K A x and K y in place of A x and y).
    """
    if config.variant == "symmetric":
        u = 2.0 * Ax
        u -= y
    elif config.variant == "relaxed":
        u = config.phi * Ax
        u += (1.0 - config.phi) * y
    else:
        u = Ax
    return u


def inertial_predict(z, z_prev, z_prev2=None, a=0.0, b=0.0):
    """Momentum point z + a*(z - z_prev) + b*(z_prev - z_prev2)."""
    out = z + a * (z - z_prev)
    if b != 0.0:
        if z_prev2 is None:
            raise ValueError("three-point momentum needs z_prev2")
        out = out + b * (z_prev - z_prev2)
    return out


def momentum_move(state, prev, prev2, momentum, config):
    """Move state's stepping point to the momentum point of its z and the two earlier states' z.

    With momentum = (a, b), z_bar = z + a*(z - z_prev) + b*(z_prev - z_prev2)
    (`inertial_predict`).  On a `wide_lsq` problem the image moves with the
    point only on the standard scheme, whose step absorbs an error in K z_bar
    exactly; a relaxed step passes (1 - phi) times it on to K z and a
    symmetric step minus it, which momentum's (1 + a)*e_k - a*e_{k-1} would
    amplify.  On those schemes the next step forms K z_bar densely.
    """
    a, b = momentum
    z_bar = inertial_predict(state.z, prev.z, prev2.z, a, b)
    if state.Kz is None or config.variant != "standard":
        state.move_to(z_bar)
    else:
        state.move_to(z_bar, inertial_predict(state.Kz, prev.Kz, prev2.Kz, a, b))
