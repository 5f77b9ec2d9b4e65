"""Trajectory geometry and spectral diagnostics.

Covers the angle between consecutive difference vectors (whose limit
separates straight-line trajectories from spirals), principal and
Friedrichs angles between subspaces, the exact linearization matrix of the
splitting iteration in the polyhedral case, and the spectral-radius map of
the momentum-augmented iteration.  Complex arithmetic stays inside this
module.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np


class InsufficientData(ValueError):
    """Not enough valid angle samples for classification."""


class NotOrthonormal(ValueError):
    """Subspace basis columns are not orthonormal."""


class DegenerateIntersection(ValueError):
    """Friedrichs angle undefined: the subspaces coincide."""


STRAIGHT_LINE = "straight-line"
SPIRAL = "spiral"
UNDETERMINED = "undetermined"


def trajectory_angle(v, v_prev, norm_v, norm_v_prev):
    """cos of the angle between consecutive differences, clamped to [-1, 1].

    `norm_v` and `norm_v_prev` are the Euclidean norms of `v` and `v_prev`,
    which the solver loop already holds.  Returns None when either vector is
    numerically zero, so stagnation never propagates NaNs into the
    diagnostics.
    """
    if norm_v < 1e-300 or norm_v_prev < 1e-300:
        return None
    # min/max on the Python float match np.clip, NaN included, at a fraction of its cost
    return min(max(float(np.dot(v, v_prev)) / (norm_v * norm_v_prev), -1.0), 1.0)


# classification thresholds on the trailing mean and width of cos(theta_k)
STRAIGHT_GAP = 1e-3  # straight line: mean within this of 1
SPIRAL_GAP = 1e-2  # spiral: mean at least this far below 1 ...
OSCILLATION_BAND = 0.5  # ... and max - min at most this


@dataclass
class AngleSeries:
    """The trajectory classification of a cos(theta_k) series.

    `limit` estimates the limiting cosine from the trailing window and
    `band` is the half-width (max deviation) observed over that window.
    """

    classification: str = UNDETERMINED
    limit: Optional[float] = None
    band: Optional[float] = None


def classify_trajectory(values, window=50):
    """Classify the trailing `window` samples of a cos(theta_k) series.

    Straight line when the trailing mean is within STRAIGHT_GAP of 1; spiral
    when the trailing mean sits below 1 - SPIRAL_GAP and the values stay
    inside a band no wider than OSCILLATION_BAND (a settled constant or a
    bounded oscillation); undetermined otherwise, including series whose
    entries are mostly absent (stagnated runs).  A window below 1 raises
    ValueError, a series shorter than the window InsufficientData.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    values = list(values)
    if len(values) < window:
        raise InsufficientData(f"need {window} samples, have {len(values)}")
    valid = [c for c in values if c is not None]
    if len(valid) < window:
        return AngleSeries()
    tail = np.asarray(valid[-window:])
    mean = float(tail.mean())
    band = float(tail.max() - tail.min()) / 2.0
    tag = UNDETERMINED
    if mean >= 1.0 - STRAIGHT_GAP:
        tag = STRAIGHT_LINE
    elif mean <= 1.0 - SPIRAL_GAP and 2.0 * band <= OSCILLATION_BAND:
        tag = SPIRAL
    return AngleSeries(classification=tag, limit=mean, band=band)


def _check_orthonormal(U, tol=1e-10):
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[0] < U.shape[1]:
        raise NotOrthonormal("basis has more columns than rows")
    G = U.T @ U
    if np.abs(G - np.eye(U.shape[1])).max() > tol:
        raise NotOrthonormal("basis columns are not orthonormal")
    return U


def principal_angles(U1, U2):
    """Principal angles between span(U1) and span(U2), ascending in [0, pi/2].

    Cosines come from the singular values of U1^T U2; angles below pi/4 are
    recomputed from the sines (singular values of the residual U2 - P1 U2),
    since arccos cannot resolve angles under sqrt(eps).  Both bases must
    have orthonormal columns.
    """
    U1 = _check_orthonormal(U1)
    U2 = _check_orthonormal(U2)
    if U1.shape[0] != U2.shape[0]:
        raise ValueError("subspaces must live in the same ambient space")
    if U1.shape[1] < U2.shape[1]:
        U1, U2 = U2, U1
    G = U1.T @ U2
    cosines = np.clip(np.sort(np.linalg.svd(G, compute_uv=False))[::-1], 0.0, 1.0)
    sines = np.clip(np.sort(np.linalg.svd(U2 - U1 @ G, compute_uv=False)), 0.0, 1.0)
    angles = np.where(cosines ** 2 >= 0.5, np.arcsin(sines), np.arccos(cosines))
    return np.sort(angles)


def friedrichs_angle(U1, U2):
    """Smallest nonzero principal angle: the (d+1)-th with d = dim of the intersection.

    Raises DegenerateIntersection when the subspaces coincide; for a strict
    inclusion the angle is pi/2 by the empty-complement convention.
    """
    angles = principal_angles(U1, U2)
    d = int(np.sum(angles < 1e-8))  # an angle below 1e-8 counts as zero
    if d < angles.size:
        return float(angles[d])
    U1 = np.atleast_2d(np.asarray(U1, dtype=float))
    U2 = np.atleast_2d(np.asarray(U2, dtype=float))
    if U1.shape[1] == U2.shape[1]:
        raise DegenerateIntersection("subspaces coincide; no nonzero angle")
    return float(np.pi / 2.0)


def polyhedral_admm_matrix(T_ar, T_bj):
    """Exact difference-propagation matrix for locally polyhedral blocks.

    With P1, P2 the orthogonal projectors onto the two constraint-side
    tangent subspaces, returns M = P1 P2 + (I - P1)(I - P2).  M is normal and
    its nonreal eigenvalues have the form cos(a_j) e^{+-i a_j} for the
    nonzero principal angles a_j between the subspaces.
    """
    U1 = _check_orthonormal(T_ar)
    U2 = _check_orthonormal(T_bj)
    if U1.shape[0] != U2.shape[0]:
        raise ValueError("subspaces must live in the same ambient space")
    n = U1.shape[0]
    P1 = U1 @ U1.T
    P2 = U2 @ U2.T
    eye = np.eye(n)
    return P1 @ P2 + (eye - P1) @ (eye - P2)


def inertial_root_pair(eta, a):
    """Both roots of rho^2 - (1+a)*eta*rho + a*eta = 0."""
    eta = complex(eta)
    disc = (1.0 + a) ** 2 * eta * eta - 4.0 * a * eta
    root = cmath.sqrt(disc)
    return ((1.0 + a) * eta + root) / 2.0, ((1.0 + a) * eta - root) / 2.0


def inertial_spectral_radius(eta, a):
    """Largest modulus among the two momentum-augmented eigenvalues.

    `eta` is an eigenvalue of the underlying linear iteration, `a` the
    momentum coefficient; at a = 0 the radius is |eta|.
    """
    r1, r2 = inertial_root_pair(eta, a)
    return max(abs(r1), abs(r2))


@dataclass(frozen=True)
class RegimeRow:
    re_eta: float
    im_eta: float
    a: float
    rho_abs: float
    accelerates: bool
    converges: bool


def inertial_regime_map(etas, avals):
    """Sweep |rho| over an eta grid and a momentum grid.

    Each row records whether momentum helps (|rho| < |eta|) and whether the
    augmented iteration still converges (|rho| < 1).
    """
    rows = []
    for eta in etas:
        eta = complex(eta)
        for a in avals:
            r = inertial_spectral_radius(eta, float(a))
            rows.append(RegimeRow(re_eta=eta.real, im_eta=eta.imag, a=float(a),
                                  rho_abs=r, accelerates=r < abs(eta),
                                  converges=r < 1.0))
    return rows


def write_regime_csv(rows, path):
    """Write a regime-map sweep as CSV with one row per (eta, a) pair."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("re_eta,im_eta,a,rho_abs,accelerates,converges\n")
        for r in rows:
            fh.write(f"{r.re_eta!r},{r.im_eta!r},{r.a!r},{r.rho_abs!r},"
                     f"{int(r.accelerates)},{int(r.converges)}\n")
