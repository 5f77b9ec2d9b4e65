"""Trajectory-following vector extrapolation.

Given the recent difference vectors v_j = z_j - z_{j-1}, fit coefficients c
so that the newest difference is approximated by a linear combination of the
q older ones, propagate the fitted linear recurrence through the companion
matrix H(c), and predict future iterates by summing the predicted
differences: a finite power sum looks s steps ahead, the Neumann closed form
jumps to the recurrence's limit (minimal polynomial extrapolation, up to a
one-index shift).  All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


MAX_ORDER = 32  # largest companion matrix (window size q) spectral_radius accepts


class DimensionMismatch(ValueError):
    """Pushed vector does not match the window dimension."""


class InsufficientHistory(ValueError):
    """Not enough difference vectors collected yet."""


class EigenFailure(RuntimeError):
    """Eigenvalue computation failed or companion size out of range."""


class NearSingular(ValueError):
    """|1 - sum(c)| is too small for the limit formula."""


class DivergentSeries(ValueError):
    """Requested bound involves a divergent operator power series."""


class DiffWindow:
    """Fixed-capacity window of difference vectors, newest first.

    Pushing shifts every column by one and drops the oldest once the
    window is full.
    """

    def __init__(self, dim, capacity):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self._cols: list[np.ndarray] = []

    @property
    def count(self):
        return len(self._cols)

    @property
    def is_full(self):
        return len(self._cols) == self.capacity

    def column(self, j):
        """j-th newest difference (j = 0 is the latest)."""
        return self._cols[j]

    def matrix(self, limit=None):
        """Columns [v_k, v_{k-1}, ...] as a dim x count (or dim x limit) array."""
        cols = self._cols if limit is None else self._cols[:limit]
        return np.column_stack(cols) if cols else np.zeros((self.dim, 0))


def push_difference(window, v):
    """Insert v as the newest column of the window; returns the window."""
    v = np.asarray(v, dtype=float)
    if v.shape != (window.dim,):
        raise DimensionMismatch(f"expected dimension {window.dim}, got {v.shape}")
    window._cols.insert(0, v.copy())
    if len(window._cols) > window.capacity:
        window._cols.pop()
    return window


def companion_matrix(c):
    """H(c): first column c, identity on the upper-right (q-1) block.

    Its characteristic polynomial is z^q - c_1 z^{q-1} - ... - c_q, so its
    eigenvalues are the roots of the fitted difference recurrence.
    """
    c = np.asarray(c, dtype=float)
    q = c.size
    C = np.zeros((q, q))
    C[:, 0] = c
    if q > 1:
        C[: q - 1, 1:] = np.eye(q - 1)
    return C


def spectral_radius(C):
    """Largest eigenvalue modulus of a (small) companion matrix."""
    C = np.asarray(C, dtype=float)
    if C.shape[0] > MAX_ORDER:
        raise EigenFailure(f"companion of order {C.shape[0]} exceeds the supported {MAX_ORDER}")
    try:
        return float(np.max(np.abs(np.linalg.eigvals(C))))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure("eigenvalue computation failed") from exc


@dataclass(frozen=True)
class CompanionFit:
    """Least-squares recurrence fit: coefficients, companion, radius, residual."""

    c: np.ndarray
    companion: np.ndarray
    rho: float
    eps: float
    coeff_sum: float

    @property
    def q(self):
        return self.c.size


def fit_coefficients(window):
    """Fit c minimizing ||V_{k-1} c - v_k|| over the window's q+1 differences.

    The newest column is the target v_k, the older q columns form V_{k-1}.
    Rank-deficient windows get the minimum-norm solution, so a fully
    stagnated window yields c = 0 with eps = ||v_k||.
    """
    if not window.is_full or window.capacity < 2:
        raise InsufficientHistory(
            f"need {window.capacity} differences, have {window.count}")
    target = window.column(0)
    V_prev = window.matrix()[:, 1:]
    c, _res, _rank, _sv = np.linalg.lstsq(V_prev, target, rcond=None)
    eps = float(np.linalg.norm(V_prev @ c - target))
    C = companion_matrix(c)
    return CompanionFit(c=c, companion=C, rho=spectral_radius(C),
                        eps=eps, coeff_sum=float(np.sum(c)))


def _power_sum_first_column(C, s):
    """First column of sum_{i=1..s} C^i by repeated q-vector products."""
    q = C.shape[0]
    w = np.zeros(q)
    w[0] = 1.0
    acc = np.zeros(q)
    for _ in range(int(s)):
        w = C @ w
        acc += w
    return acc


def extrapolate_finite(z, window, fit, s):
    """Predict z_{k+s} as z_k + V_k (sum_{i=1..s} C^i) e_1.

    Exact when the fitted recurrence holds with zero residual.
    """
    if s < 1 or s != int(s):
        raise ValueError("s must be a positive integer")
    Vk = window.matrix(limit=fit.q)
    return z + Vk @ _power_sum_first_column(fit.companion, s)


def extrapolate_infinite(z, window, fit):
    """Limit of the fitted recurrence: z_{k-1} + V_k (I - C)^{-1} e_1.

    One q x q solve; requires rho(C) < 1 and 1 - sum(c) bounded away from
    zero (the closed form divides by it).
    """
    if fit.rho >= 1.0:
        raise ValueError("extrapolate_infinite called with rho(C) >= 1")
    if abs(1.0 - fit.coeff_sum) <= 1e-12:
        raise NearSingular(f"|1 - sum(c)| = {abs(1.0 - fit.coeff_sum):.3e}")
    q = fit.q
    e1 = np.zeros(q)
    e1[0] = 1.0
    w = np.linalg.solve(np.eye(q) - fit.companion, e1)
    Vk = window.matrix(limit=q)
    return (z - window.column(0)) + Vk @ w


def fitting_error_bound(fit, M_norms, s):
    """Amplification factor B_s of the fitting residual in the prediction error.

    B_s = sum_{l=1..s} ||M^l|| * |sum_{i=0..s-l} (C^i)_{(1,1)}| for finite s,
    and B_inf = |1 - sum(c)|^{-1} * sum_l ||M||^l.  `M_norms` supplies the
    operator norms ||M^l|| for l = 1..s (only the first entry is used for
    s = inf).  Diagnostic only; requires both spectral radii below one.
    """
    if fit.rho >= 1.0:
        raise DivergentSeries(f"rho(C) = {fit.rho:.6f} >= 1")
    if s == math.inf:
        nm = float(M_norms[0])
        if nm >= 1.0:
            raise DivergentSeries(f"||M|| = {nm:.6f} >= 1")
        return (nm / (1.0 - nm)) / abs(1.0 - fit.coeff_sum)
    s = int(s)
    if len(M_norms) < s:
        raise ValueError(f"need {s} operator norms, got {len(M_norms)}")
    C = fit.companion
    q = C.shape[0]
    # partial[t] = (sum_{i=0..t} C^i)_{(1,1)} for t = 0..s-1
    w = np.zeros(q)
    w[0] = 1.0
    running = w.copy()
    partial = [running[0]]
    for _ in range(s - 1):
        w = C @ w
        running = running + w
        partial.append(running[0])
    return float(sum(M_norms[ell - 1] * abs(partial[s - ell]) for ell in range(1, s + 1)))
