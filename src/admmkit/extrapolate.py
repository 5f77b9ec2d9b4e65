"""Trajectory-following vector extrapolation.

Given the recent difference vectors v_j = z_j - z_{j-1}, fit coefficients c
so that the newest difference is approximated by a linear combination of the
q older ones, propagate the fitted linear recurrence through the companion
matrix H(c), and predict future iterates by summing the predicted
differences: a finite power sum looks s steps ahead, the Neumann closed form
jumps to the recurrence's limit (minimal polynomial extrapolation, up to a
one-index shift).

The window is one preallocated (q+1) x p array used as a ring; the fit and
both predicts read its rows in place.  Fit numerics: the Gram matrix of the
ring (one (q+1) x (q+1) product) gives the normal equations for c, solved
through one small symmetric eigendecomposition at lstsq's default cut (the
normal matrix is positive semidefinite, so its eigenvalues are its singular
values), followed by one refinement step from the residual vector
r = V_{k-1} c - v_k (corrected semi-normal equations), which restores the
accuracy the squared condition number costs.  A window too ill-conditioned
for that (cond(V_{k-1}) > GRAM_COND_LIMIT) is fitted through one
Householder QR of the ring instead.  The fit residual eps is ||r|| of the
final residual vector, never a Gram formula.  Rank-deficient windows get
the minimum-norm c, so a fully stagnated window gives c = 0 and
eps = ||v_k||.  The limit predict solves nothing: (I - C)^{-1} e_1 is a
closed form in the suffix sums of c.  Apart from `push_difference`, which
writes into its window, all functions are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeev, dgeqrf, dgesdd, dsyev


MAX_ORDER = 32  # largest companion matrix (window size q) spectral_radius accepts
NEAR_SINGULAR_SUM = 1e-12  # the limit predict refuses a fit with |1 - sum(c)| at most this
_EPS = np.finfo(float).eps


class DimensionMismatch(ValueError):
    """Pushed vector does not match the window dimension."""


class InsufficientHistory(ValueError):
    """Not enough difference vectors collected yet."""


class EigenFailure(RuntimeError):
    """A fit met a non-finite window, a LAPACK routine failed, or the companion is out of range."""


class NearSingular(ValueError):
    """|1 - sum(c)| is too small for the limit formula."""


class DivergentSeries(ValueError):
    """Requested bound involves a divergent operator power series."""


class DiffWindow:
    """Fixed-capacity window of difference vectors, newest first.

    The differences live in one preallocated capacity x dim array used as a
    ring: a push overwrites the oldest row in place and moves the ring index,
    so nothing is shifted, stacked or reallocated.
    """

    def __init__(self, dim, capacity):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.dim = int(dim)
        self.capacity = int(capacity)
        self.rows = np.zeros((self.capacity, self.dim))  # the ring, in storage order
        self.count = 0
        self._newest = -1  # ring row of the latest difference
        # row i: the ring rows newest first when ring row i holds the latest difference
        span = np.arange(self.capacity)
        self._orders = (span[:, None] - span) % self.capacity
        self._orders.flags.writeable = False

    @property
    def is_full(self):
        return self.count == self.capacity

    def slots(self, limit=None):
        """Ring rows of the newest `limit` (default: all held) differences, newest first."""
        n = self.count if limit is None else min(limit, self.count)
        return self._orders[self._newest, :n]

    def column(self, j):
        """j-th newest difference (j = 0 is the latest), as a read-only view.

        The view is overwritten by the push that evicts it.
        """
        if not 0 <= j < self.count:
            raise IndexError(f"window holds {self.count} differences, asked for #{j}")
        col = self.rows[(self._newest - j) % self.capacity]
        col.flags.writeable = False
        return col

    def matrix(self, limit=None):
        """Columns [v_k, v_{k-1}, ...] as a fresh dim x count (or dim x limit) array."""
        return self.rows[self.slots(limit)].T


def push_difference(window, v):
    """Copy v into the window as its newest difference; returns the window."""
    v = np.asarray(v, dtype=float)
    if v.shape != (window.dim,):
        raise DimensionMismatch(f"expected dimension {window.dim}, got {v.shape}")
    window._newest = (window._newest + 1) % window.capacity
    window.rows[window._newest] = v
    window.count = min(window.count + 1, window.capacity)
    return window


@functools.lru_cache(maxsize=MAX_ORDER)
def _shift_block(q):
    """The q x q companion without its first column: ones on the superdiagonal."""
    S = np.eye(q, k=1)
    S.flags.writeable = False
    return S


def companion_matrix(c):
    """H(c): first column c, identity on the upper-right (q-1) block.

    Its characteristic polynomial is z^q - c_1 z^{q-1} - ... - c_q, so its
    eigenvalues are the roots of the fitted difference recurrence.
    """
    C = _shift_block(len(c)).copy()
    C[:, 0] = c
    return C


def spectral_radius(C):
    """Largest eigenvalue modulus of a (small) companion matrix (LAPACK dgeev)."""
    C = np.asarray(C, dtype=float)
    if C.shape[0] > MAX_ORDER:
        raise EigenFailure(f"companion of order {C.shape[0]} exceeds the supported {MAX_ORDER}")
    if not np.isfinite(C).all():
        raise EigenFailure("companion has non-finite entries")
    wr, wi, _, _, info = dgeev(C, compute_vl=0, compute_vr=0)
    if info != 0:
        raise EigenFailure(f"eigenvalue computation failed (dgeev info {info})")
    return float(np.hypot(wr, wi).max())


@dataclass(frozen=True)
class CompanionFit:
    """Least-squares recurrence fit: coefficients, companion, radius, residual."""

    c: np.ndarray
    companion: np.ndarray
    rho: float
    eps: float
    coeff_sum: float


# Largest cond(V_{k-1}) fitted through the Gram matrix: with one refinement
# step that fits random order-q recurrences to 3e-13 relative residual up to
# 1e6 but misses 1e-10 from about 3e6 on.  The QR route past it costs about
# 1.6x as much at p = 18432; benchmark windows measured at most 2.4e6.
GRAM_COND_LIMIT = 1e6


def _pinv_factors(M):
    """(A, B) with pinv(M) = A @ B, from one SVD of a small M.

    Singular values at or below max(M.shape) * machine-eps times the largest
    are dropped, the cut `np.linalg.lstsq(M, b, rcond=None)` makes; applying
    A @ (B @ b) keeps lstsq's accuracy, an explicit pinv(M) loses it.
    """
    U, sv, Vt, info = dgesdd(M)
    if info != 0:
        raise EigenFailure(f"SVD did not converge (dgesdd info {info})")
    rank = np.count_nonzero(sv > max(M.shape) * _EPS * sv[0])  # sv is descending
    return Vt[:rank].T / sv[:rank], U[:, :rank].T


def fit_coefficients(window):
    """Fit c minimizing ||V_{k-1} c - v_k|| over the window's q+1 differences.

    The newest column is the target v_k, the older q columns form V_{k-1}.
    Numerics (corrected semi-normal equations): one product W W' of the ring
    W gives the Gram matrix of all q+1 differences; c solves its q x q block
    G' = V_{k-1}' V_{k-1} through one symmetric eigendecomposition of G'
    (LAPACK dsyev; G' is positive semidefinite, so its eigenvalues are its
    singular values), cut as lstsq(rcond=None) cuts: eigenvalues at or
    below q * machine-eps times the largest are dropped.  It then takes one
    refinement step from the residual vector r = V_{k-1} c - v_k,
    c -= pinv(G') V_{k-1}' r, which recovers the accuracy the squared
    condition number of G' costs.  When the eigenvalues put cond(V_{k-1})
    above GRAM_COND_LIMIT, c instead solves min ||R_prev c - R_target|| over
    the columns of R from one Householder QR W' = Q R of the ring (LAPACK
    dgeqrf) and one SVD of R_prev, which never squares the condition number.
    eps is ||r|| of the final residual vector, never read off G (that
    cancels catastrophically near a perfect fit).  Rank-deficient windows
    get the minimum-norm solution, so a fully stagnated window yields c = 0
    with eps = ||v_k||.  A Gram matrix that is not finite (a window holding
    NaN or inf, or one whose products overflow) and a LAPACK routine that
    reports failure raise EigenFailure.  Cost: four passes over the
    (q+1) x p ring plus one q x q eigendecomposition and one q x q dgeev for
    rho, and the QR's passes over a copy of the ring when it is taken.
    """
    if not window.is_full or window.capacity < 2:
        raise InsufficientHistory(
            f"need {window.capacity} differences, have {window.count}")
    W = window.rows
    n = window.capacity
    order = window.slots()
    target, prev = order[0], order[1:]
    # W W' in four-column blocks: on a 7 x 18432 ring, single-threaded OpenBLAS
    # 0.3.31 (Xeon) takes 0.35 ms in dsyrk and in 7-column dgemm, 0.1 ms this way
    G = np.empty((n, n))
    for j in range(0, n, 4):
        G[:, j:j + 4] = W @ W[j:j + 4].T
    if not np.isfinite(G).all():  # a NaN or inf in the window, or a product that overflows
        raise EigenFailure("the window's Gram matrix is not finite")
    G = G.take(order, 0).take(order, 1)  # newest first
    lam, Q, info = dsyev(G[1:, 1:])  # eigenvalues ascending
    if info != 0:
        raise EigenFailure(f"eigendecomposition did not converge (dsyev info {info})")
    a = np.empty(n)  # residual weights in ring order
    a[target] = -1.0
    if lam[-1] <= GRAM_COND_LIMIT ** 2 * lam[0]:  # cond(G') = cond(V_{k-1})^2
        cut = np.count_nonzero(lam <= (n - 1) * _EPS * lam[-1])
        A, B = Q[:, cut:] / lam[cut:], Q[:, cut:].T
        c = A @ (B @ G[1:, 0])
        a[prev] = c
        r = a @ W
        c = c - A @ (B @ (W @ r)[prev])
    else:
        qr, _, _, info = dgeqrf(W.T)  # W.T is Fortran-ordered: dgeqrf copies it
        if info != 0:
            raise EigenFailure(f"QR failed (dgeqrf info {info})")
        R = np.triu(qr[:n])  # p < q+1 leaves R with p rows
        A, B = _pinv_factors(R[:, prev])
        c = A @ (B @ R[:, target])
    a[prev] = c
    r = a @ W
    C = companion_matrix(c)
    return CompanionFit(c=c, companion=C, rho=spectral_radius(C), eps=math.sqrt(r @ r),
                        coeff_sum=float(c.sum()))


def _power_sum_first_column(C, s):
    """First column of sum_{i=1..s} C^i by binary doubling, O(q^3 log s).

    With P_n = sum_{i=1..n} C^i e_1: P_2n = P_n + C^n P_n and
    P_{n+1} = C (e_1 + P_n), walking the bits of s from the top.
    """
    s = int(s)
    e1 = np.zeros(C.shape[0])
    e1[0] = 1.0
    P, Cn = C[:, 0].copy(), C  # n = 1
    for bit in bin(s)[3:]:
        P = P + Cn @ P
        Cn = Cn @ Cn
        if bit == "1":
            P = C @ (e1 + P)
            Cn = C @ Cn
    return P


def _combine(z, window, w):
    """z + sum_j w_j v_{k-j}, read straight from the ring rows."""
    a = np.zeros(window.capacity)
    a[window.slots(w.size)] = w
    return z + a @ window.rows


def extrapolate_finite(z, window, fit, s):
    """Predict z_{k+s} as z_k + V_k (sum_{i=1..s} C^i) e_1.

    Exact when the fitted recurrence holds with zero residual.
    """
    if s < 1 or s != int(s):
        raise ValueError("s must be a positive integer")
    return _combine(z, window, _power_sum_first_column(fit.companion, s))


def extrapolate_infinite(z, window, fit):
    """Limit of the fitted recurrence: z_{k-1} + V_k (I - C)^{-1} e_1.

    The Neumann weights w = (I - C)^{-1} e_1 of a companion C have a closed
    form in the suffix sums S_i = c_i + ... + c_{q-1} of its coefficients:
    w_0 = 1/(1 - S_0) and w_i = S_i/(1 - S_0), so with the z_{k-1} shift
    the weights are S/(1 - S_0).  Requires rho(C) < 1 and 1 - sum(c)
    bounded away from zero (the closed form divides by it).
    """
    if fit.rho >= 1.0:
        raise ValueError("extrapolate_infinite called with rho(C) >= 1")
    if abs(1.0 - fit.coeff_sum) <= NEAR_SINGULAR_SUM:
        raise NearSingular(f"|1 - sum(c)| = {abs(1.0 - fit.coeff_sum):.3e}")
    S = fit.c[::-1].cumsum()[::-1]
    return _combine(z, window, S / (1.0 - S[0]))


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
