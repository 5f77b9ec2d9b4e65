"""Proximal operators, projections and cached regularized quadratic solves.

Every subproblem oracle used by the splitting solvers evaluates

    argmin_x  f(x) + (gamma/2) ||A x - w||^2

for a fixed function f and a fixed linear map A.  For a split
min R(x) + J(y) s.t. A x = y that is R with the split's A for the x-oracle
and J's own prox (A = identity) at w for the y-oracle.  The oracle protocol
is one method, `evaluate(w, gamma)`, which returns that minimizer exactly.
Every oracle is a `ProxOracle`: deterministic and, once built, free of
mutable state apart from inverses cached on first use, so one instance
is safe to share across concurrent solves.  The one state shared across
instances is the process's helper thread, which forms a share of a large
wide design's K't (`AdjointHelper`); a solve that finds it busy forms
the whole product itself, to the same bits with one BLAS thread.

Quadratic oracles go through the package's only cached solve,
`QuadraticSolveCache`, of (Q + gamma*I) x = r for a symmetric Q.  A
least-squares term 0.5||K x - f||^2 with an m x n design K is solved
through the smaller Gram matrix: K'K for m >= n (a `quadratic_oracle`), and
KK' with the matrix inversion lemma for m < n (`WideLeastSquares`, whose
`prox` is every LASSO's y-step).  Building costs O(min(m,n)^2 max(m,n)) and
each solve O(mn).  Every cached solve is one product with (Q + gamma*I)^{-1},
the one form the cache keeps, formed from a Cholesky factor (LAPACK `potri`)
on the first solve at each gamma, after an explicit finiteness check of the
right-hand side (a solve cached once per penalty, Boyd et al. 2011, sec.
4.2.4).  The tests' twins, which solve by factor or form K r from r, are in
`tests/reference_twins.py`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotri


class OverlappingGroups(ValueError):
    """Group index sets do not form a partition."""


class SvdFailure(RuntimeError):
    """Singular value decomposition did not converge."""


class EmptyBox(ValueError):
    """Box constraint with some lower bound above the upper bound."""


class RankDeficient(RuntimeError):
    """K K^T is numerically singular; K has no full row rank."""


class NotSymmetric(ValueError):
    """Quadratic form matrix is not symmetric."""


class LinearMap:
    """Linear operator with an explicit adjoint, given as a pair of callables.

    Structured operators such as the discrete image gradient apply without
    a matrix.
    """

    def __init__(self, apply, apply_adjoint, rows, cols):
        self._apply = apply
        self._adjoint = apply_adjoint
        self.rows = int(rows)
        self.cols = int(cols)

    def apply(self, v):
        return self._apply(v)

    def apply_adjoint(self, v):
        return self._adjoint(v)

    @classmethod
    def identity(cls, n):
        return cls(lambda v: v, lambda v: v, n, n)


@dataclass(frozen=True)
class ProxOracle:
    """Subproblem oracle: evaluate(w, gamma) -> argmin f + (gamma/2)||Ax - w||^2."""

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    dim: int
    name: str = "prox"


def soft_threshold_l1(w, tau):
    """Componentwise shrinkage sign(w) * max(|w| - tau, 0), the prox of tau*||.||_1.

    Formed in one buffer as copysign(max(|w| - tau, 0), w), so a zero result
    keeps the sign of its input (-0.0 for w <= 0, including w = -0.0).
    """
    w = np.asarray(w, dtype=float)
    out = np.abs(w)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, w, out=out)


class GroupPartition:
    """Groups of coordinates that partition range(n), laid out for blockwise sums.

    `order` lists the groups' indices one group after another and `starts`
    holds where each nonempty group begins in it, so that one
    `np.add.reduceat` over w[order] sums every block.  Anything but a
    partition of range(n) raises OverlappingGroups.
    """

    def __init__(self, groups, n):
        groups = [g for g in (np.asarray(g, dtype=int).ravel() for g in groups) if g.size]
        order = np.concatenate(groups) if groups else np.array([], int)
        if order.size != n or order.min(initial=0) < 0 or order.max(initial=-1) >= n \
                or np.unique(order).size != n:
            raise OverlappingGroups("group index sets must partition all coordinates")
        self.order = order
        self.sizes = np.array([g.size for g in groups], dtype=int)
        self.starts = np.cumsum(self.sizes) - self.sizes

    def norms(self, w):
        """The Euclidean norm of each block of w."""
        wg = w[self.order]
        return np.sqrt(np.add.reduceat(wg * wg, self.starts))

    def shrink(self, w, tau):
        """Blockwise shrinkage w_g * max(1 - tau/||w_g||, 0); a zero block stays zero."""
        norms = self.norms(w)
        ratio = np.divide(tau, norms, out=np.ones_like(norms), where=norms > 0.0)
        out = np.empty_like(w)
        out[self.order] = w[self.order] * np.repeat(np.maximum(1.0 - ratio, 0.0), self.sizes)
        return out


def prox_nuclear(W, tau):
    """Singular value soft thresholding, the prox of tau*||.||_* on matrices."""
    W = np.asarray(W, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {W.shape} matrix") from exc
    return (U * np.maximum(s - tau, 0.0)) @ Vt


class QuadraticSolveCache:
    """Solves (Q + gamma*I) x = r for a symmetric Q by one product with the cached inverse.

    Q must be finite (ValueError) and symmetric to 1e-10 of its largest
    entry (NotSymmetric), checked when the cache is built.

    `inverse(gamma)`, the one form it keeps, is formed on the first solve at
    each gamma from `factor(gamma)`, a fresh Cholesky factor that is then
    dropped, so building an oracle forms no inverse.
    """

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=float)
        scale = np.abs(Q).max(initial=0.0)
        if not np.isfinite(scale):  # an inf or NaN entry carries through the max
            raise ValueError("Q must not contain infs or NaNs")
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-10 * scale:
            raise NotSymmetric("Q must be symmetric to 1e-10 of its largest entry")
        self._Q = Q
        self._inverses: dict[float, np.ndarray] = {}

    def factor(self, gamma):
        """`scipy.linalg.cho_factor` of Q + gamma*I, formed anew on each call."""
        Q = self._Q
        return scipy.linalg.cho_factor(Q + float(gamma) * np.eye(Q.shape[0]))

    def solve(self, r, gamma):
        """x = (Q + gamma*I)^{-1} r; a non-finite r raises ValueError."""
        if not np.isfinite(r).all():
            raise ValueError("array must not contain infs or NaNs")
        return self.inverse(gamma) @ r

    def inverse(self, gamma):
        """(Q + gamma*I)^{-1}, exactly symmetric and read-only, from LAPACK potri on the factor."""
        key = float(gamma)
        if key not in self._inverses:
            c, lower = self.factor(key)
            inv, info = dpotri(c, lower=lower)
            if info != 0:
                raise ValueError(f"potri failed (info {info})")
            half = np.tril if lower else np.triu  # potri fills this triangle only
            inv = half(inv)  # a fresh C-ordered array
            inv += half(inv, -1 if lower else 1).T
            inv.flags.writeable = False
            self._inverses[key] = inv
        return self._inverses[key]


# `WideLeastSquares.image` gathers u's nonzero columns of K when at most
# 1/SPARSE_IMAGE_SHARE of u is nonzero, else forms K u densely: a gathered
# column is strided in K, and the measured crossover lay at 3-8% nonzero
# for 100 x 500 and 200 x 2000 designs (one BLAS thread), with the gather
# made on every call.
SPARSE_IMAGE_SHARE = 20

# `WideLeastSquares.prox` forms K't in column panels of K: ceil(K.nbytes /
# PANEL_BYTES) of them, one width rounded up to a multiple of PANEL_ALIGN
# columns (200 x 2000: 512, 512, 512, 464).  The order flips with the step's
# parity, so the panels one step reads last, still in a 2 MiB L2, are the
# first the next step reads.  With one BLAS thread a panel product equals
# those columns of K.T @ t bit for bit at widths that are multiples of 4
# (250, 285 and 286 columns differed).
PANEL_BYTES = 1 << 20
PANEL_ALIGN = 64
# A K larger than one core's L2 (SPLIT_BYTES) has its K't split between the
# caller and the process's one helper thread when the process may run on
# two CPUs, so each core reads its share of K from its own L2.  The helper
# starts its share a hand-off later (about 20 µs), so the caller takes
# HANDOFF_BYTES more of K than the helper, the split rounded up to a
# multiple of PANEL_ALIGN (200 x 2000: 1216 | 784 columns; lasso-wide ADMM
# steps measured 201, 190 and 168 µs serial, split at n/2 and split so).
# Each share is one product: every further call hands the GIL back and
# forth, and cutting the shares into panels made a 300 x 3001 pass slower
# than the serial loop.  The same one-thread kernel forms each column, so
# the split keeps the bits.  A desk design, or a call made while the helper
# serves another, takes the serial panel loop: a hand-off costs more than a
# whole 64 x 256 step.
SPLIT_BYTES = 2 * PANEL_BYTES
HANDOFF_BYTES = PANEL_BYTES // 2


class AdjointHelper:
    """The daemon thread that forms the second share of a split K't.

    A caller owns it for one pass by taking `busy` without waiting, hands it
    a job through `_go` and waits on `_done`; the helper drops the job, its
    only reference to K, t and the output, before releasing `_done`.  A
    pass interrupted while it waits never releases `busy`, so later calls
    take the serial loop rather than meet a stale `_done`.
    """

    def __init__(self):
        self.busy, self._go, self._done = threading.Lock(), threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="admmkit-adjoint", daemon=True).start()

    def _serve(self):
        while True:
            self._go.acquire()
            try:
                np.matmul(*self._job)
            except Exception as exc:  # noqa: BLE001 - raised again in the caller
                self._error = exc
            self._job = None
            self._done.release()

    def split_adjoint(self, halves, t, out):
        """K't into out, over halves[0] here and halves[1] on the helper; `busy` is held."""
        (mine, K_mine), (theirs, K_theirs) = halves
        self._job = K_theirs.T, t, out[theirs]
        self._go.release()
        try:
            np.matmul(K_mine.T, t, out=out[mine])
        finally:
            self._done.acquire()
            error, self._error = self._error, None
            self.busy.release()
        if error is not None:
            raise error


_helper = None
_helper_start = threading.Lock()


def claim_helper():
    """The process's helper, started on first use and now held, or None.

    None when the process may run on one CPU only or the helper is busy.
    """
    global _helper
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count())
    if len(cpus) < 2:
        return None
    with _helper_start:
        if _helper is None:
            _helper = AdjointHelper()
        helper = _helper
    return helper if helper.busy.acquire(blocking=False) else None


def _forget_helper():
    # a forked child has no helper thread, and a thread that did not fork
    # may have held its locks: the child starts its own
    global _helper, _helper_start
    _helper, _helper_start = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


class WideLeastSquares:
    """J(y) = 0.5||K y - f||^2 for a wide m x n K, solved through one cache over KK'.

    J's prox at z/gamma solves (K'K + gamma*I) y = r, r = z + K'f, as
    y = (r - K't)/gamma with t = (KK' + gamma*I)^{-1} K r = K y, one m x m
    product with the cache's inverse.  `prox`, the one formula, takes K r
    from an image K z that a step carries and returns K y beside y, so the
    step makes one dense pass over K, read in `panels` (views of K's
    columns, see PANEL_BYTES) or, for a K over one L2, in two `halves`
    read by two cores (SPLIT_BYTES), and forms K x with `image` from x's
    nonzero columns of K, which the next step reuses while the support
    stays the same; `oracle()` forms K z itself.  `Ktf`, `KKtf` and `gram`
    are K'f, KK'f and KK'.
    """

    def __init__(self, K, f):
        K = np.asarray(K, dtype=float)
        self.K = K
        self.Ktf = K.T @ np.asarray(f, dtype=float)
        self.KKtf = K @ self.Ktf
        self.gram = K @ K.T
        self._cache = QuadraticSolveCache(self.gram)
        n = K.shape[1]
        count = max(1, -(-K.nbytes // PANEL_BYTES))
        width = max(PANEL_ALIGN, -(-n // (count * PANEL_ALIGN)) * PANEL_ALIGN)
        self.panels = tuple((slice(a, min(a + width, n)), K[:, a:a + width])
                            for a in range(0, n, width))
        self.halves = None
        if K.nbytes > SPLIT_BYTES:
            column = K[:, :1].nbytes
            split = -(-(K.nbytes + HANDOFF_BYTES) // (2 * column * PANEL_ALIGN)) * PANEL_ALIGN
            self.halves = (slice(0, split), K[:, :split]), (slice(split, n), K[:, split:])

    def oracle(self):
        """J's prox as a ProxOracle: evaluate(w, gamma) = argmin J + (gamma/2)||y - w||^2.

        That is `prox` at z = gamma*w with K z formed densely, so a
        non-finite K r raises ValueError.
        """
        def evaluate(w, gamma):
            z = gamma * w
            return self.prox(z, self.K @ z, gamma)[0]

        return ProxOracle(evaluate, self.K.shape[1], "least-squares")

    def prox(self, z, Kz, gamma, k=0):
        """(y, K y) for y = argmin J + (gamma/2)||y - z/gamma||^2, given Kz = K z.

        Here r = z + K'f, so K r = Kz + KK'f and t = (KK' + gamma*I)^{-1} K r.
        K't comes from `apply_adjoint(t, k)`, k the step's index.  A
        non-finite K r raises ValueError.
        """
        t = self._cache.solve(Kz + self.KKtf, gamma)
        y = z + self.Ktf
        y -= self.apply_adjoint(t, k)
        y /= gamma
        return y, t

    def apply_adjoint(self, t, k=0):
        """K't formed panel by panel, last panel first for an odd k (the same bits either way).

        A K with `halves` has its first share formed here and the second on
        the process's helper thread, when `claim_helper` gives it: not on a
        process pinned to one CPU, nor while the helper serves another call.
        With one BLAS thread every path gives the bits of K.T @ t.
        """
        out = np.empty(self.K.shape[1])
        helper = claim_helper() if self.halves else None
        if helper is not None:
            helper.split_adjoint(self.halves, t, out)
            return out
        for cols, panel in (reversed(self.panels) if k % 2 else self.panels):
            np.matmul(panel.T, t, out=out[cols])
        return out

    def image(self, u, held=None):
        """(K u, columns) with columns = (support, K[:, support]) of u's nonzero entries.

        K u is formed from those columns when they are at most
        1/SPARSE_IMAGE_SHARE of u (columns is None otherwise, and K u is
        dense).  `held`, the columns an earlier call returned, is reused when
        its support is u's, so K u is bit-identical to K[:, nz] @ u[nz].
        """
        nz = u.nonzero()[0]
        if nz.size * SPARSE_IMAGE_SHARE > u.size:
            return self.K @ u, None
        if held is None or held[0].size != nz.size or not (held[0] == nz).all():
            held = nz, self.K[:, nz]
        return held[1] @ u[nz], held


# ---------------------------------------------------------------------------
# oracle constructors

def l1_oracle(n, mu=1.0):
    """Oracle of f = mu*||.||_1 with A = identity."""
    return ProxOracle(lambda w, gamma: soft_threshold_l1(w, mu / gamma), n, "l1")


def group_l12_oracle(n, groups, mu=1.0):
    """Oracle of f = mu*||.||_{1,2} with A = identity; the partition is checked once, here."""
    partition = GroupPartition(groups, n)
    return ProxOracle(lambda w, gamma: partition.shrink(w, mu / gamma), n, "l12")


def nuclear_oracle(shape, mu=1.0):
    """Oracle of f = mu*||.||_* acting on vectorized (rows x cols) matrices."""
    rows, cols = shape

    def evaluate(w, gamma):
        return prox_nuclear(w.reshape(rows, cols), mu / gamma).ravel()

    return ProxOracle(evaluate, rows * cols, "nuclear")


def box_oracle(lo, hi):
    """Oracle of the box indicator with A = identity."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise EmptyBox("some lower bound exceeds its upper bound")
    return ProxOracle(lambda w, gamma: np.clip(w, lo, hi), lo.size, "box")


def affine_oracle(K, f):
    """Oracle of the indicator of {x : K x = f} with A = identity.

    Evaluates the projection w - K^T (K K^T)^{-1} (K w - f) through a
    QuadraticSolveCache over K K^T at gamma = 0, factored here, so a K
    without full row rank (K K^T numerically singular) raises RankDeficient;
    the inverse is formed, from a second factor, on the first projection.
    """
    K = np.asarray(K, dtype=float)
    cache = QuadraticSolveCache(K @ K.T)
    try:
        cache.factor(0.0)
    except scipy.linalg.LinAlgError as exc:
        raise RankDeficient("K K^T is singular; K must have full row rank") from exc
    return ProxOracle(lambda w, gamma: w - K.T @ cache.solve(K @ w - f, 0.0),
                      K.shape[1], "affine")


def subspace_oracle(basis):
    """Oracle of the indicator of span(basis) with A = identity; basis columns orthonormal."""
    U = np.asarray(basis, dtype=float)
    return ProxOracle(lambda w, gamma: U @ (U.T @ w), U.shape[0], "subspace")


def quadratic_oracle(Q, q):
    """Oracle of f = 0.5 x'Qx + q'x with A = identity, using a cached solve."""
    cache = QuadraticSolveCache(Q)
    q = np.asarray(q, dtype=float)
    return ProxOracle(lambda w, gamma: cache.solve(gamma * w - q, gamma), q.size, "quadratic")

