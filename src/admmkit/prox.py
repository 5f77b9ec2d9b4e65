"""Proximal operators, projections and cached regularized quadratic solves.

Every subproblem oracle used by the splitting solvers evaluates

    argmin_x  f(x) + (gamma/2) ||A x - w||^2

for a fixed function f and a fixed linear map A (A = identity for the
plain proximal maps).  The oracle protocol is one method,
`evaluate(w, gamma)`, which returns that minimizer exactly.  Every oracle is
a `ProxOracle`: deterministic and, once built, free of mutable state apart
from factorizations cached on first use, so one instance is safe to share
across concurrent solves.

Quadratic oracles share one cached solve of (Q + gamma*I) x = r.  When Q is
the Gram matrix K'K of an m x n design K, the cache factors whichever Gram
matrix is smaller: for m < n it factors the m x m matrix KK' + gamma*I and
applies the matrix inversion lemma

    x = (r - K'(KK' + gamma*I)^{-1} K r) / gamma,

for m >= n it factors K'K + gamma*I.  Building costs O(min(m,n)^2 max(m,n))
and each solve O(mn); the cached factor has min(m,n)^2 entries.

Cached solves, here and in `project_affine`, go through LAPACK `potrs`
after an explicit finiteness check of the right-hand side; the factor was
checked once when `cho_factor` built it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs


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
    """Linear operator with an explicit adjoint.

    Wraps either a dense matrix or a pair of callables (for structured
    operators such as the discrete image gradient).
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
    def dense(cls, M):
        M = np.asarray(M, dtype=float)
        return cls(lambda v: M @ v, lambda v: M.T @ v, M.shape[0], M.shape[1])

    @classmethod
    def identity(cls, n):
        return cls(lambda v: v, lambda v: v, n, n)

    @classmethod
    def scaled_identity(cls, n, scale):
        s = float(scale)
        return cls(lambda v: s * v, lambda v: s * v, n, n)


@dataclass(frozen=True)
class ProxOracle:
    """Subproblem oracle: evaluate(w, gamma) -> argmin f + (gamma/2)||Ax - w||^2."""

    evaluate: Callable[[np.ndarray, float], np.ndarray]
    dim: int
    name: str = "prox"


def soft_threshold_l1(w, tau):
    """Componentwise shrinkage sign(w) * max(|w| - tau, 0), the prox of tau*||.||_1."""
    w = np.asarray(w, dtype=float)
    return np.sign(w) * np.maximum(np.abs(w) - tau, 0.0)


def prox_group_l12(w, groups, tau):
    """Blockwise shrinkage w_g * max(1 - tau/||w_g||, 0), the prox of tau*||.||_{1,2}.

    `groups` is a sequence of index arrays that must partition all
    coordinates of `w`; a zero-norm block maps to the zero vector.
    """
    w = np.asarray(w, dtype=float)
    seen = np.concatenate([np.asarray(g, dtype=int) for g in groups]) if groups else np.array([], int)
    if len(seen) != w.size or len(np.unique(seen)) != w.size or seen.min(initial=0) < 0 \
            or seen.max(initial=-1) >= w.size:
        raise OverlappingGroups("group index sets must partition all coordinates")
    out = np.zeros_like(w)
    for g in groups:
        g = np.asarray(g, dtype=int)
        ng = np.linalg.norm(w[g])
        if ng > 0.0:
            out[g] = w[g] * max(1.0 - tau / ng, 0.0)
    return out


def prox_nuclear(W, tau):
    """Singular value soft thresholding, the prox of tau*||.||_* on matrices."""
    W = np.asarray(W, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {W.shape} matrix") from exc
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def project_box(w, lo, hi):
    """Componentwise clamp onto {x : lo <= x <= hi}."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise EmptyBox("some lower bound exceeds its upper bound")
    return np.clip(np.asarray(w, dtype=float), lo, hi)


def _cho_solve(factor, b):
    """x = (L L')^{-1} b for a `cho_factor` result; a non-finite b raises ValueError.

    Bit-identical to `scipy.linalg.cho_solve`, which also re-scans the whole
    factor for NaN and inf on every call.
    """
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    c, lower = factor
    x, info = dpotrs(c, b, lower=lower)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


class AffineProjectionCache:
    """Cholesky factor of K K^T, built once and reused by project_affine."""

    def __init__(self, K):
        K = np.asarray(K, dtype=float)
        try:
            self.factor = scipy.linalg.cho_factor(K @ K.T)
        except scipy.linalg.LinAlgError as exc:
            raise RankDeficient("K K^T is singular; K must have full row rank") from exc


def project_affine(w, K, f, cache=None):
    """Orthogonal projection of w onto {x : K x = f}.

    The projection is w - K^T (K K^T)^{-1} (K w - f).  Pass a prebuilt
    `AffineProjectionCache` to reuse the K K^T factorization across calls.
    """
    K = np.asarray(K, dtype=float)
    if cache is None:
        cache = AffineProjectionCache(K)
    return w - K.T @ _cho_solve(cache.factor, K @ w - f)


def smaller_gram(K):
    """The smaller of KK' and K'K for a dense K, and whether it is KK' (K wide)."""
    wide = K.shape[0] < K.shape[1]
    return (K @ K.T if wide else K.T @ K), wide


class QuadraticSolveCache:
    """Solves (Q + gamma*I) x = r with one Cholesky factor per gamma, built lazily.

    Q is given densely, or as the Gram matrix K'K of a design K through
    `from_design`, which never forms K'K when K is wide.
    """

    def __init__(self, Q):
        Q = np.asarray(Q, dtype=float)
        if np.abs(Q - Q.T).max(initial=0.0) > 1e-10:
            raise NotSymmetric("Q must be symmetric")
        self._gram = Q
        self._wide = None  # the design K when Q = K'K is solved through KK'
        self._factors: dict[float, tuple] = {}

    @classmethod
    def from_design(cls, K):
        """Cache for Q = K'K that factors the smaller of KK' and K'K."""
        K = np.asarray(K, dtype=float)
        cache = cls.__new__(cls)
        cache._gram, wide = smaller_gram(K)
        cache._wide = K if wide else None
        cache._factors = {}
        return cache

    def factor(self, gamma):
        key = float(gamma)
        if key not in self._factors:
            G = self._gram
            self._factors[key] = scipy.linalg.cho_factor(G + key * np.eye(G.shape[0]))
        return self._factors[key]

    def solve(self, r, gamma):
        """x = (Q + gamma*I)^{-1} r; a non-finite r raises ValueError."""
        factor = self.factor(gamma)
        K = self._wide
        if K is None:
            return _cho_solve(factor, r)
        return (r - K.T @ _cho_solve(factor, K @ r)) / gamma


# ---------------------------------------------------------------------------
# oracle constructors

def l1_oracle(n, mu=1.0, name="l1"):
    """Oracle of f = mu*||.||_1 with A = identity."""
    return ProxOracle(lambda w, gamma: soft_threshold_l1(w, mu / gamma), n, name)


def group_l12_oracle(n, groups, mu=1.0, name="l12"):
    """Oracle of f = mu*||.||_{1,2} with A = identity."""
    groups = [np.asarray(g, dtype=int) for g in groups]
    return ProxOracle(lambda w, gamma: prox_group_l12(w, groups, mu / gamma), n, name)


def nuclear_oracle(shape, mu=1.0, name="nuclear"):
    """Oracle of f = mu*||.||_* acting on vectorized (rows x cols) matrices."""
    rows, cols = shape

    def evaluate(w, gamma):
        return prox_nuclear(w.reshape(rows, cols), mu / gamma).ravel()

    return ProxOracle(evaluate, rows * cols, name)


def box_oracle(lo, hi, name="box"):
    """Oracle of the box indicator with A = identity."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise EmptyBox("some lower bound exceeds its upper bound")
    return ProxOracle(lambda w, gamma: np.clip(w, lo, hi), lo.size, name)


def affine_oracle(K, f, name="affine"):
    """Oracle of the indicator of {x : K x = f} with A = identity."""
    K = np.asarray(K, dtype=float)
    cache = AffineProjectionCache(K)
    return ProxOracle(lambda w, gamma: project_affine(w, K, f, cache), K.shape[1], name)


def subspace_oracle(basis, name="subspace"):
    """Oracle of the indicator of span(basis) with A = identity; basis columns orthonormal."""
    U = np.asarray(basis, dtype=float)
    return ProxOracle(lambda w, gamma: U @ (U.T @ w), U.shape[0], name)


def quadratic_oracle(Q, q, name="quadratic"):
    """Oracle of f = 0.5 x'Qx + q'x with A = identity, using a cached solve."""
    return _cached_quadratic_oracle(QuadraticSolveCache(Q), np.asarray(q, dtype=float), name)


def least_squares_oracle(K, f, name="least-squares"):
    """Oracle of 0.5||K x - f||^2 with A = identity, solved through the smaller Gram matrix."""
    K = np.asarray(K, dtype=float)
    return _cached_quadratic_oracle(QuadraticSolveCache.from_design(K),
                                    -(K.T @ np.asarray(f, dtype=float)), name)


def _cached_quadratic_oracle(cache, q, name):
    return ProxOracle(lambda w, gamma: cache.solve(gamma * w - q, gamma), q.size, name)

