"""Problem gallery, synthetic data generation and external data ingestion.

Every constructor is deterministic given its seed and returns a
ProblemInstance bundling the split-form problem data, the planted ground
truth where one exists, a suggested starting point and a slot for the
reference solution filled by a long reference run.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .prox import (AffineProjectionCache, LinearMap, ProxOracle, group_l12_oracle,
                   l1_oracle, least_squares_oracle, nuclear_oracle, project_affine,
                   project_box, smaller_gram, soft_threshold_l1, subspace_oracle,
                   quadratic_oracle)
from .splitting import SplitProblem, SubproblemFailure
from .a3dmm import InnerSolver


class BadShape(ValueError):
    """Inconsistent problem dimensions."""


class BadImage(ValueError):
    """Image values outside [0, 1]."""


class ParseError(ValueError):
    """Malformed sparse-data line."""

    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class FormatError(ValueError):
    """Malformed image payload."""

    def __init__(self, offset, reason):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


@dataclass
class Reference:
    """Solution triple produced by a long reference run."""

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass
class ProblemInstance:
    problem: SplitProblem
    descriptor: str
    seed: Optional[int] = None
    x_true: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    norm_K: Optional[float] = None
    gamma_default: float = 1.0
    extra: dict = field(default_factory=dict)
    reference: Optional[Reference] = None


def operator_norm(K):
    """2-norm of a dense matrix: the root of the top eigenvalue of its smaller Gram matrix."""
    G, _ = smaller_gram(np.asarray(K, dtype=float))
    return float(np.sqrt(np.linalg.eigvalsh(G).max(initial=0.0)))


def resolve_gamma(spec, norm_K=None):
    """Turn a penalty rule into a number.

    Accepts an absolute value, or the strings "K2/10" and "K2+0.1" which are
    relative to the squared operator norm of the instance's data matrix.
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    text = str(spec).strip()
    if text in ("K2/10", "K2+0.1"):
        if norm_K is None:
            raise ValueError(f"gamma rule {text!r} needs the operator norm")
        return norm_K ** 2 / 10.0 if text == "K2/10" else norm_K ** 2 + 0.1
    return float(text)


def _gaussian_sensing(rng, m, n):
    """Column-normalized Gaussian matrix with entries ~ N(0, 1/m)."""
    K = rng.standard_normal((m, n)) / np.sqrt(m)
    K /= np.linalg.norm(K, axis=0)
    return K


def _lasso_data_oracle(K, f):
    """Oracle of J(y) = 0.5||K y - f||^2 taken with the map B = -I."""
    data = least_squares_oracle(K, f)
    # argmin J + (gamma/2)||-y - w||^2 is the A = identity prox at -w
    return ProxOracle(lambda w, gamma: data.evaluate(-w, gamma), data.dim, data.name)


class AcceleratedGradientProx:
    """Inexact oracle: warm-started accelerated projected gradient (FISTA).

    evaluate(w, gamma) takes `inner.max_steps` steps

        x = project(y - step(gamma) * gradient(y, w, gamma))

    with Nesterov momentum on the point y, starting from the previous
    call's result (from `start` after reset).  `project` receives a fresh
    array and may modify it in place.  objective(x, w, gamma) only feeds
    the blow-up check.
    """

    def __init__(self, dim, name, gradient, objective, project, step, start, inner=None):
        self._gradient = gradient
        self._objective = objective
        self._project = project
        self._step = step
        self._start = start
        self._inner = inner if inner is not None else InnerSolver()
        self._warm = None
        self.dim = dim
        self.name = name

    def configure(self, inner):
        self._inner = inner

    def reset(self):
        self._warm = None

    def evaluate(self, w, gamma):
        x = self._warm if self._warm is not None else self._start
        step = self._step(gamma)
        y = x.copy()
        x_prev = x
        t = 1.0
        obj0 = None
        for _ in range(self._inner.max_steps):
            x = self._project(y - step * self._gradient(y, w, gamma))
            obj = self._objective(x, w, gamma)
            if obj0 is None:
                obj0 = obj
            elif obj > 1e6 * (obj0 + 1.0):
                raise SubproblemFailure("inner objective blew up")
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            y = x + ((t - 1.0) / t_next) * (x - x_prev)
            t = t_next
            x_prev = x
        self._warm = x_prev
        return x_prev


def iterative_least_squares_oracle(K, f, inner=None):
    """Inexact oracle of f(x) = 0.5||K x - f||^2 with A = identity.

    Minimizes f(x) + (gamma/2)||x - w||^2 by accelerated gradient steps of
    length 1 / (||K||^2 + gamma).
    """
    K = np.asarray(K, dtype=float)
    f = np.asarray(f, dtype=float)
    normK2 = operator_norm(K) ** 2

    def gradient(y, w, gamma):
        return K.T @ (K @ y - f) + gamma * (y - w)

    def objective(x, w, gamma):
        r = K @ x - f
        return 0.5 * float(r @ r) + 0.5 * gamma * float((x - w) @ (x - w))

    return AcceleratedGradientProx(
        K.shape[1], "least-squares-iterative", gradient, objective,
        project=lambda x: x, step=lambda gamma: 1.0 / (normK2 + gamma),
        start=np.zeros(K.shape[1]), inner=inner)


def make_lasso(m=64, n=256, sparsity=13, mu=1.0, seed=0, data_block="y",
               iterative=False, inner=None):
    """l1-regularized least squares split as x - y = 0.

    By default the x-block carries mu*||.||_1 and the y-block the quadratic
    data term; f is the measurement of a planted `sparsity`-sparse signal.
    With data_block="x" the blocks are swapped, and `iterative=True` then
    replaces the closed-form x-update by a warm-started accelerated gradient
    solver (the inexact variant).
    """
    if not (0 < m < n):
        raise BadShape("need 0 < m < n")
    if not (0 < sparsity < m):
        raise BadShape("need 0 < sparsity < m")
    if not (mu > 0 and np.isfinite(mu)):
        raise ValueError("mu must be finite and positive")
    if data_block not in ("x", "y"):
        raise ValueError("data_block must be 'x' or 'y'")
    if iterative and data_block != "x":
        raise ValueError("the iterative solver applies to the x-block")
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    x_true = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    x_true[support] = rng.standard_normal(sparsity)
    f = K @ x_true
    data_value = lambda u: 0.5 * np.linalg.norm(K @ u - f) ** 2
    l1_value = lambda u: mu * np.abs(u).sum()
    if data_block == "y":
        prox_r, r_value = l1_oracle(n, mu), l1_value
        prox_j, j_value = _lasso_data_oracle(K, f), data_value
    else:
        if iterative:
            prox_r = iterative_least_squares_oracle(K, f, inner=inner)
        else:
            prox_r = least_squares_oracle(K, f)
        r_value = data_value

        def shrink(w, gamma):
            return soft_threshold_l1(-w, mu / gamma)  # B = -I folds a sign in

        prox_j, j_value = ProxOracle(shrink, n, "l1"), l1_value
    problem = SplitProblem(
        prox_r=prox_r,
        prox_j=prox_j,
        A=LinearMap.identity(n),
        B=LinearMap.scaled_identity(n, -1.0),
        b=np.zeros(n),
        r_value=r_value,
        j_value=j_value)
    nK = operator_norm(K)
    return ProblemInstance(
        problem=problem,
        descriptor=f"lasso(m={m},n={n},sparsity={sparsity},mu={mu},seed={seed})",
        seed=seed, x_true=x_true, norm_K=nK, gamma_default=nK ** 2 / 10.0,
        extra={"K": K, "f": f})


def make_lasso_from_data(features, labels, mu=1.0, descriptor="lasso(data)"):
    """LASSO instance from an external design matrix.

    Columns are max-abs scaled and mu defaults to 1; both are repository
    defaults, not values inherited from any benchmark definition.
    """
    K = np.asarray(features, dtype=float)
    f = np.asarray(labels, dtype=float)
    if K.ndim != 2 or K.shape[0] != f.size:
        raise BadShape("features and labels disagree")
    scale = np.abs(K).max(axis=0)
    scale[scale == 0.0] = 1.0
    K = K / scale
    n = K.shape[1]
    problem = SplitProblem(
        prox_r=l1_oracle(n, mu),
        prox_j=_lasso_data_oracle(K, f),
        A=LinearMap.identity(n),
        B=LinearMap.scaled_identity(n, -1.0),
        b=np.zeros(n),
        r_value=lambda x: mu * np.abs(x).sum(),
        j_value=lambda y: 0.5 * np.linalg.norm(K @ y - f) ** 2)
    nK = operator_norm(K)
    return ProblemInstance(problem=problem, descriptor=descriptor, seed=None,
                           norm_K=nK, gamma_default=nK ** 2 / 10.0,
                           extra={"K": K, "f": f})


def _affine_set_oracle(K, f):
    """Oracle of the indicator of {y : K y = f} taken with the map B = -I."""
    cache = AffineProjectionCache(K)

    def evaluate(w, gamma):
        return project_affine(-w, K, f, cache)

    return ProxOracle(evaluate, K.shape[1], "affine-set")


def make_affine_constrained(regularizer="l1", m=None, n=None, sparsity=None,
                            blocks=None, block_size=4, matrix_shape=(24, 24),
                            rank=2, measurements=300, seed=0):
    """min R(x) s.t. K x = f, split as x - y = 0 with the set on the y-block.

    `regularizer` picks R among the l1 norm (sparsity-sparse truth), the
    group l1,2 norm (`blocks` active blocks of `block_size`) and the nuclear
    norm (low-rank matrix truth observed through `measurements` Gaussian
    functionals).
    """
    rng = np.random.default_rng(seed)
    if regularizer == "l1":
        m = 64 if m is None else m
        n = 256 if n is None else n
        sparsity = 16 if sparsity is None else sparsity
        if not (0 < sparsity < m < n):
            raise BadShape("need sparsity < m < n")
        K = _gaussian_sensing(rng, m, n)
        x_true = np.zeros(n)
        x_true[rng.choice(n, size=sparsity, replace=False)] = rng.standard_normal(sparsity)
        prox_r = l1_oracle(n, 1.0)
        r_value = lambda x: np.abs(x).sum()
        desc = f"bp-l1(m={m},n={n},sparsity={sparsity},seed={seed})"
    elif regularizer == "l12":
        m = 64 if m is None else m
        n = 256 if n is None else n
        blocks = 8 if blocks is None else blocks
        if n % block_size != 0:
            raise BadShape("n must be a multiple of the block size")
        ngroups = n // block_size
        if not (0 < blocks * block_size < m < n):
            raise BadShape("need blocks*block_size < m < n")
        groups = [np.arange(g * block_size, (g + 1) * block_size) for g in range(ngroups)]
        K = _gaussian_sensing(rng, m, n)
        x_true = np.zeros(n)
        for g in rng.choice(ngroups, size=blocks, replace=False):
            x_true[groups[g]] = rng.standard_normal(block_size)
        prox_r = group_l12_oracle(n, groups, 1.0)
        r_value = lambda x: sum(np.linalg.norm(x[g]) for g in groups)
        desc = f"bp-l12(m={m},n={n},blocks={blocks}x{block_size},seed={seed})"
    elif regularizer == "nuclear":
        rows, cols = matrix_shape
        n = rows * cols
        m = measurements
        if not (0 < rank <= min(rows, cols)) or not (0 < m < n):
            raise BadShape("need rank <= min(shape) and measurements < rows*cols")
        K = _gaussian_sensing(rng, m, n)
        L = rng.standard_normal((rows, rank))
        Rm = rng.standard_normal((cols, rank))
        x_true = (L @ Rm.T).ravel() / np.sqrt(rank)
        prox_r = nuclear_oracle((rows, cols), 1.0)
        r_value = lambda x: np.linalg.svd(x.reshape(rows, cols), compute_uv=False).sum()
        desc = f"bp-nuclear(shape={rows}x{cols},rank={rank},m={m},seed={seed})"
    else:
        raise ValueError(f"unknown regularizer {regularizer!r}")
    f = K @ x_true
    problem = SplitProblem(
        prox_r=prox_r,
        prox_j=_affine_set_oracle(K, f),
        A=LinearMap.identity(n),
        B=LinearMap.scaled_identity(n, -1.0),
        b=np.zeros(n),
        r_value=r_value,
        j_value=None)
    nK = operator_norm(K)
    return ProblemInstance(problem=problem, descriptor=desc, seed=seed,
                           x_true=x_true, norm_K=nK, gamma_default=1.0,
                           extra={"K": K, "f": f})


def qp_box_instance(Q, q, lo, hi, descriptor="qp-box", seed=None):
    """Box-constrained quadratic program split as x - y = 0."""
    Q = np.asarray(Q, dtype=float)
    q = np.asarray(q, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = q.size
    if Q.shape != (n, n) or lo.size != n or hi.size != n:
        raise BadShape("Q, q and the box must agree on the dimension")

    def project(w, gamma):
        return project_box(-w, lo, hi)  # B = -I folds a sign into the prox point

    problem = SplitProblem(
        prox_r=quadratic_oracle(Q, q),
        prox_j=ProxOracle(project, n, "box"),
        A=LinearMap.identity(n),
        B=LinearMap.scaled_identity(n, -1.0),
        b=np.zeros(n),
        r_value=lambda x: 0.5 * x @ Q @ x + q @ x,
        j_value=None)
    return ProblemInstance(problem=problem, descriptor=descriptor, seed=seed,
                           extra={"Q": Q, "q": q, "lo": lo, "hi": hi})


def make_qp_box(n=50, seed=0):
    """Seeded positive-definite QP with a box that leaves some bounds active."""
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G.T @ G + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    lo = rng.uniform(-1.0, -0.1, size=n)
    hi = rng.uniform(0.1, 1.0, size=n)
    inst = qp_box_instance(Q, q, lo, hi, descriptor=f"qp-box(n={n},seed={seed})",
                           seed=seed)
    inst.norm_K = operator_norm(G)
    return inst


def make_feasibility(alpha, seed=0):
    """Two lines through the origin of the plane with angle alpha between them.

    Both blocks are orthogonal line projections; the unique common point is
    the origin.  The suggested start is a seeded unit vector (the origin
    itself would already be the solution).
    """
    if not (0.0 < alpha <= np.pi / 2.0):
        raise ValueError("alpha must lie in (0, pi/2]")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi)
    u1 = np.array([np.cos(theta), np.sin(theta)])
    u2 = np.array([np.cos(theta + alpha), np.sin(theta + alpha)])
    basis1 = u1.reshape(2, 1)
    basis2 = u2.reshape(2, 1)

    def project_t2(w, gamma):
        return u2 * (u2 @ -w)

    problem = SplitProblem(
        prox_r=subspace_oracle(basis1, "line-1"),
        prox_j=ProxOracle(project_t2, 2, "line-2"),
        A=LinearMap.identity(2),
        B=LinearMap.scaled_identity(2, -1.0),
        b=np.zeros(2))
    z0 = rng.standard_normal(2)
    z0 /= np.linalg.norm(z0)
    return ProblemInstance(
        problem=problem,
        descriptor=f"feasibility(alpha={alpha:.6f},seed={seed})",
        seed=seed, x_true=np.zeros(2), z0=z0,
        extra={"basis_r": basis1, "basis_j": basis2, "alpha": float(alpha)})


# ---------------------------------------------------------------------------
# total-variation inpainting

def gradient_map(size):
    """Forward-difference image gradient with replicate boundary.

    Maps a flattened size x size image to the stacked vertical-then-
    horizontal differences in R^(2*size^2); the adjoint is the matching
    negative divergence.  ||grad||^2 <= 8.
    """
    n = int(size)
    N = n * n

    def apply(x):
        X = x.reshape(n, n)
        gv = np.zeros((n, n))
        gv[:-1, :] = X[1:, :] - X[:-1, :]
        gh = np.zeros((n, n))
        gh[:, :-1] = X[:, 1:] - X[:, :-1]
        return np.concatenate([gv.ravel(), gh.ravel()])

    def adjoint(y):
        gv = y[:N].reshape(n, n)
        gh = y[N:].reshape(n, n)
        out = np.zeros((n, n))
        out[:-1, :] -= gv[:-1, :]
        out[1:, :] += gv[:-1, :]
        out[:, :-1] -= gh[:, :-1]
        out[:, 1:] += gh[:, :-1]
        return out.ravel()

    return LinearMap(apply, adjoint, 2 * N, N, tag="gradient")


def masked_gradient_oracle(grad, mask_flat, observed_values, inner=None):
    """Inexact oracle of the observed-pixel indicator composed with the gradient.

    Approximately solves

        argmin_{x : x[mask] = f}  (gamma/2) ||grad x - w||^2

    by accelerated projected-gradient steps of length 1/8 = 1/||grad||^2
    (gamma scales the objective, not the minimizer).
    """

    def gradient(y, w, gamma):
        return grad.apply_adjoint(grad.apply(y) - w)

    def objective(x, w, gamma):
        res = grad.apply(x) - w
        return 0.5 * float(res @ res)

    def project(x):
        x[mask_flat] = observed_values
        return x

    return AcceleratedGradientProx(
        grad.cols, "masked-gradient", gradient, objective, project=project,
        step=lambda gamma: 1.0 / 8.0, start=project(np.zeros(grad.cols)), inner=inner)


def piecewise_constant_image(size=64, seed=0, patches=5):
    """Synthetic [0,1] image: constant background plus axis-aligned patches."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), 0.2)
    for _ in range(patches):
        h = rng.integers(size // 8, size // 2)
        w = rng.integers(size // 8, size // 2)
        i = rng.integers(0, size - h)
        j = rng.integers(0, size - w)
        img[i:i + h, j:j + w] = rng.uniform(0.0, 1.0)
    return img


def make_tv_inpainting(image=None, mask_density=0.5, seed=0, size=64, inner=None):
    """Total-variation inpainting: min ||grad x||_1 s.t. observed pixels match.

    The x-block is the observed-pixel indicator composed with the gradient
    (solved inexactly), the y-block the l1 norm.  The mask is seeded
    Bernoulli with the given density.
    """
    if image is None:
        image = piecewise_constant_image(size=size, seed=seed)
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise BadShape("image must be square")
    if image.min() < 0.0 or image.max() > 1.0:
        raise BadImage("image values must lie in [0, 1]")
    if not (0.0 < mask_density <= 1.0):
        raise ValueError("mask density must lie in (0, 1]")
    n = image.shape[0]
    N = n * n
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < mask_density
    mask_flat = mask.ravel()
    fvals = image.ravel()[mask_flat]
    grad = gradient_map(n)
    prox_r = masked_gradient_oracle(grad, mask_flat, fvals, inner=inner)

    def shrink(w, gamma):
        return soft_threshold_l1(-w, 1.0 / gamma)  # B = -I folds a sign in

    problem = SplitProblem(
        prox_r=prox_r,
        prox_j=ProxOracle(shrink, 2 * N, "l1"),
        A=grad,
        B=LinearMap.scaled_identity(2 * N, -1.0),
        b=np.zeros(2 * N),
        r_value=None,
        j_value=lambda y: np.abs(y).sum())
    return ProblemInstance(
        problem=problem,
        descriptor=f"tv-inpaint(size={n},density={mask_density},seed={seed})",
        seed=seed, x_true=image.ravel(), gamma_default=1.0,
        extra={"image": image, "mask": mask, "size": n})


def psnr(x, reference):
    """Peak signal-to-noise ratio 10*log10(1/MSE) for [0,1] images."""
    x = np.asarray(x, dtype=float).ravel()
    reference = np.asarray(reference, dtype=float).ravel()
    mse = float(np.mean((x - reference) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# external data formats

@dataclass
class SparseMatrix:
    """Coordinate-format sparse matrix (row, col, value triplets)."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=int)
        self.cols = np.asarray(self.cols, dtype=int)
        self.vals = np.asarray(self.vals, dtype=float)
        if not (self.rows.size == self.cols.size == self.vals.size):
            raise BadShape("triplet arrays must have equal length")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.shape[0] \
                    or self.cols.min() < 0 or self.cols.max() >= self.shape[1]:
                raise BadShape("triplet index out of range")
            pairs = self.rows * self.shape[1] + self.cols
            if np.unique(pairs).size != pairs.size:
                raise BadShape("duplicate coordinates")

    def to_dense(self):
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))


_FEATURE_RE = re.compile(r"^(\d+):(\S+)$")


def parse_libsvm(stream, n_features=None):
    """Parse "label idx:val idx:val ..." lines with ascending 1-based indices.

    Returns (SparseMatrix, labels).  The column count is the largest index
    seen unless `n_features` overrides it.  Malformed tokens raise ParseError
    carrying the 1-based line number.
    """
    if isinstance(stream, bytes):
        stream = stream.decode("ascii")
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows, cols, vals, labels = [], [], [], []
    max_col = 0
    lineno = 0
    for lineno, line in enumerate(stream, start=1):
        parts = line.split()
        if not parts:
            raise ParseError(lineno, "empty line")
        try:
            labels.append(float(parts[0]))
        except ValueError:
            raise ParseError(lineno, f"bad label {parts[0]!r}") from None
        prev_idx = 0
        for token in parts[1:]:
            m = _FEATURE_RE.match(token)
            if m is None:
                raise ParseError(lineno, f"bad feature token {token!r}")
            idx = int(m.group(1))
            if idx < 1:
                raise ParseError(lineno, f"index {idx} is not 1-based")
            if idx <= prev_idx:
                raise ParseError(lineno, f"index {idx} not ascending")
            try:
                val = float(m.group(2))
            except ValueError:
                raise ParseError(lineno, f"bad feature value {m.group(2)!r}") from None
            rows.append(lineno - 1)
            cols.append(idx - 1)
            vals.append(val)
            prev_idx = idx
            max_col = max(max_col, idx)
    n_cols = max_col if n_features is None else int(n_features)
    matrix = SparseMatrix(np.array(rows, int), np.array(cols, int),
                          np.array(vals, float), (lineno, n_cols))
    return matrix, np.asarray(labels, dtype=float)


def serialize_libsvm(matrix, labels):
    """Inverse of parse_libsvm on valid data (floats via repr for exact round trips)."""
    labels = np.asarray(labels, dtype=float)
    if labels.size != matrix.shape[0]:
        raise BadShape("one label per row required")
    by_row = [[] for _ in range(matrix.shape[0])]
    order = np.lexsort((matrix.cols, matrix.rows))
    for i in order:
        by_row[int(matrix.rows[i])].append(
            f"{int(matrix.cols[i]) + 1}:{float(matrix.vals[i])!r}")
    lines = [" ".join([repr(float(labels[r]))] + by_row[r])
             for r in range(matrix.shape[0])]
    return "\n".join(lines) + "\n"


def load_pgm(data):
    """Decode a P2 (ascii) or P5 (binary) PGM image to floats in [0, 1]."""
    if not isinstance(data, (bytes, bytearray)):
        raise FormatError(0, "expected bytes")
    data = bytes(data)

    pos = 0

    def skip_separators(required=True):
        nonlocal pos
        start = pos
        while pos < len(data):
            ch = data[pos:pos + 1]
            if ch.isspace():
                pos += 1
            elif ch == b"#":
                while pos < len(data) and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        if required and pos == start:
            raise FormatError(pos, "expected whitespace")

    def read_token():
        nonlocal pos
        skip_separators(required=False)
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(start, "unexpected end of header")
        return data[start:pos], start

    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(0, f"unsupported magic {magic!r}")
    pos = 2
    dims = []
    for _ in range(3):
        token, at = read_token()
        try:
            dims.append(int(token))
        except ValueError:
            raise FormatError(at, f"bad header integer {token!r}") from None
    width, height, maxval = dims
    if width <= 0 or height <= 0:
        raise FormatError(2, "non-positive dimensions")
    if not (0 < maxval <= 65535):
        raise FormatError(2, f"maxval {maxval} out of range")
    count = width * height
    if magic == b"P2":
        values = []
        for _ in range(count):
            token, at = read_token()
            try:
                values.append(int(token))
            except ValueError:
                raise FormatError(at, f"bad sample {token!r}") from None
        arr = np.array(values, dtype=float)
    else:
        if pos >= len(data) or not data[pos:pos + 1].isspace():
            raise FormatError(pos, "missing separator before raster")
        pos += 1
        wide = maxval > 255
        need = count * (2 if wide else 1)
        raster = data[pos:pos + need]
        if len(raster) < need:
            raise FormatError(pos + len(raster), "truncated raster")
        dtype = ">u2" if wide else np.uint8
        arr = np.frombuffer(raster, dtype=dtype, count=count).astype(float)
    if arr.max(initial=0.0) > maxval:
        raise FormatError(pos, "sample exceeds maxval")
    return (arr / maxval).reshape(height, width)
