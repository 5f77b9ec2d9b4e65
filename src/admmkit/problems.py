"""Problem gallery, synthetic data generation and the PGM image reader.

Every constructor is deterministic given its seed and returns a
ProblemInstance bundling the split-form problem data, the planted ground
truth where one exists, a suggested starting point and a slot for the
reference solution filled by a long reference run.  Every gallery problem
has the split A x - y = 0, built by one helper from the A = identity prox of
each block.  Every oracle is an exact, stateless ProxOracle; the TV
x-oracle solves its subproblem with one cached sparse factorization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .prox import (LinearMap, ProxOracle, affine_oracle, box_oracle, group_l12_oracle,
                   l1_oracle, least_squares_oracle, nuclear_oracle, smaller_gram,
                   subspace_oracle, quadratic_oracle)
from .splitting import SplitProblem


class BadShape(ValueError):
    """Inconsistent problem dimensions."""


class BadImage(ValueError):
    """Image values outside [0, 1]."""


class EmptyMask(ValueError):
    """Inpainting mask that observes no pixel."""


class FormatError(ValueError):
    """Malformed image payload."""

    def __init__(self, offset, reason):
        super().__init__(f"offset {offset}: {reason}")
        self.offset = offset
        self.reason = reason


@dataclass
class Reference:
    """Solution triple produced by a long reference run.

    `iterations` and `stop` ("tol", "floor" or "budget") say how the run
    ended; a triple given by hand leaves them at 0 and None.
    """

    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    iterations: int = 0
    stop: Optional[str] = None


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


GAMMA_RULES = ("K2/10", "K2+0.1")  # penalty rules relative to ||K||^2


def resolve_gamma(spec, norm_K=None):
    """Turn a penalty rule into a number.

    Accepts an absolute value, or the strings "K2/10" and "K2+0.1" which are
    relative to the squared operator norm of the instance's data matrix.
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    text = str(spec).strip()
    if text in GAMMA_RULES:
        if norm_K is None:
            raise ValueError(f"gamma rule {text!r} needs the operator norm")
        return norm_K ** 2 / 10.0 if text == "K2/10" else norm_K ** 2 + 0.1
    return float(text)


def _gaussian_sensing(rng, m, n):
    """Column-normalized Gaussian matrix with entries ~ N(0, 1/m)."""
    K = rng.standard_normal((m, n)) / np.sqrt(m)
    K /= np.linalg.norm(K, axis=0)
    return K


def _split_problem(prox_r, prox_j, r_value=None, j_value=None, A=None):
    """SplitProblem of min R(x) + J(y) s.t. A x - y = 0 (B = -I, b = 0).

    A is the identity unless given.  `prox_j` is the exact A = identity prox
    of J; with B = -I the y-subproblem argmin J + (gamma/2)||-y - w||^2 is
    that prox at -w, which the problem's y-oracle evaluates.
    """
    A = A if A is not None else LinearMap.identity(prox_r.dim)
    prox = prox_j.evaluate
    return SplitProblem(
        prox_r=prox_r,
        prox_j=ProxOracle(lambda w, gamma: prox(-w, gamma), prox_j.dim, prox_j.name),
        A=A,
        B=LinearMap.scaled_identity(A.rows, -1.0),
        b=np.zeros(A.rows),
        r_value=r_value,
        j_value=j_value)


def make_lasso(m=64, n=256, sparsity=13, mu=1.0, seed=0, data_block="y"):
    """l1-regularized least squares split as x - y = 0.

    By default the x-block carries mu*||.||_1 and the y-block the quadratic
    data term; f is the measurement of a planted `sparsity`-sparse signal.
    With data_block="x" the blocks are swapped.
    """
    if not (0 < m < n):
        raise BadShape("need 0 < m < n")
    if not (0 < sparsity < m):
        raise BadShape("need 0 < sparsity < m")
    if not (mu > 0 and np.isfinite(mu)):
        raise ValueError("mu must be finite and positive")
    if data_block not in ("x", "y"):
        raise ValueError("data_block must be 'x' or 'y'")
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    x_true = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    x_true[support] = rng.standard_normal(sparsity)
    f = K @ x_true
    data_value = lambda u: 0.5 * np.linalg.norm(K @ u - f) ** 2
    l1_value = lambda u: mu * np.abs(u).sum()
    if data_block == "y":
        problem = _split_problem(l1_oracle(n, mu), least_squares_oracle(K, f),
                                 l1_value, data_value)
    else:
        problem = _split_problem(least_squares_oracle(K, f), l1_oracle(n, mu),
                                 data_value, l1_value)
    nK = operator_norm(K)
    return ProblemInstance(
        problem=problem,
        descriptor=f"lasso(m={m},n={n},sparsity={sparsity},mu={mu},seed={seed})",
        seed=seed, x_true=x_true, norm_K=nK, gamma_default=nK ** 2 / 10.0,
        extra={"K": K, "f": f})


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
    problem = _split_problem(prox_r, affine_oracle(K, f, "affine-set"), r_value)
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
    problem = _split_problem(quadratic_oracle(Q, q), box_oracle(lo, hi),
                             r_value=lambda x: 0.5 * x @ Q @ x + q @ x)
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
    problem = _split_problem(subspace_oracle(basis1, "line-1"),
                             subspace_oracle(basis2, "line-2"))
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
    negative divergence.  ||grad||^2 <= 8.  Both work on the flattened
    image with contiguous 1-D differences: offset `size` for the vertical
    block, offset 1 for the horizontal one, whose last-column entries (which
    would wrap to the next row) are zero.
    """
    n = int(size)
    N = n * n

    def apply(x):
        out = np.empty(2 * N)
        np.subtract(x[n:], x[:N - n], out=out[:N - n])
        out[N - n:N] = 0.0
        np.subtract(x[1:], x[:-1], out=out[N:-1])
        out[N + n - 1::n] = 0.0  # last column: no right neighbour
        return out

    def adjoint(y):
        gv = y[:N - n]  # the vertical block's last row is ignored
        gh = y[N:].copy()
        gh[n - 1::n] = 0.0  # and so is the horizontal block's last column
        out = np.empty(N)
        np.subtract(0.0, gv, out=out[:N - n])
        out[N - n:] = 0.0
        out[n:] += gv
        out -= gh
        out[1:] += gh[:-1]
        return out

    return LinearMap(apply, adjoint, 2 * N, N)


def _free_pixel_laplacian(mask):
    """L_FF of the Neumann 5-point Laplacian L = grad' grad on the unobserved pixels.

    A pixel's diagonal entry is its degree in the n x n grid; each pair of
    free neighbours adds -1 on both sides of the diagonal.
    """
    n = mask.shape[0]
    pixel = np.arange(n * n).reshape(n, n)
    a = np.concatenate([pixel[:-1].ravel(), pixel[:, :-1].ravel()])  # each grid edge once
    b = np.concatenate([pixel[1:].ravel(), pixel[:, 1:].ravel()])
    free = ~mask.ravel()
    at = np.cumsum(free) - 1  # position of a free pixel among the free ones
    degree = np.bincount(a, minlength=n * n) + np.bincount(b, minlength=n * n)
    both = free[a] & free[b]
    i, j = at[a[both]], at[b[both]]
    d = np.arange(np.count_nonzero(free))
    return scipy.sparse.csc_matrix(
        (np.concatenate([degree[free].astype(float), -np.ones(2 * i.size)]),
         (np.concatenate([d, i, j]), np.concatenate([d, j, i]))), shape=(d.size, d.size))


def masked_gradient_oracle(grad, mask, image):
    """Exact oracle of the observed-pixel indicator composed with the gradient.

    Solves

        argmin_{x : x[mask] = image[mask]}  (gamma/2) ||grad x - w||^2

    (gamma scales the objective, not the minimizer): with f = image[mask]
    and L = grad' grad, the free pixels F solve L_FF x_F = (grad' w)_F -
    L_FO f, one sparse SPD system for every w and gamma.  The first
    evaluate assembles L_FF and factors it with SuperLU, once per oracle and
    under a lock, so concurrent solves can share the oracle; each call then
    costs one adjoint, one sparse LU solve and a scatter into a fresh copy of
    the observed-pixel image.  L_FF is nonsingular when at least one pixel
    is observed, since every free region of the connected grid then borders
    one.
    """
    observed = np.flatnonzero(mask)
    free = np.flatnonzero(~mask)
    start = np.zeros(grad.cols)
    start[observed] = image.ravel()[observed]
    lock = threading.Lock()
    factored = []  # [(SuperLU factor of L_FF, -L_FO f)] once evaluated

    def evaluate(w, gamma):
        with lock:
            if not factored:
                lu = scipy.sparse.linalg.splu(
                    _free_pixel_laplacian(mask), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})
                factored.append((lu, -grad.apply_adjoint(grad.apply(start))[free]))
        lu, shift = factored[0]
        x = start.copy()
        x[free] = lu.solve(grad.apply_adjoint(w)[free] + shift)
        return x

    return ProxOracle(evaluate, grad.cols, "masked-gradient")


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


def make_tv_inpainting(image=None, mask_density=0.5, seed=0, size=64):
    """Total-variation inpainting: min ||grad x||_1 s.t. observed pixels match.

    The x-block is the observed-pixel indicator composed with the gradient,
    solved exactly by one cached sparse factorization; the y-block is the l1
    norm.  The mask is seeded Bernoulli with the given density and must
    observe at least one pixel (EmptyMask otherwise).
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
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < mask_density
    if not mask.any():
        raise EmptyMask(f"the mask of density {mask_density} observes none of the "
                        f"{n * n} pixels")
    grad = gradient_map(n)
    problem = _split_problem(masked_gradient_oracle(grad, mask, image),
                             l1_oracle(grad.rows), j_value=lambda y: np.abs(y).sum(),
                             A=grad)
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
