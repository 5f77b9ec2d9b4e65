"""Problem gallery, synthetic data generation and the PGM image reader.

Every constructor is deterministic given its seed and builds its
ProblemInstance in one call, bundling the split-form problem data, the
planted ground truth where one exists, a suggested starting point, a slot
for the reference solution filled by a long reference run, and whether
that solution is unique.  Every gallery problem has the split A x = y, with A
the identity except for TV's image gradient; its y-oracle is J's own prox.
The basis-pursuit builders (`make_bp_l1`, `make_bp_l12`, `make_bp_nuclear`)
draw their truth and regularizer and share one tail, `_basis_pursuit`.
Every oracle is an exact, stateless ProxOracle; the TV x-oracle solves its
subproblem with one cached sparse factorization.  A LASSO's data term is
one `prox.WideLeastSquares`, which gives the y-oracle and is also declared
as the split's `wide_lsq`, so that steps carry the image K z.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg.blas import dnrm2 as _nrm2

from .prox import (GroupPartition, LinearMap, ProxOracle, WideLeastSquares, affine_oracle,
                   box_oracle, group_l12_oracle, l1_oracle, nuclear_oracle, subspace_oracle,
                   quadratic_oracle)
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


# the bound a certificate is held to, whatever tolerance the solvers run to
CERTIFICATE_TOL = 1e-6


@dataclass(frozen=True)
class Certificate:
    """A reference-free reading of how far a point (x, y, psi) of a run is from optimal.

    `gap` is the relative duality gap (P - D) / max(1, |P|): P is the
    primal value at the point and D the value of a dual feasible point built
    from it (Fercoq, Gramfort & Salmon 2015), so weak duality makes it
    nonnegative up to rounding and it is zero at a solution.  `residual` is
    the consensus residual ||x - y|| / max(1, ||y||) of the split x = y.
    It passes when both are at most CERTIFICATE_TOL.
    """

    gap: float
    residual: float

    @property
    def passed(self):
        return self.gap <= CERTIFICATE_TOL and self.residual <= CERTIFICATE_TOL


def _certificate(primal, dual, x, y):
    """The Certificate of primal value `primal`, dual value `dual` and the split x = y.

    The norms are BLAS nrm2's, which do not overflow for entries near the
    largest float (a y-step at a tiny gamma makes them).
    """
    return Certificate(gap=(primal - dual) / max(1.0, abs(primal)),
                       residual=_nrm2(x - y) / max(1.0, _nrm2(y)))


@dataclass
class Reference:
    """Fixed point z and primal x produced by a long reference run.

    `iterations` and `stop` ("tol", "floor" or "budget") say how the run
    ended, `extrapolated` how many predictions it applied and `certificate`
    what the instance's certificate reads at its final point (None when the
    instance has none); a pair given by hand leaves them at 0, None, 0 and
    None.  It solved the instance unless it stopped on its budget or its
    certificate failed (`solved`).
    """

    z: np.ndarray
    x: np.ndarray
    iterations: int = 0
    stop: Optional[str] = None
    extrapolated: int = 0
    certificate: Optional[Certificate] = None

    @property
    def solved(self):
        return self.stop != "budget" and (self.certificate is None or self.certificate.passed)


@dataclass
class ProblemInstance:
    """A gallery problem with its data, ground truth and reference slot.

    `unique_solution`, set by each constructor, says that the fixed point z*
    is unique, and with it x*, y* and the multiplier: True for LASSO with
    Gaussian data (in general position with probability one; Tibshirani
    2013), the positive-definite QP of `make_qp_box` and two distinct lines.
    False for basis pursuit (its multiplier need not be unique) and TV (its
    minimizer need not be); on those the reference's z is one fixed point
    of many, so no run measures its distance to it.
    `certificate`, set by the constructors of the problems whose dual is
    cheap (LASSO and basis pursuit), maps a run's final (x, y, psi) to its
    Certificate.  The reference solve is accelerated on an instance that has
    a unique solution or a certificate (`accelerated_reference`).
    """

    problem: SplitProblem
    descriptor: str
    seed: Optional[int] = None
    x_true: Optional[np.ndarray] = None
    z0: Optional[np.ndarray] = None
    norm_K: Optional[float] = None
    gamma_default: float = 1.0
    extra: dict = field(default_factory=dict)
    reference: Optional[Reference] = None
    unique_solution: bool = False
    certificate: Optional[Callable] = None

    @property
    def accelerated_reference(self):
        return self.unique_solution or self.certificate is not None


def operator_norm(K, gram=None):
    """2-norm of a dense matrix: the root of the top eigenvalue of its smaller Gram matrix.

    `gram` is that Gram matrix (K K' for a wide K, else K'K) when the caller
    has already formed it.
    """
    if gram is None:
        K = np.asarray(K, dtype=float)
        gram = K @ K.T if K.shape[0] < K.shape[1] else K.T @ K
    return float(np.sqrt(np.linalg.eigvalsh(gram).max(initial=0.0)))


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


def make_lasso(m=64, n=256, sparsity=13, mu=1.0, seed=0):
    """l1-regularized least squares split as x = y.

    The x-block carries mu*||.||_1 and the y-block the quadratic data term
    0.5||K y - f||^2; f is the measurement of a planted `sparsity`-sparse
    signal.  The data term is one WideLeastSquares, which is the y-oracle
    (through `oracle()`) and the split's `wide_lsq`, so steps carry K z.
    """
    if not (0 < m < n):
        raise BadShape("need 0 < m < n")
    if not (0 < sparsity < m):
        raise BadShape("need 0 < sparsity < m")
    if not (mu > 0 and np.isfinite(mu)):
        raise ValueError("mu must be finite and positive")
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    x_true = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    x_true[support] = rng.standard_normal(sparsity)
    f = K @ x_true
    # J(y) = 0.5 y'K'Ky + q'y + 0.5||f||^2 with q = -K'f, and the y-step
    # makes psi = K'Ky + q, so J(y) = 0.5 (y'psi + q'y + ||f||^2)
    term = WideLeastSquares(K, f)  # wide, since m < n
    q, ff = -term.Ktf, f @ f
    problem = SplitProblem(l1_oracle(n, mu), term.oracle(),
                           r_value=lambda u: mu * np.abs(u).sum(),
                           j_value=lambda y, psi: 0.5 * (y @ psi + y @ q + ff),
                           wide_lsq=term)
    nK = operator_norm(K, gram=term.gram)

    def certificate(x, y, psi):
        # the dual point u = s (f - K x), scaled into |K'u| <= mu, with K x
        # from x's nonzero columns and one dense pass for K'(f - K x)
        r = f - term.image(x)[0]
        top = np.abs(K.T @ r).max(initial=0.0)
        u = r * min(1.0, mu / top) if top > 0.0 else r
        return _certificate(mu * np.abs(x).sum() + 0.5 * (r @ r), f @ u - 0.5 * (u @ u), x, y)

    return ProblemInstance(
        problem=problem,
        descriptor=f"lasso(m={m},n={n},sparsity={sparsity},mu={mu},seed={seed})",
        seed=seed, x_true=x_true, norm_K=nK, gamma_default=nK ** 2 / 10.0,
        extra={"K": K, "f": f}, unique_solution=True, certificate=certificate)


def _basis_pursuit(K, x_true, prox_r, r_value, dual_norm, descriptor, seed):
    """min R(x) s.t. K x = f with f = K x_true, split as x = y with the set on the y-block.

    `dual_norm` is the dual norm of R.  The certificate reads the dual point
    off the y-step: y is feasible and psi lies in range(K'), so
    psi / max(1, dual_norm(psi)) is dual feasible with value -<psi, y> over
    that scale, and the gap is R(y) + <y, psi> / max(1, dual_norm(psi)).
    """
    f = K @ x_true
    problem = SplitProblem(prox_r, affine_oracle(K, f), r_value=r_value)

    def certificate(x, y, psi):
        return _certificate(r_value(y), -(y @ psi) / max(1.0, dual_norm(psi)), x, y)

    return ProblemInstance(problem=problem, descriptor=descriptor, seed=seed, x_true=x_true,
                           norm_K=operator_norm(K), extra={"K": K, "f": f},
                           certificate=certificate)


def make_bp_l1(m=64, n=256, sparsity=16, seed=0):
    """Basis pursuit with the l1 norm: a `sparsity`-sparse truth seen through m measurements."""
    if not (0 < sparsity < m < n):
        raise BadShape("need sparsity < m < n")
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    x_true = np.zeros(n)
    x_true[rng.choice(n, size=sparsity, replace=False)] = rng.standard_normal(sparsity)
    return _basis_pursuit(K, x_true, l1_oracle(n, 1.0), lambda x: np.abs(x).sum(),
                          lambda u: np.abs(u).max(initial=0.0),
                          f"bp-l1(m={m},n={n},sparsity={sparsity},seed={seed})", seed)


def make_bp_l12(m=64, n=256, blocks=8, block_size=4, seed=0):
    """Basis pursuit with the group l1,2 norm: `blocks` active blocks of `block_size`."""
    if n % block_size != 0:
        raise BadShape("n must be a multiple of the block size")
    ngroups = n // block_size
    if not (0 < blocks * block_size < m < n):
        raise BadShape("need blocks*block_size < m < n")
    groups = [np.arange(g * block_size, (g + 1) * block_size) for g in range(ngroups)]
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    x_true = np.zeros(n)
    for g in rng.choice(ngroups, size=blocks, replace=False):
        x_true[groups[g]] = rng.standard_normal(block_size)
    partition = GroupPartition(groups, n)
    return _basis_pursuit(K, x_true, group_l12_oracle(n, groups, 1.0),
                          lambda x: partition.norms(x).sum(),
                          lambda u: partition.norms(u).max(initial=0.0),
                          f"bp-l12(m={m},n={n},blocks={blocks}x{block_size},seed={seed})", seed)


def make_bp_nuclear(matrix_shape=(24, 24), rank=2, measurements=300, seed=0):
    """Basis pursuit with the nuclear norm: a low-rank truth seen through `measurements`."""
    rows, cols = matrix_shape
    n, m = rows * cols, measurements
    if not (0 < rank <= min(rows, cols)) or not (0 < m < n):
        raise BadShape("need rank <= min(shape) and measurements < rows*cols")
    rng = np.random.default_rng(seed)
    K = _gaussian_sensing(rng, m, n)
    L, R = rng.standard_normal((rows, rank)), rng.standard_normal((cols, rank))
    x_true = (L @ R.T).ravel() / np.sqrt(rank)
    return _basis_pursuit(
        K, x_true, nuclear_oracle((rows, cols), 1.0),
        lambda x: np.linalg.svd(x.reshape(rows, cols), compute_uv=False).sum(),
        lambda u: np.linalg.norm(u.reshape(rows, cols), 2),
        f"bp-nuclear(shape={rows}x{cols},rank={rank},m={m},seed={seed})", seed)


def make_qp_box(n=50, seed=0):
    """Seeded positive-definite QP with a box that leaves some bounds active."""
    if n < 1:
        raise BadShape(f"n={n}: the QP needs at least one variable")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n)) / np.sqrt(n)
    Q = G.T @ G + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    lo = rng.uniform(-1.0, -0.1, size=n)
    hi = rng.uniform(0.1, 1.0, size=n)
    problem = SplitProblem(quadratic_oracle(Q, q), box_oracle(lo, hi),
                           r_value=lambda x: 0.5 * x @ Q @ x + q @ x)
    return ProblemInstance(problem=problem, descriptor=f"qp-box(n={n},seed={seed})",
                           seed=seed, norm_K=operator_norm(G),
                           extra={"Q": Q, "q": q, "lo": lo, "hi": hi},
                           unique_solution=True)  # Q = G'G + 0.1 I is positive definite


def make_feasibility(alpha=np.pi / 4, seed=0):
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
    problem = SplitProblem(subspace_oracle(basis1), subspace_oracle(basis2))
    z0 = rng.standard_normal(2)
    z0 /= np.linalg.norm(z0)
    return ProblemInstance(
        problem=problem,
        descriptor=f"feasibility(alpha={alpha:.6f},seed={seed})",
        seed=seed, x_true=np.zeros(2), z0=z0,
        extra={"basis_r": basis1, "basis_j": basis2, "alpha": float(alpha)},
        unique_solution=True)


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
    costs one adjoint, one transposed sparse LU solve and a scatter into a
    fresh copy of the observed-pixel image.  L_FF is nonsingular when at
    least one pixel is observed, since every free region of the connected
    grid then borders one.
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
        rhs = grad.apply_adjoint(w)[free]
        rhs += shift
        x = start.copy()
        # L_FF is exactly symmetric (its off-diagonal pairs are mirrored), so
        # L_FF' x = rhs is the same system, and SuperLU's transposed solve
        # from the same factor measured about 0.7x the plain solve's time
        x[free] = lu.solve(rhs, trans="T")
        return x

    return ProxOracle(evaluate, grad.cols, "masked-gradient")


def piecewise_constant_image(size=64, seed=0):
    """Synthetic [0,1] image: constant background plus five axis-aligned patches."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), 0.2)
    for _ in range(5):
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
        if size < 2:
            raise BadShape(f"size={size}: TV inpainting needs an image of at least 2 x 2 pixels")
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
    problem = SplitProblem(masked_gradient_oracle(grad, mask, image),
                           l1_oracle(grad.rows), A=grad,
                           j_value=lambda y, psi: np.abs(y).sum())
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


# one PGM token at a position: the separators before it (whitespace, and '#'
# comments that run to the end of the line), then its run of non-whitespace
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def load_pgm(data):
    """Decode a P2 (ascii) or P5 (binary) PGM image to floats in [0, 1].

    As Netpbm's PGM format requires, whitespace follows the magic number and
    the header fields and ASCII samples are unsigned decimal integers.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise FormatError(0, "expected bytes")
    data = bytes(data)
    magic = _PGM_TOKEN.match(data)
    if magic.start(1) != 0 or magic[1] not in (b"P2", b"P5"):
        raise FormatError(0, f"expected magic P2 or P5 and whitespace, got {data[:3]!r}")
    pos, at = magic.end(), 0

    def integer(what):
        nonlocal pos, at
        token = _PGM_TOKEN.match(data, pos)
        text, at, pos = token[1], token.start(1), token.end()
        if not text:
            raise FormatError(at, "unexpected end of header")
        try:
            if text.isdigit():  # no sign or '_', which int() would take
                return int(text)
        except ValueError:  # more digits than int() converts
            pass
        raise FormatError(at, f"bad {what} {text!r}")

    (width, width_at), (height, height_at), (maxval, maxval_at) = [
        (integer("header integer"), at) for _ in range(3)]  # each with its offset
    if min(width, height) <= 0:
        raise FormatError(width_at if width <= 0 else height_at, "non-positive dimensions")
    if not (0 < maxval <= 65535):
        raise FormatError(maxval_at, f"maxval {maxval} out of range")
    count = width * height
    if magic[1] == b"P2":
        values, starts = zip(*[(integer("sample"), at) for _ in range(count)])
        arr = np.array(values, dtype=float)
    else:
        if not data[pos:pos + 1].isspace():
            raise FormatError(pos, "missing separator before raster")
        pos += 1
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        raster = data[pos:pos + count * dtype.itemsize]
        if len(raster) < count * dtype.itemsize:
            raise FormatError(pos + len(raster), "truncated raster")
        arr = np.frombuffer(raster, dtype=dtype, count=count).astype(float)
        starts = range(pos, pos + len(raster), dtype.itemsize)
    if arr.max(initial=0.0) > maxval:
        raise FormatError(starts[np.argmax(arr > maxval)], "sample exceeds maxval")
    return (arr / maxval).reshape(height, width)
