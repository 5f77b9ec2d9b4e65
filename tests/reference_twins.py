"""Reference implementations that the tests compare the package against.

Each is a second, independent way of computing something the package
computes one way, so it lives beside the tests rather than in `admmkit`:

- `cholesky_solve` solves (Q + gamma*I) x = r with `cho_solve` on a
  Cholesky factor, two triangular solves where
  `prox.QuadraticSolveCache.solve` makes one product with the inverse;
- `wide_least_squares_oracle` is the LASSO data term's prox formed from
  r = gamma*w + K'f, with two dense passes over K (K r and K't), the check
  on `prox.WideLeastSquares.prox`, which takes K r from a carried K z;
- `project_affine` projects onto {x : K x = f} by factoring K K^T on every
  call, the check on `prox.affine_oracle`'s cached solve;
- `dr_dual_step` runs the ADMM fixed-point iteration through the conjugate
  proximal maps, the check on `splitting.variant_step`'s z-sequence.
"""

import numpy as np
import scipy.linalg

from admmkit.prox import ProxOracle
from admmkit.splitting import SubproblemFailure


def cholesky_solve(cache, r, gamma):
    """x = (Q + gamma*I)^{-1} r by `cho_solve` on `cache.factor(gamma)`, a fresh `cho_factor`.

    Takes the place of `QuadraticSolveCache.solve` when set on the class, and
    raises the same ValueError on a non-finite r.
    """
    return scipy.linalg.cho_solve(cache.factor(gamma), r)


def wide_least_squares_oracle(lsq):
    """The prox of 0.5||K y - f||^2 for a `WideLeastSquares` lsq as a ProxOracle.

    y = (r - K't)/gamma with r = gamma*w + K'f and t = (KK' + gamma*I)^{-1} K r
    from lsq's cached solve, K r formed from r.
    """
    def evaluate(w, gamma):
        r = gamma * w + lsq.Ktf
        t = lsq._cache.solve(lsq.K @ r, gamma)
        return (r - lsq.K.T @ t) / gamma

    return ProxOracle(evaluate, lsq.K.shape[1], "least-squares")


def project_affine(w, K, f):
    """Orthogonal projection w - K^T (K K^T)^{-1} (K w - f) of w onto {x : K x = f}.

    Factors K K^T on every call; `affine_oracle` factors it once.
    """
    K = np.asarray(K, dtype=float)
    return w - K.T @ scipy.linalg.cho_solve(scipy.linalg.cho_factor(K @ K.T), K @ w - f)


def dr_dual_step(problem, z, gamma, variant="standard", phi=1.0):
    """One dual fixed-point step on z; returns (u, z_next, psi).

    Runs Douglas-Rachford splitting on the dual problem (standard/relaxed)
    or Peaceman-Rachford (symmetric) through the resolvents of the
    conjugates: psi = z - gamma*prox_j(z/gamma) (Moreau) and, with
    w = 2psi - z, u = w + gamma*A x for x = prox_r(-w/gamma).  The
    z-sequence coincides with the one `variant_step` produces.
    """
    try:
        psi = z - gamma * problem.prox_j.evaluate(z / gamma, gamma)
        w = 2.0 * psi - z
        u = w + gamma * problem.A.apply(problem.prox_r.evaluate(-w / gamma, gamma))
    except Exception as exc:  # noqa: BLE001
        raise SubproblemFailure("dual resolvent failed") from exc
    if variant == "symmetric":
        z_next = z + 2.0 * (u - psi)
    elif variant == "relaxed":
        z_next = z + phi * (u - psi)
    else:
        z_next = z + (u - psi)
    return u, z_next, psi
