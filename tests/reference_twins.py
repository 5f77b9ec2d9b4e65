"""Reference implementations that the tests compare the package against.

Each is a second, independent way of computing something the package
computes one way, so it lives beside the tests rather than in `admmkit`:

- `cholesky_solve` solves (Q + gamma*I) x = r with `cho_solve` on the
  cache's Cholesky factor, two triangular solves where
  `prox.QuadraticSolveCache.solve` makes one product with the inverse;
- `project_affine` projects onto {x : K x = f} by factoring K K^T on every
  call, the check on `prox.affine_oracle`'s cached solve;
- `dr_dual_step` runs the ADMM fixed-point iteration through the conjugate
  proximal maps, the check on `splitting.variant_step`'s z-sequence.
"""

import numpy as np
import scipy.linalg

from admmkit.splitting import SubproblemFailure


def cholesky_solve(cache, r, gamma):
    """x = (Q + gamma*I)^{-1} r by `cho_solve` on `cache.factor(gamma)`, the `cho_factor` per gamma.

    Takes the place of `QuadraticSolveCache.solve` when set on the class, and
    raises the same ValueError on a non-finite r.
    """
    return scipy.linalg.cho_solve(cache.factor(gamma), r)


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
