import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from admmkit import extrapolate
from admmkit.extrapolate import (GRAM_COND_LIMIT, CompanionFit, DiffWindow, DimensionMismatch,
                                 DivergentSeries, EigenFailure, InsufficientHistory,
                                 NearSingular, _power_sum_first_column, companion_matrix,
                                 extrapolate_finite, extrapolate_infinite, fit_coefficients,
                                 fitting_error_bound, push_difference, spectral_radius)


# reference routes the solver does not take: the weighted closed form of the
# recurrence limit and reduced rank extrapolation (RRE)

class DegenerateConstraint(RuntimeError):
    """Sum-to-one constrained least squares has no solution."""


def extrapolate_infinite_weighted(z, window, fit):
    """Alternative closed form (z_k - sum_j c_j z_{k-j}) / (1 - sum(c)).

    Algebraically identical to `extrapolate_infinite`: the cross-check route.
    """
    if abs(1.0 - fit.coeff_sum) <= 1e-12:
        raise NearSingular(f"|1 - sum(c)| = {abs(1.0 - fit.coeff_sum):.3e}")
    acc = z.astype(float).copy()
    z_back = z.astype(float).copy()
    for j in range(fit.c.size):
        z_back = z_back - window.column(j)  # z_{k-j-1}
        acc -= fit.c[j] * z_back
    return acc / (1.0 - fit.coeff_sum)


def rre_coefficients(window):
    """Weights minimizing ||V gamma|| subject to sum(gamma) = 1.

    V holds all q+1 differences of the window.  Solved through the KKT
    system of the equality-constrained least-squares problem; among
    non-unique minimizers the minimum-norm one is returned.
    """
    if not window.is_full:
        raise InsufficientHistory(
            f"need {window.capacity} differences, have {window.count}")
    V = window.matrix()
    if not np.all(np.isfinite(V)):
        raise DegenerateConstraint("window contains non-finite differences")
    w = V.shape[1]
    G = V.T @ V
    kkt = np.zeros((w + 1, w + 1))
    kkt[:w, :w] = G
    kkt[:w, w] = 1.0
    kkt[w, :w] = 1.0
    rhs = np.zeros(w + 1)
    rhs[w] = 1.0
    sol, _res, _rank, _sv = np.linalg.lstsq(kkt, rhs, rcond=None)
    gamma = sol[:w]
    if abs(np.sum(gamma) - 1.0) > 1e-8:
        raise DegenerateConstraint("sum-to-one constraint could not be met")
    return gamma


def rre_point(z, window, gamma):
    """Weighted combination sum_j gamma_j z_{k-j} rebuilt from z_k and the window."""
    acc = gamma[0] * z.astype(float)
    z_back = z.astype(float).copy()
    for j in range(1, gamma.size):
        z_back = z_back - window.column(j - 1)  # z_{k-j}
        acc += gamma[j] * z_back
    return acc


def window_from(vs, capacity):
    w = DiffWindow(len(np.atleast_1d(vs[0])), capacity)
    for v in vs:
        push_difference(w, np.atleast_1d(np.asarray(v, dtype=float)))
    return w


def rotation_block(r, theta):
    c, s = np.cos(theta), np.sin(theta)
    return r * np.array([[c, -s], [s, c]])


def normal_matrix(rng, moduli, angles):
    """Random-orthogonal conjugate of rotation blocks + real eigenvalues."""
    blocks = [rotation_block(r, t) for r, t in zip(moduli, angles)]
    dim = 2 * len(blocks)
    M = np.zeros((dim, dim))
    for i, B in enumerate(blocks):
        M[2 * i:2 * i + 2, 2 * i:2 * i + 2] = B
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return Q @ M @ Q.T


def geometric_setup(lam, k, q):
    """Scalar z_j = lam^j sequence with its difference window at index k."""
    zs = [lam ** j for j in range(k + 1)]
    vs = [zs[j] - zs[j - 1] for j in range(1, k + 1)]
    win = window_from(vs[-(q + 1):], q + 1)
    return np.array([zs[k]]), win


def test_window_push_semantics():
    w = DiffWindow(2, 3)
    push_difference(w, np.array([1.0, 0.0]))
    assert w.count == 1
    np.testing.assert_array_equal(w.column(0), [1.0, 0.0])
    v1, v2, v3, v4 = (np.array([float(i), 0.0]) for i in (1, 2, 3, 4))
    w = window_from([v1, v2, v3], 3)
    assert w.is_full
    push_difference(w, v4)
    np.testing.assert_array_equal(w.matrix()[0], [4.0, 3.0, 2.0])  # oldest dropped
    w = window_from([v1, v2, v3], 2)
    np.testing.assert_array_equal(w.matrix()[0], [3.0, 2.0])
    with pytest.raises(DimensionMismatch):
        push_difference(w, np.zeros(3))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 20), st.integers(0, 2 ** 31 - 1))
def test_window_matches_list_model(dim, capacity, pushes, seed):
    rng = np.random.default_rng(seed)
    win = DiffWindow(dim, capacity)
    model = []  # newest first
    for _ in range(pushes):
        v = rng.standard_normal(dim)
        push_difference(win, v)
        model = [v.copy()] + model[:capacity - 1]
        assert win.count == len(model)
        assert win.is_full == (len(model) == capacity)
        for j, col in enumerate(model):
            np.testing.assert_array_equal(win.column(j), col)
        for limit in (None, *range(capacity + 2)):
            cols = model if limit is None else model[:limit]
            expected = np.column_stack(cols) if cols else np.zeros((dim, 0))
            np.testing.assert_array_equal(win.matrix(limit), expected)
    with pytest.raises(IndexError):
        win.column(len(model))


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(1, 20), st.integers(0, 2 ** 31 - 1))
def test_window_keeps_its_own_copy(dim, capacity, pushes, seed):
    rng = np.random.default_rng(seed)
    win = DiffWindow(dim, capacity)
    kept = []
    for _ in range(pushes):
        v = rng.standard_normal(dim)
        push_difference(win, v)
        kept = [v.copy()] + kept[:capacity - 1]
        v[:] = np.nan  # the caller reuses its buffer
    for j, col in enumerate(kept):
        np.testing.assert_array_equal(win.column(j), col)
    with pytest.raises(ValueError):
        win.column(0)[0] = 1.0  # columns are read-only views of the ring


def recurrence(rng, p, q):
    """Orthonormal p x q basis Q and a q x q block D with distinct moduli in [0.3, 0.9].

    v_j = Q D^j y satisfies a linear recurrence of order exactly q.
    """
    moduli = rng.permutation(np.linspace(0.3, 0.9, q))
    D = np.zeros((q, q))
    pos = 0
    while pos < q:
        if q - pos >= 2 and rng.random() < 0.5:
            D[pos:pos + 2, pos:pos + 2] = rotation_block(moduli[pos], rng.uniform(0.3, 2.5))
            pos += 2
        else:
            D[pos, pos] = moduli[pos] * rng.choice([-1.0, 1.0])
            pos += 1
    Q = np.linalg.qr(rng.standard_normal((p, q)))[0]
    return Q, D


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300), st.integers(1, 6), st.integers(0, 9), st.integers(1, 130),
       st.integers(0, 2 ** 31 - 1))
# windows with condition numbers 1.5e7 and 1.8e8, beyond what normal equations fit
@example(p=84, q=6, wraps=6, s=1, seed=6)
@example(p=218, q=5, wraps=9, s=68, seed=425339929)
def test_predicts_exact_on_linear_recurrences(p, q, wraps, s, seed):
    # z_j = z_{j-1} + v_j with v_j = Q D^j y: an order-q recurrence in R^p,
    # fitted by a window of q + 1 differences after `wraps` extra pushes
    q = min(q, p)
    rng = np.random.default_rng(seed)
    Q, D = recurrence(rng, p, q)
    y = rng.standard_normal(q)
    z0 = rng.standard_normal(p)
    zstar = z0 + Q @ np.linalg.solve(np.eye(q) - D, D @ y)
    win = DiffWindow(p, q + 1)
    z, zs = z0.copy(), []
    for _ in range(q + 1 + wraps + s):
        y = D @ y
        z = z + Q @ y
        zs.append(z)
        if len(zs) <= q + 1 + wraps:
            push_difference(win, Q @ y)
    k = q + wraps  # index into zs of the fitting point
    fit = fit_coefficients(win)
    scale = np.linalg.norm(z0 - zstar)
    assert fit.eps <= 1e-10 * np.linalg.norm(win.column(0))
    assert fit.rho < 1.0
    out = extrapolate_infinite(zs[k], win, fit)
    assert np.linalg.norm(out - zstar) <= 1e-8 * scale
    out = extrapolate_finite(zs[k], win, fit, s)
    assert np.linalg.norm(out - zs[k + s]) <= 1e-8 * scale


def test_fit_scalar_geometric():
    _, win = geometric_setup(0.5, 6, 1)
    fit = fit_coefficients(win)
    np.testing.assert_allclose(fit.c, [0.5], atol=1e-12)
    assert fit.eps <= 1e-14
    assert abs(fit.rho - 0.5) <= 1e-12


def test_fit_matrix_recurrence_cayley_hamilton():
    M = rotation_block(0.9, 0.7)
    v = np.array([1.0, 0.25])
    vs = [v]
    for _ in range(4):
        vs.append(M @ vs[-1])
    fit = fit_coefficients(window_from(vs[-3:], 3))
    assert fit.eps <= 1e-12
    # coefficients reproduce the characteristic polynomial of M
    np.testing.assert_allclose(fit.c, [np.trace(M), -np.linalg.det(M)], atol=1e-10)


def test_fit_stagnated_window():
    vs = [np.zeros(3), np.zeros(3), np.array([0.0, 2.0, 0.0])]
    fit = fit_coefficients(window_from(vs, 3))
    # newest column is the nonzero one; older columns are zero
    np.testing.assert_array_equal(fit.c, [0.0, 0.0])
    assert fit.eps == 2.0


_EPS = np.finfo(float).eps


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 8), st.integers(0, 72),
       st.floats(0.0, math.log10(0.9 * GRAM_COND_LIMIT)), st.floats(-3.0, 3.0),
       st.floats(-12.0, 0.0), st.integers(0, 2 ** 31 - 1))
def test_eigen_route_fit_matches_lstsq(q, extra_rows, log_cond, log_scale, log_noise, seed):
    # V_{k-1} with singular values spread geometrically over cond(V) below
    # GRAM_COND_LIMIT, and a target off its range by a relative `noise`
    p = q + 1 + extra_rows
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((p, q)))[0]
    R = np.linalg.qr(rng.standard_normal((q, q)))[0]
    sv = np.geomspace(1.0, 10.0 ** -log_cond, q) * 10.0 ** log_scale
    V = (U * sv) @ R
    target = V @ rng.standard_normal(q) + 10.0 ** log_noise * sv[0] * rng.standard_normal(p)
    win = window_from([V[:, j] for j in range(q - 1, -1, -1)] + [target], q + 1)
    with mock.patch.object(extrapolate, "dgeqrf", side_effect=AssertionError("QR route")):
        fit = fit_coefficients(win)
    V = win.matrix()[:, 1:]
    c, *_ = np.linalg.lstsq(V, target, rcond=None)
    r = np.linalg.norm(V @ c - target)
    sv = np.linalg.svd(V, compute_uv=False)
    cond = sv[0] / sv[-1]
    # the least-squares perturbation bound, plus what one refinement step
    # leaves of the normal equations' error, (cond^2 eps)^2
    bound = (_EPS * (cond + cond ** 2 * r / (sv[0] * np.linalg.norm(c)))
             + (cond ** 2 * _EPS) ** 2)
    assert np.linalg.norm(fit.c - c) <= 64 * bound * np.linalg.norm(c)
    assert abs(fit.eps - r) <= 8 * _EPS * (np.linalg.norm(target) + sv[0] * np.linalg.norm(c))


def test_fit_rank_deficient_window_takes_the_minimum_norm_coefficients():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(9), rng.standard_normal(9)
    target = a + b + 1e-3 * rng.standard_normal(9)
    fit = fit_coefficients(window_from([b, a, a, target], 4))  # V_{k-1} = [a, a, b]
    c, *_ = np.linalg.lstsq(np.column_stack([a, a, b]), target, rcond=None)
    np.testing.assert_allclose(fit.c, c, rtol=1e-12)
    assert fit.c[0] == pytest.approx(fit.c[1], rel=1e-12)  # a's weight split evenly
    assert fit.eps == pytest.approx(np.linalg.norm(np.column_stack([a, a, b]) @ c - target),
                                    rel=1e-12)


def test_fit_stagnated_window_of_any_size_leaves_the_newest_difference():
    # V_{k-1} = 0: every eigenvalue of its Gram block falls under the cut
    v = np.random.default_rng(8).standard_normal(40)
    fit = fit_coefficients(window_from([np.zeros(40)] * 6 + [v], 7))
    np.testing.assert_array_equal(fit.c, np.zeros(6))
    assert fit.eps == np.linalg.norm(v)


def test_fit_requires_full_window():
    w = window_from([np.ones(2)], 3)
    with pytest.raises(InsufficientHistory):
        fit_coefficients(w)


def test_fit_of_a_window_whose_gram_matrix_overflows_raises_eigen_failure():
    # every entry is finite, but 1e200^2 is not: no "contractive" fit from an inf Gram matrix
    w = window_from([np.array([1.0, 2.0, 3.0]), np.array([1e200, 1.0, 0.0]),
                     np.array([0.5, 0.2, 1.0])], 3)
    with np.errstate(over="ignore"), pytest.raises(EigenFailure, match="not finite"):
        fit_coefficients(w)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_of_a_window_holding_nan_or_inf_raises_eigen_failure(bad):
    w = window_from([np.array([1.0, 2.0, 3.0]), np.array([bad, 1.0, 0.0]),
                     np.array([0.5, 0.2, 1.0])], 3)
    with np.errstate(invalid="ignore"), pytest.raises(EigenFailure, match="not finite"):
        fit_coefficients(w)


def ill_conditioned_window():
    """A window whose V_{k-1} has cond about 2e8, fitted through the QR route."""
    return window_from([np.array([1.0, 0.0, 0.0]), np.array([1.0, 1e-8, 0.0]),
                        np.array([0.3, 0.2, 0.1])], 3)


@pytest.mark.parametrize("routine, failed", [
    ("dsyev", lambda a: (np.zeros(2), np.eye(2), 1)),
    ("dgeqrf", lambda a: (np.zeros((3, 3)), np.zeros(3), None, 2)),
    ("dgesdd", lambda a: (np.eye(3), np.ones(2), np.eye(2), 1)),
])
def test_a_failed_lapack_routine_in_the_fit_raises_eigen_failure(routine, failed, monkeypatch):
    fit_coefficients(ill_conditioned_window())  # takes the QR route, through all three
    monkeypatch.setattr(extrapolate, routine, failed)
    with pytest.raises(EigenFailure, match=routine):
        fit_coefficients(ill_conditioned_window())


def test_companion_layout_and_characteristic_polynomial():
    rng = np.random.default_rng(3)
    for q in (1, 2, 3, 4):
        c = rng.standard_normal(q)
        C = companion_matrix(c)
        np.testing.assert_array_equal(C[:, 0], c)
        if q > 1:
            np.testing.assert_array_equal(C[:q - 1, 1:], np.eye(q - 1))
            np.testing.assert_array_equal(C[q - 1, 1:], np.zeros(q - 1))
        roots = np.roots(np.concatenate([[1.0], -c]))
        eigs = np.linalg.eigvals(C)
        np.testing.assert_allclose(np.sort_complex(roots), np.sort_complex(eigs),
                                   atol=1e-8)


def test_spectral_radius_examples():
    assert abs(spectral_radius(companion_matrix([0.5])) - 0.5) <= 1e-12
    assert abs(spectral_radius(companion_matrix([2.0, 0.0])) - 2.0) <= 1e-10
    assert abs(spectral_radius(companion_matrix([0.0, 0.25])) - 0.5) <= 1e-10
    with pytest.raises(EigenFailure):
        spectral_radius(np.eye(33))


def power_sum_loop(C, s):
    """Reference: first column of sum_{i=1..s} C^i by s matrix-vector products."""
    w = np.zeros(C.shape[0])
    w[0] = 1.0
    acc = np.zeros(C.shape[0])
    for _ in range(s):
        w = C @ w
        acc += w
    return acc


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2 ** 31 - 1))
def test_power_sum_doubling_matches_loop(q, s, seed):
    # nonnegative c with sum(c) in [0.5, 1): rho(C) < 1 but up to near 1,
    # where the finite path runs and the sums grow towards s
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 1.0, q)
    c *= rng.uniform(0.5, 1.0) / c.sum()
    C = companion_matrix(c)
    ref = power_sum_loop(C, s)
    np.testing.assert_allclose(_power_sum_first_column(C, s), ref,
                               rtol=0, atol=1e-12 * s * max(1.0, np.abs(ref).max()))


def test_extrapolate_finite_one_step_geometric():
    z, win = geometric_setup(0.5, 6, 1)
    fit = fit_coefficients(win)
    out = extrapolate_finite(z, win, fit, 1)
    np.testing.assert_allclose(out, z + 0.5 * win.column(0), atol=1e-14)


def test_extrapolate_finite_matches_future_iterate():
    z, win = geometric_setup(0.5, 5, 1)
    fit = fit_coefficients(win)
    out = extrapolate_finite(z, win, fit, 3)
    np.testing.assert_allclose(out, [2.0 ** -8], atol=1e-15)


def test_finite_large_s_matches_infinite():
    rng = np.random.default_rng(1)
    M = normal_matrix(rng, [0.6, 0.3], [0.9, 0.4])
    v = rng.standard_normal(4)
    z = rng.standard_normal(4)
    vs = []
    for _ in range(5):
        v = M @ v
        z = z + v
        vs.append(v)
    win = window_from(vs, 5)
    fit = fit_coefficients(win)
    far = extrapolate_finite(z, win, fit, 400)
    inf = extrapolate_infinite(z, win, fit)
    assert np.linalg.norm(far - inf) <= 1e-8


def test_extrapolate_infinite_scalar_geometric_limit():
    lam, zstar = 0.7, 2.0
    zs = [zstar + lam ** j for j in range(8)]
    vs = [zs[j] - zs[j - 1] for j in range(1, 8)]
    win = window_from(vs[-2:], 2)
    fit = fit_coefficients(win)
    out = extrapolate_infinite(np.array([zs[-1]]), win, fit)
    np.testing.assert_allclose(out, [zstar], atol=1e-12)


def test_extrapolate_infinite_no_model_returns_z():
    vs = [np.array([1.0]), np.array([0.0])]  # newest zero: c = [0]
    win = window_from(vs, 2)
    fit = fit_coefficients(win)
    np.testing.assert_array_equal(fit.c, [0.0])
    out = extrapolate_infinite(np.array([3.0]), win, fit)
    np.testing.assert_allclose(out, [3.0], atol=1e-15)


def test_extrapolate_infinite_near_singular():
    # equal differences fit c = [0.5, 0.5]: sum(c) = 1 puts z = 1 among the
    # companion's eigenvalues, and run_a3dmm's window check rejects the fit
    vs = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    win = window_from(vs, 3)
    fit = fit_coefficients(win)
    assert abs(fit.coeff_sum - 1.0) <= 1e-12
    # just inside the unit disc the limit formula still divides by ~0
    c = np.array([0.5, 0.5 - 1e-13])
    C = companion_matrix(c)
    near = CompanionFit(c=c, companion=C, rho=spectral_radius(C), eps=0.0,
                        coeff_sum=float(c.sum()))
    assert near.rho < 1.0
    with pytest.raises(NearSingular):
        extrapolate_infinite(np.zeros(2), win, near)


@st.composite
def contractive_coefficients(draw):
    """c of a recurrence whose q <= 8 roots lie in the open unit disc."""
    q = draw(st.integers(1, 8))
    roots = []
    while len(roots) < q:
        modulus = draw(st.floats(0.0, 0.9999))
        if q - len(roots) >= 2 and draw(st.booleans()):
            angle = draw(st.floats(0.0, math.pi))
            roots += [modulus * np.exp(1j * angle), modulus * np.exp(-1j * angle)]
        else:
            roots.append(modulus * draw(st.sampled_from([-1.0, 1.0])))
    return -np.real(np.poly(roots))[1:]  # z^q - c_1 z^{q-1} - ... - c_q


@settings(max_examples=200, deadline=None)
@given(contractive_coefficients())
def test_limit_weights_match_a_solve_with_the_companion(c):
    # extrapolate_infinite reads its Neumann weights in closed form; with the
    # window's differences the unit vectors, its output is those weights
    d = 1.0 - c.sum()
    assume(abs(d) >= 1e-6)
    q = c.size
    C = companion_matrix(c)
    fit = CompanionFit(c=c, companion=C, rho=spectral_radius(C), eps=0.0, coeff_sum=float(c.sum()))
    assert fit.rho < 1.0
    win = window_from([np.zeros(q)] + [row for row in np.eye(q)[::-1]], q + 1)
    w = extrapolate_infinite(np.zeros(q), win, fit)
    e1 = np.eye(q)[0]
    expected = np.linalg.solve(np.eye(q) - C, e1) - e1  # z_{k-1} = z_k - v_k
    scale = np.abs(expected + e1).max()
    assert np.abs(w - expected).max() <= 16 * _EPS * (1 + np.abs(c).sum()) / abs(d) * scale


def test_mpe_exactness_on_linear_recurrence():
    rng = np.random.default_rng(5)
    M = normal_matrix(rng, [0.8, 0.5, 0.2], [1.1, 0.5, 0.2])
    q = 6  # minimal polynomial degree: three distinct conjugate pairs
    v = rng.standard_normal(6)
    z = rng.standard_normal(6)
    z0 = z.copy()
    v0 = v.copy()
    vs = []
    for _ in range(q + 1):
        v = M @ v
        z = z + v
        vs.append(v)
    # z* = z0 + (I - M)^{-1} M v0
    zstar = z0 + np.linalg.solve(np.eye(6) - M, M @ v0)
    win = window_from(vs, q + 1)
    fit = fit_coefficients(win)
    assert fit.eps <= 1e-10 * np.linalg.norm(vs[-1])
    out = extrapolate_infinite(z, win, fit)
    assert np.linalg.norm(out - zstar) <= 1e-8 * np.linalg.norm(z0 - zstar)


def test_infinite_closed_forms_agree():
    rng = np.random.default_rng(9)
    for _ in range(20):
        M = normal_matrix(rng, rng.uniform(0.2, 0.9, 2), rng.uniform(0.1, 1.3, 2))
        v = rng.standard_normal(4)
        z = rng.standard_normal(4)
        vs = []
        for _ in range(4):
            v = M @ v
            z = z + v
            vs.append(v)
        win = window_from(vs, 4)
        fit = fit_coefficients(win)
        if fit.rho >= 1.0 or abs(1 - fit.coeff_sum) <= 1e-12:
            continue
        a = extrapolate_infinite(z, win, fit)
        b = extrapolate_infinite_weighted(z, win, fit)
        assert np.linalg.norm(a - b) <= 1e-10 * (1 + np.linalg.norm(a))


def test_companion_consistency_when_exact():
    M = rotation_block(0.8, 0.6)
    v = np.array([1.0, -0.3])
    vs = [v]
    for _ in range(3):
        vs.append(M @ vs[-1])
    win = window_from(vs, 3)
    fit = fit_coefficients(win)
    assert fit.eps <= 1e-12
    # V_k = V_{k-1} H(c) column by column
    V_k = win.matrix()[:, :2]
    V_prev = win.matrix()[:, 1:]
    np.testing.assert_allclose(V_k, V_prev @ fit.companion, atol=1e-12)


def test_rre_scalar_geometric_weights():
    _, win = geometric_setup(0.5, 6, 1)
    gamma = rre_coefficients(win)
    np.testing.assert_allclose(gamma, [2.0, -1.0], atol=1e-10)


def test_rre_zero_column_gets_unit_weight():
    vs = [np.array([0.0, 0.0]), np.array([1.0, 2.0])]  # oldest column zero
    win = window_from(vs, 2)
    gamma = rre_coefficients(win)
    np.testing.assert_allclose(gamma, [0.0, 1.0], atol=1e-10)


def test_rre_matches_mpe_on_exact_model():
    rng = np.random.default_rng(11)
    M = normal_matrix(rng, [0.7, 0.4], [0.8, 0.3])
    v = rng.standard_normal(4)
    z = rng.standard_normal(4)
    vs = []
    for _ in range(5):
        v = M @ v
        z = z + v
        vs.append(v)
    win = window_from(vs, 5)
    fit = fit_coefficients(win)
    mpe = extrapolate_infinite(z, win, fit)
    gamma = rre_coefficients(win)
    rre = rre_point(z, win, gamma)
    assert np.linalg.norm(mpe - rre) <= 1e-8 * (1 + np.linalg.norm(mpe))


def test_rre_degenerate_constraint():
    vs = [np.array([np.inf, 0.0]), np.array([1.0, 0.0])]
    win = window_from(vs, 2)
    with pytest.raises(DegenerateConstraint):
        rre_coefficients(win)


def test_fitting_error_bound_examples():
    _, win = geometric_setup(0.5, 6, 1)
    fit = fit_coefficients(win)
    assert fitting_error_bound(fit, [0.0], 1) == 0.0
    assert abs(fitting_error_bound(fit, [0.5], 1) - 0.5) <= 1e-12
    with pytest.raises(DivergentSeries):
        fitting_error_bound(fit, [1.2], math.inf)


def test_fitting_error_bound_monotone_in_s():
    # nonnegative coefficients keep the partial Neumann sums monotone
    rng = np.random.default_rng(13)
    for _ in range(25):
        q = int(rng.integers(1, 4))
        c = rng.uniform(0.0, 1.0, size=q)
        c *= rng.uniform(0.1, 0.9) / max(c.sum(), 1e-9)
        C = companion_matrix(c)
        fit = CompanionFit(c=c, companion=C, rho=spectral_radius(C),
                           eps=0.0, coeff_sum=float(c.sum()))
        nm = float(rng.uniform(0.1, 0.9))
        norms = [nm ** ell for ell in range(1, 30)]
        binf = fitting_error_bound(fit, norms, math.inf)
        for s in (1, 5, 25):
            assert fitting_error_bound(fit, norms, s) <= binf + 1e-12


def test_chebyshev_fit_error_bound_real_spectrum():
    # non-asymptotic bound on eps_k / |1 - sum(c)| for real spectra contained
    # in [alpha, beta]; checked only on synthetic sequences where the
    # spectrum interval is known
    alpha, beta = -0.4, 0.85
    eta = (1 - alpha) / (1 - beta)
    for trial in range(25):
        rng = np.random.default_rng(trial)
        p = 8
        eigs = np.sort(rng.uniform(alpha, beta, p))
        Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
        M = Q @ np.diag(eigs) @ Q.T
        z0 = rng.standard_normal(p)
        zstar = rng.standard_normal(p)
        half_norm = np.sqrt(np.max(np.linalg.eigvalsh(np.eye(p) - M)))
        K = 2 * np.linalg.norm(z0 - zstar) * half_norm
        for q in (2, 3, 4):
            for k in (q + 1, q + 6):
                win = DiffWindow(p, q + 1)
                for j in range(k - q, k + 1):
                    vj = np.linalg.matrix_power(M, j - 1) @ (M - np.eye(p)) @ (z0 - zstar)
                    push_difference(win, vj)
                fit = fit_coefficients(win)
                lhs = fit.eps / abs(1 - fit.coeff_sum)
                rhs = K * beta ** (k - q) \
                    * ((np.sqrt(eta) - 1) / (np.sqrt(eta) + 1)) ** q
                assert lhs <= rhs


def test_prediction_error_bound_holds_with_undersized_q():
    rng = np.random.default_rng(17)
    M = normal_matrix(rng, [0.85, 0.5, 0.25], [0.9, 0.4, 0.15])
    v0 = rng.standard_normal(6)
    z = rng.standard_normal(6)
    zstar = z + np.linalg.solve(np.eye(6) - M, M @ v0)
    q = 2  # undersized: minimal polynomial degree is 6
    v = v0
    vs, zs = [], []
    for _ in range(40):
        v = M @ v
        z = z + v
        vs.append(v.copy())
        zs.append(z.copy())
    k = q
    win = window_from(vs[:q + 1], q + 1)
    fit = fit_coefficients(win)
    norms = [np.linalg.norm(np.linalg.matrix_power(M, ell), 2) for ell in range(1, 26)]
    for s in (1, 5, 25):
        pred = extrapolate_finite(zs[k], win, fit, s)
        lhs = np.linalg.norm(pred - zstar)
        rhs = np.linalg.norm(zs[k + s] - zstar) + fitting_error_bound(fit, norms, s) * fit.eps
        assert lhs <= rhs + 1e-10
