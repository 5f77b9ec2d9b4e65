import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import prox
from admmkit.prox import (EmptyBox, LinearMap, NotSymmetric,
                          OverlappingGroups, ProxOracle, QuadraticSolveCache,
                          RankDeficient, WideLeastSquares, affine_oracle, box_oracle,
                          group_l12_oracle, l1_oracle, nuclear_oracle, prox_nuclear,
                          quadratic_oracle, soft_threshold_l1, subspace_oracle)
from reference_twins import cholesky_solve, project_affine


def zero_oracle(n, name="zero"):
    """Oracle of f = 0 (the identity map)."""
    return ProxOracle(lambda w, gamma: np.asarray(w, dtype=float), n, name)


def zero_point_oracle(n, name="point-zero"):
    """Oracle of the indicator of {0}."""
    return ProxOracle(lambda w, gamma: np.zeros(n), n, name)


def test_soft_threshold_examples():
    np.testing.assert_allclose(soft_threshold_l1([2.0], 1.0), [1.0])
    np.testing.assert_allclose(soft_threshold_l1([0.5, -0.2], 1.0), [0.0, 0.0])
    np.testing.assert_allclose(soft_threshold_l1([-3.0, 4.0], 2.0), [-1.0, 2.0])


def group_l12_prox(w, groups, tau):
    """The prox of tau*||.||_{1,2} at w, through the oracle the package builds."""
    w = np.asarray(w, dtype=float)
    return group_l12_oracle(w.size, groups, mu=tau).evaluate(w, 1.0)


def test_group_l12_examples():
    one = [np.array([0, 1])]
    np.testing.assert_allclose(group_l12_prox([3.0, 4.0], one, 5.0), [0.0, 0.0])
    np.testing.assert_allclose(group_l12_prox([3.0, 4.0], one, 2.5), [1.5, 2.0])
    two = [np.array([0, 1]), np.array([2, 3])]
    np.testing.assert_allclose(group_l12_prox([1.0, 0.0, 0.0, 2.0], two, 0.0),
                               [1.0, 0.0, 0.0, 2.0])


def test_group_l12_rejects_bad_partition():
    with pytest.raises(OverlappingGroups):
        group_l12_prox([1.0, 2.0, 3.0], [np.array([0, 1]), np.array([1, 2])], 1.0)
    with pytest.raises(OverlappingGroups):
        group_l12_prox([1.0, 2.0, 3.0], [np.array([0, 1])], 1.0)


def test_group_l12_oracle_checks_the_partition_when_built():
    with pytest.raises(OverlappingGroups):
        group_l12_oracle(4, [np.array([0, 1]), np.array([1, 2, 3])])
    with pytest.raises(OverlappingGroups):
        group_l12_oracle(5, [np.array([0, 1]), np.array([2, 3])])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 80), st.floats(0.0, 3.0))
def test_group_l12_matches_the_blockwise_loop(seed, n, tau):
    # shuffled groups of mixed sizes, some empty, and some all-zero blocks
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 12)))
    groups = np.split(rng.permutation(n), cuts)
    w = rng.standard_normal(n) * (rng.random(n) < 0.7)
    expected = np.zeros(n)
    for g in groups:
        ng = np.linalg.norm(w[g])
        if ng > 0.0:
            expected[g] = w[g] * max(1.0 - tau / ng, 0.0)
    oracle = group_l12_oracle(n, groups, mu=tau)
    np.testing.assert_allclose(oracle.evaluate(w, 1.0), expected, rtol=1e-14, atol=1e-15)
    # gamma scales the threshold as mu/gamma
    np.testing.assert_array_equal(group_l12_oracle(n, groups, mu=2.0 * tau).evaluate(w, 2.0),
                                  oracle.evaluate(w, 1.0))
    norms = prox.GroupPartition(groups, n).norms(w)
    np.testing.assert_allclose(norms.sum(), sum(np.linalg.norm(w[g]) for g in groups),
                               rtol=1e-14)


def test_group_l12_zero_block_maps_to_zero():
    out = group_l12_prox([0.0, 0.0, 3.0, 4.0],
                         [np.array([0, 1]), np.array([2, 3])], 1.0)
    np.testing.assert_allclose(out[:2], [0.0, 0.0])


def test_prox_nuclear_examples():
    np.testing.assert_allclose(prox_nuclear(np.diag([3.0, 1.0]), 2.0),
                               np.diag([1.0, 0.0]), atol=1e-12)
    W = np.arange(6.0).reshape(2, 3)
    np.testing.assert_allclose(prox_nuclear(W, 0.0), W, atol=1e-12)
    u = np.array([3.0, 4.0]) / 5.0
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    np.testing.assert_allclose(prox_nuclear(np.outer(u, v), 0.5),
                               0.5 * np.outer(u, v), atol=1e-12)


def test_soft_threshold_special_values():
    tau = 0.75
    w = np.array([0.0, -0.0, tau, -tau, np.inf, -np.inf, np.nan, 2.0, -2.0])
    out = soft_threshold_l1(w, tau)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0, np.inf, -np.inf, np.nan,
                                        1.25, -1.25])
    # a zero result carries the sign of its input
    np.testing.assert_array_equal(np.signbit(out[:4]), [False, True, False, True])
    assert np.isnan(out[6])
    # the caller's array is left as it was
    assert w[2] == tau and np.isnan(w[6])
    # the old two-temporary formula, apart from the sign of -0.0's zero
    finite = np.array([3.0, -3.0, 0.5, -0.5, 0.0, 1e300, -1e-300])
    np.testing.assert_array_equal(soft_threshold_l1(finite, tau),
                                  np.sign(finite) * np.maximum(np.abs(finite) - tau, 0.0))


def test_prox_nuclear_diagonal_matches_soft_threshold():
    d = np.array([3.0, -1.5, 0.2, 0.0])
    out = prox_nuclear(np.diag(d), 0.7)
    np.testing.assert_allclose(np.diag(out), soft_threshold_l1(d, 0.7), atol=1e-12)
    np.testing.assert_allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-12)


def test_project_box_examples():
    def project_box(w, lo, hi):
        return box_oracle(lo, hi).evaluate(np.asarray(w, dtype=float), 1.0)

    np.testing.assert_allclose(project_box([2.0], [0.0], [1.0]), [1.0])
    np.testing.assert_allclose(project_box([0.5], [0.0], [1.0]), [0.5])
    np.testing.assert_allclose(project_box([-1.0, 3.0], [0.0, 0.0], [2.0, 2.0]),
                               [0.0, 2.0])
    with pytest.raises(EmptyBox):
        project_box([0.0], [1.0], [0.0])


def test_project_affine_identity_and_idempotence():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(4)
    np.testing.assert_allclose(project_affine(rng.standard_normal(4), np.eye(4), f),
                               f, atol=1e-12)
    K = rng.standard_normal((2, 5))
    f = rng.standard_normal(2)
    p = project_affine(rng.standard_normal(5), K, f)
    np.testing.assert_allclose(project_affine(p, K, f), p, atol=1e-10)
    assert np.linalg.norm(K @ p - f) <= 1e-10 * (1 + np.linalg.norm(f))


def test_project_affine_hand_kkt():
    # K = [1 1], f = [2], w = 0: the 2x2 KKT system gives the point (1, 1)
    out = project_affine(np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_project_affine_rank_deficient():
    K = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficient):
        affine_oracle(K, np.zeros(2))


def test_solve_regularized_quadratic_examples():
    # quadratic_oracle(Q, q).evaluate(w, gamma) solves (Q + gamma*I) x = gamma*w - q
    np.testing.assert_allclose(
        quadratic_oracle(np.zeros((3, 3)), np.zeros(3)).evaluate(np.array([1.0, 2.0, 3.0]),
                                                                 1.0),
        [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(
        quadratic_oracle(np.eye(1), np.zeros(1)).evaluate(np.array([2.0]), 1.0),
        [1.0], atol=1e-12)
    out = quadratic_oracle(np.diag([1.0, 3.0]), np.array([1.0, 0.0])).evaluate(
        np.array([3.0, 3.0]), 2.0)
    np.testing.assert_allclose(out, [5.0 / 3.0, 1.2], atol=1e-12)


def test_solve_regularized_quadratic_residual_and_symmetry():
    rng = np.random.default_rng(1)
    G = rng.standard_normal((6, 6))
    Q = G.T @ G
    q = rng.standard_normal(6)
    w = rng.standard_normal(6)
    oracle = quadratic_oracle(Q, q)
    for gamma in (0.1, 1.0, 10.0):
        x = oracle.evaluate(w, gamma)
        rhs = gamma * w - q
        assert np.linalg.norm((Q + gamma * np.eye(6)) @ x - rhs) \
            <= 1e-10 * (1 + np.linalg.norm(rhs))
    with pytest.raises(NotSymmetric):
        QuadraticSolveCache(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_symmetry_is_judged_relative_to_the_largest_entry():
    # a weighted Gram matrix whose only asymmetry is rounding, 1.2e-10 at entries near 1e6
    rng = np.random.default_rng(0)
    M = rng.standard_normal((50, 50))
    Q = (M.T @ np.diag(1e4 * rng.uniform(1.0, 2.0, 50))) @ M
    assert np.abs(Q - Q.T).max() > 1e-10
    q, w = rng.standard_normal(50), rng.standard_normal(50)
    x = quadratic_oracle(Q, q).evaluate(w, 1.0)
    assert np.allclose((Q + np.eye(50)) @ x, w - q, rtol=1e-8, atol=1e-8 * np.abs(Q).max())
    # a non-symmetric Q at a tiny scale is still refused
    with pytest.raises(NotSymmetric):
        QuadraticSolveCache(1e-12 * rng.standard_normal((5, 5)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_q_is_refused_when_built(bad):
    Q = np.eye(5)
    Q[1, 3] = Q[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on it
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            quadratic_oracle(Q, np.zeros(5))


@pytest.mark.parametrize("shape", [(5, 12), (12, 5), (7, 7), None],
                         ids=["wide", "tall", "square", "dense-Q"])
def test_quadratic_solve_cache_matches_dense_solve(shape):
    # a design K goes through the smaller Gram matrix: KK' and the
    # inversion lemma when wide, K'K otherwise
    rng = np.random.default_rng(4)
    if shape is None:
        G = rng.standard_normal((9, 9))
        Q = G.T @ G
        solve = QuadraticSolveCache(Q).solve
    else:
        K = rng.standard_normal(shape)
        f = rng.standard_normal(shape[0])
        Q = K.T @ K
        if shape[0] < shape[1]:
            oracle = WideLeastSquares(K, f).oracle()
        else:
            oracle = quadratic_oracle(Q, -(K.T @ f))
        solve = lambda r, gamma: oracle.evaluate((r - K.T @ f) / gamma, gamma)
    n = Q.shape[0]
    r = rng.standard_normal(n)
    for gamma in (0.3, 7.0):
        np.testing.assert_allclose(solve(r, gamma),
                                   np.linalg.solve(Q + gamma * np.eye(n), r),
                                   rtol=1e-10, atol=1e-12)


def relative_difference(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("case", ["wide", "tall", "affine"])
def test_cached_solves_match_scipy_cho_solve_to_1e_12(case):
    # one product with the cached inverse against two triangular solves with the
    # factor: equal to rounding level, 1e-12 relative
    rng = np.random.default_rng(7)
    gamma = 1.0 if case == "affine" else 0.7
    K = rng.standard_normal({"wide": (64, 200), "tall": (200, 64), "affine": (20, 60)}[case])
    f = rng.standard_normal(K.shape[0])
    w = rng.standard_normal(K.shape[1])
    rhs = rng.standard_normal(min(K.shape))
    if case == "affine":
        fast = affine_oracle(K, f).evaluate(w, gamma)
        cache, shift = QuadraticSolveCache(K @ K.T), 0.0
        expected = w - K.T @ scipy.linalg.cho_solve(cache.factor(0.0), K @ w - f)
    elif case == "wide":
        fast = WideLeastSquares(K, f).oracle().evaluate(w, gamma)
        cache, shift = QuadraticSolveCache(K @ K.T), gamma
        r = gamma * w + K.T @ f
        expected = (r - K.T @ scipy.linalg.cho_solve(cache.factor(gamma), K @ r)) / gamma
    else:
        fast = quadratic_oracle(K.T @ K, -(K.T @ f)).evaluate(w, gamma)
        cache, shift = QuadraticSolveCache(K.T @ K), gamma
        expected = scipy.linalg.cho_solve(cache.factor(gamma), gamma * w + K.T @ f)
    assert relative_difference(cache.solve(rhs, shift), cholesky_solve(cache, rhs, shift)) <= 1e-12
    assert relative_difference(fast, expected) <= 1e-12


def test_affine_oracle_is_the_reference_projection_to_1e_12():
    # to rounding level, 1e-12 relative: the reference factors K K' on every call
    rng = np.random.default_rng(8)
    K = rng.standard_normal((15, 40))
    f = rng.standard_normal(15)
    oracle = affine_oracle(K, f)
    for gamma in (0.5, 3.0):
        w = rng.standard_normal(40)
        expected = project_affine(w, K, f)
        assert relative_difference(oracle.evaluate(w, gamma), expected) <= 1e-12


def test_cached_solve_rejects_a_non_finite_right_hand_side():
    cache = QuadraticSolveCache(np.array([[4.0, 1.0], [1.0, 3.0]]))
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, -np.inf])):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            cache.solve(bad, 0.5)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            cholesky_solve(cache, bad, 0.5)


def test_building_an_oracle_forms_no_inverse(monkeypatch):
    # the inverse is formed on the first solve at each gamma, so building costs one factor
    calls = []
    dpotri = prox.dpotri

    def counting(c, **kwargs):
        calls.append(c.shape)
        return dpotri(c, **kwargs)

    monkeypatch.setattr(prox, "dpotri", counting)
    rng = np.random.default_rng(13)
    K = rng.standard_normal((10, 30))
    oracle = affine_oracle(K, rng.standard_normal(10))
    assert calls == []
    for gamma in (0.5, 2.0):
        oracle.evaluate(rng.standard_normal(30), gamma)
    assert len(calls) == 1


def test_a_solved_cache_keeps_one_m_by_m_array():
    # the inverse is the cache's one form of Q + gamma*I: the factor it came from is dropped
    m = 300
    rng = np.random.default_rng(14)
    G = rng.standard_normal((m + 20, m))
    cache = QuadraticSolveCache(G.T @ G)
    r = rng.standard_normal(m)
    tracemalloc.start()
    try:
        cache.solve(r, 0.5)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m * m * 8 <= retained < 1.5 * m * m * 8


def accurate_solution(Q, r):
    """x with Q x = r to about cond(Q) times long double's epsilon.

    Iterative refinement of a float64 solve with residuals in long double
    (80-bit on x86-64 Linux, 128-bit on aarch64 Linux).
    """
    Ql, rl = Q.astype(np.longdouble), r.astype(np.longdouble)
    x = np.linalg.solve(Q, r).astype(np.longdouble)
    for _ in range(8):
        x += np.linalg.solve(Q, (rl - Ql @ x).astype(float))
    return x


def test_cached_solve_is_forward_stable():
    # the product with the inverse keeps the forward error of a backward-stable
    # solve, a small multiple of cond(Q) * eps (Higham 2002, ch. 14)
    assert np.finfo(np.longdouble).eps < np.finfo(float).eps
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    for n in (12, 64, 200):
        for cond in 10.0 ** np.arange(0, 13, 2):
            U, _ = np.linalg.qr(rng.standard_normal((n, n)))
            Q = (U * np.geomspace(1.0, 1.0 / cond, n)) @ U.T
            Q = (Q + Q.T) / 2.0
            r = Q @ rng.standard_normal(n)
            x = accurate_solution(Q, r)
            error = np.linalg.norm(QuadraticSolveCache(Q).solve(r, 0.0) - x) / np.linalg.norm(x)
            assert error <= 2.0 * np.linalg.cond(Q) * eps, (n, cond)


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
def test_cached_inverse_is_exactly_symmetric_and_matches_a_dense_solve(lower, monkeypatch):
    # the cache factors the upper triangle; a lower factor fills the other half of potri's result
    cho_factor = scipy.linalg.cho_factor
    monkeypatch.setattr(scipy.linalg, "cho_factor", lambda a: cho_factor(a, lower=lower))
    rng = np.random.default_rng(11)
    G = rng.standard_normal((30, 12))
    Q = G.T @ G
    cache = QuadraticSolveCache(Q)
    for gamma in (0.0, 0.3, 7.0):
        inv = cache.inverse(gamma)
        assert np.array_equal(inv, inv.T)
        assert not inv.flags.writeable
        expected = np.linalg.solve(Q + gamma * np.eye(12), np.eye(12))
        assert np.linalg.norm(inv - expected) <= 1e-12 * np.linalg.norm(expected)


def test_cached_inverse_shares_one_factorization_per_gamma_with_solve(monkeypatch):
    calls = []
    cho_factor = scipy.linalg.cho_factor

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return cho_factor(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
    rng = np.random.default_rng(12)
    G = rng.standard_normal((20, 8))
    cache = QuadraticSolveCache(G.T @ G)
    r = rng.standard_normal(8)
    cache.solve(r, 0.5)
    inv = cache.inverse(0.5)
    assert cache.inverse(0.5) is inv
    cache.solve(r, 0.5)
    assert len(calls) == 1
    cache.inverse(2.0)
    cache.solve(r, 2.0)
    assert len(calls) == 2
    np.testing.assert_allclose(inv @ r, cache.solve(r, 0.5), rtol=1e-12)


def moreau_conjugate_prox(prox_f, z, gamma):
    """prox of gamma*f^* at z via the Moreau identity z = prox_{gamma f*}(z) + gamma*prox_{f/gamma}(z/gamma).

    `prox_f` must be the oracle of f with A = identity, whose evaluate(w, gamma)
    is exactly prox_{f/gamma}(w).
    """
    z = np.asarray(z, dtype=float)
    return z - gamma * prox_f.evaluate(z / gamma, gamma)


def test_moreau_conjugate_prox_examples():
    z = np.array([3.0, -0.4])
    np.testing.assert_allclose(moreau_conjugate_prox(zero_oracle(2), z, 2.0),
                               [0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(moreau_conjugate_prox(zero_point_oracle(2), z, 2.0),
                               z, atol=1e-14)
    # conjugate of the l1 norm is the unit-box indicator: prox = clamp
    out = moreau_conjugate_prox(l1_oracle(1, 1.0), np.array([3.0]), 1.0)
    np.testing.assert_allclose(out, np.clip([3.0], -1.0, 1.0), atol=1e-14)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
def test_moreau_identity_all_proxes(gamma):
    rng = np.random.default_rng(7)
    lo, hi = -np.ones(6), np.ones(6)
    K = rng.standard_normal((2, 6))
    G = rng.standard_normal((6, 6))
    basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    oracles = [
        l1_oracle(6, 0.8),
        group_l12_oracle(6, [np.arange(0, 3), np.arange(3, 6)], 1.2),
        nuclear_oracle((2, 3), 0.5),
        box_oracle(lo, hi),
        affine_oracle(K, rng.standard_normal(2)),
        subspace_oracle(basis),
        quadratic_oracle(G.T @ G + 0.1 * np.eye(6), rng.standard_normal(6)),
        zero_oracle(6),
    ]
    for oracle in oracles:
        z = rng.standard_normal(6)
        conj = moreau_conjugate_prox(oracle, z, gamma)
        recon = conj + gamma * oracle.evaluate(z / gamma, gamma)
        np.testing.assert_allclose(recon, z, rtol=0, atol=1e-14 * max(1, np.abs(z).max()))


def test_firm_nonexpansiveness_1000_pairs():
    rng = np.random.default_rng(42)
    lo, hi = -np.ones(8), np.ones(8)
    K = rng.standard_normal((3, 8))
    G = rng.standard_normal((8, 8))
    basis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    oracles = [
        l1_oracle(8, 1.0),
        group_l12_oracle(8, [np.arange(0, 4), np.arange(4, 8)], 1.0),
        nuclear_oracle((2, 4), 0.6),
        box_oracle(lo, hi),
        affine_oracle(K, rng.standard_normal(3)),
        subspace_oracle(basis),
        quadratic_oracle(G.T @ G + 0.1 * np.eye(8), rng.standard_normal(8)),
    ]
    pairs_per_oracle = 1000 // len(oracles) + 1
    for oracle in oracles:
        for _ in range(pairs_per_oracle):
            gamma = float(rng.uniform(0.2, 5.0))
            u = rng.standard_normal(8) * rng.uniform(0.1, 10)
            v = rng.standard_normal(8) * rng.uniform(0.1, 10)
            pu = oracle.evaluate(u, gamma)
            pv = oracle.evaluate(v, gamma)
            lhs = np.linalg.norm(pu - pv) ** 2
            rhs = float((pu - pv) @ (u - v))
            assert lhs <= rhs + 1e-10, oracle.name


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
       st.floats(1e-6, 1e3))
@settings(max_examples=200, deadline=None)
def test_soft_threshold_shrinks_componentwise(values, tau):
    w = np.array(values)
    out = soft_threshold_l1(w, tau)
    assert np.all(np.abs(out) <= np.maximum(np.abs(w) - tau, 0.0) + 1e-12)
    assert np.all(out * w >= 0.0)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=50, deadline=None)
def test_adjoint_consistency_random_probes(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((5, 7))
    lin = LinearMap(lambda v: M @ v, lambda v: M.T @ v, *M.shape)
    u = rng.standard_normal(7)
    v = rng.standard_normal(5)
    lhs = float(lin.apply(u) @ v)
    rhs = float(u @ lin.apply_adjoint(v))
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_linear_map_constructors():
    ident = LinearMap.identity(3)
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(ident.apply(v), v)
    assert (ident.rows, ident.cols) == (3, 3)
