import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import prox
from admmkit.prox import (AffineProjectionCache, EmptyBox, LinearMap, NotSymmetric,
                          OverlappingGroups, ProxOracle, QuadraticSolveCache,
                          RankDeficient, affine_oracle, box_oracle, group_l12_oracle,
                          l1_oracle, nuclear_oracle, project_affine, project_box,
                          prox_group_l12, prox_nuclear, quadratic_oracle,
                          soft_threshold_l1, subspace_oracle)


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


def test_group_l12_examples():
    one = [np.array([0, 1])]
    np.testing.assert_allclose(prox_group_l12([3.0, 4.0], one, 5.0), [0.0, 0.0])
    np.testing.assert_allclose(prox_group_l12([3.0, 4.0], one, 2.5), [1.5, 2.0])
    two = [np.array([0, 1]), np.array([2, 3])]
    np.testing.assert_allclose(prox_group_l12([1.0, 0.0, 0.0, 2.0], two, 0.0),
                               [1.0, 0.0, 0.0, 2.0])


def test_group_l12_rejects_bad_partition():
    with pytest.raises(OverlappingGroups):
        prox_group_l12([1.0, 2.0, 3.0], [np.array([0, 1]), np.array([1, 2])], 1.0)
    with pytest.raises(OverlappingGroups):
        prox_group_l12([1.0, 2.0, 3.0], [np.array([0, 1])], 1.0)


def test_group_l12_zero_block_maps_to_zero():
    out = prox_group_l12([0.0, 0.0, 3.0, 4.0],
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


def test_prox_nuclear_diagonal_matches_soft_threshold():
    d = np.array([3.0, -1.5, 0.2, 0.0])
    out = prox_nuclear(np.diag(d), 0.7)
    np.testing.assert_allclose(np.diag(out), soft_threshold_l1(d, 0.7), atol=1e-12)
    np.testing.assert_allclose(out - np.diag(np.diag(out)), 0.0, atol=1e-12)


def test_project_box_examples():
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
    cache = AffineProjectionCache(K)
    p = project_affine(rng.standard_normal(5), K, f, cache)
    np.testing.assert_allclose(project_affine(p, K, f, cache), p, atol=1e-10)
    assert np.linalg.norm(K @ p - f) <= 1e-10 * (1 + np.linalg.norm(f))


def test_project_affine_hand_kkt():
    # K = [1 1], f = [2], w = 0: the 2x2 KKT system gives the point (1, 1)
    out = project_affine(np.zeros(2), np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_project_affine_rank_deficient():
    K = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(RankDeficient):
        AffineProjectionCache(K)


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


@pytest.mark.parametrize("shape", [(5, 12), (12, 5), (7, 7), None],
                         ids=["wide", "tall", "square", "dense-Q"])
def test_quadratic_solve_cache_matches_dense_solve(shape):
    rng = np.random.default_rng(4)
    if shape is None:
        G = rng.standard_normal((9, 9))
        Q = G.T @ G
        cache = QuadraticSolveCache(Q)
    else:
        K = rng.standard_normal(shape)
        Q = K.T @ K
        cache = QuadraticSolveCache.from_design(K)
    n = Q.shape[0]
    r = rng.standard_normal(n)
    for gamma in (0.3, 7.0):
        np.testing.assert_allclose(cache.solve(r, gamma),
                                   np.linalg.solve(Q + gamma * np.eye(n), r),
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("case", ["wide", "tall", "affine"])
def test_cached_solves_match_scipy_cho_solve_bit_for_bit(case, monkeypatch):
    rng = np.random.default_rng(7)
    if case == "affine":
        K = rng.standard_normal((20, 60))
        f = rng.standard_normal(20)
        cache = AffineProjectionCache(K)
        factor, rhs = cache.factor, K @ rng.standard_normal(60) - f
        solve = lambda w: project_affine(w, K, f, cache)
        w = rng.standard_normal(60)
    else:
        K = rng.standard_normal((64, 200) if case == "wide" else (200, 64))
        cache = QuadraticSolveCache.from_design(K)
        factor = cache.factor(0.7)
        rhs = rng.standard_normal(factor[0].shape[0])
        solve = lambda w: cache.solve(w, 0.7)
        w = rng.standard_normal(K.shape[1])
    assert np.array_equal(prox._cho_solve(factor, rhs), scipy.linalg.cho_solve(factor, rhs))
    fast = solve(w)
    monkeypatch.setattr(prox, "_cho_solve", scipy.linalg.cho_solve)
    assert np.array_equal(fast, solve(w))


def test_cached_solve_rejects_a_non_finite_right_hand_side():
    factor = scipy.linalg.cho_factor(np.array([[4.0, 1.0], [1.0, 3.0]]))
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, -np.inf])):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            prox._cho_solve(factor, bad)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            scipy.linalg.cho_solve(factor, bad)


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
    lin = LinearMap.dense(M)
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
    neg = LinearMap.scaled_identity(3, -1.0)
    np.testing.assert_array_equal(neg.apply(v), -v)
    np.testing.assert_array_equal(neg.apply_adjoint(v), -v)
    assert (ident.rows, ident.cols) == (3, 3)
