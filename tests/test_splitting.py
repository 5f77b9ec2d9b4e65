import dataclasses
import itertools
import math

import numpy as np
import pytest

from admmkit.prox import LinearMap, ProxOracle, l1_oracle, quadratic_oracle
from admmkit.problems import (make_bp_l1, make_bp_l12, make_bp_nuclear, make_feasibility,
                              make_lasso, make_qp_box, make_tv_inpainting)
from admmkit.splitting import (BadRelaxation, BadStart, Divergence, IterateState,
                               SolverConfig, SplitProblem, inertial_predict, variant_step)
from admmkit.a3dmm import run_a3dmm
from reference_twins import dr_dual_step


def run_steps(problem, config, z0, count):
    state = IterateState.initial(problem, z0)
    states = []
    for _ in range(count):
        state = variant_step(problem, state, config)
        states.append(state)
    return states


def test_feasibility_fixed_point_in_one_step():
    # identical lines: any start projects to a fixed point immediately
    u = np.array([1.0, 0.0])
    basis = u.reshape(2, 1)
    prox = ProxOracle(lambda w, g: u * (u @ w), 2, "line")
    problem = SplitProblem(prox_r=prox, prox_j=prox, A=LinearMap.identity(2))
    states = run_steps(problem, SolverConfig(gamma=1.0), np.array([0.3, -0.7]), 3)
    assert np.linalg.norm(states[1].v) <= 1e-15
    assert np.linalg.norm(states[2].v) <= 1e-15


def test_feasibility_difference_contraction_rate():
    # two lines at pi/4: ||v_{k+1}|| / ||v_k|| equals cos(pi/4) exactly
    inst = make_feasibility(np.pi / 4, seed=2)
    states = run_steps(inst.problem, SolverConfig(gamma=1.0), inst.z0, 40)
    rates = [np.linalg.norm(states[k + 1].v) / np.linalg.norm(states[k].v)
             for k in range(5, 35)]
    np.testing.assert_allclose(rates, np.cos(np.pi / 4), atol=1e-10)


def test_lasso_straight_line_angles():
    # toy instance with gamma > ||K||^2: trailing cos(theta) approaches 1
    inst = make_lasso(m=8, n=24, sparsity=3, mu=0.5, seed=5)
    gamma = inst.norm_K ** 2 + 0.1
    cfg = SolverConfig(gamma=gamma, tol=0.0, max_iter=300, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    vals = [r.cos_theta for r in res.trace.rows
            if r.cos_theta is not None and r.norm_v > 1e-13]
    assert np.mean(vals[-40:]) >= 1 - 1e-3


def test_state_identities_after_every_step():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=1)
    gamma = 0.7
    for variant, phi in [("standard", 1.0), ("relaxed", 1.4), ("symmetric", 1.0)]:
        cfg = SolverConfig(gamma=gamma, variant=variant, phi=phi)
        state = IterateState.initial(inst.problem, inst.z0)
        for _ in range(25):
            prev = state
            state = variant_step(inst.problem, state, cfg)
            A = inst.problem.A
            scale = 1 + np.linalg.norm(state.z)
            # multiplier identity: psi_k = zbar_{k-1} - gamma y_k
            psi_err = np.linalg.norm(state.psi - (prev.z_bar - gamma * state.y))
            assert psi_err <= 1e-10 * scale
            if variant == "standard":
                # fixed-point variable: z_k = psi_k + gamma A x_k
                z_err = np.linalg.norm(state.z - (state.psi + gamma * A.apply(state.x)))
                assert z_err <= 1e-10 * scale
            if variant == "symmetric":
                # z_k = psi_{k-1/2} + gamma A x_k with the half-step multiplier
                psi_half = state.psi + gamma * (A.apply(state.x) - state.y)
                z_err = np.linalg.norm(state.z - (psi_half + gamma * A.apply(state.x)))
                assert z_err <= 1e-10 * scale


def test_relaxed_step_matches_admm_at_phi_one():
    inst = make_lasso(m=12, n=40, sparsity=4, seed=3)
    state_a = IterateState.initial(inst.problem, inst.z0)
    state_r = IterateState.initial(inst.problem, inst.z0)
    standard = SolverConfig(gamma=0.9)
    relaxed = SolverConfig(gamma=0.9, variant="relaxed", phi=1.0)
    for _ in range(100):
        state_a = variant_step(inst.problem, state_a, standard)
        state_r = variant_step(inst.problem, state_r, relaxed)
        for field in ("x", "y", "psi", "z", "v"):
            assert np.array_equal(getattr(state_a, field), getattr(state_r, field))


def test_relaxed_step_rejects_bad_phi():
    # the relaxed step reads phi from its SolverConfig, which checks the range
    for phi in (0.0, 2.0, -0.5, 2.5, math.nan):
        with pytest.raises(BadRelaxation):
            SolverConfig(gamma=1.0, variant="relaxed", phi=phi)


def test_relaxed_overrelaxation_converges_on_lasso():
    inst = make_lasso(m=12, n=40, sparsity=4, seed=3)
    cfg = SolverConfig(gamma=1.0, phi=1.5, variant="relaxed", tol=1e-11,
                       max_iter=3000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    assert res.converged
    # Fejer property of the relaxed scheme w.r.t. its own limit
    zs = res.state.z
    state = IterateState.initial(inst.problem, inst.z0)
    dists = []
    for _ in range(200):
        state = variant_step(inst.problem, state, cfg)
        dists.append(np.linalg.norm(state.z - zs))
    assert all(d2 <= d1 + 1e-10 for d1, d2 in zip(dists, dists[1:]))


def test_relaxation_on_spiral_is_best_at_one():
    inst = make_feasibility(np.pi / 4, seed=1)

    def iters(phi):
        cfg = SolverConfig(gamma=1.0, phi=phi, variant="relaxed" if phi != 1 else "standard",
                           tol=1e-12, max_iter=500, z0=inst.z0)
        return run_a3dmm(inst.problem, cfg).state.k

    counts = {phi: iters(phi) for phi in (0.5, 0.75, 1.0, 1.25, 1.5)}
    assert counts[1.0] == min(counts.values())


def test_symmetric_beats_standard_on_qp():
    # the double multiplier update pays off on the strongly convex block
    # when the penalty is on the small side
    inst = make_qp_box(n=30, seed=4)
    out = {}
    for variant in ("standard", "symmetric"):
        cfg = SolverConfig(gamma=0.5, variant=variant, tol=1e-10, max_iter=2000)
        res = run_a3dmm(inst.problem, cfg)
        assert res.converged
        out[variant] = res.state.k
    assert out["symmetric"] < out["standard"]


def test_symmetric_orthogonal_lines_reflection_composition():
    # orthogonal lines: the Peaceman-Rachford operator is the composition of
    # two orthogonal reflections, i.e. exactly -I, so the z-sequence is
    # 2-periodic (while the averaged scheme reaches the solution at once)
    inst = make_feasibility(np.pi / 2, seed=3)
    states = run_steps(inst.problem, SolverConfig(gamma=1.0, variant="symmetric"), inst.z0, 2)
    np.testing.assert_allclose(states[0].z, -inst.z0, atol=1e-12)
    np.testing.assert_allclose(states[1].z, inst.z0, atol=1e-12)


def test_symmetric_degenerate_block_reduces_to_dual_pr():
    # J = indicator of {0}: y stays 0 and z follows Peaceman-Rachford on R alone
    rng = np.random.default_rng(8)
    G = rng.standard_normal((5, 5))
    problem = SplitProblem(
        prox_r=quadratic_oracle(G.T @ G + 0.5 * np.eye(5), rng.standard_normal(5)),
        prox_j=ProxOracle(lambda w, g: np.zeros(5), 5, "point-zero"),
        A=LinearMap.identity(5))
    state = IterateState.initial(problem)
    z_dual = state.z.copy()
    cfg = SolverConfig(gamma=1.0, variant="symmetric")
    for _ in range(30):
        state = variant_step(problem, state, cfg)
        _, z_dual, _ = dr_dual_step(problem, z_dual, 1.0, variant="symmetric")
        assert np.linalg.norm(state.y) == 0.0
        assert np.linalg.norm(state.z - z_dual) <= 1e-10 * (1 + np.linalg.norm(z_dual))


def test_divergence_detector_fires_on_expansive_map():
    n = 3
    expanding = ProxOracle(lambda w, g: 4.0 * np.asarray(w), n, "expanding")
    problem = SplitProblem(prox_r=expanding, prox_j=ProxOracle(
        lambda w, g: np.asarray(w), n, "identity"),
        A=LinearMap.identity(n))
    cfg = SolverConfig(gamma=1.0, variant="symmetric", tol=0.0, max_iter=100,
                       z0=np.ones(n))
    with pytest.raises(Divergence):
        run_a3dmm(problem, cfg)


def test_inertial_predict_examples():
    np.testing.assert_array_equal(
        inertial_predict(np.array([2.0]), np.array([1.0]), a=0.0), [2.0])
    np.testing.assert_allclose(
        inertial_predict(np.array([2.0]), np.array([1.0]), a=0.3), [2.3])
    out = inertial_predict(np.array([2.0]), np.array([1.0]), np.array([0.5]),
                           a=0.4, b=-0.2)
    np.testing.assert_allclose(out, [2.4 - 0.1])
    with pytest.raises(ValueError):
        inertial_predict(np.array([2.0]), np.array([1.0]), None, a=0.4, b=-0.2)


def test_three_point_momentum_beats_two_point_on_feasibility():
    inst = make_feasibility(np.pi / 4, seed=0)

    def iters(momentum):
        cfg = SolverConfig(gamma=1.0, tol=1e-12, max_iter=2000, z0=inst.z0)
        return run_a3dmm(inst.problem, cfg, momentum=momentum).state.k

    assert iters((0.4, -0.2)) < iters((0.3, 0.0))


@pytest.mark.parametrize("build,gamma", [
    (lambda: make_lasso(m=16, n=48, sparsity=4, seed=2), 0.8),
    (lambda: make_feasibility(np.pi / 3, seed=2), 1.0),
])
def test_dual_dr_equivalence(build, gamma):
    inst = build()
    state = IterateState.initial(inst.problem, inst.z0)
    z_dual = state.z.copy()
    cfg = SolverConfig(gamma=gamma)
    for _ in range(60):
        state = variant_step(inst.problem, state, cfg)
        _, z_dual, _ = dr_dual_step(inst.problem, z_dual, gamma)
        assert np.linalg.norm(state.z - z_dual) <= 1e-10 * (1 + np.linalg.norm(z_dual))


def test_dual_relaxed_equivalence():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=2)
    state = IterateState.initial(inst.problem, inst.z0)
    z_dual = state.z.copy()
    cfg = SolverConfig(gamma=0.8, variant="relaxed", phi=1.6)
    for _ in range(60):
        state = variant_step(inst.problem, state, cfg)
        _, z_dual, _ = dr_dual_step(inst.problem, z_dual, 0.8, variant="relaxed", phi=1.6)
        assert np.linalg.norm(state.z - z_dual) <= 1e-10 * (1 + np.linalg.norm(z_dual))


def test_dual_step_keeps_fixed_point():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=6)
    cfg = SolverConfig(gamma=1.0, tol=1e-13, max_iter=5000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    zs = res.state.z
    _, z_next, _ = dr_dual_step(inst.problem, zs, 1.0)
    assert np.linalg.norm(z_next - zs) <= 1e-11 * (1 + np.linalg.norm(zs))


@pytest.mark.parametrize("build,gamma", [
    (lambda: make_lasso(m=16, n=48, sparsity=4, seed=9), 0.9),
    (lambda: make_bp_l1(m=32, n=128, sparsity=6, seed=9), 1.0),
    (lambda: make_bp_l12(m=32, n=64, blocks=2, seed=9), 1.0),
    (lambda: make_bp_nuclear(matrix_shape=(8, 8), rank=2, measurements=40, seed=9), 1.0),
    (lambda: make_qp_box(n=20, seed=9), 1.0),
    (lambda: make_feasibility(np.pi / 4, seed=9), 1.0),
])
def test_monotone_differences_and_fejer(build, gamma):
    inst = build()
    # reference fixed point from a long run
    cfg = SolverConfig(gamma=gamma, tol=1e-13, max_iter=30000, z0=inst.z0)
    zs = run_a3dmm(inst.problem, cfg).state.z
    state = IterateState.initial(inst.problem, inst.z0)
    prev_v = None
    prev_d = None
    feas = []
    for _ in range(300):
        state = variant_step(inst.problem, state, cfg)
        nv = np.linalg.norm(state.v)
        if prev_v is not None:
            assert nv <= prev_v + 1e-12
        d = np.linalg.norm(state.z - zs)
        if prev_d is not None:
            assert d <= prev_d + 1e-10
        prev_v, prev_d = nv, d
        feas.append(np.linalg.norm(inst.problem.A.apply(state.x) - state.y))
    assert feas[-1] < feas[0] or feas[-1] <= 1e-10


def test_primal_feasibility_at_convergence():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=11)
    tol = 1e-9
    cfg = SolverConfig(gamma=1.0, tol=tol, max_iter=10000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    assert res.converged
    gap = np.linalg.norm(inst.problem.A.apply(res.state.x) - res.state.y)
    assert gap <= 10 * tol


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=1.0, variant="nope")
    for gamma in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gamma"):
            SolverConfig(gamma=gamma)
    for max_iter in (0, -5):
        with pytest.raises(ValueError, match="max_iter"):
            SolverConfig(gamma=1.0, max_iter=max_iter)
    for tol in (-1e-12, math.nan):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(gamma=1.0, tol=tol)
    SolverConfig(gamma=1e-300, tol=0.0, max_iter=1)


@pytest.mark.parametrize("build", [
    lambda: make_qp_box(n=6, seed=0),
    lambda: make_lasso(m=8, n=24, sparsity=3, seed=0),
    lambda: make_feasibility(np.pi / 4, seed=0),
], ids=["qp_box", "lasso", "feasibility"])
def test_initial_state_rejects_a_start_of_the_wrong_shape(build):
    inst = build()
    p = inst.problem.p
    for z0 in (np.ones(1), 1.0, np.ones(p + 1), np.ones((p, 1))):
        with pytest.raises(BadStart):
            IterateState.initial(inst.problem, z0)
        with pytest.raises(BadStart):
            run_a3dmm(inst.problem, SolverConfig(gamma=1.0, max_iter=5, z0=z0))
    assert IterateState.initial(inst.problem, list(np.ones(p))).z.shape == (p,)


def general_step(problem, state, gamma, variant="standard", phi=1.0):
    """The step of the general form A x + B y = b at B = -I, b = 0, operation for operation.

    Its y-oracle solves argmin J + (gamma/2)||B y - w||^2, which is J's prox
    at -w; every expression keeps its operands and their order.
    """
    b = np.zeros(problem.p)
    B = LinearMap(lambda v: -1.0 * v, lambda v: -1.0 * v, problem.p, problem.p)
    zb = state.z_bar
    y = problem.prox_j.evaluate(-(b - zb / gamma), gamma)
    By = B.apply(y)
    psi = zb + gamma * (By - b)
    x = problem.prox_r.evaluate((zb - 2.0 * psi) / gamma, gamma)
    Ax = problem.A.apply(x)
    if variant == "symmetric":
        z = psi + gamma * (2.0 * Ax + By - b)
    elif variant == "relaxed":
        z = psi + gamma * (phi * Ax - (1.0 - phi) * (By - b))
    else:
        z = psi + gamma * Ax
    return IterateState(x=x, y=y, psi=psi, z=z, v=z - state.z, k=state.k + 1)


def through_oracle(inst):
    """The instance with its y-step through `prox_j`, the generic step body, not a carried image.

    The carried step is checked against this twin in test_wide_image.py.
    """
    return dataclasses.replace(inst, problem=dataclasses.replace(inst.problem, wide_lsq=None))


@pytest.mark.parametrize("build,gamma", [
    (lambda: through_oracle(make_lasso(m=16, n=48, sparsity=4, seed=7)), 0.7),
    (lambda: make_bp_l1(m=12, n=40, sparsity=3, seed=7), 1.0),
    (lambda: make_qp_box(n=20, seed=7), 0.5),
    (lambda: make_feasibility(np.pi / 5, seed=7), 1.0),
    (lambda: make_tv_inpainting(size=8, seed=7), 1.0),
], ids=["lasso", "bp-l1", "qp_box", "feasibility", "tv"])
def test_step_equals_the_general_form_bit_for_bit(build, gamma):
    inst = build()
    z0 = np.random.default_rng(7).standard_normal(inst.problem.p)
    for variant, phi in (("standard", 1.0), ("relaxed", 0.6), ("relaxed", 1.5),
                         ("symmetric", 1.0)):
        cfg = SolverConfig(gamma=gamma, variant=variant, phi=phi)
        # moved: every other step starts from a momentum point off z, set by move_to
        for moved in (False, True):
            state = expected = IterateState.initial(inst.problem, z0)
            for _ in range(30):
                z_prev = state.z
                state = variant_step(inst.problem, state, cfg)
                expected = general_step(inst.problem, expected, gamma, variant, phi)
                for field in ("x", "y", "psi", "z", "v"):
                    assert np.array_equal(getattr(state, field), getattr(expected, field)), \
                        (variant, phi, moved, state.k, field)
                if moved and state.k % 2:
                    z_bar = inertial_predict(state.z, z_prev, a=0.3)
                    state.move_to(z_bar)
                    expected.move_to(z_bar.copy())


def _read_only(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("variant,phi", [("standard", 1.0), ("relaxed", 1.5),
                                         ("symmetric", 1.0)])
def test_step_writes_into_none_of_its_inputs(variant, phi):
    # gamma = 1 hands z_bar itself to the y-oracle; 0.8 takes the scaled path
    for inst, gamma in itertools.product(
            (make_lasso(m=16, n=48, sparsity=4, seed=4), make_tv_inpainting(size=8, seed=4)),
            (0.8, 1.0)):
        base = inst.problem
        problem = SplitProblem(
            prox_r=ProxOracle(lambda w, g: _read_only(base.prox_r.evaluate(w, g)), base.n),
            prox_j=ProxOracle(lambda w, g: _read_only(base.prox_j.evaluate(w, g)), base.m),
            A=LinearMap(lambda v: _read_only(base.A.apply(v)), base.A.apply_adjoint,
                        base.p, base.n))
        cfg = SolverConfig(gamma=gamma, variant=variant, phi=phi)
        state = IterateState.initial(problem, np.random.default_rng(4).standard_normal(base.p))
        for _ in range(5):
            for a in (state.x, state.y, state.psi, state.z, state.z_bar, state.v):
                if a is not None:
                    _read_only(a)
            state = variant_step(problem, state, cfg)
