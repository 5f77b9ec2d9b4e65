import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import extrapolate
from admmkit.a3dmm import (ExtrapConfig, InnerSolver, RunResult, run_a3dmm,
                           safeguard_coefficient)
from admmkit.bench import parse_solver_spec, run_solver
from admmkit.problems import make_feasibility, make_lasso, make_qp_box, make_tv_inpainting
from admmkit.splitting import Divergence, SolverConfig


def rows_without_ms(trace):
    return [(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective,
             r.extrapolated) for r in trace.rows]


def test_safeguard_coefficient_examples():
    assert safeguard_coefficient(1, 1.0, 1.0, 1.0, 0.1) == 1.0
    assert safeguard_coefficient(10, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.01)
    assert safeguard_coefficient(7, 0.6, 1.0, 2.0, 0.0) == 0.6


def test_extrap_config_validation():
    with pytest.raises(ValueError):
        ExtrapConfig(q=0)
    with pytest.raises(ValueError):
        ExtrapConfig(q=40)  # beyond the companion order spectral_radius supports
    assert ExtrapConfig(q=32).q == 32
    with pytest.raises(ValueError):
        ExtrapConfig(s=0)
    with pytest.raises(ValueError):
        ExtrapConfig(s=2.5)
    with pytest.raises(ValueError):
        ExtrapConfig(guard_a=1.5)
    with pytest.raises(ValueError):
        ExtrapConfig(spacing=0)
    assert ExtrapConfig(q=4, spacing=3).cadence == 7
    with pytest.raises(ValueError):
        InnerSolver(max_steps=0)


def test_traces_are_deterministic():
    a = make_lasso(m=16, n=48, sparsity=4, seed=9)
    b = make_lasso(m=16, n=48, sparsity=4, seed=9)
    ext = ExtrapConfig(q=4, s=math.inf)
    ra = run_a3dmm(a.problem, SolverConfig(gamma=0.8, tol=1e-10, max_iter=400), extrap=ext)
    rb = run_a3dmm(b.problem, SolverConfig(gamma=0.8, tol=1e-10, max_iter=400),
                   extrap=ExtrapConfig(q=4, s=math.inf))
    assert rows_without_ms(ra.trace) == rows_without_ms(rb.trace)


def test_guard_flag_only_on_clean_cadence_points():
    inst = make_lasso(m=24, n=72, sparsity=6, seed=3)
    ext = ExtrapConfig(q=5, s=math.inf)
    cfg = SolverConfig(gamma=1.0, tol=1e-11, max_iter=1000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg, extrap=ext)
    flagged = [r.k for r in res.trace.rows if r.extrapolated]
    assert flagged, "extrapolation never fired"
    assert all(k % ext.cadence == 0 for k in flagged)
    assert len(res.trace.applied_increments) == len(flagged)


@pytest.mark.parametrize("spec, predict", [("a3dmm(6,inf)", "extrapolate_infinite"),
                                           ("a3dmm(6,100)", "extrapolate_finite")])
def test_accelerator_calls_go_through_module_attributes(spec, predict, monkeypatch):
    # perfbench's extrapolate.fit_s / predict_s / push_s spans patch these
    # module attributes by name; the loop must reach the accelerator through them
    calls = Counter()

    def counting(name):
        original = getattr(extrapolate, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("fit_coefficients", "push_difference", "extrapolate_finite",
                 "extrapolate_infinite"):
        monkeypatch.setattr(extrapolate, name, counting(name))
    inst = make_lasso(m=24, n=72, sparsity=6, seed=3)
    tol = 1e-10
    trace = run_solver(inst, parse_solver_spec(spec), 1.0, tol, 1000)
    q, cadence = 6, ExtrapConfig(q=6).cadence
    pushed = [r.k for r in trace.rows if r.norm_v > tol]
    # every iteration before the stop pushes, so the window is full from k = q + 1 on
    cadence_points = [k for k in pushed if k % cadence == 0 and k >= q + 1]
    extrapolated = sum(r.extrapolated for r in trace.rows)
    assert calls["push_difference"] == len(pushed)
    assert calls["fit_coefficients"] == len(cadence_points) > 0
    assert 0 < extrapolated <= calls[predict] <= calls["fit_coefficients"]
    assert sum(calls.values()) == len(pushed) + len(cadence_points) + calls[predict]


def test_acceleration_on_lasso():
    inst = make_lasso(m=32, n=96, sparsity=6, seed=1)
    gamma = inst.norm_K ** 2 / 10

    def iters(extrap):
        cfg = SolverConfig(gamma=gamma, tol=1e-10, max_iter=4000, z0=inst.z0)
        res = run_a3dmm(inst.problem, cfg, extrap=extrap)
        assert res.converged
        return res.state.k

    assert iters(ExtrapConfig(q=6, s=math.inf)) < iters(None)


def test_perturbation_sums_stay_below_zeta_bound():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=5)
    ext = ExtrapConfig(q=4, s=100, guard_b_rel=1.0, guard_delta=1.0)
    cfg = SolverConfig(gamma=1.0, tol=1e-11, max_iter=3000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg, extrap=ext)
    assert res.converged
    b = float(res.trace.meta["guard_b"])
    zeta2 = math.pi ** 2 / 6
    partial = 0.0
    for eps in res.trace.applied_increments:
        partial += eps
        assert partial <= b * zeta2 + 1e-12


def test_difference_scaled_safeguard_variant():
    # the alternative online rule scales by ||z_k - z_{k-1}|| instead of the
    # increment norm (only the latter bounds the applied perturbations by
    # construction, which is why it is the default); the literal rule must
    # still run, fire and converge
    inst = make_lasso(m=16, n=48, sparsity=4, seed=5)
    ext = ExtrapConfig(q=4, s=100, guard_b_rel=1.0, guard_delta=1.0,
                       guard_on_increment=False)
    cfg = SolverConfig(gamma=1.0, tol=1e-11, max_iter=3000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg, extrap=ext)
    assert res.converged
    assert any(r.extrapolated for r in res.trace.rows)


def test_run_variant_relaxed_at_phi_one_matches_standard():
    inst = make_qp_box(n=12, seed=2)
    rs = run_a3dmm(inst.problem,
                   SolverConfig(gamma=1.0, tol=1e-10, max_iter=300, variant="standard"))
    rr = run_a3dmm(inst.problem,
                   SolverConfig(gamma=1.0, phi=1.0, tol=1e-10, max_iter=300,
                                variant="relaxed"))
    assert rows_without_ms(rs.trace) == rows_without_ms(rr.trace)


def test_run_variant_symmetric_faster_on_qp():
    inst = make_qp_box(n=24, seed=0)
    ks = {}
    for variant in ("standard", "symmetric"):
        cfg = SolverConfig(gamma=0.5, variant=variant, tol=1e-10, max_iter=2000)
        res = run_a3dmm(inst.problem, cfg)
        assert res.converged
        ks[variant] = res.state.k
    assert ks["symmetric"] < ks["standard"]


def test_momentum_run_matches_manual_inertial_iteration():
    from admmkit.splitting import IterateState, admm_step, inertial_predict
    inst = make_feasibility(np.pi / 4, seed=0)
    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=0.0, max_iter=30,
                                               z0=inst.z0), momentum=(0.4, -0.2))
    state = IterateState.initial(inst.problem, inst.z0)
    zs = [state.z.copy(), state.z.copy()]
    for k, row in enumerate(res.trace.rows, start=1):
        state = admm_step(inst.problem, state, 1.0)
        np.testing.assert_allclose(np.linalg.norm(state.v), row.norm_v, atol=1e-14)
        state.z_bar = inertial_predict(state.z, zs[-1], zs[-2], 0.4, -0.2)
        zs.append(state.z.copy())


def test_inner_budget_is_a_no_op_for_an_exact_oracle():
    # every oracle is exact, so run_solver accepts `inner` and ignores it
    inst = make_tv_inpainting(size=12, seed=0)
    for text in ("admm", "a3dmm(6,inf)"):
        spec = parse_solver_spec(text)
        given = run_solver(inst, spec, 1.0, 1e-8, 200, inner=InnerSolver(max_steps=7))
        assert rows_without_ms(given) == rows_without_ms(run_solver(inst, spec, 1.0, 1e-8, 200))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["qp", "feasibility"]), st.integers(0, 2 ** 31 - 1),
       st.integers(2, 6), st.sampled_from([math.inf, 10, 100]))
def test_guarded_run_reaches_the_plain_runs_fixed_point(kind, seed, q, s):
    # both instances have a unique fixed point z*; stopping at ||v|| <= 1e-12
    # puts each run within ||v|| / (1 - rate) of it
    if kind == "qp":
        inst = make_qp_box(n=int(np.random.default_rng(seed).integers(2, 12)), seed=seed)
    else:
        alpha = np.random.default_rng(seed).uniform(np.pi / 12, np.pi / 2)
        inst = make_feasibility(alpha, seed=seed)
    cfg = SolverConfig(gamma=0.5, tol=1e-12, max_iter=5000, z0=inst.z0)
    plain = run_a3dmm(inst.problem, cfg)
    guarded = run_a3dmm(inst.problem, cfg, extrap=ExtrapConfig(q=q, s=s))
    assert plain.converged and guarded.converged
    z_star = plain.state.z
    assert np.linalg.norm(guarded.state.z - z_star) <= 1e-9 * (1.0 + np.linalg.norm(z_star))


@pytest.mark.parametrize("variant", ["standard", "relaxed", "symmetric"])
@pytest.mark.parametrize("extrap", [None, ExtrapConfig(q=2, s=math.inf)], ids=["plain", "a3dmm"])
@pytest.mark.parametrize("build", [
    lambda: make_feasibility(np.pi / 6, seed=0),
    lambda: make_tv_inpainting(size=12, seed=0),
], ids=["feasibility", "tv"])
def test_nan_start_raises_divergence_at_first_iteration(build, extrap, variant, capfd):
    # a NaN must stop the run before it reaches the recurrence fit (lstsq)
    inst = build()
    z0 = np.zeros(inst.problem.p)
    z0[1] = np.nan
    cfg = SolverConfig(gamma=1.0, phi=1.5 if variant == "relaxed" else 1.0,
                       variant=variant, tol=0.0, max_iter=50, z0=z0)
    with pytest.raises(Divergence, match=r"\|\|v_1\|\| is not finite"):
        run_a3dmm(inst.problem, cfg, extrap=extrap)
    assert "DLASCL" not in capfd.readouterr().err


def test_max_iter_reached_is_soft():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=0)
    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-16, max_iter=5))
    assert not res.converged
    assert res.trace.meta["converged"] == "0"
    assert res.state.k == 5


def test_reference_distances_recorded():
    inst = make_lasso(m=16, n=48, sparsity=4, seed=0)
    long = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-13, max_iter=5000))

    class Ref:
        z = long.state.z
        x = long.state.x

    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-9, max_iter=500),
                    reference=Ref)
    assert res.trace.rows[-1].dist_z <= 1e-7
    assert all(r.dist_z is not None and r.dist_x is not None for r in res.trace.rows)
    # first iteration has no previous difference: the angle cell is absent
    assert res.trace.rows[0].cos_theta is None


def test_concurrent_solves_share_problem_data():
    # the problem (oracles, caches) is read-only during solves: concurrent
    # runs must produce the same traces as sequential ones.  The concurrent
    # runs go first, so that they also race to build the lazy caches (the
    # LASSO's per-gamma factor, the TV x-oracle's sparse factor).
    import concurrent.futures
    for inst, max_iter in ((make_lasso(m=24, n=72, sparsity=5, seed=8), 600),
                           (make_tv_inpainting(size=12, seed=1), 150)):
        def solve(gamma):
            cfg = SolverConfig(gamma=gamma, tol=1e-10, max_iter=max_iter, z0=inst.z0)
            return rows_without_ms(run_a3dmm(inst.problem, cfg,
                                             extrap=ExtrapConfig(q=4, s=50)).trace)

        gammas = [0.5, 0.8, 1.0, 1.3]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            concurrent_rows = list(pool.map(solve, gammas))
        sequential = [solve(g) for g in gammas]
        assert concurrent_rows == sequential, inst.descriptor


def test_result_unpacks_like_a_pair():
    inst = make_feasibility(np.pi / 3, seed=0)
    state, trace = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-10,
                                                        max_iter=200, z0=inst.z0))
    assert state.k == len(trace.rows)
