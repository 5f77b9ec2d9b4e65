"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Criterion 4 is split: its two momentum-slowdown clauses hold,
while its three-point clause is provably unattainable at the stated angle
(the momentum-augmented iteration matrix has spectral radius 0.794 versus
0.707 for the plain scheme at pi/4), so that clause is kept as a strict
expected failure.
"""

import math
import time

import numpy as np
import pytest

from admmkit.a3dmm import ExtrapConfig, run_a3dmm
from admmkit.bench import SolverSpec, compute_reference, run_solver
from admmkit.extrapolate import (DiffWindow, extrapolate_finite, extrapolate_infinite,
                                 fit_coefficients, fitting_error_bound,
                                 push_difference)
from admmkit.problems import (make_bp_l1, make_bp_l12, make_bp_nuclear, make_feasibility,
                              make_lasso, make_qp_box, make_tv_inpainting, psnr)
from admmkit.spectra import (SPIRAL, STRAIGHT_LINE, classify_trajectory,
                             inertial_spectral_radius, polyhedral_admm_matrix,
                             trajectory_angle)
from admmkit.splitting import IterateState, SolverConfig, variant_step
from reference_twins import dr_dual_step


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def random_normal_matrix(rng, max_dim=8, allow_duplicate=True):
    """Normal matrix with known minimal-polynomial degree and rho <= 0.95.

    Eigenvalues are well separated so the difference windows stay
    well-conditioned.
    """
    n_pairs = int(rng.integers(0, max_dim // 2 + 1))
    n_real = int(rng.integers(0 if n_pairs else 1, max_dim - 2 * n_pairs + 1))
    dim = 2 * n_pairs + n_real
    if dim == 0:
        n_real, dim = 1, 1
    moduli = np.sort(rng.uniform(0.45, 0.95, size=n_pairs + n_real))
    while np.any(np.diff(moduli) < 0.03):
        moduli = np.sort(rng.uniform(0.45, 0.95, size=n_pairs + n_real))
    angles = rng.uniform(0.25, 2.6, size=n_pairs)
    M = np.zeros((dim, dim))
    pos = 0
    for i in range(n_pairs):
        r, t = moduli[i], angles[i]
        M[pos:pos + 2, pos:pos + 2] = r * np.array([[np.cos(t), -np.sin(t)],
                                                    [np.sin(t), np.cos(t)]])
        pos += 2
    reals = list(moduli[n_pairs:] * rng.choice([-1.0, 1.0], size=n_real))
    degree = 2 * n_pairs + n_real
    if allow_duplicate and n_real >= 1 and dim < max_dim and rng.random() < 0.3:
        reals.append(reals[0])  # duplicated eigenvalue: minpoly degree unchanged
        dim += 1
        Mbig = np.zeros((dim, dim))
        Mbig[:pos + n_real, :pos + n_real] = M[:pos + n_real, :pos + n_real]
        M = Mbig
    for r in reals:
        M[pos, pos] = r
        pos += 1
    Q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return Q @ M @ Q.T, degree


def linear_sequence(rng, M, count):
    """z-iterates driven by v_k = M v_{k-1}; returns (z list, v list, z*)."""
    dim = M.shape[0]
    v = rng.standard_normal(dim)
    z = rng.standard_normal(dim)
    z0 = z.copy()
    zstar = z0 + np.linalg.solve(np.eye(dim) - M, M @ v)
    zs, vs = [], []
    for _ in range(count):
        v = M @ v
        z = z + v
        zs.append(z.copy())
        vs.append(v.copy())
    return z0, zs, vs, zstar


def test_criterion_01_extrapolation_exactness():
    start = time.perf_counter()
    worst_eps, worst_rec = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        M, q = random_normal_matrix(rng)
        z0, zs, vs, zstar = linear_sequence(rng, M, q + 1)
        win = DiffWindow(M.shape[0], q + 1)
        for v in vs:
            push_difference(win, v)
        fit = fit_coefficients(win)
        worst_eps = max(worst_eps, fit.eps / np.linalg.norm(vs[-1]))
        assert fit.eps <= 1e-10 * np.linalg.norm(vs[-1])
        out = extrapolate_infinite(zs[-1], win, fit)
        rec = np.linalg.norm(out - zstar) / np.linalg.norm(z0 - zstar)
        worst_rec = max(worst_rec, rec)
        assert rec <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert report(1, True, f"100 seeds: max eps/||v||={worst_eps:.2e}, "
                           f"max recovery err={worst_rec:.2e}, {elapsed:.2f}s")


def test_criterion_02_angle_limit_and_linearization():
    start = time.perf_counter()
    details = []
    for alpha in (np.pi / 6, np.pi / 4, np.pi / 3):
        inst = make_feasibility(alpha, seed=0)
        M = polyhedral_admm_matrix(inst.extra["basis_r"], inst.extra["basis_j"])
        state = IterateState.initial(inst.problem, inst.z0)
        v_of = {}  # iteration counter -> difference vector
        for k in range(1, 202):
            state = variant_step(inst.problem, state, SolverConfig(gamma=1.0))
            v_of[k] = state.v
        worst_angle = max(abs(trajectory_angle(v_of[k], v_of[k - 1], np.linalg.norm(v_of[k]),
                                               np.linalg.norm(v_of[k - 1])) - np.cos(alpha))
                          for k in range(50, 201))
        assert worst_angle <= 1e-6
        worst_lin = max(np.linalg.norm(v_of[k + 1] - M @ v_of[k])
                        / np.linalg.norm(v_of[k]) for k in range(1, 201))
        assert worst_lin <= 1e-10
        details.append(f"alpha={alpha:.3f}: angle err {worst_angle:.1e}, "
                       f"linearization {worst_lin:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert report(2, True, "; ".join(details) + f", {elapsed:.2f}s")


def _angles_until_noise(inst, gamma, max_iter=400):
    cfg = SolverConfig(gamma=gamma, tol=0.0, max_iter=max_iter, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    noise_k = next((r.k for r in res.trace.rows
                    if r.norm_v <= 1e-13 * (1 + np.linalg.norm(res.state.z))),
                   max_iter + 1)
    return res.trace, noise_k


def test_criterion_03_gamma_regimes():
    start = time.perf_counter()
    inst = make_lasso(sparsity=20, mu=0.15, seed=14)
    # large penalty: straight line over iterations 200-400 (or to noise onset)
    trace, noise_k = _angles_until_noise(inst, inst.norm_K ** 2 + 0.1)
    vals = [r.cos_theta for r in trace.rows
            if 200 <= r.k <= min(400, noise_k) and r.cos_theta is not None]
    straight = classify_trajectory(vals, window=min(50, len(vals)))
    assert straight.classification == STRAIGHT_LINE
    assert straight.limit >= 1 - 1e-3
    # small penalty: spiral on the trailing window before machine noise
    trace, noise_k = _angles_until_noise(inst, inst.norm_K ** 2 / 10)
    vals = [r.cos_theta for r in trace.rows
            if r.cos_theta is not None and r.k <= noise_k]
    spiral = classify_trajectory(vals, window=50)
    assert spiral.classification == SPIRAL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert report(3, True,
                  f"K2+0.1 straight (mean {straight.limit:.6f}), "
                  f"K2/10 spiral (mean {spiral.limit:.4f}), {elapsed:.2f}s")


def _feasibility_reach_counts():
    inst = make_feasibility(np.pi / 4, seed=0)
    compute_reference(inst, 1.0, 1e-10, 3000)
    reach = {}
    for name, spec in [("admm", SolverSpec(kind="admm")),
                       ("iadmm(0.1)", SolverSpec(kind="iadmm", a=0.1)),
                       ("iadmm(0.3)", SolverSpec(kind="iadmm", a=0.3)),
                       ("3pt", SolverSpec(kind="iadmm", a=0.4, b=-0.2))]:
        trace = run_solver(inst, spec, 1.0, 1e-14, 3000)
        reach[name] = trace.iterations_to("dist_z", 1e-8)
    return reach


def test_criterion_04_inertial_slowdown_clauses():
    start = time.perf_counter()
    reach = _feasibility_reach_counts()
    ok = reach["admm"] < reach["iadmm(0.1)"] and reach["admm"] < reach["iadmm(0.3)"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert ok
    assert report(4, True, f"momentum slows the pi/4 spiral: {reach} ({elapsed:.2f}s); "
                           "three-point clause tracked separately (expected failure)")


@pytest.mark.xfail(strict=True, reason=(
    "spec defect: at alpha=pi/4 the (0.4,-0.2) three-point scheme has augmented "
    "spectral radius 0.7945 > cos(pi/4)=0.7071 of plain ADMM, so it cannot reach "
    "1e-8 first (79 vs 54 iterations); the paper's qualitative claim holds at "
    "smaller angles, e.g. every clause passes at alpha=pi/6"))
def test_criterion_04_three_point_clause():
    reach = _feasibility_reach_counts()
    if not reach["3pt"] < reach["admm"]:
        report(4, False, f"three-point clause at pi/4: {reach['3pt']} >= {reach['admm']}")
    assert reach["3pt"] < reach["admm"]


def test_criterion_05_acceleration_factor():
    start = time.perf_counter()
    details = []
    for label, inst, gamma in [
            ("lasso", make_lasso(seed=0), None),
            ("bp-l1", make_bp_l1(seed=0), 1.0)]:
        gamma = gamma if gamma is not None else inst.norm_K ** 2 / 10.0
        compute_reference(inst, gamma, 1e-9, 8000)
        reach = {}
        for name, spec in [("admm", SolverSpec(kind="admm")),
                           ("inf", SolverSpec(kind="a3dmm", q=6, s=math.inf)),
                           ("100", SolverSpec(kind="a3dmm", q=6, s=100))]:
            trace = run_solver(inst, spec, gamma, 1e-12, 8000)
            reach[name] = trace.iterations_to("dist_x", 1e-6)
            assert reach[name] is not None
        assert reach["inf"] <= 0.5 * reach["admm"]
        assert reach["100"] <= 0.6 * reach["admm"]
        details.append(f"{label}: admm {reach['admm']}, s=inf {reach['inf']} "
                       f"({reach['inf'] / reach['admm']:.2f}), s=100 {reach['100']} "
                       f"({reach['100'] / reach['admm']:.2f})")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert report(5, True, "; ".join(details) + f", {elapsed:.2f}s")


def test_criterion_06_prediction_error_bound():
    worst = 0.0
    checked = 0
    stream = 0
    while checked < 100:
        rng = np.random.default_rng(3000 + stream)
        stream += 1
        M, degree = random_normal_matrix(rng, max_dim=8, allow_duplicate=False)
        if degree < 3:
            continue  # nothing to undersize
        q = int(rng.integers(2, degree))  # deliberately undersized
        z0, zs, vs, zstar = linear_sequence(rng, M, q + 1 + 25)
        win = DiffWindow(M.shape[0], q + 1)
        for v in vs[:q + 1]:
            push_difference(win, v)
        fit = fit_coefficients(win)
        if fit.rho >= 1.0:
            continue  # the solver guard would refuse this window too
        k = q  # index into zs of the fitting point
        norms = [np.linalg.norm(np.linalg.matrix_power(M, ell), 2)
                 for ell in range(1, 26)]
        for s in (1, 5, 25):
            pred = extrapolate_finite(zs[k], win, fit, s)
            lhs = np.linalg.norm(pred - zstar)
            rhs = np.linalg.norm(zs[k + s] - zstar) \
                + fitting_error_bound(fit, norms, s) * fit.eps + 1e-10
            worst = max(worst, lhs - rhs)
            assert lhs <= rhs
        checked += 1
    assert report(6, True, f"bound holds for s in {{1,5,25}} across {checked} "
                           f"checked seeds (max slack violation {worst:.1e})")


def test_criterion_07_momentum_regime_lemmas():
    avals = np.round(np.arange(0.0, 1.0001, 0.01), 10)
    etas = np.round(np.arange(0.0, 0.9901, 0.01), 10)
    worst = 0.0
    for eta in etas:
        for a in avals:
            rho = inertial_spectral_radius(float(eta), float(a))
            worst = max(worst, rho)
            assert rho < 1.0
    monotone = True
    for alpha in (np.pi / 128, np.pi / 64, np.pi / 32, np.pi / 16, np.pi / 8,
                  np.pi / 4):
        eta = np.cos(alpha) * np.exp(1j * alpha)
        vals = [inertial_spectral_radius(eta, float(a)) for a in avals]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert report(7, monotone,
                  f"real grid: max |rho|={worst:.6f} < 1; polyhedral family "
                  "|rho| nondecreasing in the momentum coefficient")


def test_criterion_08_dual_equivalence():
    worst_dr = 0.0
    for inst, gamma in [(make_lasso(seed=0), None),
                        (make_feasibility(np.pi / 4, seed=0), 1.0)]:
        gamma = gamma if gamma is not None else inst.norm_K ** 2 / 10.0
        state = IterateState.initial(inst.problem, inst.z0)
        z = state.z.copy()
        for _ in range(100):
            state = variant_step(inst.problem, state, SolverConfig(gamma=gamma))
            _, z, _ = dr_dual_step(inst.problem, z, gamma)
            worst_dr = max(worst_dr, float(np.linalg.norm(state.z - z)))
        assert worst_dr <= 1e-10
    inst = make_qp_box(n=50, seed=0)
    state = IterateState.initial(inst.problem)
    z = state.z.copy()
    worst_pr = 0.0
    for _ in range(100):
        state = variant_step(inst.problem, state, SolverConfig(gamma=0.5, variant="symmetric"))
        _, z, _ = dr_dual_step(inst.problem, z, 0.5, variant="symmetric")
        worst_pr = max(worst_pr, float(np.linalg.norm(state.z - z)))
    assert worst_pr <= 1e-10
    assert report(8, True, f"max gap over 100 iterations: DR {worst_dr:.1e}, "
                           f"PR {worst_pr:.1e}")


GALLERY = [
    ("lasso", lambda s: make_lasso(seed=s), "K2/10"),
    ("bp-l1", lambda s: make_bp_l1(sparsity=12, seed=s), 1.0),
    ("bp-l12", lambda s: make_bp_l12(blocks=4, seed=s), 1.0),
    ("bp-nuclear", lambda s: make_bp_nuclear(seed=s), 1.0),
    ("qp", lambda s: make_qp_box(n=50, seed=s), 1.0),
    ("feasibility", lambda s: make_feasibility(np.pi / 4, seed=s), 1.0),
    ("tv", lambda s: make_tv_inpainting(mask_density=0.6, seed=s, size=16), 1.0),
]


def test_criterion_09_guarded_convergence():
    zeta2 = math.pi ** 2 / 6
    counts = {}
    for name, build, gamma_rule in GALLERY:
        ks = []
        for seed in range(5):
            inst = build(seed)
            gamma = inst.norm_K ** 2 / 10 if gamma_rule == "K2/10" else gamma_rule
            ext = ExtrapConfig(q=6, s=100, guard_b_rel=1.0, guard_delta=1.0)
            cfg = SolverConfig(gamma=gamma, tol=1e-9, max_iter=30000, z0=inst.z0)
            res = run_a3dmm(inst.problem, cfg, extrap=ext)
            assert res.converged, f"{name} seed {seed} did not reach 1e-9"
            b = float(res.trace.meta["guard_b"])
            assert sum(res.trace.applied_increments) <= b * zeta2 + 1e-9
            ks.append(res.state.k)
        counts[name] = max(ks)
    assert report(9, True, "guarded runs reach ||v|| <= 1e-9 on 5 seeds per "
                           f"problem; worst iteration counts {counts}")


def test_criterion_10_tv_psnr_ordering():
    start = time.perf_counter()
    inst = make_tv_inpainting(mask_density=0.5, seed=0, size=64)
    image = inst.extra["image"]
    values = {}
    for label, extrap, momentum in [
            ("admm", None, None),
            ("iadmm", None, (0.3, 0.0)),
            ("a3dmm", ExtrapConfig(q=6, s=100), None)]:
        cfg = SolverConfig(gamma=1.0, tol=0.0, max_iter=30, z0=inst.z0)
        res = run_a3dmm(inst.problem, cfg, extrap=extrap, momentum=momentum)
        values[label] = psnr(res.state.x, image)
    assert values["a3dmm"] >= values["admm"]
    assert values["iadmm"] <= values["admm"] + 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert report(10, True,
                  f"PSNR at iteration 30: admm {values['admm']:.4f}, "
                  f"iadmm {values['iadmm']:.4f}, a3dmm {values['a3dmm']:.4f} dB "
                  f"({elapsed:.1f}s)")
