import math

import numpy as np
import pytest

from admmkit.a3dmm import run_a3dmm
from admmkit.problems import make_feasibility
from admmkit.spectra import (SPIRAL, STRAIGHT_LINE, UNDETERMINED,
                             DegenerateIntersection, InsufficientData,
                             NotOrthonormal, classify_trajectory, friedrichs_angle,
                             inertial_regime_map, inertial_root_pair,
                             inertial_spectral_radius, polyhedral_admm_matrix,
                             principal_angles, trajectory_angle, write_regime_csv)
from admmkit.splitting import SolverConfig


def line(theta):
    return np.array([[np.cos(theta)], [np.sin(theta)]])


def angle(v, v_prev):
    """trajectory_angle with the norms formed as the solver loop forms them."""
    return trajectory_angle(v, v_prev, math.sqrt(float(v @ v)), math.sqrt(float(v_prev @ v_prev)))


def test_trajectory_angle_examples():
    v = np.array([0.3, -0.4])
    assert angle(v, v) == pytest.approx(1.0)
    assert angle(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert angle(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(np.sqrt(2) / 2)
    assert angle(np.zeros(2), v) is None
    assert angle(v, np.zeros(2)) is None

    def clipped(a, b):
        raw = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        return raw, float(np.clip(raw, -1.0, 1.0))

    # parallel and antiparallel pairs whose raw quotient rounds past +-1
    par = np.array([-0.92, -0.46, 0.22])
    anti = np.array([0.54, 0.21, 0.36])
    rng = np.random.default_rng(0)
    pairs = [(par, par), (anti, -3.0 * anti)] + [
        (rng.standard_normal(50), rng.standard_normal(50)) for _ in range(20)]
    assert clipped(*pairs[0])[0] > 1.0 and clipped(*pairs[1])[0] < -1.0
    # norms passed in as the loop forms them give the two-np.linalg.norm cosine bit for bit
    for a, b in pairs:
        got = angle(a, b)
        assert type(got) is float and got == clipped(a, b)[1]
    assert angle(par, par) == 1.0
    assert angle(anti, -3.0 * anti) == -1.0
    nan = np.array([np.nan, 1.0])
    assert np.isnan(angle(nan, v)) and np.isnan(clipped(nan, v)[1])
    assert np.isnan(angle(v, nan)) and np.isnan(clipped(v, nan)[1])


def test_classify_feasibility_spiral():
    inst = make_feasibility(np.pi / 3, seed=1)
    cfg = SolverConfig(gamma=1.0, tol=0.0, max_iter=250, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    series = classify_trajectory(res.trace.column("cos_theta"), window=50)
    assert series.classification == SPIRAL
    assert series.limit == pytest.approx(np.cos(np.pi / 3), abs=1e-6)


def test_classify_straight_line():
    vals = [None] + [1.0 - 1e-5 * np.exp(-k / 7) for k in range(80)]
    series = classify_trajectory(vals, window=50)
    assert series.classification == STRAIGHT_LINE


def test_classify_constant_sequence_undetermined():
    # a constant iterate sequence has no valid angles at all
    series = classify_trajectory([None] * 80, window=50)
    assert series.classification == UNDETERMINED
    assert series.limit is None


def test_classify_needs_enough_samples():
    with pytest.raises(InsufficientData):
        classify_trajectory([0.5] * 10, window=50)
    # an empty or negative window would classify the whole series or drop its head
    for window in (0, -5):
        with pytest.raises(ValueError, match="window"):
            classify_trajectory([0.5] * 10, window=window)


def test_principal_angles_examples():
    U = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    np.testing.assert_allclose(principal_angles(U, U), [0.0, 0.0], atol=1e-7)
    a = principal_angles(line(0.0), line(np.pi / 4))
    np.testing.assert_allclose(a, [np.pi / 4], atol=1e-12)
    with pytest.raises(NotOrthonormal):
        principal_angles(np.array([[1.0], [1.0]]), line(0.0))


def brute_force_first_principal_angle(U1, U2, grid=4000):
    # Definition of the first angle: maximize <u, v> over unit vectors of
    # two 2-dimensional subspaces, parameterized by their circle angles.
    best = -1.0
    ts = np.linspace(0, 2 * np.pi, grid, endpoint=False)
    c1 = U1 @ np.vstack([np.cos(ts), np.sin(ts)])
    c2 = U2 @ np.vstack([np.cos(ts), np.sin(ts)])
    best = float((c1.T @ c2).max())
    return np.arccos(min(best, 1.0))


def test_principal_angles_match_brute_force():
    rng = np.random.default_rng(12)
    U1 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    U2 = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    angles = principal_angles(U1, U2)
    assert angles.size == 2
    assert angles[0] == pytest.approx(brute_force_first_principal_angle(U1, U2),
                                      abs=1e-3)
    assert 0.0 <= angles[0] <= angles[1] <= np.pi / 2


def test_friedrichs_angle_examples():
    assert friedrichs_angle(line(0.0), line(0.7)) == pytest.approx(0.7, abs=1e-12)
    assert friedrichs_angle(line(0.0), line(np.pi / 2)) == pytest.approx(np.pi / 2)
    with pytest.raises(DegenerateIntersection):
        friedrichs_angle(line(0.3), line(0.3))


def test_friedrichs_angle_nested_subspaces():
    # T1 strictly inside T2: the complement construction has no direction
    # left in T1, so the angle is pi/2 by convention
    U2 = np.eye(3)[:, :2]
    U1 = U2[:, :1]
    assert friedrichs_angle(U1, U2) == pytest.approx(np.pi / 2)


def test_friedrichs_angle_with_intersection():
    # 2-dim subspaces of R^3 sharing a line: angle is the second principal one
    u_shared = np.array([0.0, 0.0, 1.0])
    U1 = np.column_stack([np.array([1.0, 0.0, 0.0]), u_shared])
    alpha = 0.6
    U2 = np.column_stack([np.array([np.cos(alpha), np.sin(alpha), 0.0]), u_shared])
    assert friedrichs_angle(U1, U2) == pytest.approx(alpha, abs=1e-10)


def test_polyhedral_matrix_identical_subspaces():
    U = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 2)))[0]
    np.testing.assert_allclose(polyhedral_admm_matrix(U, U), np.eye(3), atol=1e-12)


def test_polyhedral_matrix_eigenstructure():
    M = polyhedral_admm_matrix(line(0.0), line(np.pi / 4))
    eigs = np.sort_complex(np.linalg.eigvals(M))
    want = np.sort_complex(np.array([np.sqrt(0.5) * np.exp(1j * np.pi / 4),
                                     np.sqrt(0.5) * np.exp(-1j * np.pi / 4)]))
    np.testing.assert_allclose(eigs, want, atol=1e-10)
    M = polyhedral_admm_matrix(line(0.0), line(np.pi / 2))
    np.testing.assert_allclose(np.abs(np.linalg.eigvals(M)), [0.0, 0.0], atol=1e-12)


def test_polyhedral_matrix_normality_and_modulus_law():
    rng = np.random.default_rng(5)
    for _ in range(10):
        U1 = np.linalg.qr(rng.standard_normal((6, rng.integers(1, 4))))[0]
        U2 = np.linalg.qr(rng.standard_normal((6, rng.integers(1, 4))))[0]
        M = polyhedral_admm_matrix(U1, U2)
        assert np.abs(M @ M.T - M.T @ M).max() <= 1e-10
        for lam in np.linalg.eigvals(M):
            if abs(lam.imag) > 1e-10:
                assert abs(abs(lam) - np.cos(np.angle(lam))) <= 1e-10


def test_feasibility_run_matches_linearization():
    # the measured angle limit equals the Friedrichs angle and the
    # difference propagation is exactly the polyhedral matrix
    inst = make_feasibility(np.pi / 4, seed=7)
    M = polyhedral_admm_matrix(inst.extra["basis_r"], inst.extra["basis_j"])
    from admmkit.splitting import IterateState, SolverConfig, variant_step
    state = IterateState.initial(inst.problem, inst.z0)
    vs = []
    for _ in range(120):
        state = variant_step(inst.problem, state, SolverConfig(gamma=1.0))
        vs.append(state.v)
    for k in range(1, 100):
        assert np.linalg.norm(vs[k + 1] - M @ vs[k]) <= 1e-10 * max(np.linalg.norm(vs[k]), 1e-30)
    cos_alpha = np.cos(friedrichs_angle(inst.extra["basis_r"], inst.extra["basis_j"]))
    angles = [angle(vs[k + 1], vs[k]) for k in range(60, 100)]
    assert max(abs(a - cos_alpha) for a in angles) <= 1e-6


def test_inertial_root_examples():
    assert inertial_spectral_radius(0.9, 0.0) == pytest.approx(0.9, abs=1e-12)
    assert inertial_spectral_radius(0.9, 0.5) == pytest.approx(0.75, abs=1e-12)
    # complex-root regime of a real eta: |rho| = sqrt(a * eta)
    eta, a = 0.4, 0.9
    assert (1 + a) ** 2 * eta ** 2 < 4 * a * eta
    assert inertial_spectral_radius(eta, a) == pytest.approx(np.sqrt(a * eta), abs=1e-12)


def test_inertial_roots_satisfy_quadratic():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eta = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.5, 0.5))
        a = float(rng.uniform(0.0, 1.0))
        for rho in inertial_root_pair(eta, a):
            assert abs(rho * rho - (1 + a) * eta * rho + a * eta) <= 1e-12


def test_regime_map_flags():
    avals = np.linspace(0.0, 1.0, 21)
    rows = inertial_regime_map(np.arange(0.0, 0.991, 0.05), avals)
    assert all(r.converges for r in rows)  # real eta in [0, 1)
    zero_a = [r for r in rows if r.a == 0.0]
    for r in zero_a:
        assert r.rho_abs == pytest.approx(abs(complex(r.re_eta, r.im_eta)), abs=1e-12)
    # polyhedral family: momentum only slows down
    for alpha in (np.pi / 8, np.pi / 16):
        eta = np.cos(alpha) * np.exp(1j * alpha)
        vals = [r.rho_abs for r in inertial_regime_map([eta], avals)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_regime_csv(tmp_path):
    rows = inertial_regime_map([0.9, 0.5 + 0.1j], [0.0, 0.5, 1.0])
    path = tmp_path / "map.csv"
    write_regime_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_eta,im_eta,a,rho_abs,accelerates,converges"
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert float(first[0]) == 0.9 and first[4] in ("0", "1")
