import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit.a3dmm import run_a3dmm
from admmkit.problems import (CERTIFICATE_TOL, BadImage, BadShape, EmptyMask, FormatError,
                              ProblemInstance, gradient_map, load_pgm,
                              make_bp_l1, make_bp_l12, make_bp_nuclear, make_feasibility,
                              make_lasso, make_qp_box, make_tv_inpainting, operator_norm,
                              piecewise_constant_image, psnr, resolve_gamma,
                              _free_pixel_laplacian)
from admmkit.prox import EmptyBox, box_oracle, l1_oracle, quadratic_oracle, soft_threshold_l1
from admmkit.splitting import (IterateState, SolverConfig, SplitProblem, SubproblemFailure,
                               variant_step)
from reference_twins import project_affine


def test_instances_reproducible():
    a = make_lasso(seed=11)
    b = make_lasso(seed=11)
    np.testing.assert_array_equal(a.extra["K"], b.extra["K"])
    np.testing.assert_array_equal(a.extra["f"], b.extra["f"])
    np.testing.assert_array_equal(a.x_true, b.x_true)
    c = make_lasso(seed=12)
    assert not np.array_equal(a.extra["K"], c.extra["K"])


def test_lasso_shapes_and_preconditions():
    inst = make_lasso(m=16, n=40, sparsity=5, seed=0)
    assert inst.extra["K"].shape == (16, 40)
    assert np.count_nonzero(inst.x_true) == 5
    np.testing.assert_allclose(np.linalg.norm(inst.extra["K"], axis=0), 1.0,
                               atol=1e-12)
    with pytest.raises(BadShape):
        make_lasso(m=40, n=16)
    with pytest.raises(BadShape):
        make_lasso(m=16, n=40, sparsity=20)
    with pytest.raises(ValueError):
        make_lasso(m=16, n=40, sparsity=5, mu=np.inf)


def test_paper_scale_constructors():
    # the full-size instances of the experiments are constructible (solving
    # them is out of scope for the test budget)
    inst = make_lasso(m=640, n=2048, sparsity=128, mu=1.0, seed=0)
    assert inst.extra["K"].shape == (640, 2048)
    assert np.count_nonzero(inst.x_true) == 128
    assert inst.descriptor == "lasso(m=640,n=2048,sparsity=128,mu=1.0,seed=0)"
    inst = make_bp_l1(m=512, n=2048, sparsity=128, seed=0)
    assert inst.extra["K"].shape == (512, 2048)


def test_operator_norm_matches_dense():
    rng = np.random.default_rng(3)
    K = rng.standard_normal((20, 35))
    assert operator_norm(K) == pytest.approx(np.linalg.norm(K, 2), rel=1e-12)
    assert operator_norm(K.T) == pytest.approx(np.linalg.norm(K, 2), rel=1e-12)


def test_wide_lasso_never_forms_an_n_by_n_matrix():
    m, n = 100, 3000
    tracemalloc.start()
    try:
        inst = make_lasso(m=m, n=n, seed=0)
        inst.problem.prox_j.evaluate(np.ones(n), inst.gamma_default)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * n * 8


def lasso_on_data(K, f, mu=1.0):
    """LASSO split on a given tall design: the l1 x-block, the data y-block over K'K."""
    problem = SplitProblem(l1_oracle(K.shape[1], mu), quadratic_oracle(K.T @ K, -(K.T @ f)))
    return ProblemInstance(problem=problem, descriptor="lasso(data)", extra={"K": K, "f": f})


@pytest.mark.parametrize("case", ["wide", "tall", "qp_box", "bp_l1"])
def test_lasso_nan_start_raises_subproblem_failure(case):
    # every path of the cached quadratic solve: wide and tall designs, a dense Q
    # (qp_box) and the affine projection (bp_l1)
    if case == "tall":
        rng = np.random.default_rng(2)
        inst = lasso_on_data(rng.standard_normal((30, 10)), rng.standard_normal(30))
    elif case == "qp_box":
        inst = make_qp_box(n=12, seed=0)
    elif case == "bp_l1":
        inst = make_bp_l1(m=16, n=40, sparsity=4, seed=0)
    else:
        inst = make_lasso(m=16, n=40, sparsity=4, seed=0)
    z0 = np.zeros(inst.problem.prox_r.dim)
    z0[3] = np.nan
    with pytest.raises(SubproblemFailure) as info:
        run_a3dmm(inst.problem, SolverConfig(gamma=1.0, max_iter=10, z0=z0))
    assert isinstance(info.value.__cause__, ValueError)


def test_resolve_gamma_rules():
    assert resolve_gamma(2.5) == 2.5
    assert resolve_gamma("K2/10", 3.0) == pytest.approx(0.9)
    assert resolve_gamma("K2+0.1", 3.0) == pytest.approx(9.1)
    with pytest.raises(ValueError):
        resolve_gamma("K2/10", None)


# the basis-pursuit builder of each regularizer
BASIS_PURSUIT = {"l1": make_bp_l1, "l12": make_bp_l12, "nuclear": make_bp_nuclear}


@pytest.mark.parametrize("reg", ["l1", "l12", "nuclear"])
def test_affine_constrained_truth_is_feasible(reg):
    inst = BASIS_PURSUIT[reg](seed=1)
    K, f = inst.extra["K"], inst.extra["f"]
    np.testing.assert_allclose(K @ inst.x_true, f, atol=1e-12)
    # the y-oracle projects onto the constraint set
    y = inst.problem.prox_j.evaluate(np.zeros(K.shape[1]), 1.0)
    assert np.linalg.norm(K @ y - f) <= 1e-10 * (1 + np.linalg.norm(f))


def test_affine_constrained_shapes():
    inst = make_bp_l12(m=32, n=64, blocks=3, seed=0)
    assert np.count_nonzero(inst.x_true) == 12
    with pytest.raises(BadShape):
        make_bp_l12(m=32, n=63, seed=0)
    inst = make_bp_nuclear(matrix_shape=(8, 8), rank=2, measurements=40, seed=0)
    X = inst.x_true.reshape(8, 8)
    assert np.linalg.matrix_rank(X, tol=1e-8) == 2


@pytest.mark.parametrize("reg,size", [("nuclear", dict(m=10)), ("l12", dict(sparsity=3)),
                                      ("l1", dict(rank=3)), ("nuclear", dict(block_size=2))],
                         ids=["nuclear-m", "l12-sparsity", "l1-rank", "nuclear-block-size"])
def test_affine_constrained_refuses_sizes_its_regularizer_ignores(reg, size):
    with pytest.raises(TypeError):
        BASIS_PURSUIT[reg](seed=0, **size)


def hand_qp(Q, q, lo, hi):
    """min 0.5 x'Qx + q'x over the box [lo, hi], split as x = y."""
    return SplitProblem(quadratic_oracle(Q, q), box_oracle(lo, hi))


def test_qp_box_hand_oracles():
    # n=1, Q=2, q=-2: unconstrained minimizer of x^2 - 2x is 1 (interior)
    problem = hand_qp([[2.0]], [-2.0], [0.0], [10.0])
    res = run_a3dmm(problem, SolverConfig(gamma=1.0, tol=1e-12, max_iter=2000))
    assert abs(res.state.x[0] - 1.0) <= 1e-6
    # box [2, 3]: the quadratic is increasing there, so the bound 2 is active
    problem = hand_qp([[2.0]], [-2.0], [2.0], [3.0])
    res = run_a3dmm(problem, SolverConfig(gamma=1.0, tol=1e-12, max_iter=2000))
    assert abs(res.state.x[0] - 2.0) <= 1e-6
    # Q = 0.1 I, q = 0: solution is the projection of the origin onto the box
    lo = np.array([0.5, -2.0])
    hi = np.array([1.5, -1.0])
    problem = hand_qp(0.1 * np.eye(2), np.zeros(2), lo, hi)
    res = run_a3dmm(problem, SolverConfig(gamma=1.0, tol=1e-12, max_iter=4000))
    np.testing.assert_allclose(res.state.x, np.clip(0.0, lo, hi), atol=1e-6)


def test_make_qp_box_seeded():
    inst = make_qp_box(n=20, seed=7)
    Q = inst.extra["Q"]
    assert np.all(np.linalg.eigvalsh(Q) >= 0.1 - 1e-12)
    assert np.all(inst.extra["lo"] < inst.extra["hi"])
    for n in (0, -3):
        with pytest.raises(BadShape, match=f"n={n}"):
            make_qp_box(n=n)


def test_instances_whose_solution_may_not_be_unique_are_unflagged():
    # basis pursuit's multiplier and TV's minimizer need not be unique
    for make in BASIS_PURSUIT.values():
        assert not make(seed=0).unique_solution
    assert not make_tv_inpainting(size=8, seed=0).unique_solution
    assert make_lasso(seed=0).unique_solution and make_qp_box(n=5).unique_solution
    assert make_feasibility(alpha=0.3).unique_solution


# small instances of each problem with a certificate
CERTIFIED = {
    "lasso": make_lasso(m=16, n=48, sparsity=4, seed=3),
    "bp-l1": make_bp_l1(m=16, n=40, sparsity=4, seed=1),
    "bp-l12": make_bp_l12(m=20, n=40, blocks=2, block_size=4, seed=1),
    "bp-nuclear": make_bp_nuclear(matrix_shape=(6, 5), rank=1, measurements=20, seed=1),
}


def test_certificates_belong_to_the_problems_whose_dual_is_cheap():
    assert all(inst.certificate is not None for inst in CERTIFIED.values())
    for inst in (make_tv_inpainting(size=8), make_qp_box(n=5), make_feasibility()):
        assert inst.certificate is None
        assert inst.accelerated_reference == inst.unique_solution


# a fixed point of each at gamma = 1, near which the gap is close to zero
FIXED_POINTS = {name: run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-12,
                                                           max_iter=20000)).state.z
                for name, inst in CERTIFIED.items()}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CERTIFIED)), st.integers(0, 2 ** 32 - 1), st.booleans(),
       st.floats(-14.0, 3.0), st.floats(-3.0, 3.0))
def test_certificate_gap_obeys_weak_duality_at_arbitrary_states(name, seed, near, log_scale,
                                                                  log_gamma):
    # the (x, y, psi) of one step from an arbitrary z, or from one near a
    # fixed point (at gamma = 1 the step then lands near the solution):
    # P - D >= 0 up to rounding
    inst = CERTIFIED[name]
    problem = inst.problem
    z = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(problem.p)
    gamma = 10.0 ** log_gamma
    if near:
        z, gamma = z + FIXED_POINTS[name], 1.0
    state = variant_step(problem, IterateState.initial(problem, z), SolverConfig(gamma=gamma))
    cert = inst.certificate(state.x, state.y, state.psi)
    assert cert.gap >= -1e-12, cert
    assert cert.residual >= 0.0


def test_certificate_reads_zero_at_the_lasso_solution_and_fails_at_zero():
    inst = CERTIFIED["lasso"]
    K, f = inst.extra["K"], inst.extra["f"]
    zero = np.zeros(K.shape[1])
    # x = 0 solves the LASSO only when mu = 1 >= ||K'f||_inf
    assert np.abs(K.T @ f).max() > 1.0
    assert not inst.certificate(zero, zero, zero).passed
    cfg = SolverConfig(gamma=inst.gamma_default, tol=1e-13, max_iter=5000)
    state = run_a3dmm(inst.problem, cfg).state
    cert = inst.certificate(state.x, state.y, state.psi)
    assert cert.passed and abs(cert.gap) <= 1e-3 * CERTIFICATE_TOL


def _lasso_data_prox(inst):
    # a dense solve of (K'K + gamma I) y = gamma w + K'f, no code of the oracles'
    K, f = inst.extra["K"], inst.extra["f"]
    return lambda w, gamma: np.linalg.solve(K.T @ K + gamma * np.eye(K.shape[1]),
                                            gamma * w + K.T @ f)


def _feasibility_prox(inst):
    u2 = inst.extra["basis_j"][:, 0]
    return lambda w, gamma: u2 * (u2 @ w)


def _qp_box_prox(inst):
    return box_oracle(inst.extra["lo"], inst.extra["hi"]).evaluate


# each y-oracle against the plain prox of its block, at w itself: bit for bit,
# but for basis pursuit's, which multiplies by the cached (KK')^-1 where the
# reference projection solves with a fresh factor, and the LASSO's, which
# multiply by a cached inverse where the reference solves densely (worst
# gaps measured: 4.1e-15 wide, 7.7e-16 tall)
@pytest.mark.parametrize("build,prox,rtol", [
    (lambda: make_lasso(m=16, n=48, sparsity=4, seed=3), _lasso_data_prox, 1e-12),
    (lambda: lasso_on_data(np.random.default_rng(1).standard_normal((10, 6)),
                           np.arange(10.0), mu=0.5), _lasso_data_prox, 1e-12),
    (lambda: make_bp_l1(m=12, n=40, sparsity=3, seed=3),
     lambda inst: lambda w, gamma: project_affine(w, inst.extra["K"], inst.extra["f"]), 1e-12),
    (lambda: make_qp_box(n=9, seed=3), _qp_box_prox, 0.0),
    (lambda: make_feasibility(np.pi / 5, seed=3), _feasibility_prox, 0.0),
    (lambda: make_tv_inpainting(size=6, seed=3),
     lambda inst: lambda w, gamma: soft_threshold_l1(w, 1.0 / gamma), 0.0),
], ids=["lasso", "lasso-data", "bp-l1", "qp-box", "feasibility", "tv"])
def test_y_oracle_evaluates_the_prox_at_w(build, prox, rtol):
    inst = build()
    expected = prox(inst)
    rng = np.random.default_rng(0)
    for gamma in (0.3, 1.0, 7.5):
        for _ in range(20):
            w = rng.standard_normal(inst.problem.p) * rng.choice([1e-3, 1.0, 1e3])
            got, want = inst.problem.prox_j.evaluate(w, gamma), expected(w, gamma)
            if rtol:
                assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)
            else:
                assert np.array_equal(got, want)


def test_qp_box_with_an_empty_box_fails_at_construction():
    with pytest.raises(EmptyBox):
        box_oracle([0.0, 1.0], [1.0, 0.5])


def test_feasibility_orthogonal_lines_converge_fast():
    inst = make_feasibility(np.pi / 2, seed=0)
    state = IterateState.initial(inst.problem, inst.z0)
    for _ in range(2):
        state = variant_step(inst.problem, state, SolverConfig(gamma=1.0))
    assert np.linalg.norm(state.z) <= 1e-14


def test_feasibility_spiral_limit():
    inst = make_feasibility(np.pi / 3, seed=5)
    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=0.0, max_iter=200,
                                               z0=inst.z0))
    vals = [r.cos_theta for r in res.trace.rows if r.cos_theta is not None]
    assert max(abs(v - 0.5) for v in vals[30:]) <= 1e-6
    with pytest.raises(ValueError):
        make_feasibility(0.0)


def _dense_forward_differences(n):
    """Vertical-then-horizontal forward differences of an n x n image, built entry by entry."""
    D = np.zeros((2 * n * n, n * n))
    for i in range(n):
        for j in range(n):
            p = i * n + j
            if i + 1 < n:
                D[p, p + n] = 1.0
                D[p, p] = -1.0
            if j + 1 < n:
                D[n * n + p, p + 1] = 1.0
                D[n * n + p, p] = -1.0
    return D


def _reference_gradient_adjoint(y, n):
    """Four strided 2-D passes: the original kernel of gradient_map.apply_adjoint."""
    N = n * n
    gv = y[:N].reshape(n, n)
    gh = y[N:].reshape(n, n)
    out = np.zeros((n, n))
    out[:-1, :] -= gv[:-1, :]
    out[1:, :] += gv[:-1, :]
    out[:, :-1] -= gh[:, :-1]
    out[:, 1:] += gh[:, :-1]
    return out.ravel()


def test_gradient_map_adjoint_and_norm():
    rng = np.random.default_rng(2)
    for size in (1, 2, 9):
        x = rng.standard_normal(size * size)
        assert np.array_equal(gradient_map(size).apply(x),
                              _dense_forward_differences(size) @ x)
    for size in (1, 2, 9, 96):
        N = size * size
        y = rng.standard_normal(2 * N)
        # the slots the adjoint ignores hold data, so using them would show
        assert np.all(y[N - size:N] != 0.0) and np.all(y[N + size - 1::size] != 0.0)
        assert np.array_equal(gradient_map(size).apply_adjoint(y),
                              _reference_gradient_adjoint(y, size))
    grad = gradient_map(9)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(81)
        y = rng.standard_normal(162)
        lhs = float(grad.apply(x) @ y)
        rhs = float(x @ grad.apply_adjoint(y))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
    dense = np.column_stack([grad.apply(e) for e in np.eye(81)])
    assert np.linalg.norm(dense, 2) ** 2 <= 8.0 + 1e-9


def _assert_results_are_caller_owned(build, dim):
    """Three evaluate calls leave w and earlier results alone; returns the oracle.

    A second oracle's results are overwritten after each call, as a caller
    that reuses them may do; its later results must not change.
    """
    oracle, scribbled = build(), build()
    rng = np.random.default_rng(3)
    results, kept = [], []
    for call in range(3):
        w = rng.standard_normal(dim)
        w_before = w.copy()
        x = oracle.evaluate(w, 1.0 + call)
        assert np.array_equal(w, w_before)
        assert all(x is not r and not np.shares_memory(x, r) for r in results)
        results.append(x)
        kept.append(x.copy())
        for r, k in zip(results, kept):
            assert np.array_equal(r, k)
        other = scribbled.evaluate(w, 1.0 + call)
        assert np.array_equal(other, x)
        other[:] = np.nan
    return oracle


def test_tv_constant_image_recovered_exactly():
    img = np.full((8, 8), 0.37)
    inst = make_tv_inpainting(image=img, mask_density=0.4, seed=3)
    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=1e-11, max_iter=400))
    np.testing.assert_allclose(res.state.x, img.ravel(), atol=1e-6)


def test_tv_full_mask_pins_solution():
    img = piecewise_constant_image(size=8, seed=1)
    inst = make_tv_inpainting(image=img, mask_density=1.0, seed=0)
    w = np.random.default_rng(0).standard_normal(inst.problem.p)
    assert np.array_equal(inst.problem.prox_r.evaluate(w, 1.0), img.ravel())
    res = run_a3dmm(inst.problem, SolverConfig(gamma=1.0, tol=0.0, max_iter=3))
    np.testing.assert_allclose(res.state.x, img.ravel(), atol=1e-12)


def test_tv_validation():
    with pytest.raises(BadImage):
        make_tv_inpainting(image=np.full((4, 4), 1.5))
    with pytest.raises(BadShape):
        make_tv_inpainting(image=np.zeros((4, 5)))
    for size in (1, 0, -2):
        with pytest.raises(BadShape, match=f"size={size}"):
            make_tv_inpainting(size=size)
    with pytest.raises(ValueError):
        make_tv_inpainting(image=np.zeros((4, 4)), mask_density=0.0)
    # no observed pixel leaves the x-subproblem without a unique solution
    with pytest.raises(EmptyMask):
        make_tv_inpainting(image=np.zeros((4, 4)), mask_density=1e-3)


def test_free_pixel_laplacian_is_exactly_symmetric():
    # the TV x-oracle answers L_FF x = b with SuperLU's transposed solve
    for size, density, seed in ((96, 0.5, 0), (24, 0.1, 1), (24, 0.9, 3), (6, 0.5, 0)):
        L = _free_pixel_laplacian(make_tv_inpainting(size=size, mask_density=density,
                                                     seed=seed).extra["mask"])
        assert L.shape[0] > 0 and (L - L.T).nnz == 0


def _tv_x_oracle_cases():
    # (96, 0.5, 0) is the benchmark's instance: 4620 free pixels, the largest
    # free component 190 of them
    for size, density, seed in ((6, 0.5, 0), (24, 0.1, 1), (24, 0.5, 2), (24, 0.9, 3),
                                (96, 0.5, 0)):
        inst = make_tv_inpainting(size=size, mask_density=density, seed=seed)
        yield inst, inst.extra["mask"].ravel(), gradient_map(size)


def test_tv_x_oracle_keeps_the_observed_pixels():
    rng = np.random.default_rng(4)
    for inst, mask, grad in _tv_x_oracle_cases():
        observed = inst.extra["image"].ravel()[mask]
        for gamma in (0.1, 1.0, 30.0):
            x = inst.problem.prox_r.evaluate(rng.standard_normal(grad.rows), gamma)
            assert np.array_equal(x[mask], observed)


def test_tv_x_oracle_is_stationary_on_the_free_pixels():
    # the gradient of (1/2)||grad x - w||^2 vanishes on every unobserved pixel
    rng = np.random.default_rng(5)
    for inst, mask, grad in _tv_x_oracle_cases():
        for scale in (1e-3, 1.0, 1e3):
            w = scale * rng.standard_normal(grad.rows)
            x = inst.problem.prox_r.evaluate(w, 1.0)
            residual = grad.apply_adjoint(grad.apply(x) - w)[~mask]
            assert np.linalg.norm(residual) <= 1e-10 * (
                1.0 + np.linalg.norm(grad.apply_adjoint(w)))


def test_tv_x_oracle_matches_dense_least_squares():
    # a scattered mask, and one whose 129 free pixels form a single component
    for size, density in ((6, 0.5), (12, 0.1)):
        inst = make_tv_inpainting(size=size, mask_density=density, seed=0)
        mask = inst.extra["mask"].ravel()
        f = inst.extra["image"].ravel()[mask]
        D = _dense_forward_differences(size)
        rng = np.random.default_rng(6)
        for gamma in (0.5, 1.0, 4.0):
            w = rng.standard_normal(2 * size * size)
            expected = np.empty(size * size)
            expected[mask] = f
            expected[~mask] = np.linalg.lstsq(D[:, ~mask], w - D[:, mask] @ f, rcond=None)[0]
            np.testing.assert_allclose(inst.problem.prox_r.evaluate(w, gamma), expected,
                                       rtol=0, atol=1e-12)


def test_exact_tv_oracle_results_are_caller_owned():
    _assert_results_are_caller_owned(
        lambda: make_tv_inpainting(size=12, seed=2).problem.prox_r, dim=2 * 144)


def test_piecewise_image_and_psnr():
    img = piecewise_constant_image(size=32, seed=9)
    assert img.min() >= 0.0 and img.max() <= 1.0
    assert psnr(img, img) == np.inf
    noisy = np.clip(img + 0.1, 0.0, 1.0)
    assert psnr(noisy, img) < 30.0


def test_load_pgm_examples():
    np.testing.assert_allclose(load_pgm(b"P2 1 1 255 \n 255"), [[1.0]])
    np.testing.assert_allclose(load_pgm(b"P2 2 1 255 \n 0 128"),
                               [[0.0, 128.0 / 255.0]])
    with pytest.raises(FormatError):
        load_pgm(b"P5 2 2 255\n\x00\x01")  # truncated raster
    with pytest.raises(FormatError):
        load_pgm(b"P3 1 1 255 \n 0")
    raster = bytes([0, 64, 128, 255])
    img = load_pgm(b"P5 2 2 255\n" + raster)
    np.testing.assert_allclose(img, np.array(
        [[0, 64], [128, 255]], dtype=float) / 255.0)
    wide = load_pgm(b"P2 1 1 65535\n65535")
    np.testing.assert_allclose(wide, [[1.0]])


@pytest.mark.parametrize("payload,reason", [
    ("P2 1 1 255 3", "expected bytes"),
    (b"P3 1 1 255 0", "expected magic"),
    (b"P21 1 255 3", "expected magic"),  # no whitespace after the magic number
    (b"P2#c\n1 1 255 3", "expected magic"),
    (b" P2 1 1 255 3", "expected magic"),
    (b"P2 1 1", "end of header"),
    (b"P2 1 1 255", "end of header"),  # the samples end early
    (b"P2 +1 1 255 3", "bad header integer"),
    (b"P2 1 1 2_55 3", "bad header integer"),
    (b"P2 1 1 255#c\n3", "bad header integer"),
    (b"P2 " + b"1" * 5000 + b" 1 255 3", "bad header integer"),  # past int()'s digit limit
    (b"P2 0 1 255", "non-positive dimensions"),
    (b"P2 0 1 255 ", "non-positive dimensions"),
    (b"P2 1 0 255 ", "non-positive dimensions"),
    (b"P2 1 1 0 0", "maxval 0 out of range"),
    (b"P2 2 2 0 ", "maxval 0 out of range"),
    (b"P2 1 1 65536 0", "maxval 65536 out of range"),
    (b"P2 1 1 255 -1", "bad sample"),
    (b"P2 2 1 255 1 +7", "bad sample"),
    (b"P2 1 1 255 3.0", "bad sample"),
    (b"P5 1 1 255", "missing separator before raster"),
    (b"P5 2 2 255\n\x00\x01", "truncated raster"),
    (b"P5 1 1 256\n\x00", "truncated raster"),
    (b"P2 2 1 10 5 11", "sample exceeds maxval"),
    (b"P5 1 1 100\n\xff", "sample exceeds maxval"),
])
def test_load_pgm_rejects_malformed_payloads(payload, reason):
    # header fields and ASCII samples are unsigned decimals, as Netpbm requires
    with pytest.raises(FormatError, match=reason):
        load_pgm(payload)


@pytest.mark.parametrize("payload,offset", [
    (b"P21 1 255 3", 0), (b"P2 1 1", 6), (b"P2 +1 1 255 3", 3), (b"P2 1 1 2_55 3", 7),
    (b"P2 0 1 255 ", 3), (b"P2 1 0 255 ", 5), (b"P2 0 0 255 ", 3),  # the first one at fault
    (b"P2 2 2 0 ", 7), (b"P2 1 1 65536 0", 7), (b"P2 2 1 255 1 +7", 13),
    (b"P5 1 1 255", 10), (b"P5 2 2 255\n\x00\x01", 13),
    (b"P2 2 1 10 5 11", 12), (b"P5 2 1 10 " + bytes([5, 11]), 11),  # the sample at fault
])
def test_load_pgm_error_points_at_the_field_at_fault(payload, offset):
    with pytest.raises(FormatError) as info:
        load_pgm(payload)
    assert info.value.offset == offset


def test_load_pgm_comments_and_16bit_binary():
    img = load_pgm(b"P2 # comment\n2 1 # another\n10\n5 10")
    np.testing.assert_allclose(img, [[0.5, 1.0]])
    payload = (512).to_bytes(2, "big") + (1024).to_bytes(2, "big")
    img = load_pgm(b"P5 2 1 1024\n" + payload)
    np.testing.assert_allclose(img, [[0.5, 1.0]])


@pytest.mark.parametrize("build,gamma", [
    (lambda: make_lasso(m=24, n=72, sparsity=5, seed=2), 1.0),
    (lambda: make_bp_l1(m=32, n=128, sparsity=8, seed=2), 1.0),
    (lambda: make_qp_box(n=15, seed=2), 1.0),
    (lambda: make_feasibility(np.pi / 4, seed=2), 1.0),
])
def test_reference_solution_kkt_residual(build, gamma):
    inst = build()
    cfg = SolverConfig(gamma=gamma, tol=1e-11, max_iter=30000, z0=inst.z0)
    res = run_a3dmm(inst.problem, cfg)
    assert res.converged
    # fixed-point residual of one more step plus primal feasibility
    state = variant_step(inst.problem, res.state, cfg)
    fp = np.linalg.norm(state.z - res.state.z)
    feas = np.linalg.norm(inst.problem.A.apply(state.x) - state.y)
    assert fp + feas <= 1e-8
