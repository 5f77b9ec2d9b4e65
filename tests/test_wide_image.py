"""The carried image K z of a wide LASSO against the same instance stepped through the twin."""

import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import admmkit
from admmkit import a3dmm, prox
from admmkit.bench import (RunConfig, build_instance, compute_reference, parse_solver_spec,
                           penalty, run_spec)
from admmkit.problems import make_lasso
from admmkit.prox import PANEL_ALIGN, PANEL_BYTES, SPLIT_BYTES, WideLeastSquares
from admmkit.splitting import IterateState, SolverConfig, SubproblemFailure, variant_step
from reference_twins import cholesky_solve, wide_least_squares_oracle

SPECS = ("admm", "relaxed(1.5)", "symmetric", "iadmm(0.3)", "iadmm(0.4,-0.2)",
         "a3dmm(6,100)", "a3dmm(6,inf)")
TOL, MAX_ITER = 1e-8, 3000


@pytest.fixture(scope="module")
def wide():
    inst = make_lasso(m=100, n=700, sparsity=10, seed=0)
    assert inst.problem.wide_lsq is not None
    return inst


def without_image(inst):
    """The same instance and data, stepped through the twin's y-oracle, which forms K r from r."""
    twin = wide_least_squares_oracle(inst.problem.wide_lsq)
    return dataclasses.replace(inst, problem=dataclasses.replace(
        inst.problem, prox_j=twin, wide_lsq=None), reference=None)


def rows(trace):
    return [dataclasses.replace(r, ms=0.0) for r in trace.rows]


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_every_lasso_carries_the_image():
    # the 64 x 256 desk LASSO and a tiny one
    for inst in (make_lasso(), make_lasso(m=8, n=17, sparsity=2)):
        assert inst.problem.wide_lsq is not None


def test_a_design_off_the_y_block_is_refused(wide):
    other = make_lasso(m=100, n=701, sparsity=10, seed=0)
    with pytest.raises(ValueError):
        dataclasses.replace(wide.problem, wide_lsq=other.problem.wide_lsq)


def test_runs_with_the_image_match_runs_through_the_oracle(wide):
    gamma = wide.gamma_default
    plain = without_image(wide)
    ref, ref_plain = (compute_reference(i, gamma, TOL, MAX_ITER) for i in (wide, plain))
    assert (ref.iterations, ref.stop, ref.extrapolated) == \
        (ref_plain.iterations, ref_plain.stop, ref_plain.extrapolated)
    assert rel(ref.z, ref_plain.z) <= 1e-10
    for text in SPECS:
        spec = parse_solver_spec(text)
        got = run_spec(wide, spec, gamma, TOL, MAX_ITER)
        expected = run_spec(plain, spec, gamma, TOL, MAX_ITER)
        assert got.state.k == expected.state.k, text
        assert [r.extrapolated for r in got.trace.rows] == \
            [r.extrapolated for r in expected.trace.rows], text
        assert rel(got.state.z, expected.state.z) <= 1e-10, text


@pytest.mark.parametrize("text", ["admm", "relaxed(1.5)", "symmetric", "iadmm(0.3)",
                                  "iadmm(0.4,-0.2)"])
def test_plain_and_momentum_runs_keep_z_at_every_row(wide, text, monkeypatch):
    gamma = wide.gamma_default
    recorded = []

    def recording_step(problem, state, config):
        state = variant_step(problem, state, config)
        recorded.append(state.z.copy())
        return state

    monkeypatch.setattr(a3dmm, "variant_step", recording_step)
    spec = parse_solver_spec(text)
    run_spec(wide, spec, gamma, TOL, MAX_ITER)
    with_image, recorded[:] = recorded[:], []
    run_spec(without_image(wide), spec, gamma, TOL, MAX_ITER)
    assert len(with_image) == len(recorded)
    for k, (z, z_plain) in enumerate(zip(with_image, recorded), start=1):
        assert rel(z, z_plain) <= 1e-13, (text, k)


@pytest.mark.parametrize("text", ["admm", "symmetric", "iadmm(0.4,-0.2)", "a3dmm(6,inf)"])
def test_the_carried_image_stays_at_rounding_level(wide, text):
    # a standard y-step absorbs an error in the carried image (K psi uses the
    # true K y); a symmetric one passes it on negated, which adds each
    # step's rounding without amplifying it, so the drift stays at rounding
    # level without any refresh
    result = run_spec(wide, parse_solver_spec(text), wide.gamma_default, 0.0, 400)
    assert result.state.k == 400
    Kz = wide.extra["K"] @ result.state.z
    assert np.linalg.norm(Kz - result.state.Kz) <= 1e-12 * np.linalg.norm(Kz)


@pytest.mark.parametrize("variant,phi", [("symmetric", 1.0), ("relaxed", 1.7), ("relaxed", 1.9)])
def test_momentum_on_a_relaxed_or_symmetric_scheme_leaves_the_image_to_the_step(wide, variant,
                                                                                phi):
    # momentum would amplify the image error those schemes pass on, so it
    # moves the point alone and the next step forms K z_bar densely
    cfg = SolverConfig(gamma=wide.gamma_default, variant=variant, phi=phi, tol=0.0, max_iter=400)
    state, _ = a3dmm.run_a3dmm(wide.problem, cfg, momentum=(0.3, 0.0))  # raises no Divergence
    assert state.k == 400
    Kz = wide.extra["K"] @ state.z
    assert np.linalg.norm(Kz - state.Kz) <= 1e-12 * np.linalg.norm(Kz)


class CountingProxy:
    """A stand-in oracle with only evaluate, dim and name, counting its calls."""

    def __init__(self, oracle):
        self._oracle = oracle
        self.dim, self.name = oracle.dim, oracle.name
        self.calls = 0

    def evaluate(self, w, gamma):
        self.calls += 1
        return self._oracle.evaluate(w, gamma)


def test_wrapped_oracles_give_identical_rows(wide):
    gamma = wide.gamma_default
    wrapped = dataclasses.replace(wide, reference=None, problem=dataclasses.replace(
        wide.problem, prox_r=CountingProxy(wide.problem.prox_r),
        prox_j=CountingProxy(wide.problem.prox_j)))
    compute_reference(wide, gamma, TOL, MAX_ITER)
    compute_reference(wrapped, gamma, TOL, MAX_ITER)
    for text in ("admm", "iadmm(0.3)", "a3dmm(6,inf)"):
        spec = parse_solver_spec(text)
        assert rows(run_spec(wrapped, spec, gamma, TOL, MAX_ITER).trace) == \
            rows(run_spec(wide, spec, gamma, TOL, MAX_ITER).trace), text
    assert wrapped.problem.prox_r.calls > 0
    assert wrapped.problem.prox_j.calls == 0  # the y-step runs from the image


def test_a_stepping_point_set_without_its_image_never_reuses_a_stale_one(wide):
    problem, K = wide.problem, wide.extra["K"]
    cfg = SolverConfig(gamma=wide.gamma_default)
    state = variant_step(problem, IterateState.initial(problem), cfg)
    assert state.Kz_bar is state.Kz
    z_bar = state.z + 0.5 * state.v
    with pytest.raises(AttributeError):
        state.z_bar = z_bar  # move_to is the one setter
    state.move_to(z_bar)  # no image: the next step forms K z_bar itself
    assert state.Kz_bar is None
    dense = variant_step(problem, state, cfg)
    state.move_to(z_bar, K @ z_bar)
    carried = variant_step(problem, state, cfg)
    for field in ("x", "y", "psi", "z", "Kz"):
        assert np.array_equal(getattr(dense, field), getattr(carried, field)), field
    state.move_to(z_bar, state.Kz)  # a stale image would move the step
    assert not np.array_equal(variant_step(problem, state, cfg).z, dense.z)
    # a new state starts from its own z, with its own image
    fresh = IterateState(x=state.x, y=state.y, psi=state.psi, z=state.z, v=state.v,
                         k=state.k, Kz=state.Kz)
    assert fresh.z_bar is state.z and fresh.Kz_bar is state.Kz


def test_the_image_of_a_sparse_or_dense_vector_is_k_times_it(wide):
    lsq, K = wide.problem.wide_lsq, wide.extra["K"]
    rng = np.random.default_rng(3)
    for nonzeros in (0, 3, 35, 36, 700):  # the gather serves up to 1/20 of the entries
        u = np.zeros(K.shape[1])
        u[rng.choice(u.size, nonzeros, replace=False)] = rng.standard_normal(nonzeros)
        np.testing.assert_allclose(lsq.image(u)[0], K @ u, rtol=1e-13, atol=1e-13)
    y, t = lsq.prox(u, K @ u, 0.7)
    np.testing.assert_allclose(t, K @ y, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y, wide_least_squares_oracle(lsq).evaluate(u / 0.7, 0.7),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("gamma_of", [lambda K2: K2 / 10, lambda K2: K2 + 0.1, lambda K2: 1e-3],
                         ids=["K2/10", "K2+0.1", "1e-3"])
def test_the_carried_y_step_matches_the_oracle(wide, gamma_of):
    # the carried step takes K r from the image, the twin's oracle forms it from r
    lsq, K = wide.problem.wide_lsq, wide.extra["K"]
    gamma = gamma_of(wide.norm_K ** 2)
    z = np.random.default_rng(5).standard_normal(K.shape[1])
    y, t = lsq.prox(z, K @ z, gamma)
    expected = wide_least_squares_oracle(lsq).evaluate(z / gamma, gamma)
    assert rel(y, expected) <= 1e-12
    # t = K y, against the Cholesky twin's triangular solves (K @ expected cancels at small gamma)
    assert rel(t, cholesky_solve(lsq._cache, K @ z + lsq.KKtf, gamma)) <= 1e-12


@pytest.mark.parametrize("gamma_of", [lambda K2: 1.0, lambda K2: K2 / 10, lambda K2: 1e-3],
                         ids=["1", "K2/10", "1e-3"])
def test_the_oracle_is_the_carried_y_step_from_a_dense_image(wide, gamma_of):
    # one y-step formula: the oracle at w is prox at z = gamma*w with K z formed densely
    lsq, K = wide.problem.wide_lsq, wide.extra["K"]
    gamma = gamma_of(wide.norm_K ** 2)
    w = np.random.default_rng(7).standard_normal(K.shape[1])
    z = gamma * w
    assert np.array_equal(lsq.oracle().evaluate(w, gamma), lsq.prox(z, K @ z, gamma)[0])


def test_a_non_finite_image_fails_the_y_subproblem(wide):
    problem, K = wide.problem, wide.extra["K"]
    z = np.ones(K.shape[1])
    for bad in (np.nan, np.inf):
        Kz = K @ z
        Kz[3] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            problem.wide_lsq.prox(z, Kz, 0.7)
        state = IterateState.initial(problem)
        state.move_to(z, Kz)
        with pytest.raises(SubproblemFailure, match="y-subproblem") as info:
            variant_step(problem, state, SolverConfig(gamma=0.7))
        assert isinstance(info.value.__cause__, ValueError)


def test_the_image_reuses_gathered_columns_only_on_the_same_support(wide):
    lsq, K = wide.problem.wide_lsq, wide.extra["K"]
    rng = np.random.default_rng(6)

    def vector(support):
        u = np.zeros(K.shape[1])
        u[support] = rng.standard_normal(len(support))
        return u

    def gathered(u):
        nz = u.nonzero()[0]
        return K[:, nz] @ u[nz]

    first = vector([4, 90, 311])
    Ku, held = lsq.image(first)
    assert np.array_equal(Ku, gathered(first))
    assert np.array_equal(held[0], [4, 90, 311]) and np.array_equal(held[1], K[:, held[0]])
    same = vector([4, 90, 311])
    Ku, again = lsq.image(same, held)
    assert again is held and np.array_equal(Ku, gathered(same))
    for support in ([4, 90, 312], [4, 90], [4, 90, 311, 500], []):  # moved, shrunk, grown, empty
        u = vector(support)
        Ku, other = lsq.image(u, held)
        assert other is not held and np.array_equal(other[0], support)
        assert np.array_equal(Ku, gathered(u))
    dense = vector(np.arange(0, 700, 19))  # 37 of 700 nonzero, over 1/SPARSE_IMAGE_SHARE
    Ku, none = lsq.image(dense, held)
    assert none is None and np.array_equal(Ku, K @ dense)


@pytest.mark.parametrize("text", ["admm", "iadmm(0.3)", "iadmm(0.4,-0.2)", "a3dmm(6,100)",
                                  "a3dmm(6,inf)"])
def test_every_step_forms_k_x_as_a_fresh_gather_would(wide, text, monkeypatch):
    # states moved by momentum or a prediction carry columns of an earlier
    # support; a step reuses them only when x keeps that support
    problem, K = wide.problem, wide.extra["K"]
    reused, moved = [], []

    def comparing_step(problem, state, config):
        held = state.columns
        moved.append(state.z_bar is not state.z)
        state.columns = None
        fresh = variant_step(problem, state, config)
        state.columns = held
        state = variant_step(problem, state, config)
        for field in ("x", "y", "psi", "z", "Kz"):
            assert np.array_equal(getattr(state, field), getattr(fresh, field)), field
        support = state.x.nonzero()[0]
        assert np.array_equal(state.columns[0], support)
        assert np.array_equal(state.columns[1], K[:, support])
        reused.append(held is not None and state.columns is held)
        return state

    monkeypatch.setattr(a3dmm, "variant_step", comparing_step)
    result = run_spec(wide, parse_solver_spec(text), wide.gamma_default, TOL, MAX_ITER)
    assert result.converged
    assert any(reused) and not all(reused[1:])  # reused, and gathered again on a new support
    assert any(moved) == (text != "admm")


# 200 x 1600 is the first of them whose K't is split (SPLIT_BYTES)
PANEL_SHAPES = ((200, 2000), (64, 256), (200, 2001), (300, 3001), (200, 1600))


def design(m, n):
    rng = np.random.default_rng(m + n)
    return WideLeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m))


@pytest.mark.parametrize("shape,widths", [
    ((200, 2000), [512, 512, 512, 464]), ((64, 256), [256]),
    ((200, 2001), [512, 512, 512, 465]), ((300, 3001), [448] * 6 + [313]),
], ids=["lasso-wide", "desk", "ragged", "bench-300x3001"])
def test_k_is_read_in_column_panels_of_at_most_about_a_mebibyte(shape, widths):
    lsq = design(*shape)
    assert [panel.shape[1] for _, panel in lsq.panels] == widths
    assert all(w % PANEL_ALIGN == 0 for w in widths[:-1])
    assert [(cols.start, cols.stop) for cols, _ in lsq.panels] == \
        [(sum(widths[:i]), sum(widths[:i + 1])) for i in range(len(widths))]
    for cols, panel in lsq.panels:  # views of K, which hold no copy
        assert panel.base is lsq.K and np.array_equal(panel, lsq.K[:, cols])
    if shape == (200, 2000):
        assert all(panel.nbytes <= PANEL_BYTES for _, panel in lsq.panels)


@pytest.mark.parametrize("shape", PANEL_SHAPES)
def test_both_panel_orders_give_the_same_adjoint(shape):
    lsq = design(*shape)
    t = np.random.default_rng(1).standard_normal(shape[0])
    forward, backward = lsq.apply_adjoint(t, 0), lsq.apply_adjoint(t, 1)
    assert np.array_equal(forward, backward)
    # to 1e-14 of each entry's rounding scale |K|'|t| (an entry can cancel to far below it)
    assert (np.abs(forward - lsq.K.T @ t) <= 1e-14 * (np.abs(lsq.K).T @ np.abs(t))).all()


def one_blas_thread(script, timeout=120):
    """Runs script in a fresh interpreter on this checkout with one BLAS thread; its exit status."""
    src = str(Path(admmkit.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_with_one_blas_thread_the_panels_give_the_bits_of_one_product():
    # the benchmark's setting; with several threads K.T @ t itself moves with
    # the thread count.  Split on two CPUs, then the serial loop on one.
    script = (
        "import os, sys; import numpy as np\n"
        "from admmkit import prox\n"
        "from admmkit.prox import WideLeastSquares\n"
        "def check():\n"
        f"    for m, n in {PANEL_SHAPES}:\n"
        "        rng = np.random.default_rng(m + n)\n"
        "        lsq = WideLeastSquares(rng.standard_normal((m, n)), rng.standard_normal(m))\n"
        "        t = rng.standard_normal(m)\n"
        "        for k in (0, 1):\n"
        "            if not np.array_equal(lsq.apply_adjoint(t, k), lsq.K.T @ t):\n"
        "                sys.exit(f'{m} x {n}, k = {k}: bits differ')\n"
        "check()\n"
        "if len(os.sched_getaffinity(0)) >= 2 and prox._helper is None:\n"
        "    sys.exit('nothing was split on two CPUs')\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "if prox.claim_helper() is not None:\n"
        "    sys.exit('the helper was claimed on one CPU')\n"
        "check()\n")
    proc = one_blas_thread(script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("shape", [(64, 256), (200, 1200), (200, 1310)], ids=["desk", "1.8MiB",
                                                                              "2MiB"])
def test_a_k_within_one_l2_is_never_split(shape):
    lsq = design(*shape)
    assert lsq.K.nbytes <= SPLIT_BYTES and lsq.halves is None


def test_a_k_over_one_l2_is_split_at_a_panel_boundary_past_its_middle():
    assert design(200, 1311).K.nbytes > SPLIT_BYTES and design(200, 1311).halves is not None
    for shape, split in (((200, 2000), 1216), ((200, 1600), 1024), ((300, 3001), 1664)):
        lsq = design(*shape)
        (mine, K_mine), (theirs, K_theirs) = lsq.halves
        assert (mine.start, mine.stop, theirs.start, theirs.stop) == (0, split, split, shape[1])
        assert split % PANEL_ALIGN == 0 and split > shape[1] / 2
        assert K_mine.base is lsq.K and K_theirs.base is lsq.K
        assert np.array_equal(np.hstack([K_mine, K_theirs]), lsq.K)


def test_a_busy_helper_leaves_the_caller_the_serial_loop(monkeypatch):
    lsq = design(200, 2000)
    t = np.random.default_rng(2).standard_normal(200)
    helper = prox.claim_helper()
    if helper is None:
        pytest.skip("the process may run on one CPU only")

    def refuse(*args):
        raise AssertionError("split while the helper was busy")

    monkeypatch.setattr(prox.AdjointHelper, "split_adjoint", refuse)
    try:
        forward, backward = lsq.apply_adjoint(t, 0), lsq.apply_adjoint(t, 1)
    finally:
        helper.busy.release()
    assert np.array_equal(forward, backward)
    assert (np.abs(forward - lsq.K.T @ t) <= 1e-14 * (np.abs(lsq.K).T @ np.abs(t))).all()


def test_a_failed_job_is_raised_in_the_caller_and_frees_the_helper():
    lsq = design(200, 2000)
    t = np.random.default_rng(2).standard_normal(200)
    helper = prox.claim_helper()
    if helper is None:
        pytest.skip("the process may run on one CPU only")
    (mine, K_mine), _ = lsq.halves
    wrong = (mine, K_mine), (slice(1216, 1300), lsq.K[:, 1216:1310])  # 84 outputs, 94 columns
    with pytest.raises(ValueError):
        helper.split_adjoint(wrong, t, np.empty(2000))
    assert helper.busy.acquire(blocking=False)  # released by the failed pass
    out = np.empty(2000)
    helper.split_adjoint(lsq.halves, t, out)
    assert np.array_equal(out, lsq.apply_adjoint(t))


def test_the_helper_keeps_no_operand_after_its_job():
    # a view of K kept by the helper would hold this K through the next build
    lsq = design(200, 2000)
    gone = weakref.ref(lsq.K)
    lsq.apply_adjoint(np.ones(200))
    del lsq
    gc.collect()
    assert gone() is None


def test_a_forked_child_starts_its_own_helper():
    # the child's copy of the parent's helper has no thread; it must not wait on it
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the process may run on one CPU only")
    script = (
        "import os, signal, sys, threading; import numpy as np\n"
        "from admmkit import prox\n"
        "from admmkit.prox import WideLeastSquares\n"
        "rng = np.random.default_rng(0)\n"
        "lsq = WideLeastSquares(rng.standard_normal((200, 2000)), rng.standard_normal(200))\n"
        "t = rng.standard_normal(200)\n"
        "lsq.apply_adjoint(t)\n"
        "if prox._helper is None: sys.exit('the parent did not split')\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(20)\n"
        "    same = np.array_equal(lsq.apply_adjoint(t), lsq.K.T @ t)\n"
        "    os._exit(0 if same and threading.active_count() == 2 else 3)\n"
        "_, status = os.waitpid(pid, 0)\n"
        "sys.exit(f'child status {status}' if status else 0)\n")
    proc = one_blas_thread(script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_concurrent_solves_on_one_instance_give_the_rows_of_serial_ones():
    # a second caller meets a busy helper and runs the serial loop, with the same bits
    script = (
        "import dataclasses, sys, threading\n"
        "from admmkit.bench import RunConfig, build_instance, parse_solver_spec, penalty, run_spec\n"
        "config = RunConfig(problem='lasso', seed=0, m=200, n=2000, sparsity=20, gamma='K2/10',\n"
        "                   tol=1e-8, max_iter=3000)\n"
        "instance = build_instance(config)\n"
        "gamma = penalty(config, instance)\n"
        "specs = [parse_solver_spec(s) for s in ('admm', 'a3dmm(6,inf)')]\n"
        "def rows(spec):\n"
        "    trace = run_spec(instance, spec, gamma, config.tol, config.max_iter).trace\n"
        "    return [dataclasses.replace(r, ms=0.0) for r in trace.rows]\n"
        "serial = [rows(spec) for spec in specs]\n"
        "got = {}\n"
        "def solve(i):\n"
        "    got[i] = [rows(spec) for spec in specs]\n"
        "threads = [threading.Thread(target=solve, args=(i,)) for i in range(2)]\n"
        "for thread in threads: thread.start()\n"
        "for thread in threads: thread.join(60)\n"
        "if any(thread.is_alive() for thread in threads): sys.exit('a solve did not finish')\n"
        "sys.exit(0 if got == {0: serial, 1: serial} else 'rows differ')\n")
    proc = one_blas_thread(script)
    assert proc.returncode == 0, proc.stderr


def test_more_callers_than_cores_each_get_the_bits_of_one_product():
    # callers that race for the helper at a short switch interval: a job or
    # output handed to the wrong caller, or a lost release, shows as a wrong
    # result or a caller that never finishes
    script = (
        "import sys, threading; import numpy as np\n"
        "from admmkit import prox\n"
        "from admmkit.prox import WideLeastSquares\n"
        "rng = np.random.default_rng(0)\n"
        "shared = [WideLeastSquares(rng.standard_normal((200, n)), rng.standard_normal(200))\n"
        "          for n in (1600, 2000)]\n"
        "wrong = []\n"
        "def call(i):\n"
        "    lsq = shared[i % 2]\n"
        "    t = np.random.default_rng(i).standard_normal(200)\n"
        "    want = lsq.K.T @ t\n"
        "    for k in range(200):\n"
        "        if not np.array_equal(lsq.apply_adjoint(t, k), want): wrong.append((i, k))\n"
        "sys.setswitchinterval(1e-6)\n"
        "try:\n"
        "    threads = [threading.Thread(target=call, args=(i,)) for i in range(5)]\n"
        "    for thread in threads: thread.start()\n"
        "    for thread in threads: thread.join(20)\n"
        "finally:\n"
        "    sys.setswitchinterval(0.005)\n"
        "if any(thread.is_alive() for thread in threads): sys.exit('a caller did not finish')\n"
        "sys.exit(f'wrong bits at {wrong[:5]}' if wrong else 0)\n")
    proc = one_blas_thread(script)
    assert proc.returncode == 0, proc.stderr


def test_a_desk_solve_starts_no_thread():
    script = (
        "import sys, threading\n"
        "from admmkit import prox\n"
        "from admmkit.bench import RunConfig, build_instance, parse_solver_spec, penalty, run_spec\n"
        "config = RunConfig(problem='lasso', seed=0, m=64, n=256, tol=1e-8, max_iter=3000)\n"
        "instance = build_instance(config)\n"
        "before = threading.active_count()\n"
        "run_spec(instance, parse_solver_spec('a3dmm(6,inf)'), penalty(config, instance),\n"
        "         config.tol, config.max_iter)\n"
        "sys.exit(0 if threading.active_count() == before and prox._helper is None else 1)\n")
    proc = one_blas_thread(script)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmark_instance_keeps_its_iterations_and_predictions():
    # perfbench's lasso-wide: the carried y-step with the cached inverse and reused columns
    config = RunConfig(problem="lasso", seed=0, m=200, n=2000, sparsity=20, gamma="K2/10",
                       tol=1e-8, max_iter=3000)
    instance = build_instance(config)
    assert instance.problem.wide_lsq is not None
    gamma = penalty(config, instance)
    ref = compute_reference(instance, gamma, config.tol, config.max_iter)
    assert (ref.iterations, ref.stop, ref.extrapolated) == (74, "tol", 8)
    for text, iterations, applied in (("admm", 174, 0), ("iadmm(0.3)", 139, 0),
                                      ("a3dmm(6,100)", 58, 6), ("a3dmm(6,inf)", 58, 6)):
        result = run_spec(instance, parse_solver_spec(text), gamma, config.tol, config.max_iter)
        assert result.converged, text
        assert (result.state.k, len(result.trace.applied_increments)) == (iterations, applied), text
