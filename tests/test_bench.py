import concurrent.futures
import dataclasses
import glob
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import admmkit
from admmkit import prox
from admmkit.bench import (DEFAULT_COMPARISON, GALLERY, KNOBS, PROBLEMS, ConfigError,
                           EmptySelection, RunConfig, SolverSpec, build_instance,
                           compute_reference, emit_plot_svg, parse_solver_spec, resolve_gamma,
                           run_experiment, run_solver, write_trace_csv, CSV_HEADER)
from admmkit import a3dmm
from admmkit.a3dmm import run_a3dmm
from admmkit.problems import (CERTIFICATE_TOL, Certificate, make_bp_l1, make_bp_nuclear,
                              make_feasibility, make_lasso, make_qp_box)
from admmkit.prox import ProxOracle
from admmkit.splitting import Divergence, SolverConfig
from admmkit.trace import Trace, TraceRow

from reference_twins import cholesky_solve
from trace_csv import read_trace_csv


def sample_trace():
    t = Trace(meta={"solver": "admm", "problem": "toy", "seed": "0"})
    t.append(TraceRow(k=1, norm_v=0.5, cos_theta=None, dist_z=1.25, dist_x=None,
                      objective=3.0, extrapolated=False, ms=0.81))
    t.append(TraceRow(k=2, norm_v=0.1234567890123456789, cos_theta=0.75,
                      dist_z=0.3, dist_x=0.2, objective=2.5, extrapolated=True,
                      ms=1.75))
    return t


def test_trace_csv_round_trip(tmp_path):
    t = sample_trace()
    path = tmp_path / "t.csv"
    write_trace_csv(t, path)
    lines = path.read_text().splitlines()
    assert lines[3] == CSV_HEADER  # after three sorted metadata lines
    assert lines[0] == "# problem=toy"
    back = read_trace_csv(path)
    assert (back.rows, back.meta) == (t.rows, t.meta)


def test_trace_csv_single_row_layout(tmp_path):
    t = Trace(meta={"solver": "admm"})
    t.append(TraceRow(k=1, norm_v=0.5, cos_theta=None, dist_z=None, dist_x=None,
                      objective=None, extrapolated=False, ms=0.1))
    path = tmp_path / "one.csv"
    write_trace_csv(t, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # comment, header, row
    cells = lines[2].split(",")
    assert cells[2] == "" and cells[3] == ""  # absent values are empty, not NaN


def test_trace_csv_never_persists_nan(tmp_path):
    t = Trace(meta={"solver": "admm"})
    t.append(TraceRow(k=1, norm_v=1.0, cos_theta=float("nan"), dist_z=float("inf"),
                      dist_x=None, objective=None, extrapolated=False, ms=0.1))
    path = tmp_path / "nan.csv"
    write_trace_csv(t, path)
    body = path.read_text()
    assert "nan" not in body and "inf" not in body
    back = read_trace_csv(path)
    assert back.rows[0].cos_theta is None and back.rows[0].dist_z is None


def test_trace_csv_write_error_carries_path(tmp_path):
    t = sample_trace()
    bad = tmp_path / "missing-dir" / "t.csv"
    with pytest.raises(OSError, match="missing-dir"):
        write_trace_csv(t, bad)


def test_trace_rejects_nonincreasing_counter():
    t = sample_trace()
    with pytest.raises(ValueError):
        t.append(TraceRow(k=2, norm_v=0.1, cos_theta=None, dist_z=None,
                          dist_x=None, objective=None, extrapolated=False, ms=2.0))


def test_parse_solver_specs():
    assert parse_solver_spec("admm") == SolverSpec(kind="admm")
    assert parse_solver_spec("iadmm(0.3)") == SolverSpec(kind="iadmm", a=0.3)
    assert parse_solver_spec("iadmm(0.4,-0.2)") == SolverSpec(kind="iadmm", a=0.4, b=-0.2)
    assert parse_solver_spec("a3dmm(6,inf)") == SolverSpec(kind="a3dmm", q=6, s=math.inf)
    assert parse_solver_spec("a3dmm(6,100)").s == 100
    assert parse_solver_spec("relaxed(1.5)") == SolverSpec(variant="relaxed", phi=1.5)
    assert parse_solver_spec("symmetric") == SolverSpec(variant="symmetric")
    # then ExtrapConfig's and SolverConfig's own range checks, then non-finite momentum
    for bad in ("nope", "bogus(1)", "admm(", "admm(1)", "iadmm()", "a3dmm(6)",
                "a3dmm(6,100,1)", "relaxed()", "relaxed(1,2)", "a3dmm(6,two)",
                "a3dmm(6,0)", "a3dmm(40,inf)", "relaxed(2.5)",
                "iadmm(nan)", "iadmm(inf)", "iadmm(0.3,nan)", "iadmm(0.3,-inf)"):
        with pytest.raises(ConfigError):
            parse_solver_spec(bad)
    with pytest.raises(ValueError, match="unknown solver kind"):
        SolverSpec(kind="bogus")


def test_run_config_validation_messages():
    with pytest.raises(ConfigError, match="solvers"):
        RunConfig(problem="lasso", solvers=())
    with pytest.raises(ConfigError, match="problem"):
        RunConfig(problem="unknown")
    with pytest.raises(ConfigError, match="max_iter"):
        RunConfig(problem="lasso", max_iter=0)
    with pytest.raises(ConfigError, match="tol"):  # it would stop every solve at k = 1
        RunConfig(problem="lasso", tol=math.inf)
    with pytest.raises(ConfigError, match="inner_steps"):
        RunConfig(problem="tv", inner_steps=0)
    # two specs with one label would write one trace file
    with pytest.raises(ConfigError, match=r"solvers: iadmm\(0\.3\) appears more than once"):
        RunConfig(problem="feasibility", solvers=("admm", "iadmm(0.3)", "iadmm(0.30)"))


@pytest.mark.parametrize("text", ["K2/10", " K2+0.1 ", "0.5", "abc", "K2", "", "nan"])
def test_run_config_reads_gamma_as_resolve_gamma_does(text):
    try:
        resolve_gamma(text, 1.0)
    except ValueError:
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(gamma=text)
    else:
        assert RunConfig(gamma=text).gamma == text


def test_run_experiment_writes_traces(tmp_path):
    cfg = RunConfig(problem="feasibility", alpha=np.pi / 3, seed=0, gamma=1.0,
                    tol=1e-10, max_iter=500,
                    solvers=("admm", "iadmm(0.3)"), out_dir=str(tmp_path))
    _, traces = run_experiment(cfg)
    assert [t.meta["solver"] for t in traces] == ["admm", "iadmm(0.3)"]
    assert len(glob.glob(str(tmp_path / "*.csv"))) == 2
    for t in traces:
        assert t.rows[-1].dist_z is not None


def test_default_comparison_set_on_lasso():
    cfg = RunConfig(problem="lasso", m=32, n=96, sparsity=6, seed=1,
                    gamma="K2/10", tol=1e-11, max_iter=4000)
    _, traces = run_experiment(cfg)
    assert len(traces) == 4
    reach = {t.meta["solver"]: t.iterations_to("dist_x", 1e-6) for t in traces}
    assert reach["a3dmm(6,inf)"] == min(reach.values())


def test_momentum_comparison_at_small_angle():
    # tight spiral: the three-point scheme wins, plain momentum loses
    cfg = RunConfig(problem="feasibility", alpha=np.pi / 6, seed=0, gamma=1.0,
                    tol=1e-12, max_iter=3000,
                    solvers=("admm", "iadmm(0.1)", "iadmm(0.3)", "iadmm(0.4,-0.2)"))
    _, traces = run_experiment(cfg)
    reach = {t.meta["solver"]: t.iterations_to("dist_z", 1e-8) for t in traces}
    assert reach["iadmm(0.4,-0.2)"] < reach["admm"]
    assert reach["admm"] < reach["iadmm(0.1)"]
    assert reach["admm"] < reach["iadmm(0.3)"]


def small_lasso():
    return make_lasso(m=16, n=48, sparsity=4, seed=3)


def test_run_order_permutation_gives_identical_traces():
    solvers = [parse_solver_spec(s) for s in ("admm", "a3dmm(4,inf)", "iadmm(0.3)")]
    by_order = []
    for order in (solvers, solvers[1:] + solvers[:1]):
        inst = small_lasso()
        compute_reference(inst, 1.0, 1e-10, 400)
        by_order.append({spec.label: rows(run_solver(inst, spec, 1.0, 1e-10, 400))
                         for spec in order})
    assert by_order[0] == by_order[1]


def rows(trace):
    return [(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective,
             r.extrapolated) for r in trace.rows]


def test_each_problem_reads_the_knobs_that_are_its_constructors_parameters():
    # a new constructor parameter named like a knob would silently become one
    assert {name: reads & set(KNOBS) for name, (_, reads) in GALLERY.items()} == {
        "lasso": {"m", "n", "sparsity", "mu"}, "bp-l1": {"m", "n", "sparsity"},
        "bp-l12": {"m", "n"}, "bp-nuclear": set(), "qp": {"n"}, "feasibility": {"alpha"},
        "tv": {"size", "mask_density", "image"}}
    assert set(KNOBS) <= {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_oracle_is_a_stateless_prox_oracle(problem):
    inst = build_instance(RunConfig(problem=problem, **({"size": 8} if problem == "tv" else {})))
    for oracle in (inst.problem.prox_r, inst.problem.prox_j):
        assert isinstance(oracle, ProxOracle)
        assert not hasattr(oracle, "reset")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(DEFAULT_COMPARISON), st.integers(1, 10)),
                min_size=2, max_size=4))
def test_solves_on_one_instance_match_solves_on_fresh_instances(solves):
    # no solve may leave state behind in the instance it shares with later ones
    shared = small_lasso()
    for text, max_iter in solves:
        spec = parse_solver_spec(text)
        got = rows(run_solver(shared, spec, 1.0, 0.0, max_iter))
        assert got == rows(run_solver(small_lasso(), spec, 1.0, 0.0, max_iter))


# the shipped desk configs' problem parameters, and a small TV instance
REFERENCE_CASES = {
    "lasso": dict(problem="lasso", seed=0, gamma="K2/10", tol=1e-10, max_iter=3000),
    "lasso_spiral": dict(problem="lasso", seed=14, sparsity=20, mu=0.15, gamma="K2/10",
                         tol=0.0, max_iter=400),
    "bp_l1": dict(problem="bp-l1", seed=0, gamma=1, tol=1e-10, max_iter=4000),
    "qp_box": dict(problem="qp", seed=0, n=50, gamma=0.5, tol=1e-10, max_iter=2000),
    "feasibility": dict(problem="feasibility", seed=0, alpha=math.pi / 6, gamma=1,
                        tol=1e-12, max_iter=2000),
    "tv": dict(problem="tv", size=16, seed=0, gamma=1, tol=1e-6, max_iter=40),
}


def reference_case(name):
    cfg = RunConfig(**REFERENCE_CASES[name])
    inst = build_instance(cfg)
    return inst, resolve_gamma(cfg.gamma, inst.norm_K), cfg.tol, cfg.max_iter


def traced_reference_run(inst, gamma, tol, max_iter):
    """The reference as a traced run_a3dmm of the standard scheme computes it."""
    cfg = SolverConfig(gamma=gamma, tol=tol / 100.0, max_iter=10 * max_iter, z0=inst.z0)
    return run_a3dmm(inst.problem, cfg)


def recorded_reference(inst, gamma, tol, max_iter, monkeypatch):
    """compute_reference, with (started from z_bar = z, ||v_k||) recorded for every step."""
    steps = []
    step = a3dmm.variant_step

    def recording_step(problem, state, config):
        plain = np.array_equal(state.z_bar, state.z)
        state = step(problem, state, config)
        steps.append((plain, np.linalg.norm(state.v)))
        return state

    with monkeypatch.context() as patch:
        patch.setattr(a3dmm, "variant_step", recording_step)
        ref = compute_reference(inst, gamma, tol, max_iter)
    return ref, steps


@pytest.mark.parametrize("name", ["lasso", "bp_l1", "qp_box", "feasibility", "tv"])
def test_reference_above_the_floor_matches_a_traced_run(name, monkeypatch):
    inst, gamma, tol, max_iter = reference_case(name)
    ref, steps = recorded_reference(inst, gamma, tol, max_iter, monkeypatch)
    run = traced_reference_run(inst, gamma, tol, max_iter)
    assert len(steps) == ref.iterations
    if not inst.accelerated_reference:
        # plain steps only: the traced plain run, bit for bit
        assert ref.extrapolated == 0 and all(plain for plain, _ in steps)
        assert ref.iterations == run.state.k
        assert ref.stop == ("tol" if run.converged else "budget")
        assert [nv for _, nv in steps] == [r.norm_v for r in run.trace.rows]
        for field in ("z", "x"):
            assert np.array_equal(getattr(ref, field), getattr(run.state, field)), field
        return
    # accelerated: the last step is plain and moved the point by at most tol/100,
    # which lies within 1e-9 relative of where the traced plain run stops; a
    # non-unique multiplier makes z one fixed point of many, and the
    # certificate stands in for its comparison
    assert run.converged and ref.stop == "tol"
    plain, last_norm = steps[-1]
    assert plain and last_norm <= tol / 100.0
    assert ref.extrapolated == sum(not p for p, _ in steps) > 0
    assert ref.iterations < run.state.k
    assert ref.certificate is None or ref.certificate.passed
    for field in ("z", "x") if inst.unique_solution else ("x",):
        exact = getattr(run.state, field)
        gap = np.linalg.norm(getattr(ref, field) - exact)
        assert gap <= 1e-9 * max(1.0, np.linalg.norm(exact)), field


FLAGGED = {
    "lasso": lambda seed: make_lasso(m=40, n=120, sparsity=6, seed=seed),
    "qp_box": lambda seed: make_qp_box(n=30, seed=seed),
    "feasibility": lambda seed: make_feasibility(alpha=math.pi / 5, seed=seed),
}


@pytest.mark.parametrize("name", sorted(FLAGGED))
def test_accelerated_reference_agrees_with_the_plain_one(name):
    # the same instance with its flag cleared gives the plain reference
    for seed in range(1, 6):
        inst = FLAGGED[name](seed)
        assert inst.unique_solution
        gamma = inst.gamma_default
        ref = compute_reference(inst, gamma, 1e-9, 2000)
        inst.unique_solution, inst.certificate = False, None
        plain = compute_reference(inst, gamma, 1e-9, 2000)
        assert plain.extrapolated == 0 < ref.extrapolated
        assert ref.stop in ("tol", "floor") and plain.stop in ("tol", "floor")
        assert ref.iterations < plain.iterations, seed
        for field in ("z", "x"):
            exact = getattr(plain, field)
            gap = np.linalg.norm(getattr(ref, field) - exact)
            assert gap <= 1e-9 * max(1.0, np.linalg.norm(exact)), (seed, field)


# basis pursuit at the desk config's gamma, tol and budget; bp-l1 seed 4 is left
# out because its plain and accelerated references alike stop on the budget
CERTIFIED_SEEDS = [("bp-l1", make_bp_l1, seed) for seed in (1, 2, 3, 5)] + \
    [("bp-nuclear", make_bp_nuclear, seed) for seed in (0, 1, 2)]


@pytest.mark.parametrize("name,make,seed", CERTIFIED_SEEDS,
                         ids=[f"{name}-{seed}" for name, _, seed in CERTIFIED_SEEDS])
def test_accelerated_basis_pursuit_reference_agrees_with_the_plain_one(name, make, seed):
    # the same instance without its certificate gives the plain reference; the
    # multiplier is not unique, so only x is compared, and the certificate
    # vouches for the accelerated one
    inst = make(seed=seed)
    ref = compute_reference(inst, 1.0, 1e-10, 4000)
    inst.certificate = None
    plain = compute_reference(inst, 1.0, 1e-10, 4000)
    assert plain.extrapolated == 0 < ref.extrapolated
    assert ref.stop == plain.stop == "tol"
    assert ref.iterations < plain.iterations
    assert ref.certificate.passed and ref.solved
    gap = np.linalg.norm(ref.x - plain.x)
    assert gap <= 1e-9 * max(1.0, np.linalg.norm(plain.x))


def test_certificate_fails_a_bp_l1_run_cut_off_at_20_iterations():
    inst, gamma, tol, max_iter = reference_case("bp_l1")
    cut = run_a3dmm(inst.problem, SolverConfig(gamma=gamma, tol=0.0, max_iter=20)).state
    cert = inst.certificate(cut.x, cut.y, cut.psi)
    assert not cert.passed
    assert cert.gap > 1e-2 and cert.residual > 1e-2
    assert compute_reference(inst, gamma, tol, max_iter).certificate.gap < 1e-10


def test_reference_that_fails_its_certificate_falls_back_to_plain_steps(monkeypatch):
    # an accelerated reference whose certificate fails is replaced by the plain
    # run from z0, bit for bit, and solved nothing when that fails too
    inst, gamma, tol, max_iter = reference_case("bp_l1")
    failing = Certificate(gap=1.0, residual=1.0)
    inst.certificate = lambda x, y, psi: failing
    ref, steps = recorded_reference(inst, gamma, tol, max_iter, monkeypatch)
    plain = traced_reference_run(inst, gamma, tol, max_iter)
    assert ref.extrapolated == 0 and ref.iterations == plain.state.k == 614
    assert len(steps) > ref.iterations  # the accelerated attempt came first
    assert all(p for p, _ in steps[-ref.iterations:])
    for field in ("z", "x"):
        assert np.array_equal(getattr(ref, field), getattr(plain.state, field)), field
    assert ref.stop == "tol" and ref.certificate.gap == 1.0 and not ref.solved
    # against it the distance columns stay empty
    trace = run_solver(inst, parse_solver_spec("admm"), gamma, tol, 50)
    assert all(r.dist_x is None and r.dist_z is None for r in trace.rows)


def test_reference_stopped_on_its_budget_is_not_run_again(monkeypatch):
    # a budget stop solved nothing whichever way it was stepped: one run only
    inst, gamma, tol, _ = reference_case("bp_l1")
    inst.certificate = lambda x, y, psi: Certificate(gap=1.0, residual=1.0)
    ref, steps = recorded_reference(inst, gamma, tol, 10, monkeypatch)
    assert ref.stop == "budget" and ref.extrapolated > 0 and not ref.solved
    assert len(steps) == ref.iterations == 100


@pytest.mark.parametrize("name", ["bp_l1", "lasso"])
def test_a_loose_tolerance_leaves_the_reference_as_at_1e_6(name):
    # the reference stops at min(tol, CERTIFICATE_TOL)/100 and its certificate
    # is held to CERTIFICATE_TOL, so a loose tol cannot certify a point that
    # solves nothing (at 1e300 it would stop at k = 1 on x = 0)
    inst, gamma, _, max_iter = reference_case(name)
    at_bound = compute_reference(inst, gamma, CERTIFICATE_TOL, max_iter)
    assert at_bound.solved and at_bound.stop == "tol"
    for tol in (1e-3, 1e300):
        loose = compute_reference(inst, gamma, tol, max_iter)
        assert (loose.iterations, loose.stop, loose.extrapolated, loose.certificate) == \
            (at_bound.iterations, "tol", at_bound.extrapolated, at_bound.certificate), tol
        for field in ("z", "x"):
            assert np.array_equal(getattr(loose, field), getattr(at_bound, field)), (tol, field)


def test_traces_of_an_instance_without_a_unique_fixed_point_measure_no_dist_z():
    # the accelerated basis-pursuit reference's z is another fixed point than
    # the one admm reaches from z0; dist_x still falls to the tolerance
    cfg = RunConfig(**dict(REFERENCE_CASES["bp_l1"], solvers=("admm", "a3dmm(6,inf)")))
    reference, traces = run_experiment(cfg)
    assert not build_instance(cfg).unique_solution and reference.extrapolated > 0
    scale = max(1.0, np.linalg.norm(reference.x))
    for trace in traces:
        assert all(r.dist_z is None and r.dist_x is not None for r in trace.rows)
        assert trace.rows[-1].dist_x <= 1e-6 * scale


def test_reference_stops_at_the_rounding_floor():
    inst, gamma, tol, max_iter = reference_case("lasso_spiral")
    ref = compute_reference(inst, gamma, tol, max_iter)
    assert ref.stop == "floor" and ref.iterations < 300
    full = traced_reference_run(inst, gamma, tol, max_iter)
    assert full.state.k == 10 * max_iter
    for field in ("z", "x"):
        exact = getattr(full.state, field)
        gap = np.linalg.norm(getattr(ref, field) - exact) / np.linalg.norm(exact)
        assert gap <= 1e-13, field


@pytest.mark.parametrize("name", ["feasibility", "tv"])
def test_reference_nan_start_raises_divergence(name):
    inst, gamma, tol, max_iter = reference_case(name)
    inst.z0 = np.zeros(inst.problem.p)
    inst.z0[1] = np.nan
    with pytest.raises(Divergence, match=r"\|\|v_1\|\| is not finite"):
        compute_reference(inst, gamma, tol, max_iter)


def test_tv_instance_factors_once_and_only_when_solved(monkeypatch):
    # building a TV instance factors nothing; its reference and the default
    # comparison set share one factorization of the free-pixel Laplacian
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(*args, **kwargs):
        calls.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    cfg = RunConfig(**REFERENCE_CASES["tv"])
    inst = build_instance(cfg)
    assert calls == []
    compute_reference(inst, 1.0, cfg.tol, cfg.max_iter)
    for spec in cfg.solvers:
        run_solver(inst, spec, 1.0, cfg.tol, cfg.max_iter)
    free = int((~inst.extra["mask"]).sum())
    assert calls == [(free, free)]
    # first calls that race on a fresh instance still factor once
    fresh = build_instance(cfg)
    together = threading.Barrier(4, timeout=30)
    w = np.zeros(fresh.problem.p)

    def first_call(_):
        together.wait()
        return fresh.problem.prox_r.evaluate(w, 1.0)

    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(first_call, range(4)))
    assert len(calls) == 2
    assert all(np.array_equal(x, results[0]) for x in results)


@pytest.mark.parametrize("name", ["lasso", "lasso_spiral", "bp_l1", "qp_box", "feasibility"])
def test_desk_runs_match_scipy_cho_solve_to_1e_9_of_norm_v(name, monkeypatch):
    # with the twin's two triangular solves in place of the product with the cached
    # inverse, every run takes the same decisions and its rows stay within 1e-9 of
    # its largest ||v|| (the objective within 1e-9 of its largest value).  The angle
    # column is left out: at the noise floor it measures rounding alone.
    fast_ref, fast = run_experiment(RunConfig(**REFERENCE_CASES[name]))
    monkeypatch.setattr(prox.QuadraticSolveCache, "solve", cholesky_solve)
    slow_ref, slow = run_experiment(RunConfig(**REFERENCE_CASES[name]))
    assert (fast_ref.stop, fast_ref.extrapolated) == (slow_ref.stop, slow_ref.extrapolated)
    column = lambda t, field: np.array([getattr(r, field) for r in t.rows], dtype=float)
    for a, b in zip(fast, slow, strict=True):
        assert [r.extrapolated for r in a.rows] == [r.extrapolated for r in b.rows]
        if name == "feasibility":  # solves no quadratic system, so repeats bit for bit
            for field in ("norm_v", "cos_theta", "dist_z", "dist_x", "objective"):
                assert np.array_equal(column(a, field), column(b, field), equal_nan=True), field
            continue
        scale = column(b, "norm_v").max()
        for field in ("norm_v", "dist_z", "dist_x"):
            np.testing.assert_allclose(column(a, field), column(b, field), rtol=0.0,
                                       atol=1e-9 * scale, err_msg=field)
        objective = column(b, "objective")
        np.testing.assert_allclose(column(a, "objective"), objective, rtol=0.0,
                                   atol=1e-9 * np.abs(objective).max())
    if name == "feasibility":
        assert np.array_equal(fast_ref.z, slow_ref.z) and np.array_equal(fast_ref.x, slow_ref.x)


def test_emit_plot_svg(tmp_path):
    t = sample_trace()
    path = tmp_path / "plot.svg"
    emit_plot_svg([t], "dist_z", path)
    body = path.read_text()
    assert body.startswith("<svg ")
    assert "polyline" in body and "admm" in body
    # log ticks label decades
    assert "1e" in body
    with pytest.raises(EmptySelection):
        emit_plot_svg([t], "nothing", tmp_path / "x.svg")


def test_emit_plot_svg_deterministic(tmp_path):
    t = sample_trace()
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_plot_svg([t], "norm_v", p1)
    emit_plot_svg([t], "norm_v", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_plot_requires_present_quantity(tmp_path):
    t = Trace(meta={"solver": "admm"})
    t.append(TraceRow(k=1, norm_v=1.0, cos_theta=None, dist_z=None, dist_x=None,
                      objective=None, extrapolated=False, ms=0.0))
    with pytest.raises(EmptySelection):
        emit_plot_svg([t], "dist_z", tmp_path / "p.svg")


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))),
                         ids=os.path.basename)
def test_shipped_configs_run_under_budget(path, tmp_path):
    from admmkit.cli import main
    start = time.perf_counter()
    code = main(["bench", "--config", path, "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0
    assert glob.glob(str(tmp_path / "*.csv"))


# What the accelerator decides on each shipped config except inpaint.cfg, whose
# tv instance has many minimizers, with one BLAS thread: the reference's
# (iterations, stop, predictions applied) and each solver's (iterations, rows
# with a prediction applied).  A reference that stops at its rounding floor
# may move by a step when the fit's rounding changes, so lasso_spiral's step
# count is left out.  LAPACK's potri rounds with the BLAS thread count, and
# bp_l1's reference takes 138 steps with two or four threads.
DECISIONS = {
    "bp_l1": ((139, "tol", 17), {"admm": (504, 0), "iadmm(0.3)": (1318, 0),
                                "a3dmm(6,100)": (122, 15), "a3dmm(6,inf)": (122, 15)}),
    "feasibility": ((10, "tol", 1), {"admm": (189, 0), "iadmm(0.1)": (198, 0),
                                     "iadmm(0.3)": (407, 0), "iadmm(0.4,-0.2)": (94, 0)}),
    "lasso": ((82, "tol", 10), {"admm": (212, 0), "iadmm(0.3)": (145, 0),
                                "a3dmm(6,100)": (66, 8), "a3dmm(6,inf)": (66, 8)}),
    "lasso_spiral": ((None, "floor", 17), {"admm": (400, 0), "iadmm(0.3)": (400, 0),
                                           "a3dmm(6,100)": (400, 50),
                                           "a3dmm(6,inf)": (400, 50)}),
    "qp_box": ((53, "tol", 6), {"admm": (122, 0), "symmetric": (54, 0),
                                "a3dmm(6,100)": (44, 5), "a3dmm(6,inf)": (44, 5)}),
}


def test_decisions_cover_every_shipped_config_but_inpaint():
    names = {os.path.basename(p)[:-4] for p in glob.glob(os.path.join(CONFIG_DIR, "*.cfg"))}
    assert names - {"inpaint"} == set(DECISIONS)


@pytest.fixture(scope="module")
def one_thread_bench(tmp_path_factory):
    """A directory with `bench`'s output (<name>.txt) and traces (<name>/) for DECISIONS' configs.

    All run in one subprocess with one BLAS thread, the benchmark's setting.
    """
    out = tmp_path_factory.mktemp("decisions")
    script = ("import contextlib, os, sys\n"
              "from admmkit.cli import main\n"
              "configs, out = sys.argv[1:3]\n"
              "for name in sys.argv[3:]:\n"
              "    with open(os.path.join(out, name + '.txt'), 'w') as fh, \\\n"
              "            contextlib.redirect_stdout(fh):\n"
              "        code = main(['bench', '--config', os.path.join(configs, name + '.cfg'),\n"
              "                     '--out', os.path.join(out, name)])\n"
              "    if code:\n"
              "        sys.exit(f'{name}: bench exited {code}')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(admmkit.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, CONFIG_DIR, str(out), *DECISIONS],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("name", sorted(DECISIONS))
def test_shipped_configs_keep_the_accelerator_decisions(name, one_thread_bench):
    (ref_iters, ref_stop, ref_applied), solvers = DECISIONS[name]
    out = (one_thread_bench / f"{name}.txt").read_text().splitlines()
    [line] = [l for l in out if "reference:" in l]
    match = re.fullmatch(r"  reference: iters=(\d+)  stop=(\w+)  extrapolated=(\d+)", line)
    assert match.group(2) == ref_stop
    assert int(match.group(3)) == ref_applied
    if ref_iters is not None:
        assert int(match.group(1)) == ref_iters
    # a certificate, where the problem has one, passes
    assert all(l.endswith("  pass") for l in out if l.startswith("  certificate:"))
    traces = [read_trace_csv(p) for p in glob.glob(str(one_thread_bench / name / "*.csv"))]
    got = {t.meta["solver"]: (len(t.rows), sum(r.extrapolated for r in t.rows))
           for t in traces}
    assert got == solvers
