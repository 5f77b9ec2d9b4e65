import concurrent.futures
import glob
import math
import os
import threading
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from admmkit import prox
from admmkit.bench import (DEFAULT_COMPARISON, PROBLEMS, ConfigError, EmptySelection,
                           RunConfig, SolverSpec, build_instance, compute_reference,
                           emit_plot_svg, parse_solver_spec, read_trace_csv, resolve_gamma,
                           run_experiment, run_solver, write_trace_csv, CSV_HEADER)
from admmkit.a3dmm import run_a3dmm
from admmkit.problems import make_lasso
from admmkit.prox import ProxOracle
from admmkit.splitting import Divergence, SolverConfig
from admmkit.trace import Trace, TraceRow


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
    assert back == t


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
    assert parse_solver_spec("relaxed(1.5)").phi == 1.5
    assert parse_solver_spec("symmetric").kind == "symmetric"
    # the last three fail ExtrapConfig's and SolverConfig's own range checks
    for bad in ("nope", "admm(1)", "iadmm()", "a3dmm(6)", "a3dmm(6,two)",
                "a3dmm(6,0)", "a3dmm(40,inf)", "relaxed(2.5)"):
        with pytest.raises(ConfigError):
            parse_solver_spec(bad)


def test_run_config_validation_messages():
    with pytest.raises(ConfigError, match="solvers"):
        RunConfig(problem="lasso", solvers=())
    with pytest.raises(ConfigError, match="problem"):
        RunConfig(problem="unknown")
    with pytest.raises(ConfigError, match="max_iter"):
        RunConfig(problem="lasso", max_iter=0)
    with pytest.raises(ConfigError, match="inner_steps"):
        RunConfig(problem="tv", inner_steps=0)


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


def small_lasso(data_block="y"):
    return make_lasso(m=16, n=48, sparsity=4, seed=3, data_block=data_block)


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


@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_oracle_is_a_stateless_prox_oracle(problem):
    inst = build_instance(RunConfig(problem=problem, size=8))
    for oracle in (inst.problem.prox_r, inst.problem.prox_j):
        assert isinstance(oracle, ProxOracle)
        assert not hasattr(oracle, "reset")


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["x", "y"]),
       st.lists(st.tuples(st.sampled_from(DEFAULT_COMPARISON), st.integers(1, 10)),
                min_size=2, max_size=4))
def test_solves_on_one_instance_match_solves_on_fresh_instances(data_block, solves):
    # no solve may leave state behind in the instance it shares with later ones
    shared = small_lasso(data_block)
    for text, max_iter in solves:
        spec = parse_solver_spec(text)
        got = rows(run_solver(shared, spec, 1.0, 0.0, max_iter))
        assert got == rows(run_solver(small_lasso(data_block), spec, 1.0, 0.0, max_iter))


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


@pytest.mark.parametrize("name", ["lasso", "bp_l1", "qp_box", "feasibility", "tv"])
def test_reference_above_the_floor_matches_a_traced_run(name):
    inst, gamma, tol, max_iter = reference_case(name)
    ref = compute_reference(inst, gamma, tol, max_iter)
    run = traced_reference_run(inst, gamma, tol, max_iter)
    assert ref.iterations == run.state.k
    assert ref.stop == ("tol" if run.converged else "budget")
    for field in ("z", "x", "y"):
        assert np.array_equal(getattr(ref, field), getattr(run.state, field)), field


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
def test_desk_runs_match_scipy_cho_solve_bit_for_bit(name, monkeypatch):
    def run():
        reference, traces = run_experiment(RunConfig(**REFERENCE_CASES[name]))
        rows = [[(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective,
                  r.extrapolated) for r in t.rows] for t in traces]
        return reference, rows

    fast_ref, fast = run()
    monkeypatch.setattr(prox, "_cho_solve", scipy.linalg.cho_solve)
    slow_ref, slow = run()
    assert fast == slow
    for field in ("z", "x", "y"):
        assert np.array_equal(getattr(fast_ref, field), getattr(slow_ref, field)), field


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
