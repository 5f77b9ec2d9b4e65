import glob
import math
import os
import time

import numpy as np
import pytest

from admmkit.bench import (ConfigError, EmptySelection, RunConfig, SolverSpec,
                           build_instance, compute_reference, emit_plot_svg,
                           parse_solver_spec, read_trace_csv, run_experiment,
                           run_solver, write_trace_csv, CSV_HEADER)
from admmkit.a3dmm import InnerSolver
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
    for bad in ("nope", "admm(1)", "iadmm()", "a3dmm(6)", "a3dmm(6,two)"):
        with pytest.raises(ConfigError):
            parse_solver_spec(bad)


def test_run_config_validation_messages():
    with pytest.raises(ConfigError, match="solvers"):
        RunConfig(problem="lasso", solvers=())
    with pytest.raises(ConfigError, match="problem"):
        RunConfig(problem="unknown")
    with pytest.raises(ConfigError, match="max_iter"):
        RunConfig(problem="lasso", max_iter=0)


def test_run_experiment_writes_traces(tmp_path):
    cfg = RunConfig(problem="feasibility", alpha=np.pi / 3, seed=0, gamma=1.0,
                    tol=1e-10, max_iter=500,
                    solvers=("admm", "iadmm(0.3)"), out_dir=str(tmp_path))
    traces = run_experiment(cfg)
    assert [t.meta["solver"] for t in traces] == ["admm", "iadmm(0.3)"]
    assert len(glob.glob(str(tmp_path / "*.csv"))) == 2
    for t in traces:
        assert t.rows[-1].dist_z is not None


def test_default_comparison_set_on_lasso():
    cfg = RunConfig(problem="lasso", m=32, n=96, sparsity=6, seed=1,
                    gamma="K2/10", tol=1e-11, max_iter=4000)
    traces = run_experiment(cfg)
    assert len(traces) == 4
    reach = {t.meta["solver"]: t.iterations_to("dist_x", 1e-6) for t in traces}
    assert reach["a3dmm(6,inf)"] == min(reach.values())


def test_momentum_comparison_at_small_angle():
    # tight spiral: the three-point scheme wins, plain momentum loses
    cfg = RunConfig(problem="feasibility", alpha=np.pi / 6, seed=0, gamma=1.0,
                    tol=1e-12, max_iter=3000,
                    solvers=("admm", "iadmm(0.1)", "iadmm(0.3)", "iadmm(0.4,-0.2)"))
    traces = run_experiment(cfg)
    reach = {t.meta["solver"]: t.iterations_to("dist_z", 1e-8) for t in traces}
    assert reach["iadmm(0.4,-0.2)"] < reach["admm"]
    assert reach["admm"] < reach["iadmm(0.1)"]
    assert reach["admm"] < reach["iadmm(0.3)"]


def test_run_order_permutation_gives_identical_traces():
    # the TV case checks that every run restarts its warm-started inner solver
    solvers = ("admm", "a3dmm(4,inf)", "iadmm(0.3)")
    problems = (
        dict(problem="lasso", m=16, n=48, sparsity=4, seed=3, gamma=1.0, tol=1e-10,
             max_iter=400),
        dict(problem="tv", size=12, inner_steps=5, seed=0, gamma=1.0, tol=1e-10,
             max_iter=60),
    )
    for problem in problems:
        base = RunConfig(solvers=solvers, **problem)
        perm = RunConfig(solvers=solvers[1:] + solvers[:1], **problem)
        by_solver = {}
        for cfg in (base, perm):
            for t in run_experiment(cfg):
                key = (t.meta["solver"], cfg is base)
                by_solver[key] = [(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x,
                                   r.objective, r.extrapolated) for r in t.rows]
        for solver in solvers:
            assert by_solver[(solver, True)] == by_solver[(solver, False)], problem["problem"]


def test_run_solver_without_inner_keeps_the_instance_budget():
    def rows(trace):
        return [(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective,
                 r.extrapolated) for r in trace.rows]

    spec = parse_solver_spec("a3dmm(6,inf)")
    tv = build_instance(RunConfig(problem="tv", size=12, inner_steps=5, seed=0))
    kept = rows(run_solver(tv, spec, 1.0, 0.0, 30))
    given = rows(run_solver(tv, spec, 1.0, 0.0, 30, inner=InnerSolver(max_steps=5)))
    assert kept == given
    assert rows(run_solver(tv, spec, 1.0, 0.0, 30, inner=InnerSolver(max_steps=6))) != kept
    # an exact x-oracle has no inner budget, so `inner` leaves its run unchanged
    qp = build_instance(RunConfig(problem="qp", n=12, seed=0))
    assert rows(run_solver(qp, spec, 0.5, 1e-10, 200, inner=InnerSolver(max_steps=3))) \
        == rows(run_solver(qp, spec, 0.5, 1e-10, 200))


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
