import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from admmkit.cli import (EXIT_BROKEN_PIPE, _run_config_from, build_parser, main,
                         parse_config_file)
from admmkit.bench import (RunConfig, SolverSpec, compute_reference, run_spec,
                           trace_file_name, write_trace_csv)
from admmkit.problems import load_pgm, make_feasibility, make_lasso, make_tv_inpainting

from trace_csv import read_trace_csv


def assert_same_run(path, result, tmp_path):
    """The CSV at `path` holds the metadata and rows of `result`, apart from ms."""
    write_trace_csv(result.trace, tmp_path / "expected.csv")
    got, expected = read_trace_csv(path), read_trace_csv(tmp_path / "expected.csv")
    assert got.meta == expected.meta
    assert [dataclasses.replace(r, ms=0.0) for r in got.rows] == \
        [dataclasses.replace(r, ms=0.0) for r in expected.rows]


def test_solve_default_lasso(tmp_path, capsys):
    code = main(["solve", "--gamma", "1", "--tol", "1e-9",
                 "--m", "16", "--n", "48", "--sparsity", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    trace = read_trace_csv(tmp_path / "trace.csv")
    assert trace.meta["solver"] == "standard"
    assert "converged" in capsys.readouterr().out


def test_solve_s_inf_enables_extrapolation(tmp_path):
    code = main(["solve", "--gamma", "1", "--tol", "1e-9", "--s", "inf",
                 "--m", "16", "--n", "48", "--sparsity", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    trace = read_trace_csv(tmp_path / "trace.csv")
    assert trace.meta["solver"] == "a3dmm"
    assert trace.meta["s"] == "inf"
    assert any(r.extrapolated for r in trace.rows)


def test_solve_reads_s_as_a_number(tmp_path, capsys):
    # --s takes any spelling of a positive integer, as a3dmm's s in a solver spec does
    assert main(["solve", "--problem", "feasibility", "--s", "100.0", "--out", str(tmp_path)]) == 0
    assert read_trace_csv(tmp_path / "trace.csv").meta["s"] == "100"
    assert main(["solve", "--problem", "feasibility", "--s", "nan"]) == 2
    assert "s must be a positive integer or inf" in capsys.readouterr().err


@pytest.mark.parametrize("flags,spec,label", [
    (["--variant", "symmetric", "--s", "100"],
     SolverSpec(kind="a3dmm", s=100, variant="symmetric"), "a3dmm"),
    (["--variant", "relaxed", "--phi", "1.5"], SolverSpec(variant="relaxed", phi=1.5),
     "relaxed(1.5)"),
], ids=["symmetric-a3dmm", "relaxed"])
def test_solve_is_run_spec_of_its_flags(flags, spec, label, tmp_path):
    code = main(["solve", "--gamma", "1", "--tol", "1e-9", "--m", "16", "--n", "48",
                 "--sparsity", "4", *flags, "--out", str(tmp_path)])
    assert code == 0
    instance = make_lasso(m=16, n=48, sparsity=4, mu=1.0, seed=0)
    compute_reference(instance, 1.0, 1e-9, RunConfig().max_iter)
    expected = run_spec(instance, spec, 1.0, 1e-9, RunConfig().max_iter, label=label)
    assert expected.trace.meta["solver"] == label
    assert expected.trace.meta["variant"] == spec.variant
    assert_same_run(tmp_path / "trace.csv", expected, tmp_path)


def test_unknown_flag_is_usage_error(capsys):
    assert main(["solve", "--bogus", "1"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["solve", "--s", "zero.5"]) == 2


@pytest.mark.parametrize("argv", [
    ["inpaint", "--size", "8", "--iters", "0"],
    ["solve", "--q", "40", "--s", "inf"],
    ["solve", "--variant", "relaxed", "--phi", "3"],
    ["bench", "--solvers", ""],
    ["inpaint", "--size", "8", "--mask-density", "0"],
    ["inpaint", "--size", "4", "--mask-density", "0.001"],
    ["bench", "--problem", "feasibility", "--alpha", "0"],
    ["solve", "--m", "0"],
    ["bench", "--gamma", "-1"],
    ["solve", "--gamma", "-1"],
    ["bench", "--config", os.path.join(os.path.dirname(__file__), "..", "configs", "lasso.cfg"),
     "--gamma", "abc"],
    ["solve", "--gamma", "abc"],
    ["solve", "--problem", "feasibility", "--gamma", "K2/10"],
    ["bench", "--problem", "tv", "--gamma", "K2+0.1"],
    ["bench", "--config", os.path.join(os.path.dirname(__file__), "..", "configs", "lasso.cfg"),
     "--tol", "nan"],
    ["bench", "--problem", "lasso", "--tol", "inf", "--max-iter", "5"],
    ["solve", "--tol", "inf"],
    ["bench", "--problem", "qp", "--n", "0"],
    ["solve", "--problem", "qp", "--n", "0"],
    ["bench", "--problem", "tv", "--size", "1"],
    ["inpaint", "--size", "0", "--iters", "3"],
    # flags and config keys that the subcommand would not read
    ["bench", "--variant", "symmetric"],
    ["angles", "--s", "inf"],
    ["inpaint", "--tol", "5"],
    ["spectra", "--problem", "tv"],
    ["solve", "--q", "3"],
    ["solve", "--phi", "1.9"],
    ["bench", "--config", os.path.join(os.path.dirname(__file__), "data", "variant.cfg")],
    ["angles", "--window", "0"],
    ["angles", "--window", "-5"],
    # an image that cannot be read or decoded
    ["inpaint", "--image", os.path.join(os.path.dirname(__file__), "data", "missing.pgm")],
    ["inpaint", "--image", os.path.join(os.path.dirname(__file__), "data", "truncated.pgm")],
    # size flags that the problem would not read
    ["bench", "--problem", "qp", "--m", "7", "--sparsity", "3"],
    ["bench", "--problem", "bp-l12", "--sparsity", "3"],
    ["bench", "--problem", "bp-nuclear", "--m", "10"],
    # problem knobs that the problem would not read
    ["bench", "--problem", "qp", "--mu", "3", "--alpha", "0.2", "--size", "9",
     "--mask-density", "0.3"],
    ["bench", "--problem", "tv", "--mu", "2"],
    ["solve", "--problem", "lasso", "--alpha", "0.5"],
    ["angles", "--problem", "feasibility", "--mask-density", "0.3"],
    # non-finite momentum
    ["bench", "--problem", "feasibility", "--solvers", "iadmm(nan)"],
    ["bench", "--problem", "feasibility", "--solvers", "iadmm(inf)"],
    ["bench", "--problem", "feasibility", "--solvers", "iadmm(0.3,nan)"],
    # two specs with one label, whose traces would share a file
    ["bench", "--problem", "feasibility", "--solvers", "admm;iadmm(0.3);iadmm(0.30)"],
    # a budget too short for one window of angle samples
    ["angles", "--problem", "feasibility", "--tol", "0", "--max-iter", "20"],
], ids=["inpaint-iters", "solve-q", "solve-phi", "bench-no-solvers", "inpaint-density",
        "inpaint-no-pixel-observed", "bench-alpha", "solve-m", "bench-gamma", "solve-gamma",
        "bench-gamma-text", "solve-gamma-text", "solve-gamma-rule-without-norm",
        "bench-gamma-rule-without-norm", "bench-tol-nan", "bench-tol-inf", "solve-tol-inf",
        "bench-qp-n", "solve-qp-n", "bench-tv-size", "inpaint-size", "bench-variant",
        "angles-s", "inpaint-tol", "spectra-problem", "solve-q-without-s",
        "solve-phi-without-relaxed",
        "bench-config-variant", "angles-window-0", "angles-window-negative",
        "inpaint-missing-image", "inpaint-truncated-image", "bench-qp-m-sparsity",
        "bench-bp-l12-sparsity", "bench-bp-nuclear-m", "bench-qp-problem-knobs",
        "bench-tv-mu", "solve-lasso-alpha", "angles-feasibility-mask-density",
        "bench-iadmm-nan", "bench-iadmm-inf", "bench-iadmm-b-nan", "bench-repeated-label",
        "angles-budget-below-window"])
def test_out_of_range_values_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "failure" not in err


def test_inpaint_refuses_a_size_beside_an_image(tmp_path, capsys):
    path = tmp_path / "ramp.pgm"
    path.write_bytes(b"P5 6 6 255\n" + bytes(range(0, 216, 6)))
    assert main(["inpaint", "--image", str(path), "--size", "40", "--iters", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: size:")
    assert main(["inpaint", "--image", str(path), "--iters", "1"]) == 0
    assert "tv-inpaint(size=6," in capsys.readouterr().out


def test_run_config_defaults_live_in_run_config():
    assert _run_config_from(build_parser().parse_args(["bench"])) == RunConfig()


def test_bad_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense_key = 3\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text("problem\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment line
problem = feasibility
alpha = 0.7853981633974483
gamma = 1
tol = 1e-10
max_iter = 400
seed = 3
""")
    values = parse_config_file(cfg, {"problem", "alpha", "gamma", "tol", "max_iter", "seed"})
    assert values["problem"] == "feasibility"
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    trace = read_trace_csv(out / "trace.csv")
    assert trace.meta["problem"].startswith("feasibility")
    # flag overrides the file value
    out2 = tmp_path / "out2"
    code = main(["solve", "--config", str(cfg), "--max-iter", "7",
                 "--tol", "1e-30", "--out", str(out2)])
    assert code == 0
    trace = read_trace_csv(out2 / "trace.csv")
    assert trace.rows[-1].k == 7


def test_bench_subcommand(tmp_path, capsys):
    code = main(["bench", "--problem", "feasibility", "--alpha", "1.0471975511965976",
                 "--gamma", "1", "--tol", "1e-10", "--max-iter", "500",
                 "--solvers", "admm; iadmm(0.3)", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "admm" in out and "iadmm(0.3)" in out
    assert (tmp_path / "dist_z.svg").exists()
    [line] = [l for l in out.splitlines() if "reference" in l]
    assert re.fullmatch(r"  reference: iters=\d+  stop=tol  extrapolated=\d+", line)
    solver_lines = [l for l in out.splitlines() if "iters=" in l and "reference" not in l]
    assert len(solver_lines) == 2
    for line in solver_lines:
        match = re.fullmatch(r"  (i?admm(?:\(0\.3\))?) +iters= +\d+  stop=tol {5}"
                             r"wall= *(\d+\.\d\d) ms  \|\|v\|\|=\S+  "
                             r"dist_x<=1e-6 at k=(\d+) in (\d+\.\d\d) ms", line)
        assert match, line
        # both times are read off the trace's ms column
        label, wall, k, reach_ms = match.groups()
        rows = read_trace_csv(tmp_path / f"{trace_file_name(label)}.csv").rows
        assert wall == f"{rows[-1].ms:.2f}"
        assert reach_ms == f"{rows[int(k) - 1].ms:.2f}"


def test_bench_reports_a_budget_stop(capsys):
    # a run cut off by --max-iter still exits 0, but each solver line says so
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "lasso.cfg")
    assert main(["bench", "--config", cfg, "--max-iter", "20"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines()
             if "iters=" in l and "reference" not in l]
    assert len(lines) == 4
    for line in lines:
        assert re.fullmatch(r"  \S+ +iters= +20  stop=budget  wall= *\d+\.\d\d ms  "
                            r"\|\|v\|\|=\S+  dist_x>1e-6", line), line


def test_bench_reports_a_reference_at_the_rounding_floor(capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "lasso_spiral.cfg")
    assert main(["bench", "--config", cfg, "--solvers", "admm"]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines() if "reference" in l]
    match = re.fullmatch(r"  reference: iters=(\d+)  stop=floor  extrapolated=(\d+)", line)
    assert int(match.group(1)) < 4000  # the budget is 10 * max_iter
    assert int(match.group(2)) > 0  # a LASSO solution is unique: the reference is accelerated


def test_bench_with_a_reference_stopped_on_its_budget_fails(capsys):
    # no distance to a point the reference did not solve for means anything
    assert main(["bench", "--problem", "lasso", "--gamma", "1e300", "--max-iter", "20"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert any(re.fullmatch(r"  reference: iters=200  stop=budget  extrapolated=\d+", l)
               for l in lines)
    solver_lines = [l for l in lines if "iters=" in l and "reference" not in l]
    assert len(solver_lines) == 4
    assert all(line.endswith("  dist_x n/a") for line in solver_lines), solver_lines
    assert "failure: the reference stopped on its budget" in captured.err


def test_bench_prints_the_certificate_of_a_reference_that_has_one(capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "bp_l1.cfg")
    assert main(["bench", "--config", cfg, "--solvers", "admm"]) == 0
    lines = capsys.readouterr().out.splitlines()
    [line] = [l for l in lines if l.startswith("  certificate:")]
    assert lines.index(line) == 2  # right below the reference line
    assert re.fullmatch(r"  certificate: gap=\S+  residual=\S+  bound=1e-06  pass", line)
    assert main(["bench", "--problem", "qp", "--solvers", "admm"]) == 0  # no certificate
    assert "certificate" not in capsys.readouterr().out


@pytest.mark.parametrize("problem", ["lasso", "bp-l1", "bp-nuclear"])
def test_bench_at_a_loose_tolerance_certifies_its_reference_to_1e_6(problem, capsys):
    # the reference stops at ||v|| <= 1e-8 whatever the solvers' tolerance
    assert main(["bench", "--problem", problem, "--tol", "1e-3", "--solvers", "admm"]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines() if l.startswith("  certificate:")]
    assert re.fullmatch(r"  certificate: gap=\S+  residual=\S+  bound=1e-06  pass", line)


def test_bench_at_a_huge_tolerance_certifies_a_reference_no_solver_reaches(capsys):
    # every solver stops at k = 1, on x = 0, which a reference held to the
    # solvers' tolerance would certify and call within 1e-6 of the solution
    assert main(["bench", "--problem", "lasso", "--tol", "1e300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(re.fullmatch(r"  reference: iters=\d+  stop=tol  extrapolated=\d+", l)
               for l in lines)
    [line] = [l for l in lines if l.startswith("  certificate:")]
    assert re.fullmatch(r"  certificate: gap=\S+  residual=\S+  bound=1e-06  pass", line)
    solver_lines = [l for l in lines if "iters=" in l and "reference" not in l]
    assert len(solver_lines) == 4
    assert all(re.search(r"iters=\s+1  stop=tol .*  dist_x>1e-6$", l) for l in solver_lines), \
        solver_lines


def test_bench_with_a_reference_that_fails_its_certificate_fails(capsys):
    # at gamma = 1e-300 every run stops at k = 1 with x = 0, which is not the
    # solution: a tolerance on ||v|| alone would call it solved
    assert main(["bench", "--problem", "lasso", "--gamma", "1e-300"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert "  reference: iters=1  stop=tol  extrapolated=0" in lines
    [line] = [l for l in lines if l.startswith("  certificate:")]
    assert re.fullmatch(r"  certificate: gap=2\.21\de-01  residual=\S+  bound=1e-06  FAIL", line)
    solver_lines = [l for l in lines if "iters=" in l and "reference" not in l]
    assert len(solver_lines) == 4
    assert all(line.endswith("  dist_x n/a") for line in solver_lines), solver_lines
    assert "failure: the reference failed its certificate" in captured.err


@pytest.mark.parametrize("flags,code,verdict", [
    (["--problem", "lasso", "--gamma", "1e-300"], 1, "FAIL"),
    (["--problem", "bp-l1"], 0, "pass"),
], ids=["uncertified-lasso", "bp-l1"])
def test_solve_prints_its_reference_and_fails_when_it_solved_nothing(flags, code, verdict,
                                                                     tmp_path, capsys):
    # at gamma = 1e-300 the solve stops at k = 1 with x = 0: converged on ||v||,
    # yet no solution, which only the reference's certificate tells
    assert main(["solve", *flags, "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert re.fullmatch(r"  reference: iters=\d+  stop=tol  extrapolated=\d+", lines[1])
    assert re.fullmatch(rf"  certificate: gap=\S+  residual=\S+  bound=1e-06  {verdict}",
                        lines[2])
    assert read_trace_csv(tmp_path / "trace.csv").rows  # the trace is written either way
    assert ("failure: the reference failed its certificate" in captured.err) == (code == 1)


def test_bench_against_a_reference_stopped_on_its_budget_writes_no_distances(tmp_path, capsys):
    # the files alone must not show a solved run: empty distance cells, no dist_z plot
    assert main(["bench", "--problem", "lasso", "--gamma", "1e300", "--max-iter", "20",
                 "--out", str(tmp_path)]) == 1
    paths = sorted(tmp_path.glob("*.csv"))
    assert len(paths) == 4
    for path in paths:
        rows = read_trace_csv(path).rows
        assert len(rows) == 20
        assert all(r.dist_z is None and r.dist_x is None for r in rows), path
        assert all(np.isfinite(r.norm_v) for r in rows), path
    assert not (tmp_path / "dist_z.svg").exists()
    assert (tmp_path / "cos_theta.svg").exists()


def test_angles_subcommand(tmp_path, capsys):
    code = main(["angles", "--problem", "feasibility", "--alpha",
                 "1.0471975511965976", "--gamma", "1", "--tol", "0",
                 "--max-iter", "300", "--window", "50", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "spiral" in out
    instance = make_feasibility(alpha=1.0471975511965976, seed=0)
    assert_same_run(tmp_path / "angles.csv",
                    run_spec(instance, SolverSpec(), 1.0, 0.0, 300), tmp_path)


def test_angles_reports_an_undetermined_trajectory_without_estimates(capsys):
    # a stagnated run: most angle samples are absent, so no mean or band
    code = main(["angles", "--problem", "feasibility", "--alpha", "1.0", "--tol", "0",
                 "--max-iter", "60", "--window", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trajectory: undetermined" in out
    assert "mean=n/a, half-band=n/a" in out


def test_angles_run_that_stops_short_of_the_window_is_a_runtime_failure(capsys):
    code = main(["angles", "--problem", "feasibility", "--tol", "1e-6", "--max-iter", "2000",
                 "--window", "2000"])
    assert code == 1
    assert "failure" in capsys.readouterr().err


def test_spectra_subcommand(tmp_path, capsys):
    code = main(["spectra", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "regime_map.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "re_eta,im_eta,a,rho_abs,accelerates,converges"


def test_inpaint_subcommand(tmp_path, capsys):
    code = main(["inpaint", "--size", "16", "--mask-density", "0.6",
                 "--iters", "8", "--seed", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PSNR" in out
    assert (tmp_path / "inpaint_admm.csv").exists()


def test_inpaint_from_pgm(tmp_path):
    img = (np.linspace(0, 255, 64).astype(int) % 256).reshape(8, 8)
    body = " ".join(str(v) for v in img.ravel())
    pgm = tmp_path / "img.pgm"
    pgm.write_text(f"P2 8 8 255\n{body}\n")
    out = tmp_path / "out"
    code = main(["inpaint", "--image", str(pgm), "--iters", "4",
                 "--mask-density", "0.7", "--out", str(out)])
    assert code == 0
    instance = make_tv_inpainting(image=load_pgm(pgm.read_bytes()), mask_density=0.7)
    for spec in RunConfig().solvers:
        name = trace_file_name(spec.label)
        assert_same_run(out / f"inpaint_{name}.csv",
                        run_spec(instance, spec, 1.0, 0.0, 4), tmp_path)


def test_runtime_failure_exit_code(tmp_path, capsys):
    # an output directory that cannot be made fails at run time, after the checks
    (tmp_path / "taken").write_text("a file, not a directory\n")
    code = main(["inpaint", "--size", "8", "--iters", "1", "--out", str(tmp_path / "taken")])
    assert code == 1
    assert "failure" in capsys.readouterr().err


class ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_is_not_a_runtime_failure(tmp_path, capsys, monkeypatch):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["solve", "--gamma", "1", "--tol", "1e-9", "--m", "16", "--n", "48",
                     "--sparsity", "4", "--out", str(tmp_path)])
    finally:
        os.close(fd)
    assert code == EXIT_BROKEN_PIPE == 141
    assert "failure" not in capsys.readouterr().err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_pipe_exits_quietly(unbuffered, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    try:
        proc = subprocess.run(
            [sys.executable, *(["-u"] if unbuffered else []), "-m", "admmkit.cli", "solve",
             "--gamma", "1", "--m", "16", "--n", "48", "--sparsity", "4",
             "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
