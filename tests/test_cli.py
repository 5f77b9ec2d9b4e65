import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from admmkit.cli import (EXIT_BROKEN_PIPE, _run_config_from, build_parser, main,
                         parse_config_file)
from admmkit.bench import (RunConfig, SolverSpec, read_trace_csv, run_spec,
                           trace_file_name, write_trace_csv)
from admmkit.problems import load_pgm, make_feasibility, make_tv_inpainting


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
], ids=["inpaint-iters", "solve-q", "solve-phi", "bench-no-solvers", "inpaint-density",
        "inpaint-no-pixel-observed", "bench-alpha", "solve-m", "bench-gamma", "solve-gamma",
        "bench-gamma-text", "solve-gamma-text", "solve-gamma-rule-without-norm",
        "bench-gamma-rule-without-norm"])
def test_out_of_range_values_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "failure" not in err


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
    values = parse_config_file(cfg)
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
    assert re.fullmatch(r"  reference: iters=\d+  stop=tol", line)


def test_bench_reports_a_reference_at_the_rounding_floor(capsys):
    cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "lasso_spiral.cfg")
    assert main(["bench", "--config", cfg, "--solvers", "admm"]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines() if "reference" in l]
    iters = int(re.fullmatch(r"  reference: iters=(\d+)  stop=floor", line).group(1))
    assert iters < 4000  # the budget is 10 * max_iter


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
    # the image file is read only when the instance is built
    code = main(["inpaint", "--image", str(tmp_path / "missing.pgm")])
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
