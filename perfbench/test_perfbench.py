"""Tests of the benchmark's own arithmetic, wrappers and metric names."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import spantrace
from metrics import END_TO_END, PER_LAYER
from pace import PROBE_GAP_S, Pace

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_sequential_children():
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6] under the second
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert spantrace.self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0, 7.0]
    ends = [10.0, 5.0, 4.0, 8.0]
    parents = [-1, 0, 0, 0]
    # covered: [1, 5] and [7, 8] -> 5
    assert spantrace.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_parent_and_accepts_any_order():
    starts = [3.0, 0.0, 9.0]
    ends = [6.0, 10.0, 12.0]
    parents = [1, -1, 1]  # the child ending at 12 sticks out of its parent
    assert spantrace.self_times(starts, ends, parents) == [3.0, 6.0, 3.0]


def test_recorder_nests_spans_and_counts_within():
    ticks = iter(range(100))
    rec = spantrace.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("leaf", lambda x: x + 1)
    outer = rec.wrap("mid", lambda x: inner(x) + inner(x))
    with rec.span("root"):
        assert outer(1) == 4
    inner(0)
    assert rec.names == ["root", "mid", "leaf", "leaf", "leaf"]
    assert list(rec.parents) == [-1, 0, 1, 1, -1]
    summary = spantrace.summarize(rec)
    assert summary["leaf"]["count"] == 3
    assert summary["mid"]["self_s"] == summary["mid"]["total_s"] - 2.0
    assert spantrace.count_within(rec, "leaf", "root") == 2
    assert spantrace.count_within(rec, "leaf", "mid") == 2


def test_wrapper_adds_result_bytes():
    rec = spantrace.SpanRecorder()
    fn = rec.wrap("alloc", lambda n: bytes(n), result_bytes=len)
    fn(3)
    fn(5)
    assert rec.bytes == {"alloc": 8}


def test_pace_parts_are_finite_and_set_the_nominal_time():
    p = Pace()
    assert p.nominal_s == pytest.approx(0.001 * len(Pace.PARTS))
    for part in p.parts:
        assert np.all(np.isfinite(part()))
    assert Pace(("short_vectors",)).nominal_s == pytest.approx(0.001)


def test_paced_time_scales_by_the_probes_around_the_stage():
    p = Pace()
    p.starts = [0.0, 5.0, 9.0, 9.2, 9.4]
    p.ends = [1.0, 6.0, 9.1, 9.3, 9.5]
    p.seconds = [0.002, 0.006, 0.001, 0.003, 0.009]
    # [2, 4] lies between probe 0 (ended at 1) and probe 1 (started at 5)
    assert p.local(2.0, 4.0) == pytest.approx(0.004)
    assert p.paced(2.0, 4.0) == pytest.approx(2.0 * p.nominal_s / 0.004)
    # [6.1, 8.8]: probe 1 before it, and probes 2 and 3 start within the window after it
    assert p.local(6.1, 8.8) == pytest.approx(0.003)
    # with probes on one side only, those alone set the pace
    assert p.local(11.0, 12.0) == 0.009
    p.starts, p.ends, p.seconds = [], [], []
    with pytest.raises(ValueError):
        p.local(0.0, 1.0)


def test_stages_probe_only_once_the_gap_has_passed():
    now = [0.0]
    p = Pace(clock=lambda: now[0])
    for t in (0.0, PROBE_GAP_S / 2, PROBE_GAP_S * 1.5, PROBE_GAP_S * 1.7):
        now[0] = t
        p.before_stage()
    assert p.starts == [0.0, PROBE_GAP_S * 1.5]


class _Exact:
    dim, name = 3, "exact"

    def evaluate(self, w, gamma):
        return w


class _Inexact(_Exact):
    name = "inexact"

    def __init__(self):
        self.calls = []

    def configure(self, inner):
        self.calls.append(("configure", inner))

    def reset(self):
        self.calls.append(("reset",))


def test_oracle_proxy_forwards_configure_and_reset_only_when_present():
    rec = spantrace.SpanRecorder()
    exact = spantrace.OracleProxy(_Exact(), "prox.y", rec)
    assert not hasattr(exact, "configure") and not hasattr(exact, "reset")
    assert (exact.dim, exact.name, exact.evaluate(7, 1.0)) == (3, "exact", 7)
    oracle = _Inexact()
    inexact = spantrace.OracleProxy(oracle, "prox.x", rec)
    inexact.configure("budget")
    inexact.reset()
    assert oracle.calls == [("configure", "budget"), ("reset",)]
    assert rec.names == ["prox.y"]


def _rows(trace):
    return [(r.k, r.norm_v, r.cos_theta, r.dist_z, r.dist_x, r.objective, r.extrapolated)
            for r in trace.rows]


@pytest.mark.parametrize("config", [
    dict(problem="qp", n=12, gamma=0.5, tol=1e-10, max_iter=300),
    dict(problem="tv", size=8, inner_steps=5, gamma=1, tol=1e-6, max_iter=40),
])
def test_traced_solves_match_untraced_rows(config):
    from admmkit.bench import RunConfig, build_instance, compute_reference, run_solver
    import admmkit.a3dmm

    cfg = RunConfig(**config)

    def solve(recorder):
        inst = build_instance(cfg)
        if recorder is not None:
            spantrace.trace_oracles(inst.problem, recorder)
        compute_reference(inst, cfg.gamma, cfg.tol, cfg.max_iter)
        return [_rows(run_solver(inst, spec, cfg.gamma, cfg.tol, cfg.max_iter))
                for spec in cfg.solvers]

    plain = solve(None)
    original = admmkit.a3dmm.variant_step
    rec = spantrace.SpanRecorder()
    with spantrace.installed(rec):
        traced = solve(rec)
    assert admmkit.a3dmm.variant_step is original
    assert traced == plain
    assert {"splitting.step", "prox.x", "prox.y", "a3dmm.loop"} <= set(rec.names)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        assert listed == list(ours)
    names = [name for name, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert ("setup_s", "s") in END_TO_END
