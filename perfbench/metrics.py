"""Names and units of the benchmark's metrics; BENCHMARK.json lists the same."""

SOLVER_KEYS = ("admm", "iadmm", "a3dmm-100", "a3dmm-inf")
WORKLOADS = ("lasso-wide", "tv-inpaint", "desk-mix")

END_TO_END = (
    [("setup_s", "s"), ("reference_s", "s")]
    + [(f"solve_s.{k}", "s") for k in SOLVER_KEYS]
    + [(f"iters.{k}", "count") for k in SOLVER_KEYS]
    + [("total_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio")]
)

PER_LAYER = [
    ("problems.build_s", "s"),
    ("problems.operator_norm_calls", "count"),
    ("problems.operator_norm_share", "ratio"),
    ("prox.factorizations", "count"),
    ("prox.factor_share", "ratio"),
    ("prox.factor_mb", "MB"),
    ("prox.y_calls", "count"),
    ("prox.y_s", "s"),
    ("prox.x_calls", "count"),
    ("prox.x_s", "s"),
    ("prox.linmap_calls", "count"),
    ("prox.linmap_s", "s"),
    ("prox.x_linmap_calls", "count"),
    ("splitting.steps", "count"),
    ("splitting.step_self_s", "s"),
    ("extrapolate.fits", "count"),
    ("extrapolate.fit_s", "s"),
    ("extrapolate.predict_s", "s"),
    ("extrapolate.push_s", "s"),
    ("extrapolate.accept_ratio", "ratio"),
    ("spectra.angle_s", "s"),
    ("spectra.spiral_share", "ratio"),
    ("trace.objective_s", "s"),
    ("trace.append_s", "s"),
    ("a3dmm.loop_self_s", "s"),
    ("bench.reference_iters", "count"),
    ("bench.write_s", "s"),
    ("bench.untraced_total_s", "s"),
    ("bench.trace_overhead_s", "s"),
]
