"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --all`` rewrites it), so the two cannot drift.
"""

# Seconds of scaled call time per run.  A run takes 17-41 s of wall time on
# a 2-core VM, depending on its speed at the moment.
RUN_SECONDS = 16

# One line each: why the workload exists and which layer it loads.
WORKLOADS = {
    "profile_sweep":
        "harmonic/biharmonic shooting solves read at t_end; geometry RHS, "
        "expr.eval_real and rk stepping do the work",
    "monodromy_scan":
        "monodromy loops and log-cover transports at n = 2/4/8; "
        "expr.eval_complex dominates, no series or geometry code",
    "jet_bootstrap":
        "admissibility plus series bootstrap at K = 10/20/30; series "
        "compose/Series and expr.taylor, never the integrator",
    "cli_demos":
        "fresh regsing.cli processes on the demo configs and seeded "
        "variants; dense-output reads and residual checkers per sample",
}

# (name, unit, better, bound).  Times are wall times scaled by the speed
# probe next to each call (see run.py), as medians over the operations of a
# run; setup_s is the median of the set-ups of a run.  pass_frac stands in
# for the fail fraction, which is 0 on most workloads and so cannot carry a
# relative bound; its spread comes from the share of n = 8 systems whose
# charpoly fails, which varies with the seed.
END_TO_END = [
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("pass_frac", "ratio", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit).  Per-operation values from the traced run; "self" times
# exclude the time of traced calls made from inside the span.
PER_LAYER = [
    ("expr.eval_real.calls", "1/op"),
    ("expr.eval_real.self_s", "s/op"),
    ("expr.eval_complex.calls", "1/op"),
    ("expr.eval_complex.self_s", "s/op"),
    ("expr.taylor.calls", "1/op"),
    ("expr.taylor.self_s", "s/op"),
    ("expr.parse.self_s", "s/op"),
    ("series.Series.new", "1/op"),
    ("series.compose.calls", "1/op"),
    ("series.compose.self_s", "s/op"),
    ("series.eval_truncated.calls", "1/op"),
    ("rk.integrate.self_s", "s/op"),
    ("rk.rhs_calls", "1/op"),
    ("rk.rhs_s", "s/op"),
    ("rk.steps_accepted", "1/op"),
    ("rk.steps_rejected", "1/op"),
    ("rk.accept_ratio", "ratio"),
    ("rk.capped_steps", "1/op"),
    ("rk.dense_evals", "1/op"),
    ("rk.dense_s", "s/op"),
    ("linear.A_at.calls", "1/op"),
    ("linear.A_at.self_s", "s/op"),
    ("linear.monodromy_at.self_s", "s/op"),
    ("linear.conjugacy_invariants.self_s", "s/op"),
    ("linear.path_steps", "1/op"),
    ("singular.admissibility_s", "s/op"),
    ("singular.bootstrap_s", "s/op"),
    ("singular.integrate_s", "s/op"),
    ("singular.diagnostics_s", "s/op"),
    ("singular.handoff_t", "t"),
    ("singular.map_calls.float", "1/op"),
    ("singular.map_calls.jet", "1/op"),
    ("geometry.trace_drift.calls", "1/op"),
    ("geometry.trace_potential.calls", "1/op"),
    ("geometry.trace_direct_frac", "ratio"),
    ("geometry.P_at.calls", "1/op"),
    ("geometry.rhs_self_s", "s/op"),
    ("geometry.residual_s", "s/op"),
    ("geometry.pack_s", "s/op"),
    ("cli.run_s", "s/op"),
    ("cli.io_s", "s/op"),
    ("cli.output_bytes", "B/op"),
    ("setup.expr.parse_s", "s"),
    ("setup.geometry.pack_s", "s"),
    ("trace.overhead", "x"),
]

# Counts and ratios are better when higher only where they measure useful
# work; everything else here is cost.
_HIGHER = {"rk.accept_ratio"}


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u,
             "better": "higher" if n in _HIGHER else "lower"}
            for n, u in PER_LAYER],
    }
