"""Benchmark of regsing: time to a verified result on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
``src`` directory and nowhere else.  One process runs one workload as a
closed loop: each operation (a solve, a monodromy loop, a bootstrap, one
CLI invocation) starts when the previous one has been checked.  Operations
come in whole cycles over a fixed mix of strata until the timed calls have
used ``--seconds`` of scaled time (below), so every run measures the same
mix.

Only the call is timed.  Every result is then checked against an oracle
that does not use the code being measured; ``op_p50_ms`` and
``op_tail_ms`` cover the operations that passed, plus those whose only
fault is a known defect in a reported invariant.  With ``--trace 1`` the
same operations run twice, untraced and then traced, and the run reports
per-operation layer metrics and the tracing overhead instead.

The speed of a shared virtual machine swings by up to 2x for tens of
seconds at a time, with CPU time equal to wall time, which no run length
within budget averages out.  So a short speed probe (a fixed loop that does
not touch regsing) runs right before and after every timed call, the process
and its children stay on one CPU, and the reported times are wall times
scaled to a probe of ``PROBE_REF_MS``: ``wall * PROBE_REF_MS / probe``.  The
raw wall-time figures are printed and stored next to them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
with every generated input, each failure, the machine record and, when
tracing, the spans goes to ``bench/results/``.  ``--all`` runs each
workload in its own process, prints one table and rewrites
``BENCHMARK.json`` from ``bench/spec.py``.
"""

import os

# One BLAS/OpenMP thread for this process and its children; must be set
# before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spec  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5       # set-ups before the first cycle; one more after each
PROBE_REF_MS = 1.5      # probe time the reported times are scaled to
TRACE_SHARE = 8         # a traced run measures seconds / TRACE_SHARE untraced
TAIL_BEYOND = 10        # the tail percentile keeps this many operations beyond
CHILD_TIMEOUT_S = 600


def _import_package():
    """Import regsing from this checkout's ``src``, or stop with an error."""
    init = SRC / "regsing" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init.relative_to(ROOT)} not found; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import regsing
    if Path(regsing.__file__).resolve() != init.resolve():
        sys.exit(f"bench: regsing imported from {regsing.__file__}, "
                 f"not from {init}")


# -- machine record -----------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_record():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


_LOOP_MATRIX = np.eye(6) + np.arange(36.0).reshape(6, 6) / 360.0


def _speed_loop_ms(n_python, n_solve):
    """Time of a fixed interpreter-and-numpy loop that does not touch
    regsing, so a change in it is a change in machine speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(n_python):
        acc += math.sin(i * 1e-3)
    b = np.ones(6)
    for _ in range(n_solve):
        b = np.linalg.solve(_LOOP_MATRIX, b)
        b /= np.abs(b).max()
    return 1e3 * (time.perf_counter() - t0)


def probe_ms():
    """A millisecond or two of the loop, run next to every timed call."""
    return _speed_loop_ms(2000, 100)


def calibration_ms(repeats=7):
    """Median of a longer run of the loop, before and after a workload."""
    return statistics.median(_speed_loop_ms(50000, 2500)
                             for _ in range(repeats))


# -- running operations -------------------------------------------------------

def run_op(op, op_id, phase, tracer=None):
    """Time one call between two probes, then check its result outside the
    timed region."""
    result, failure = None, None
    probe_before = probe_ms()
    if tracer is not None:
        tracer.op_id = op_id
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        failure = {"code": "raised", "detail": _exception_text(exc)}
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    probe = 0.5 * (probe_before + probe_ms())
    if failure is None:
        try:
            found = op.check(result)
            if found is not None:
                failure = {"code": found.code, "detail": found.detail}
        except Exception as exc:  # a result the oracle cannot read
            failure = {"code": "check_raised", "detail": _exception_text(exc)}
    return {"id": op_id, "phase": phase, "stratum": op.stratum,
            "inputs": op.inputs, "wall_s": elapsed, "probe_ms": probe,
            "time_s": elapsed * PROBE_REF_MS / probe, "ok": failure is None,
            "failure": failure}


def _exception_text(exc):
    return "".join(traceback.format_exception_only(exc)).strip()


def measure(wl, seconds, min_cycles, after_cycle=None):
    """Whole cycles until the timed calls have used ``seconds`` of scaled
    time, so the work done does not depend on the machine's speed; returns
    the operations, their records and the number of cycles."""
    ops, records = [], []
    used = 0.0
    c = 0
    while c < min_cycles or used < seconds:
        for op in wl.cycle(c):
            records.append(run_op(op, len(ops), "timed"))
            used += records[-1]["time_s"]
            ops.append(op)
        c += 1
        if after_cycle is not None:
            after_cycle()
    return ops, records, c


def timed_setup(wl):
    """Wall and scaled time of one set-up."""
    probe_before = probe_ms()
    t0 = time.perf_counter()
    wl.setup()
    wall = time.perf_counter() - t0
    probe = 0.5 * (probe_before + probe_ms())
    return {"wall_s": wall, "time_s": wall * PROBE_REF_MS / probe}


def tail(times):
    """Highest percentile with TAIL_BEYOND operations beyond it."""
    xs = sorted(times)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _timing(records, setups, key, known):
    """op_p50_ms, op_tail_ms, ops_per_s and setup_s from the times under
    ``key``, with the tail's percentile and sample count.

    The median and the tail cover the calls that passed and those whose
    only fault is a known defect in a reported invariant (their main
    result passed its oracle); leaving the latter out would make the tail
    depend on how many of them fail.  ops_per_s counts passed calls only.
    """
    timed = [r for r in records if r["phase"] == "timed"]
    n_passed = sum(r["ok"] for r in timed)
    times = ([r[key] for r in timed
              if r["ok"] or r["failure"]["code"] in known]
             or [r[key] for r in timed])
    tail_s, pct = tail(times)
    values = {"op_p50_ms": 1e3 * statistics.median(times),
              "op_tail_ms": 1e3 * tail_s,
              "ops_per_s": n_passed / sum(r[key] for r in timed),
              "setup_s": statistics.median(s[key] for s in setups)}
    return values, pct, len(times)


def end_to_end(records, setups, peak_rss_mb, known):
    values, pct, n_times = _timing(records, setups, "time_s", known)
    n_ok = sum(r["ok"] for r in records)
    values.update({"pass_frac": n_ok / len(records),
                   "peak_rss_mb": peak_rss_mb})
    wall, _, _ = _timing(records, setups, "wall_s", known)
    info = {"tail_percentile": pct, "tail_ops": n_times,
            "fail_frac": 1.0 - n_ok / len(records),
            "probe_ms": statistics.median(r["probe_ms"] for r in records),
            "wall": wall}
    return {n: values[n] for n, _, _, _ in spec.END_TO_END}, info


def run_workload(name, seed, seconds, trace):
    import tracing
    import workloads

    RESULTS.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, trace=bool(trace))
    # Set-ups repeated between cycles use a twin, so the measured objects
    # keep their warm caches; spread over the run, they see the same
    # machine as the operations do.
    twin = None if trace else workloads.WORKLOADS[name](seed)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_record(),
              "parameters": wl.parameters}
    # one CPU for this process and its children, so that each probe
    # measures the CPU its timed call ran on
    report["machine"]["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {report["machine"]["pinned_cpu"]})
    try:
        calib_before = calibration_ms()
        tracer = tracing.Tracer() if trace else None
        if trace:
            # the set-up itself is traced once, as op -1
            tracer.install()
            tracer.enabled = True
            try:
                setups = [timed_setup(wl)]
            finally:
                tracer.enabled = False
                tracer.uninstall()
            tracer.counts.clear()
        else:
            setups = [timed_setup(wl) for _ in range(SETUP_REPEATS)]
        records = [run_op(op, -1 - i, "warmup")
                   for i, op in enumerate(wl.warmup_ops())]
        # tracing keeps every span in memory, so the traced share is short
        budget = seconds / TRACE_SHARE if trace else seconds
        ops, timed, cycles = measure(
            wl, budget, 1 if trace else wl.min_cycles,
            None if trace else lambda: setups.append(timed_setup(twin)))
        records += timed
        if trace:
            tracer.install()
            try:
                traced = [run_op(op, len(ops) + i, "traced", tracer)
                          for i, op in enumerate(ops)]
            finally:
                tracer.uninstall()
            records += traced
            overhead = (sum(r["time_s"] for r in traced)
                        / sum(r["time_s"] for r in timed))
            spans = tracer.arrays()
            values = tracing.layer_metrics(tracer.names, spans, tracer.counts,
                                           len(traced), overhead)
            units = dict(spec.PER_LAYER)
            info = {}
        else:
            values, info = end_to_end(records, setups, wl.peak_rss_mb(),
                                      workloads.KNOWN_DEFECTS)
            units = {n: u for n, u, _, _ in spec.END_TO_END}
        calib_after = calibration_ms()
        report.update(wl.report())
    finally:
        wl.close()
        if twin is not None:
            twin.close()

    failures = [r for r in records if not r["ok"]]
    for r in failures:
        r["failure"]["known"] = r["failure"]["code"] in workloads.KNOWN_DEFECTS
    correct = all(r["failure"]["known"] for r in failures)
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    report.update({
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "setup_s": setups, "cycles": cycles, "info": info,
        "metrics": values, "correct": correct, "records": records})
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if trace:
        np.savez_compressed(stem.with_suffix(".spans.npz"),
                            names=np.array(tracer.names), **spans)

    _print_summary(report, failures, units)
    print(f"report: {stem.with_suffix('.json').relative_to(ROOT)}")
    return {"correct": correct, "attempted": len(records),
            "failed": len(failures),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()}}


def _print_summary(report, failures, units):
    m = report["machine"]
    threads = " ".join(f"{k}={v}" for k, v in m["threads"].items())
    print(f"regsing benchmark: {report['workload']}, seed {report['seed']}, "
          f"{report['seconds']} s, trace {report['trace']}")
    print(f"machine: Python {m['python']}, numpy {m['numpy']} ({m['blas']}), "
          f"{m['cpu']}, nproc {m['nproc']}, affinity {m['affinity']}, "
          f"{threads}")
    cal = report["calibration_ms"]
    print(f"calibration loop: {cal['before']:.2f} ms before, "
          f"{cal['after']:.2f} ms after; pinned to CPU {m['pinned_cpu']}")
    recs = report["records"]
    print(f"operations: {len(recs)} in {report['cycles']} cycles "
          f"(warm-up {sum(r['phase'] == 'warmup' for r in recs)}), "
          f"{len(failures)} failed")
    info = report["info"]
    for name, value in report["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{info['tail_percentile']:.1f} of "
                    f"{info['tail_ops']} timed ops)")
        print(f"  {name:36s} {value:.6g} {units[name]}{note}")
        if name == "pass_frac":
            print(f"  {'fail_frac':36s} {info['fail_frac']:.6g} ratio")
    if "wall" in info:
        print(f"unscaled wall times (median probe {info['probe_ms']:.3f} ms, "
              f"scale reference {PROBE_REF_MS} ms):")
        for name, value in info["wall"].items():
            print(f"  {'wall ' + name:36s} {value:.6g} {units[name]}")
    for r in failures:
        known = " (known defect)" if r["failure"]["known"] else ""
        print(f"failed op {r['id']} {r['stratum']} "
              f"{json.dumps(r['inputs'])}: {r['failure']['code']}: "
              f"{r['failure']['detail']}{known}")
    for name, d in report.get("digests", {}).items():
        print(f"sha256 {name}: {d['sha256']} ({d['status']})")


# -- all workloads ------------------------------------------------------------

def run_all(seed, seconds, trace):
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n")
    results = {}
    for name in spec.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print()
    names = list(results)
    print(f"{'metric':38s}" + "".join(f"{n:>16s}" for n in names))
    rows = [("fail_frac", "ratio",
             {n: r["failed"] / r["attempted"] for n, r in results.items()})]
    for metric in next(iter(results.values()))["metrics"]:
        rows.append((metric, results[names[0]]["metrics"][metric]["unit"],
                     {n: r["metrics"][metric]["value"]
                      for n, r in results.items()}))
    for metric, unit, by_name in rows:
        print(f"{metric + ' [' + unit + ']':38s}"
              + "".join(f"{by_name[n]:16.6g}" for n in names))
    print("correct: " + ", ".join(
        f"{n} {r['correct']} ({r['failed']}/{r['attempted']} failed)"
        for n, r in results.items()))
    print("wrote BENCHMARK.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(spec.WORKLOADS))
    ap.add_argument("--all", action="store_true",
                    help="run every workload and rewrite BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    _import_package()
    if args.all:
        run_all(args.seed, args.seconds, args.trace)
        return
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
