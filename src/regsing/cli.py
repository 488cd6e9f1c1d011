"""Command line front end.

Subcommands consume a JSON config file and emit either a CSV table (the
solve commands) or a JSON report (monodromy, fundamental, check).  A solve
command with ``--out`` that solves for one parameter value also writes a
``*.summary.json`` sidecar echoing the config and the run diagnostics,
enough to reproduce the run; a sweep writes none.  Config keys
are validated strictly: unknown keys are errors, so typos fail loudly
instead of silently using defaults.

Exit codes: 0 success, 2 admissibility or validation rejection (reports
are still written), 3 config or expression parse errors, 4 numerical
failures, 5 output I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import geometry as _geo
from . import linear as _linear
from . import singular as _singular
from .errors import (AdmissibilityError, ConfigError, EvalDomainError,
                     ExprError, NumericalError, ParseError, RegsingError,
                     SeriesError, StructureError, ValidationError)

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _jsonify(obj):
    """JSON-encodable copy; complex numbers become [re, im] pairs."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_output(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", newline="") as fh:
        fh.write(text)


def _emit_csv(header, rows, out_path):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    _write_output(buf.getvalue(), out_path)


def _emit_json(obj, out_path):
    _write_output(json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n",
                  out_path)


def _summary_path(out_path) -> str:
    root, _ = os.path.splitext(out_path)
    return root + ".summary.json"


def _admissibility_dict(report) -> dict:
    return {
        "residual_norm": report.residual_norm,
        "offending_h": report.offending_h,
        "verdict": report.verdict,
        "tail_certified": report.tail_certified,
        "order": report.order,
    }


def _write_summary(args, cfg, effective, traj, residuals):
    """Sidecar JSON next to the CSV; skipped when writing to stdout.

    ``residuals`` holds every residual entry of the CSV rows.
    """
    if args.out is None:
        return
    diag = dict(traj.diagnostics)
    summary = {
        "command": args.command,
        "config": cfg,
        "effective": effective,
        "diagnostics": {k: v for k, v in diag.items()
                        if k != "admissibility"},
        "admissibility": _admissibility_dict(diag["admissibility"]),
        # np.max, not builtin max, so that a nan entry shows
        "residual_max": float(np.max(np.abs(np.asarray(residuals, float)))),
    }
    _emit_json(summary, _summary_path(args.out))


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _check_keys(cfg: dict, allowed, required, where: str):
    unknown = set(cfg) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _number(cfg, key, where, default=None, positive=False):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: '{key}' must be a number")
    if positive and v <= 0:
        raise ConfigError(f"{where}: '{key}' must be positive")
    return float(v)


def _integer(cfg, key, where, default=None):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: '{key}' must be an integer")
    return v


def _parse_sweep(spec, where: str) -> np.ndarray:
    """Accept a number or a 'start:stop:count' range string; the span
    ``stop - start`` must be finite, and nonzero when the count is above
    one."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        a, b, n = float(spec), float(spec), 1
    elif isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"{where}: sweep must look like 'start:stop:count'")
        try:
            a, b = float(parts[0]), float(parts[1])
            n = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: bad sweep '{spec}'") from exc
        if n < 1:
            raise ConfigError(f"{where}: sweep count must be >= 1")
    else:
        raise ConfigError(f"{where}: expected a number or sweep string")
    # b - a is finite only when both ends are and their span is too
    if not math.isfinite(b - a) or (n > 1 and a == b):
        raise ConfigError(f"{where}: sweep {spec!r} needs a finite span, "
                          "nonzero when the count is above 1")
    return np.array([a]) if n == 1 else np.linspace(a, b, n)


def _fd_slopes(xs, vals):
    """One-sided at the ends, central inside; nan for a single point."""
    n = len(xs)
    if n < 2:
        return [math.nan] * n
    out = []
    for i in range(n):
        lo = max(i - 1, 0)
        hi = min(i + 1, n - 1)
        out.append((vals[hi] - vals[lo]) / (xs[hi] - xs[lo]))
    return out


def _sample_grid(t_end: float, samples: int) -> np.ndarray:
    return np.linspace(t_end / samples, t_end, samples)


def _solver_options(cfg, args, where):
    tol = args.tol if args.tol is not None else \
        _number(cfg, "tol", where, default=1e-10, positive=True)
    order = args.order if args.order is not None else \
        _integer(cfg, "order", where, default=10)
    samples = _integer(cfg, "samples", where, default=33)
    if samples < 1:
        raise ConfigError(f"{where}: 'samples' must be >= 1")
    t_max = _number(cfg, "t_max", where, default=0.1, positive=True)
    return tol, order, samples, t_max


# -- solve commands ----------------------------------------------------------

_HARMONIC_KEYS = {"metric", "v", "t_end", "tol", "order", "samples", "t_max"}


def _cmd_solve_harmonic(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _HARMONIC_KEYS, {"metric", "v", "t_end"},
                "solve-harmonic")
    fam = _geo.build_metric_family(cfg["metric"])
    t_end = _number(cfg, "t_end", "solve-harmonic", positive=True)
    tol, order, samples, t_max = _solver_options(cfg, args, "solve-harmonic")
    effective = {"tol": tol, "order": order, "samples": samples,
                 "t_max": t_max}
    vs = _parse_sweep(cfg["v"], "solve-harmonic")
    if len(vs) == 1:
        sol = _geo.solve_harmonic(fam, float(vs[0]), t_end, tol=tol,
                                  order=order, t_max=t_max)
        rows = [(t, sol.r(t), sol.rdot(t), sol.residual(t))
                for t in _sample_grid(t_end, samples)]
        _emit_csv(["t", "r", "r_dot", "residual"], rows, args.out)
        _write_summary(args, cfg, effective, sol.traj,
                       [r[-1] for r in rows])
        if not args.quiet:
            d = sol.traj.diagnostics
            print(f"handoff {d['handoff']:.6g}, "
                  f"{d['steps_accepted']} steps, "
                  f"max residual {d['max_residual']:.3e}", file=sys.stderr)
        return EXIT_OK
    # family sweep: one row per v, plus a finite difference slope of r(T)
    ends = []
    for v in vs:
        sol = _geo.solve_harmonic(fam, float(v), t_end, tol=tol,
                                  order=order, t_max=t_max)
        ends.append((sol.r(t_end), sol.rdot(t_end),
                     sol.traj.diagnostics["max_residual"]))
    slopes = _fd_slopes(vs, [e[0] for e in ends])
    rows = [(v, *end, s) for v, end, s in zip(vs, ends, slopes)]
    _emit_csv(["v", "r_T", "r_dot_T", "max_residual", "dr_T_dv"],
              rows, args.out)
    return EXIT_OK


_BIHARMONIC_KEYS = {"metric", "v", "w", "t_end", "tol", "order", "samples",
                    "t_max"}


def _cmd_solve_biharmonic(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _BIHARMONIC_KEYS, {"metric", "v", "w", "t_end"},
                "solve-biharmonic")
    fam = _geo.build_metric_family(cfg["metric"])
    t_end = _number(cfg, "t_end", "solve-biharmonic", positive=True)
    tol, order, samples, t_max = _solver_options(cfg, args,
                                                 "solve-biharmonic")
    effective = {"tol": tol, "order": order, "samples": samples,
                 "t_max": t_max}
    vs = _parse_sweep(cfg["v"], "solve-biharmonic")
    ws = _parse_sweep(cfg["w"], "solve-biharmonic")
    if len(vs) == 1 and len(ws) == 1:
        sol = _geo.solve_biharmonic(fam, float(vs[0]), float(ws[0]), t_end,
                                    tol=tol, order=order, t_max=t_max)
        rows = []
        for t in _sample_grid(t_end, samples):
            res_r, res_f = sol.residuals(t)
            rows.append((t, sol.r(t), sol.rdot(t), sol.F(t), sol.Fdot(t),
                         res_r, res_f))
        _emit_csv(["t", "r", "r_dot", "F", "F_dot", "res_def", "res_eq"],
                  rows, args.out)
        _write_summary(args, cfg, effective, sol.traj,
                       [x for r in rows for x in r[-2:]])
        if not args.quiet:
            d = sol.traj.diagnostics
            print(f"handoff {d['handoff']:.6g}, {d['steps_accepted']} steps",
                  file=sys.stderr)
        return EXIT_OK
    # (v, w) grid, v-major ordering; slope of r(T) in v at fixed w
    rows = []
    for w in ws:
        ends = []
        for v in vs:
            sol = _geo.solve_biharmonic(fam, float(v), float(w), t_end,
                                        tol=tol, order=order, t_max=t_max)
            ends.append((sol.r(t_end), sol.rdot(t_end), sol.F(t_end),
                         sol.Fdot(t_end),
                         sol.traj.diagnostics["max_residual"]))
        slopes = _fd_slopes(vs, [e[0] for e in ends])
        rows.extend((v, w, *end, s)
                    for v, end, s in zip(vs, ends, slopes))
    rows.sort(key=lambda r: (r[0], r[1]))
    _emit_csv(["v", "w", "r_T", "r_dot_T", "F_T", "F_dot_T",
               "max_residual", "dr_T_dv"], rows, args.out)
    return EXIT_OK


_SINGULAR_KEYS = {"C", "c", "S", "g", "y0", "t_end", "tol", "order",
                  "samples"}


def _matrix_of_numbers(cfg, key, where):
    rows = cfg[key]
    if not isinstance(rows, list) or not all(
            isinstance(r, list) for r in rows):
        raise ConfigError(f"{where}: '{key}' must be a nested list")
    try:
        M = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: '{key}' must be numeric") from exc
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{where}: '{key}' must be square")
    return M


def _affine_problem(cfg, where):
    C = _matrix_of_numbers(cfg, "C", where)
    k = C.shape[0]
    y0 = cfg.get("y0")
    if not isinstance(y0, list) or len(y0) != k:
        raise ConfigError(f"{where}: 'y0' must be a list of {k} numbers")
    c = cfg.get("c")
    if c is not None and (not isinstance(c, list) or len(c) != k):
        raise ConfigError(f"{where}: 'c' must be a list of {k} numbers")
    t_end = _number(cfg, "t_end", where, positive=True)
    try:
        maps = _singular.AffineSingularMaps(C, c=c, S=cfg.get("S"),
                                            g=cfg.get("g"))
    except ExprError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return maps.problem(np.array(y0, dtype=float), t_end), k, t_end


def _cmd_solve_singular(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _SINGULAR_KEYS, {"C", "y0", "t_end"}, "solve-singular")
    prob, k, t_end = _affine_problem(cfg, "solve-singular")
    tol, order, samples, _ = _solver_options(cfg, args, "solve-singular")
    traj = _singular.solve(prob, tol=tol, order=order)
    header = ["t"] + [f"y{i + 1}" for i in range(k)] + ["residual"]
    rows = []
    for t in _sample_grid(t_end, samples):
        y = traj.value(t)
        rows.append((t, *y, traj.residual(t)))
    _emit_csv(header, rows, args.out)
    _write_summary(args, cfg, {"tol": tol, "order": order,
                               "samples": samples}, traj,
                   [r[-1] for r in rows])
    if not args.quiet:
        d = traj.diagnostics
        print(f"handoff {d['handoff']:.6g}, {d['steps_accepted']} steps, "
              f"max residual {d['max_residual']:.3e}", file=sys.stderr)
    return EXIT_OK


# -- linear commands ---------------------------------------------------------

_MONODROMY_KEYS = {"A", "h", "rho", "sigma", "tol"}


def _linear_system(cfg, where) -> _linear.LinearRSSystem:
    A = cfg.get("A")
    if not isinstance(A, list) or not all(isinstance(r, list) for r in A):
        raise ConfigError(f"{where}: 'A' must be a nested list")
    rho = _number(cfg, "rho", where, default=None, positive=True)
    if rho is None:
        raise ConfigError(f"{where}: missing 'rho'")
    try:
        return _linear.LinearRSSystem(A, h=cfg.get("h"), rho=rho)
    except ParseError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _cmd_monodromy(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _MONODROMY_KEYS, {"A", "rho", "sigma"}, "monodromy")
    sys_ = _linear_system(cfg, "monodromy")
    tol = args.tol if args.tol is not None else \
        _number(cfg, "tol", "monodromy", default=1e-10, positive=True)
    sigmas = cfg["sigma"]
    single = not isinstance(sigmas, list)
    if single:
        sigmas = [sigmas]
    reports = []
    for s in sigmas:
        if isinstance(s, bool) or not isinstance(s, (int, float)):
            raise ConfigError("monodromy: 'sigma' entries must be numbers")
        res = _linear.monodromy_at(sys_, float(s), tol=tol)
        reports.append({
            "sigma": res.sigma,
            "matrix": res.matrix,
            "charpoly": res.charpoly,
            "path_steps": res.path_steps,
            "est_error": res.est_error,
        })
    _emit_json(reports[0] if single else reports, args.out)
    return EXIT_OK


_FUNDAMENTAL_KEYS = {"A", "h", "rho", "z0", "z1", "tol"}


def _complex_pair(cfg, key, where):
    v = cfg.get(key)
    if not isinstance(v, list) or len(v) != 2 or any(
            isinstance(x, bool) or not isinstance(x, (int, float))
            for x in v):
        raise ConfigError(f"{where}: '{key}' must be a [re, im] pair")
    return complex(v[0], v[1])


def _cmd_fundamental(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _FUNDAMENTAL_KEYS, {"A", "rho", "z0", "z1"},
                "fundamental")
    sys_ = _linear_system(cfg, "fundamental")
    z0 = _complex_pair(cfg, "z0", "fundamental")
    z1 = _complex_pair(cfg, "z1", "fundamental")
    tol = args.tol if args.tol is not None else \
        _number(cfg, "tol", "fundamental", default=1e-10, positive=True)
    U = _linear.fundamental_solution(sys_, z0, z1, tol=tol)
    cond = float(np.linalg.cond(U))
    _emit_json({"z0": z0, "z1": z1, "matrix": U, "condition": cond},
               args.out)
    return EXIT_OK


# -- check -------------------------------------------------------------------

_CHECK_METRIC_KEYS = {"metric"}
_CHECK_SINGULAR_KEYS = {"C", "c", "S", "g", "y0", "t_end", "order"}


def _check_metric(cfg, args) -> int:
    _check_keys(cfg, _CHECK_METRIC_KEYS, {"metric"}, "check")
    fam = _geo.build_metric_family(cfg["metric"])
    rep = _geo.validate_metric(fam)
    structure_ok = None
    if rep.series_available:
        try:
            _geo.check_structure(fam)
            structure_ok = True
        except (StructureError, ValidationError):
            structure_ok = False
    out = {
        "kind": "metric",
        "symmetric_ok": rep.symmetric_ok,
        "spd_ok": rep.spd_ok,
        "spd_failures": rep.spd_failures,
        "pole_ok": rep.pole_ok,
        "drift_measured": {_fmt(k): v for k, v in rep.drift_measured.items()},
        "series_available": rep.series_available,
        "structure_ok": structure_ok,
        "verdict": bool(rep.verdict and structure_ok is not False),
    }
    _emit_json(out, args.out)
    return EXIT_OK if out["verdict"] else EXIT_REJECTED


def _check_singular(cfg, args) -> int:
    _check_keys(cfg, _CHECK_SINGULAR_KEYS, {"C", "y0", "t_end"}, "check")
    prob, _, _ = _affine_problem(cfg, "check")
    order = args.order if args.order is not None else \
        _integer(cfg, "order", "check", default=10)
    rep = _singular.check_admissibility(prob, order)
    out = {"kind": "singular"}
    out.update(_admissibility_dict(rep))
    out["jacobian"] = rep.jacobian
    _emit_json(out, args.out)
    return EXIT_OK if rep.verdict else EXIT_REJECTED


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    if "metric" in cfg:
        return _check_metric(cfg, args)
    if "C" in cfg:
        return _check_singular(cfg, args)
    raise ConfigError("check: config needs a 'metric' block or a 'C' matrix")


# -- driver ------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="regsing",
        description="Regular-singular initial value problems and "
                    "rotationally reduced harmonic maps.")
    sub = ap.add_subparsers(dest="command", required=True)

    # each subcommand offers the overrides it reads
    tol = ("--tol", float, "override the config tolerance")
    order = ("--order", int, "override the series bootstrap order")

    def add(name, fn, helptext, *overrides):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True,
                       help="path to a JSON config file")
        p.add_argument("--out", default=None,
                       help="output file (default: stdout)")
        for flag, kind, text in overrides:
            p.add_argument(flag, type=kind, default=None, help=text)
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress notes on stderr")
        p.set_defaults(fn=fn)
        return p

    add("solve-harmonic", _cmd_solve_harmonic,
        "profile of an equivariant harmonic map (CSV)", tol, order)
    add("solve-biharmonic", _cmd_solve_biharmonic,
        "coupled profile/tension system (CSV)", tol, order)
    add("solve-singular", _cmd_solve_singular,
        "affine problem with a simple pole at t=0 (CSV)", tol, order)
    add("monodromy", _cmd_monodromy,
        "monodromy matrix of a linear system (JSON)", tol)
    add("fundamental", _cmd_fundamental,
        "fundamental solution on the log cover (JSON)", tol)
    add("check", _cmd_check,
        "validation report for a metric family or singular problem (JSON)",
        order)
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdmissibilityError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        if exc.report is not None and getattr(args, "out", None):
            out = {"kind": "singular"}
            out.update(_admissibility_dict(exc.report))
            _emit_json(out, _summary_path(args.out))
        return EXIT_REJECTED
    except (StructureError, ValidationError) as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except (NumericalError, EvalDomainError, SeriesError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RegsingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
