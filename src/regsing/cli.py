"""Command line front end.

Subcommands consume a JSON config file and emit either a CSV table (the
solve commands) or a JSON report (monodromy, fundamental, check).  A solve
command with ``--out`` that solves for one parameter value also writes a
``*.summary.json`` sidecar echoing the config and the run diagnostics,
enough to reproduce the run; a sweep writes none.  The three
single-parameter solves share one output path (:func:`_emit_samples`):
CSV, sidecar and one progress note format.

This module is the package's one config reader: the ``metric`` block,
the affine singular problem and the linear system are each read and
checked here, with the same number checks.  Config keys are validated
strictly: unknown keys are errors, so typos fail loudly instead of
silently using defaults.  An expression entry (metric, ``A``,
``S``/``g``) is read by :func:`regsing.expr.as_expr`, and one with no
Taylor expansion at 0 is a validation rejection naming it.

Exit codes: 0 success, 2 admissibility or validation rejection (reports
are still written), 3 config or expression errors, 4 numerical
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

from . import expr as _expr
from . import geometry as _geo
from . import linear as _linear
from . import singular as _singular
from .errors import (AdmissibilityError, ConfigError, EvalDomainError,
                     ExprError, NumericalError, RegsingError, SeriesError,
                     StructureError, ValidationError)

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
        "order": report.order,
    }


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


def _finite(v, what: str) -> float:
    """``v`` as a float, which must be finite: ``json.load`` reads NaN and
    Infinity, and integers past the float range that ``float`` rejects."""
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{what} must be finite, got {v!r:.40}")
    return x


def _number(cfg, key, where, default=None, positive=False):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where}: '{key}' must be a number")
    v = _finite(v, f"{where}: '{key}'")
    if positive and v <= 0:
        raise ConfigError(f"{where}: '{key}' must be positive")
    return v


def _integer(cfg, key, where, default=None):
    if key not in cfg:
        return default
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where}: '{key}' must be an integer")
    _finite(v, f"{where}: '{key}'")
    return v


def _tol(cfg, args, where):
    """``--tol`` when given, else the config key, through the key's check."""
    cfg = cfg if args.tol is None else {"tol": args.tol}
    return _number(cfg, "tol", where, default=1e-10, positive=True)


def _numbers(values, key, where) -> np.ndarray:
    """A (nested) list of numbers as a finite float array."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: '{key}' must be numeric") from exc
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where}: '{key}' must be finite")
    return arr


def _expressions(v, key, where, n=None, matrix=False) -> list:
    """The expression block ``v`` as trees (:func:`regsing.expr.as_expr`):
    a list of ``n`` entries (default: its length), or with ``matrix`` ``n``
    such lists; a wrong shape or an ExprError is a config error."""
    size = len(v) if n is None and isinstance(v, list) else n
    rows = v if matrix else [v]
    if not (isinstance(v, list) and len(v) == size and all(
            isinstance(r, list) and len(r) == size for r in rows)):
        shape = "square nested list" if matrix else "list"
        raise ConfigError(f"{where}: '{key}' must be a {shape}"
                          + ("" if n is None else f" of size {n}"))
    try:
        trees = [[_expr.as_expr(e) for e in r] for r in rows]
    except ExprError as exc:
        raise ConfigError(f"{where}: '{key}': {exc}") from exc
    return trees if matrix else trees[0]


def _parse_sweep(spec, where: str) -> np.ndarray:
    """Accept a number or a 'start:stop:count' range string; the span
    ``stop - start`` must be finite, and nonzero when the count is above
    one."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        a = b = _finite(spec, f"{where}: sweep")
        n = 1
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
    """The solve keyword ``tol``, and ``samples``."""
    opts = {"tol": _tol(cfg, args, where)}
    samples = _integer(cfg, "samples", where, default=33)
    if samples < 1:
        raise ConfigError(f"{where}: 'samples' must be >= 1")
    return opts, samples


def _emit_samples(args, cfg, opts, samples, traj, header, row,
                  residuals=1) -> int:
    """The one output path of a single-parameter solve: ``row(t)`` on the
    sample grid as CSV, whose last ``residuals`` columns are residuals;
    with ``--out`` the ``*.summary.json`` sidecar echoing the config and
    the run diagnostics; and the progress note unless ``--quiet``."""
    rows = [row(t) for t in _sample_grid(traj.problem.t_end, samples)]
    _emit_csv(header, rows, args.out)
    d = traj.diagnostics
    if args.out is not None:
        _emit_json({
            "command": args.command,
            "config": cfg,
            "effective": {**opts, "samples": samples},
            "diagnostics": {k: v for k, v in d.items()
                            if k != "admissibility"},
            "admissibility": _admissibility_dict(d["admissibility"]),
            # np.max, not builtin max, so that a nan entry shows
            "residual_max": float(np.max(np.abs(np.asarray(
                [r[-residuals:] for r in rows], float)))),
        }, _summary_path(args.out))
    if not args.quiet:
        print(f"handoff {d['handoff']:.6g}, {d['steps_accepted']} steps, "
              f"max residual {d['max_residual']:.3e}", file=sys.stderr)
    return EXIT_OK


_METRIC_KEYS = {"diagonal", "entries", "dim_p", "alpha", "weight",
                "t_validate", "name"}


def _metric_family(cfg, where) -> _geo.MetricFamily:
    """The ``metric`` block: ``dim_p`` and exactly one of ``diagonal`` (a
    list of entries) or ``entries`` (a square nested list); an entry, and
    ``alpha``, is an expression string or a finite number."""
    m = cfg["metric"]
    where = f"{where}: metric"
    if not isinstance(m, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(m, _METRIC_KEYS, {"dim_p"}, where)
    if ("diagonal" in m) == ("entries" in m):
        raise ConfigError(
            f"{where}: give exactly one of 'diagonal' or 'entries'")
    kw = {"alpha": m.get("alpha"),
          "weight": _integer(m, "weight", where, default=1),
          "t_validate": _number(m, "t_validate", where, default=1.0,
                                positive=True)}
    dim_p = _integer(m, "dim_p", where)
    try:
        if "diagonal" in m:
            return _geo.MetricFamily.from_diagonal(
                _expressions(m["diagonal"], "diagonal", where), dim_p, **kw)
        return _geo.MetricFamily.from_entries(
            _expressions(m["entries"], "entries", where, matrix=True), dim_p,
            **kw)
    except (ExprError, ValidationError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# -- solve commands ----------------------------------------------------------

_PROFILE_KEYS = {"metric", "v", "t_end", "tol", "samples"}


def _cmd_solve_profile(args) -> int:
    """``solve-harmonic`` and, with the tension slope ``w``,
    ``solve-biharmonic``: one solve sampled on the grid, or a sweep with
    one row of endpoint data per ``v`` (per ``(v, w)``, sorted v-major)
    and the slope of ``r(T)`` in ``v`` at fixed ``w``."""
    where = args.command
    coupled = where == "solve-biharmonic"
    params = ["v", "w"] if coupled else ["v"]
    cfg = _load_config(args.config)
    _check_keys(cfg, _PROFILE_KEYS.union(params), {"metric", "t_end", *params},
                where)
    fam = _metric_family(cfg, where)
    t_end = _number(cfg, "t_end", where, positive=True)
    opts, samples = _solver_options(cfg, args, where)
    vs, *ws = (_parse_sweep(cfg[p], where) for p in params)
    ws = ws[0] if coupled else [None]
    # r, r' and, coupled, F, F' (the CSV columns before the residuals)
    columns = ["r", "r_dot", "F", "F_dot"] if coupled else ["r", "r_dot"]

    def solve(v, w):
        if w is None:
            return _geo.solve_harmonic(fam, float(v), t_end, **opts)
        return _geo.solve_biharmonic(fam, float(v), float(w), t_end, **opts)

    def values(sol, t):
        return (sol.r(t), sol.rdot(t)) + ((sol.F(t), sol.Fdot(t)) if coupled
                                          else ())

    if len(vs) == 1 and len(ws) == 1:
        sol = solve(vs[0], ws[0])
        residuals = ["res_def", "res_eq"] if coupled else ["residual"]
        return _emit_samples(
            args, cfg, opts, samples, sol.traj, ["t", *columns, *residuals],
            lambda t: (t, *values(sol, t), *(sol.residuals(t) if coupled
                                             else [sol.residual(t)])),
            residuals=len(residuals))
    rows = []
    for w in ws:
        ends = []
        for v in vs:
            sol = solve(v, w)
            ends.append((*values(sol, t_end),
                         sol.traj.diagnostics["max_residual"]))
        slopes = _fd_slopes(vs, [e[0] for e in ends])
        rows.extend((v, *([w] if coupled else []), *end, s)
                    for v, end, s in zip(vs, ends, slopes))
    if coupled:
        rows.sort(key=lambda r: (r[0], r[1]))
    _emit_csv([*params, *(f"{c}_T" for c in columns), "max_residual",
               "dr_T_dv"], rows, args.out)
    return EXIT_OK


_SINGULAR_KEYS = {"C", "c", "S", "g", "y0", "t_end", "tol", "samples"}


def _affine_problem(cfg, where):
    C = _numbers(cfg["C"], "C", where)
    k = C.shape[0] if C.ndim else 0
    if C.shape != (k, k):
        raise ConfigError(f"{where}: 'C' must be a square matrix")
    y0 = _numbers(cfg["y0"], "y0", where)
    c = None if cfg.get("c") is None else _numbers(cfg["c"], "c", where)
    for key, v in (("y0", y0), ("c", c)):
        if v is not None and v.shape != (k,):
            raise ConfigError(f"{where}: '{key}' must be a list of {k} numbers")
    t_end = _number(cfg, "t_end", where, positive=True)
    S, g = (None if cfg.get(key) is None
            else _expressions(cfg[key], key, where, k, matrix=key == "S")
            for key in ("S", "g"))
    maps = _singular.AffineSingularMaps(C, c=c, S=S, g=g)
    # the probe LinearRSSystem makes of A and h: a pole or branch point at
    # 0 is a rejection naming the entry, not a failure in the bootstrap
    _expr.probe_at_zero(maps.S, "S")
    _expr.probe_at_zero(maps.g, "g")
    return maps.problem(y0, t_end), k


def _cmd_solve_singular(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _SINGULAR_KEYS, {"C", "y0", "t_end"}, "solve-singular")
    prob, k = _affine_problem(cfg, "solve-singular")
    opts, samples = _solver_options(cfg, args, "solve-singular")
    traj = _singular.solve(prob, **opts)
    return _emit_samples(
        args, cfg, opts, samples, traj,
        ["t"] + [f"y{i + 1}" for i in range(k)] + ["residual"],
        lambda t: (t, *traj.value(t), traj.residual(t)))


# -- linear commands ---------------------------------------------------------

_MONODROMY_KEYS = {"A", "rho", "sigma", "tol"}


def _linear_system(cfg, where) -> _linear.LinearRSSystem:
    # both commands transport the homogeneous system: a config has no h
    A = _expressions(cfg.get("A"), "A", where, matrix=True)
    rho = _number(cfg, "rho", where, positive=True)    # a required key
    return _linear.LinearRSSystem(A, rho=rho)


def _cmd_monodromy(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _MONODROMY_KEYS, {"A", "rho", "sigma"}, "monodromy")
    sys_ = _linear_system(cfg, "monodromy")
    tol = _tol(cfg, args, "monodromy")
    single = not isinstance(cfg["sigma"], list)
    sigmas = [_number({"sigma": s}, "sigma", "monodromy")
              for s in ([cfg["sigma"]] if single else cfg["sigma"])]
    # each report holds the MonodromyResult fields
    reports = [vars(_linear.monodromy_at(sys_, s, tol=tol)) for s in sigmas]
    _emit_json(reports[0] if single else reports, args.out)
    return EXIT_OK


_FUNDAMENTAL_KEYS = {"A", "rho", "z0", "z1", "tol"}


def _complex_pair(cfg, key, where):
    v = cfg.get(key)
    if not isinstance(v, list) or len(v) != 2:
        raise ConfigError(f"{where}: '{key}' must be a [re, im] pair")
    return complex(*(_number({key: x}, key, where) for x in v))


def _cmd_fundamental(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg, _FUNDAMENTAL_KEYS, {"A", "rho", "z0", "z1"},
                "fundamental")
    sys_ = _linear_system(cfg, "fundamental")
    z0 = _complex_pair(cfg, "z0", "fundamental")
    z1 = _complex_pair(cfg, "z1", "fundamental")
    tol = _tol(cfg, args, "fundamental")
    t = _linear.transport(sys_, z0, z1, tol=tol)
    cond = float(np.linalg.cond(t.Y))
    _emit_json({"z0": z0, "z1": z1, "matrix": t.Y, "condition": cond,
                "path": t.path, "declined": t.declined}, args.out)
    return EXIT_OK


# -- check -------------------------------------------------------------------

_CHECK_METRIC_KEYS = {"metric"}
_CHECK_SINGULAR_KEYS = {"C", "c", "S", "g", "y0", "t_end"}


def _check_metric(cfg, args) -> int:
    _check_keys(cfg, _CHECK_METRIC_KEYS, {"metric"}, "check")
    fam = _metric_family(cfg, "check")
    rep = _geo.validate_metric(fam)
    structure_ok = None
    if rep.series_available:
        try:
            _geo.check_structure(fam)
            structure_ok = True
        except (StructureError, ValidationError, NumericalError):
            structure_ok = False
    out = {
        "kind": "metric", **vars(rep),
        "drift_measured": {_fmt(k): v for k, v in rep.drift_measured.items()},
        "structure_ok": structure_ok,
        # a family without series data fails: every solve would reject it
        "verdict": bool(rep.verdict and structure_ok),
    }
    _emit_json(out, args.out)
    return EXIT_OK if out["verdict"] else EXIT_REJECTED


def _check_singular(cfg, args) -> int:
    _check_keys(cfg, _CHECK_SINGULAR_KEYS, {"C", "y0", "t_end"}, "check")
    prob, _ = _affine_problem(cfg, "check")
    # the order solve-singular bootstraps at first; admission scans every
    # index whatever the order, so the two commands agree on it
    rep = _singular.check_admissibility(prob, _singular._solve_order(prob))
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

    add("solve-harmonic", _cmd_solve_profile,
        "profile of an equivariant harmonic map (CSV)", tol)
    add("solve-biharmonic", _cmd_solve_profile,
        "coupled profile/tension system (CSV)", tol)
    add("solve-singular", _cmd_solve_singular,
        "affine problem with a simple pole at t=0 (CSV)", tol)
    add("monodromy", _cmd_monodromy,
        "monodromy matrix of a linear system (JSON)", tol)
    add("fundamental", _cmd_fundamental,
        "fundamental solution on the log cover (JSON)", tol)
    add("check", _cmd_check,
        "validation report for a metric family or singular problem (JSON)")
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
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
    except (NumericalError, EvalDomainError, SeriesError,
            RuntimeWarning) as exc:     # a numpy warning raised as an error
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
