"""Spans and counters recorded around calls into the package.

The tracer replaces each public function of the seven modules, plus a few
methods and private I/O helpers, at every place a caller looks it up: the
defining module and any module that imported the name (``linear`` holds
its own ``integrate_adaptive``, ``geometry`` holds ``singular.solve`` as
``_solve_singular``).  A span is (name, start, end, parent, op id); spans
live in flat arrays until the run writes them out.  The package source is
not touched, and ``uninstall`` puts every original back.
"""

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

from regsing import cli, expr, geometry, linear, rk, series, singular

MODULES = {"expr": expr, "series": series, "rk": rk, "linear": linear,
           "singular": singular, "geometry": geometry, "cli": cli}

# methods and private helpers traced besides the public functions
METHODS = [
    (linear.LinearRSSystem, "A_at", "linear.A_at"),
    (geometry.MetricFamily, "P_at", "geometry.P_at"),
    (geometry.MetricFamily, "Pdot_at", "geometry.Pdot_at"),
    (geometry.MetricFamily, "Pddot_at", "geometry.Pddot_at"),
    (geometry.MetricFamily, "pack", "geometry.pack"),
    (rk.IntegrationResult, "value", "rk.dense"),
    (rk.IntegrationResult, "derivative", "rk.dense"),
    (cli, "_load_config", "cli.io"),
    (cli, "_emit_csv", "cli.io"),
    (cli, "_emit_json", "cli.io"),
]
_TRACE_FNS = ("trace_drift", "trace_potential", "trace_potential2")


def _public_functions(mod):
    names = getattr(mod, "__all__", None) or [
        n for n in vars(mod) if not n.startswith("_")]
    return [(n, getattr(mod, n)) for n in names
            if inspect.isfunction(getattr(mod, n))
            and getattr(mod, n).__module__ == mod.__name__]


def _is_jet(x):
    return isinstance(x, series.Series) or (
        isinstance(x, np.ndarray) and x.dtype == object)


class Tracer:
    """Records spans while ``enabled``; ``op_id`` tags each span."""

    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = Counter()
        self._saved = []
        self._patches = self._build_patches()

    # -- wrappers ----------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before`` may rewrite the arguments."""
        nid = self._id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def _count_calls(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap_maps(self, problem):
        """Trace the two maps of a singular problem, split float / jet."""
        layer = ("geometry" if problem.meta.get("kind") in
                 ("harmonic", "biharmonic") else "singular")
        for attr in ("m_sing", "m_reg"):
            fn = getattr(problem, attr)
            spans = {mode: self.span(f"{layer}.{attr}.{mode}", fn)
                     for mode in ("float", "jet")}

            def mapped(*args, _spans=spans):
                mode = "jet" if any(_is_jet(a) for a in args) else "float"
                if self.enabled:
                    self.counts[f"singular.map_calls.{mode}"] += 1
                return _spans[mode](*args)

            setattr(problem, attr, mapped)

    # -- hooks ---------------------------------------------------------------

    def _integrate_before(self, args, kwargs):
        rhs = self.span("rk.rhs", args[0])
        return (rhs,) + tuple(args[1:]), kwargs

    def _integrate_after(self, res, args, kwargs):
        c = self.counts
        c["rk.steps_accepted"] += res.n_accepted
        c["rk.steps_rejected"] += res.n_rejected
        max_step = kwargs.get("max_step", args[6] if len(args) > 6 else None)
        if max_step is not None and np.isfinite(max_step):
            steps = np.diff(res.ts)
            c["rk.capped_steps"] += int(
                np.count_nonzero(steps >= max_step * (1.0 - 1e-9)))

    def _trace_before(self, args, kwargs):
        self.counts["geometry.trace_calls"] += 1
        force = kwargs.get("force_path")
        if force is None and len(args) > 1:
            force = args[-1] if isinstance(args[-1], str) else None
        if force == "direct":
            self.counts["geometry.trace_direct"] += 1
        return args, kwargs

    def _handoff_after(self, out, args, kwargs):
        self.counts["singular.handoff_n"] += 1
        self.counts["singular.handoff_sum"] += float(out[0])

    def _monodromy_after(self, res, args, kwargs):
        self.counts["linear.path_steps"] += res.path_steps

    def _output_before(self, args, kwargs):
        self.counts["cli.output_bytes"] += len(args[0].encode())
        return args, kwargs

    def _post_init_after(self, out, args, kwargs):
        self.wrap_maps(args[0])

    def _build_patches(self):
        """(owner, attribute, wrapper) for every traced lookup site."""
        hooks = {
            "rk.integrate_adaptive": (self._integrate_before,
                                      self._integrate_after),
            "singular.choose_handoff": (None, self._handoff_after),
            "linear.monodromy_at": (None, self._monodromy_after),
        }
        for fn in _TRACE_FNS:
            hooks[f"geometry.{fn}"] = (self._trace_before, None)
        patches = []
        for short, mod in MODULES.items():
            for name, fn in _public_functions(mod):
                before, after = hooks.get(f"{short}.{name}", (None, None))
                wrapper = self.span(f"{short}.{name}", fn, before, after)
                for site in MODULES.values():
                    for attr, value in vars(site).items():
                        if value is fn:
                            patches.append((site, attr, wrapper))
        for owner, attr, name in METHODS:
            patches.append((owner, attr, self.span(name, vars(owner)[attr])))
        patches.append((cli, "_write_output", self.span(
            "cli.write", vars(cli)["_write_output"], self._output_before)))
        patches.append((series.Series, "__init__", self._count_calls(
            "series.Series.new", vars(series.Series)["__init__"])))
        post_init = vars(singular.SingularIVP)["__post_init__"]
        patches.append((singular.SingularIVP, "__post_init__", self.span(
            "singular.SingularIVP", post_init, after=self._post_init_after)))
        return patches

    def install(self):
        for owner, attr, wrapper in self._patches:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self):
        """The spans as numpy columns: name id, parent index, op id, times."""
        return {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64)}


class SpanTable:
    """Totals and self times per span name over a selection of spans."""

    def __init__(self, names, a, select):
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        self._ids = {n: i for i, n in enumerate(names)}
        nid = a["name"]
        keep = select(a)
        k = len(names)
        self.calls = np.bincount(nid[keep], minlength=k)
        self.total = np.bincount(nid[keep], weights=dur[keep], minlength=k)
        self.self_ = np.bincount(nid[keep], weights=(dur - child)[keep],
                                 minlength=k)
        self._a, self._dur, self._keep = a, dur, keep

    def _get(self, arr, name):
        i = self._ids.get(name)
        return 0.0 if i is None else float(arr[i])

    def calls_of(self, *names):
        return sum(self._get(self.calls, n) for n in names)

    def total_of(self, *names):
        return sum(self._get(self.total, n) for n in names)

    def self_of(self, *names):
        return sum(self._get(self.self_, n) for n in names)

    def child_total(self, child, parent):
        """Time in spans ``child`` whose parent span is named ``parent``."""
        ci, pi = self._ids.get(child), self._ids.get(parent)
        if ci is None or pi is None:
            return 0.0
        a = self._a
        m = self._keep & (a["name"] == ci) & (a["parent"] >= 0)
        m[m] = a["name"][a["parent"][m]] == pi
        return float(self._dur[m].sum())


def layer_metrics(names, spans, counts, n_ops, overhead):
    """Per-operation layer metrics over the traced operations (op id >= 0),
    plus the traced set-up (op id -1)."""
    s = SpanTable(names, spans, lambda a: a["op"] >= 0)
    setup = SpanTable(names, spans, lambda a: a["op"] < 0)
    c = counts
    per = 1.0 / max(n_ops, 1)
    acc, rej = c["rk.steps_accepted"], c["rk.steps_rejected"]
    trace_calls = c["geometry.trace_calls"]
    values = {
        "expr.eval_real.calls": s.calls_of("expr.eval_real") * per,
        "expr.eval_real.self_s": s.self_of("expr.eval_real") * per,
        "expr.eval_complex.calls": s.calls_of("expr.eval_complex") * per,
        "expr.eval_complex.self_s": s.self_of("expr.eval_complex") * per,
        "expr.taylor.calls": s.calls_of("expr.taylor") * per,
        "expr.taylor.self_s": s.self_of("expr.taylor") * per,
        "expr.parse.self_s": s.self_of("expr.parse") * per,
        "series.Series.new": c["series.Series.new"] * per,
        "series.compose.calls": s.calls_of("series.compose") * per,
        "series.compose.self_s": s.self_of("series.compose") * per,
        "series.eval_truncated.calls":
            s.calls_of("series.eval_truncated") * per,
        "rk.integrate.self_s": s.self_of("rk.integrate_adaptive") * per,
        "rk.rhs_calls": s.calls_of("rk.rhs") * per,
        "rk.rhs_s": s.total_of("rk.rhs") * per,
        "rk.steps_accepted": acc * per,
        "rk.steps_rejected": rej * per,
        "rk.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "rk.capped_steps": c["rk.capped_steps"] * per,
        "rk.dense_evals": s.calls_of("rk.dense") * per,
        "rk.dense_s": s.total_of("rk.dense") * per,
        "linear.A_at.calls": s.calls_of("linear.A_at") * per,
        "linear.A_at.self_s": s.self_of("linear.A_at") * per,
        "linear.monodromy_at.self_s": s.self_of("linear.monodromy_at") * per,
        "linear.conjugacy_invariants.self_s":
            s.self_of("linear.conjugacy_invariants") * per,
        "linear.path_steps": c["linear.path_steps"] * per,
        "singular.admissibility_s":
            s.total_of("singular.check_admissibility") * per,
        "singular.bootstrap_s": s.total_of("singular.bootstrap_series") * per,
        "singular.integrate_s": s.total_of("singular.integrate") * per,
        "singular.diagnostics_s": (
            s.total_of("singular.integrate")
            - s.child_total("rk.integrate_adaptive", "singular.integrate"))
        * per,
        "singular.handoff_t": (c["singular.handoff_sum"]
                               / c["singular.handoff_n"]
                               if c["singular.handoff_n"] else 0.0),
        "singular.map_calls.float": c["singular.map_calls.float"] * per,
        "singular.map_calls.jet": c["singular.map_calls.jet"] * per,
        "geometry.trace_drift.calls": s.calls_of("geometry.trace_drift") * per,
        "geometry.trace_potential.calls":
            s.calls_of("geometry.trace_potential") * per,
        "geometry.trace_direct_frac": (c["geometry.trace_direct"]
                                       / trace_calls if trace_calls else 0.0),
        "geometry.P_at.calls": s.calls_of("geometry.P_at") * per,
        "geometry.rhs_self_s": s.self_of("geometry.m_sing.float",
                                         "geometry.m_reg.float") * per,
        "geometry.residual_s": s.total_of("geometry.tension_residual",
                                          "geometry.biharmonic_residual")
        * per,
        "geometry.pack_s": s.total_of("geometry.pack") * per,
        "cli.run_s": s.total_of("cli.run") * per,
        "cli.io_s": s.total_of("cli.io") * per,
        "cli.output_bytes": c["cli.output_bytes"] * per,
        "setup.expr.parse_s": setup.total_of("expr.parse"),
        "setup.geometry.pack_s": setup.total_of("geometry.pack"),
        "trace.overhead": overhead,
    }
    return values
