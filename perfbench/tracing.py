"""In-memory spans around the calls into each tubesynth layer.

The package is traced from outside: every public function named in
BINDINGS is replaced by a wrapper that records a span, in every
tubesynth module that holds a reference to it.  ``synth``, ``sim`` and
``cli`` import several polytope and reach functions by name, so
patching only the defining module would miss those calls.  ``restore``
puts every original object back.

A span keeps its name, start, end, parent and the summed duration of
its children; its self time is its duration minus that sum.  The layer
of a span is the first component of its name.
"""

import functools
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name)
BINDINGS = (
    ("lp", "solve", "lp.solve"),
    ("polytope", "vertices", "polytope.vertices"),
    ("polytope", "is_bounded", "polytope.is_bounded"),
    ("polytope", "support_max", "polytope.support_max"),
    ("polytope", "contains_point", "polytope.contains_point"),
    ("reach", "check_containment", "reach.check_containment"),
    ("reach", "check_containment_disturbance", "reach.check_containment_disturbance"),
    ("reach", "check_robust_invariant", "reach.check_robust_invariant"),
    ("tube", "tube_from_step_specs", "tube.from_step_specs"),
    ("tube", "tube_from_envelopes", "tube.from_envelopes"),
    ("synth", "synthesize", "synth.synthesize"),
    ("synth", "build_lp1", "synth.build_lp1"),
    ("synth", "build_lp2", "synth.build_lp2"),
    ("sim", "simulate_closed_loop", "sim.simulate"),
    ("sim", "sample_states", "sim.sample_states"),
    ("sim", "tanks_nonlinear_simulate", "sim.nonlinear"),
    ("sim", "verify_membership", "sim.verify_membership"),
    ("cli", "main", "cli.main"),
    ("cli", "write_result_files", "cli.write.result_files"),
    ("cli", "write_trajectories_csv", "cli.write.trajectories_csv"),
    ("cli", "_write_json", "cli.write.json"),
    ("cli", "_write_envelope_csv", "cli.write.envelope_csv"),
    ("cli", "_write_sets_csv", "cli.write.sets_csv"),
    ("cli", "audit_runs", "cli.audit"),
)

# Layers whose self times partition a traced op; "bench" is the op span
# itself, i.e. time inside the op that no wrapped call covers.
LAYERS = ("lp", "polytope", "reach", "synth", "tube", "sim", "cli", "bench")

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "last_child",
                 "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.last_child = None
        self.attrs = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.end - self.start - self.child_s

    def ancestors(self):
        sp = self.parent
        while sp is not None:
            yield sp
            sp = sp.parent


def lp_role(parent):
    """Role of an lp.solve call, from the span it was made under.

    LP1 and LP2 are the solves made directly by synthesize; which one
    is told by the build span that closed just before.  Solves under a
    polytope, reach or sim span are support LPs.
    """
    if parent is None:
        return "other"
    if parent.name == "synth.synthesize":
        return {"synth.build_lp1": "lp1",
                "synth.build_lp2": "lp2"}.get(parent.last_child, "other")
    if parent.layer in ("polytope", "reach", "sim"):
        return "support"
    return "other"


def tableau_shape(problem):
    """(rows, columns) of the dense simplex tableau for an LpProblem:
    columns are variables, free-variable copies, slacks and phase-1
    artificials (every equality row and every inequality row with a
    negative right-hand side)."""
    me = problem.A_eq.shape[0]
    mi = problem.A_in.shape[0]
    artificials = me + int(np.count_nonzero(problem.b_in < 0.0))
    cols = problem.nvars + int(np.count_nonzero(problem.free)) + mi + artificials
    return me + mi, cols


def _before_lp(span, args, kwargs):
    problem = args[0] if args else kwargs["problem"]
    rows, cols = tableau_shape(problem)
    span.attrs = {"role": lp_role(span.parent), "rows": rows, "cols": cols,
                  "pivots": 0, "status": "error"}


def _after_lp(span, sol):
    span.attrs["pivots"] = sol.iterations
    span.attrs["status"] = sol.status


def _after_reach(span, report):
    span.attrs = {"contained": bool(report.contained)}


def _after_synth(span, result):
    span.attrs = {"steps": len(result.provenance),
                  "shrunk": sum(p == "Shrunk" for p in result.provenance)}


def _after_sample(span, points):
    span.attrs = {"accepted": len(points)}


HOOKS = {
    "lp.solve": (_before_lp, _after_lp),
    "reach.check_containment": (None, _after_reach),
    "reach.check_containment_disturbance": (None, _after_reach),
    "reach.check_robust_invariant": (None, _after_reach),
    "synth.synthesize": (None, _after_synth),
    "sim.sample_states": (None, _after_sample),
}


class Tracer:
    """Span recorder plus the set of bindings it has replaced."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span):
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
            span.parent.last_child = span.name

    def _wrap(self, fn, name):
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, result)
                return result
            finally:
                self.close(span)

        wrapper.perfbench_original = fn
        return wrapper

    def install(self, package):
        """Replace every binding of each BINDINGS function in every
        loaded module of ``package`` (the package namespace included)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if n == prefix or n.startswith(prefix + ".")]
        for modname, attr, name in BINDINGS:
            original = getattr(sys.modules["%s.%s" % (prefix, modname)], attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    @property
    def patched(self):
        return list(self._patched)


def leftover_wrappers(package):
    """(module, name) of every binding in ``package`` still wrapped."""
    prefix = package.__name__
    out = []
    for n, module in list(sys.modules.items()):
        if n == prefix or n.startswith(prefix + "."):
            for key, value in vars(module).items():
                if hasattr(value, "perfbench_original"):
                    out.append((n, key))
    return out


def unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def op_spans(spans):
    """Spans recorded inside a traced op (the op spans included)."""
    root = {}
    out = []
    for sp in spans:
        r = root[id(sp.parent)] if sp.parent is not None else sp
        root[id(sp)] = r
        if r.name == OP_SPAN:
            out.append(sp)
    return out


def layer_metrics(spans, traced_p50, untraced_p50, bytes_written):
    """Per-op averages of every per-layer metric over the traced ops."""
    inside = op_spans(spans)
    ops = sum(1 for sp in inside if sp.name == OP_SPAN)
    if ops == 0:
        raise ValueError("no traced op")
    per_op = 1.0 / ops

    def named(*names):
        return [sp for sp in inside if sp.name in names]

    lps = named("lp.solve")
    m = {
        "lp.calls": len(lps) * per_op,
        "lp.pivots": sum(sp.attrs["pivots"] for sp in lps) * per_op,
        "lp.self_s": sum(sp.self_s for sp in lps) * per_op,
        "lp.failed": sum(sp.attrs["status"] != "optimal" for sp in lps) * per_op,
    }
    for role in ("lp1", "lp2", "support"):
        group = [sp for sp in lps if sp.attrs["role"] == role]
        m["lp.%s.calls" % role] = len(group) * per_op
        m["lp.%s.s" % role] = sum(sp.duration for sp in group) * per_op
        m["lp.%s.pivots" % role] = sum(sp.attrs["pivots"] for sp in group) * per_op
        if role == "lp1":
            m["lp.lp1.rows"] = max((sp.attrs["rows"] for sp in group), default=0)
            m["lp.lp1.cols"] = max((sp.attrs["cols"] for sp in group), default=0)

    verts = named("polytope.vertices")
    bounded = named("polytope.is_bounded")
    m["polytope.vertices.calls"] = len(verts) * per_op
    m["polytope.vertices.self_s"] = sum(sp.self_s for sp in verts) * per_op
    m["polytope.is_bounded.calls"] = len(bounded) * per_op
    m["polytope.is_bounded.s"] = sum(sp.duration for sp in bounded) * per_op

    reach = [sp for sp in inside if sp.layer == "reach"]
    reach_top = [sp for sp in reach if sp.parent.layer != "reach"]
    m["reach.check.calls"] = len(reach_top) * per_op
    m["reach.check.self_s"] = sum(sp.self_s for sp in reach) * per_op
    m["reach.check.lp_s"] = sum(
        sp.duration for sp in lps
        if any(a.layer == "reach" for a in sp.ancestors())) * per_op
    m["reach.contained_share"] = (
        sum(sp.attrs["contained"] for sp in reach_top) / len(reach_top)
        if reach_top else 0.0)

    tube_top = [sp for sp in spans
                if sp.layer == "tube" and (sp.parent is None or sp.parent.layer != "tube")]
    m["tube.build.s"] = (sum(sp.duration for sp in tube_top) / len(tube_top)
                         if tube_top else 0.0)

    synths = named("synth.synthesize")
    m["synth.synthesize.self_s"] = sum(sp.self_s for sp in synths) * per_op
    m["synth.build_lp1.s"] = sum(sp.duration for sp in named("synth.build_lp1")) * per_op
    m["synth.build_lp2.s"] = sum(sp.duration for sp in named("synth.build_lp2")) * per_op
    m["synth.recert.s"] = sum(sp.duration for sp in reach_top
                              if sp.parent.name == "synth.synthesize") * per_op
    steps = sum(sp.attrs["steps"] for sp in synths)
    m["synth.shrunk_share"] = (sum(sp.attrs["shrunk"] for sp in synths) / steps
                               if steps else 0.0)

    sims = named("sim.simulate")
    samples = named("sim.sample_states")
    attempts = sum(1 for sp in named("polytope.contains_point")
                   if sp.parent.name == "sim.sample_states")
    m["sim.simulate.calls"] = len(sims) * per_op
    m["sim.simulate.s"] = sum(sp.duration for sp in sims) * per_op
    m["sim.sample_states.s"] = sum(sp.duration for sp in samples) * per_op
    m["sim.sample_accept_ratio"] = (
        sum(sp.attrs["accepted"] for sp in samples) / attempts if attempts else 0.0)
    m["sim.nonlinear.s"] = sum(sp.duration for sp in named("sim.nonlinear")) * per_op

    writes = [sp for sp in inside if sp.name.startswith("cli.write.")]
    m["cli.write.s"] = sum(sp.duration for sp in writes
                           if not sp.parent.name.startswith("cli.write.")) * per_op
    m["cli.bytes_written"] = bytes_written * per_op
    m["cli.trajectories_csv.s"] = sum(
        sp.duration for sp in named("cli.write.trajectories_csv")) * per_op
    m["cli.audit.s"] = sum(sp.duration for sp in named("cli.audit")) * per_op

    for layer in LAYERS:
        if layer == "reach":
            continue  # reported as reach.check.self_s
        m["%s.self_s" % layer] = sum(sp.self_s for sp in inside
                                     if sp.layer == layer) * per_op
    m["trace.op_s"] = sum(sp.duration for sp in named(OP_SPAN)) * per_op
    m["trace.overhead_share"] = traced_p50 / untraced_p50 - 1.0
    return m
