"""Checks of the benchmark's own tracer and oracles.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import TanksSynth  # noqa: E402


@pytest.fixture(scope="module")
def traced_tanks_op():
    ts = run.fresh_import()
    wl = TanksSynth(ts, 0, None)
    tracer = tracing.Tracer()
    tracer.install(ts)
    patched = tracer.patched
    try:
        op = tracer.open(tracing.OP_SPAN)
        result = wl.run(wl.inputs(0))
        tracer.close(op)
    finally:
        tracer.restore()
    return ts, wl, tracer, patched, result


def test_tanks_op_span_counts(traced_tanks_op):
    _, _, tracer, _, _ = traced_tanks_op
    solves = [sp for sp in tracer.spans if sp.name == "lp.solve"]
    roles = [sp.attrs["role"] for sp in solves]
    under_bounded = [sp for sp in solves
                     if any(a.name == "polytope.is_bounded" for a in sp.ancestors())]
    under_recert = [sp for sp in solves
                    if any(a.layer == "reach" and a.parent.name == "synth.synthesize"
                           for a in sp.ancestors())]
    assert len(solves) == 262
    assert roles.count("lp1") == 15
    assert roles.count("lp2") == 7
    assert roles.count("support") == 240
    assert len(under_bounded) == 60
    assert len(under_recert) == 180
    assert sum(sp.name == "polytope.vertices" for sp in tracer.spans) == 15
    assert max(sp.attrs["rows"] for sp in solves if sp.attrs["role"] == "lp1") == 44


def test_bindings_imported_by_name_are_wrapped_and_restored(traced_tanks_op):
    ts, _, _, patched, _ = traced_tanks_op
    wrapped_vertices = {m.__name__ for m, key, _ in patched if key == "vertices"}
    assert {"tubesynth", "tubesynth.polytope", "tubesynth.synth",
            "tubesynth.sim", "tubesynth.cli"} <= wrapped_vertices
    for module, key, original in patched:
        assert getattr(module, key) is original
    assert tracing.leftover_wrappers(ts) == []


def test_layer_self_times_partition_the_op(traced_tanks_op):
    _, wl, tracer, _, result = traced_tanks_op
    m = tracing.layer_metrics(tracer.spans, 1.0, 1.0, 0)
    parts = sum(m[name] for name in ("lp.self_s", "polytope.self_s", "reach.check.self_s",
                                     "synth.self_s", "tube.self_s", "sim.self_s",
                                     "cli.self_s", "bench.self_s"))
    assert parts == pytest.approx(m["trace.op_s"], rel=1e-9)
    assert m["lp.calls"] == 262
    assert wl.check(0, result)


def test_tableau_shape_counts_artificials():
    ts = run.fresh_import()
    problem = ts.LpProblem(c=[1.0, 1.0, 0.0], A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0],
                           A_in=[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], b_in=[2.0, -0.5],
                           free=[False, False, True])
    # 3 variables + 1 free copy + 2 slacks + (1 equality + 1 negative rhs) artificials
    assert tracing.tableau_shape(problem) == (3, 8)


def test_synthesis_gate_rejects_a_tampered_gain(traced_tanks_op):
    _, wl, _, _, result = traced_tanks_op
    assert wl.check(0, result)
    saved = result.gains[3]
    result.gains[3] = saved + 1e-3
    try:
        assert not wl.check(0, result)
    finally:
        result.gains[3] = saved
