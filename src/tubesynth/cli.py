"""Command-line front end and file formats.

Subcommands: synth, simulate, check-contain, check-invariant,
demo-tanks.  Config and result files are JSON; every matrix is encoded
as {"rows": r, "cols": c, "data": [...]} with row-major data, so the
files are diffable and language-neutral.  Trajectories are written as
RFC-4180 CSV with a header row.

Every value read from a user file goes through the typed readers below,
which raise ConfigError and nothing else.  ``main`` is the one place
where exceptions become exit codes: 0 success, 2 input/validation error
("config error: ..." on stderr), 3 synthesis failure ("synthesis
failed: ..."), 4 audit failure (a membership or containment check came
back false, or a nonlinear tanks run left the model's domain: "audit
failed: ...").
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lp, sim, synth
# vertices is not called here but stays bound, as it was: the benchmark's
# tracer (perfbench/tracing.py) expects to wrap it in this module
from .polytope import EmptySetError, PolyhedralSet, UnboundedSetError, step_vertices, \
    vertices
from .reach import PolytopicModel, check_containment, check_robust_invariant
from .tube import StepSpec, TargetTube, all_bounded, tube_from_step_specs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SYNTH = 3
EXIT_AUDIT = 4


class ConfigError(Exception):
    """Malformed or inconsistent input file."""


# -- typed readers ---------------------------------------------------------

def _object(value, name, *required):
    """``value`` as a JSON object holding every key in ``required``."""
    if not isinstance(value, dict):
        raise ConfigError("%s: expected an object" % name)
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError("%s: missing %s" % (name, ", ".join(map(repr, missing))))
    return value


def _list(value, name, length=None):
    if not isinstance(value, list):
        raise ConfigError("%s: expected a list" % name)
    if length is not None and len(value) != length:
        raise ConfigError("%s has %d entries, expected %d" % (name, len(value), length))
    return value


def _number(value, name):
    """A finite JSON number as a float."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError("%s: expected a finite number, got %r" % (name, value))


def _numbers(value, name):
    return np.array([_number(v, "%s[%d]" % (name, i))
                     for i, v in enumerate(_list(value, name))], dtype=float)


def _integer(value, name):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s: expected an integer, got %r" % (name, value))
    return value


def _flag(value, name):
    if not isinstance(value, bool):
        raise ConfigError("%s: expected true or false, got %r" % (name, value))
    return value


def encode_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1],
            "data": [float(v) for v in M.reshape(-1)]}


def decode_matrix(obj, name="matrix"):
    obj = _object(obj, name, "rows", "cols", "data")
    rows = _integer(obj["rows"], name + ".rows")
    cols = _integer(obj["cols"], name + ".cols")
    data = _numbers(obj["data"], name + ".data")
    if min(rows, cols) < 0 or data.size != rows * cols:
        raise ConfigError("%s: %d data values for a %dx%d matrix"
                          % (name, data.size, rows, cols))
    return data.reshape(rows, cols)


def encode_set(P: PolyhedralSet):
    return {"A": encode_matrix(P.A), "b": [float(v) for v in P.b]}


def decode_set(obj, name="set"):
    obj = _object(obj, name, "A", "b")
    A = decode_matrix(obj["A"], name + ".A")
    b = _numbers(obj["b"], name + ".b")
    try:
        return PolyhedralSet(A, b)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (name, exc))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# -- problem configuration ------------------------------------------------

@dataclass
class ProblemConfig:
    """Validated, in-memory form of a problem file: the synthesis problem
    plus the settings that are not part of it."""

    problem: synth.SynthesisProblem
    containment_tol: float
    defect_zero_tol: float
    seed: int


def decode_model(obj):
    obj = _object(obj, "model", "vertices", "C")
    pairs = []
    for i, v in enumerate(_list(obj["vertices"], "model.vertices")):
        v = _object(v, "model.vertices[%d]" % i, "A", "B")
        pairs.append((decode_matrix(v["A"], "model.vertices[%d].A" % i),
                      decode_matrix(v["B"], "model.vertices[%d].B" % i)))
    D = obj.get("D")
    try:
        return PolytopicModel(vertices=pairs, C=decode_matrix(obj["C"], "model.C"),
                              D=None if D is None else decode_matrix(D, "model.D"))
    except ValueError as exc:
        raise ConfigError("model: %s" % exc)


def _decode_step_spec(obj, name):
    fields = {key: _number(v, "%s.%s" % (name, key))
              for key, v in _object(obj, name).items()}
    try:
        return StepSpec(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (name, exc))


def _decode_tube(obj, K, n):
    obj = _object(obj, "tube")
    if "explicit" in obj:
        entries = _list(obj["explicit"], "tube.explicit", K + 1)
        t = TargetTube([decode_set(e, "tube.explicit[%d]" % k)
                        for k, e in enumerate(entries)])
    elif "step_specs" in obj:
        block = _object(obj["step_specs"], "tube.step_specs", "C", "specs")
        C = decode_matrix(block["C"], "tube.step_specs.C")
        specs = [_decode_step_spec(s, "tube.step_specs.specs[%d]" % i)
                 for i, s in enumerate(_list(block["specs"], "tube.step_specs.specs"))]
        try:
            t = tube_from_step_specs(specs, C, K)
        except ValueError as exc:
            raise ConfigError("tube: %s" % exc)
    else:
        raise ConfigError("tube: expected 'explicit' or 'step_specs'")
    if t.dim != n:
        raise ConfigError("tube dimension %d does not match the model (%d)"
                          % (t.dim, n))
    return t


def _decode_setlist(obj, K, what):
    """Per-step sets from a list of K sets, bare or as {"sets": [...]}."""
    if obj is None:
        return None
    entries = obj["sets"] if isinstance(obj, dict) and "sets" in obj else obj
    return [decode_set(e, "%s[%d]" % (what, k))
            for k, e in enumerate(_list(entries, what, K))]


def load_config(path) -> ProblemConfig:
    obj = _object(_load_json(path), "config", "horizon", "model", "tube")
    K = _integer(obj["horizon"], "horizon")
    if K < 1:
        raise ConfigError("horizon must be at least 1")
    model = decode_model(obj["model"])
    # every other field first: the tube may take long to build
    flags = _object(obj.get("flags", {}), "flags")
    nonneg_bounds = _flag(flags.get("nonneg_bounds", True), "flags.nonneg_bounds")
    disturbance_floor = _flag(flags.get("disturbance_floor", False),
                              "flags.disturbance_floor")
    tols = _object(obj.get("tolerances", {}), "tolerances")
    containment_tol = _number(tols.get("containment", 1e-7), "tolerances.containment")
    defect_zero_tol = _number(tols.get("defect_zero", synth.EPS_ZERO_TOL),
                              "tolerances.defect_zero")
    seeds = _object(obj.get("seeds", {}), "seeds")
    seed = _integer(seeds.get("simulate", 0), "seeds.simulate")
    disturbance = _decode_setlist(obj.get("disturbance"), K, "disturbance")
    control_constraints = _decode_setlist(obj.get("control_constraints"), K,
                                          "control_constraints")
    problem = synth.SynthesisProblem(
        model=model, tube=_decode_tube(obj["tube"], K, model.n),
        disturbance=disturbance, control_constraints=control_constraints,
        nonneg_bounds=nonneg_bounds, disturbance_floor=disturbance_floor)
    return ProblemConfig(problem=problem, containment_tol=containment_tol,
                         defect_zero_tol=defect_zero_tol, seed=seed)


# -- result files ----------------------------------------------------------

def write_result_files(out_dir, problem: synth.SynthesisProblem,
                       result: synth.SynthesisResult):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = result.horizon

    _write_json(out / "gains.json", {
        "horizon": K,
        "inputs": problem.model.m,
        "outputs": problem.model.r,
        "gains": [encode_matrix(F) for F in result.gains],
    })

    steps = []
    for k in range(K + 1):
        entry = {
            "k": k,
            "tube_bounds": [float(v) for v in problem.tube[k].b],
            "set_bounds": [float(v) for v in result.sets[k].b],
        }
        if k < K:
            entry["residual"] = [float(v) for v in result.residuals[k]]
            entry["provenance"] = result.provenance[k]
        steps.append(entry)
    _write_json(out / "sets.json", {"horizon": K, "steps": steps})

    certs = []
    for k, rpt in enumerate(result.step_reports):
        entry = {"k": k, "contained": rpt.contained,
                 "worst_violation": rpt.worst_violation}
        if rpt.certificates is not None:
            entry["certificates"] = [encode_matrix(G) for G in rpt.certificates]
        certs.append(entry)
    _write_json(out / "certificates.json", {"steps": certs})


def load_gains(path, model: PolytopicModel, K):
    gains = _object(_load_json(path), "gains file", "gains")["gains"]
    out = []
    for k, g in enumerate(_list(gains, "gains", K)):
        F = decode_matrix(g, "gains[%d]" % k)
        if F.shape != (model.m, model.r):
            raise ConfigError("gains[%d] is %dx%d, expected %dx%d"
                              % (k, F.shape[0], F.shape[1], model.m, model.r))
        out.append(F)
    return out


def write_trajectories_csv(path, runs: sim.Runs, inside):
    """One row per run and step of ``runs``, whose realizations are vertex
    indices; ``inside`` holds the (R, K+1) membership flags.  Rows are
    formatted and written one run at a time.

    No field can contain a comma, quote or line break, so every row is
    formatted with one template; the bytes are those csv.writer would
    write (CRLF line ends, nothing quoted).
    """
    K = runs.horizon
    n = runs.states.shape[2]
    m = runs.controls.shape[2]
    header = (["run_id", "k"] + ["x_%d" % (i + 1) for i in range(n)]
              + ["u_%d" % (i + 1) for i in range(m)] + ["realized", "membership_ok"])
    step_row = ",".join(["%d", "%d"] + ["%.17g"] * (n + m) + ["%d", "%d"]) + "\r\n"
    last_row = ",".join(["%d", "%d"] + ["%.17g"] * n + [""] * (m + 1) + ["%d"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rid in range(len(runs)):
            xs = runs.states[rid].tolist()
            us = runs.controls[rid].tolist()
            realized = runs.realized[rid].tolist()
            ok = inside[rid].tolist()
            fh.write("".join([step_row % (rid, k, *xs[k], *us[k], realized[k], ok[k])
                              for k in range(K)]
                             + [last_row % (rid, K, *xs[K], ok[K])]))


def audit_runs(reports, tol):
    """The audit.json summary of per-run membership reports."""
    failures = []
    worst = -np.inf
    for rid, rep in enumerate(reports):
        worst = max(worst, rep.worst)
        if not rep.ok:
            k, row, amount = rep.first_violation
            failures.append({"run": rid, "k": k, "row": row, "violation": amount})
    return {"runs": len(reports), "passed": len(reports) - len(failures),
            "failed": len(failures), "tolerance": tol,
            "worst_violation": float(worst), "failures": failures}


def linear_audit(out, model, gains, sets, runs, rng, tol, disturbance=None):
    """Simulate ``runs`` closed-loop runs, write trajectories.csv into
    ``out`` and return the audit summary.

    ``rng`` draws the initial states from sets[0], then one seed per
    run; run r realizes a uniformly random vertex at every step (and,
    given the sets V(k), a point of V(k)) from its own generator.  sets[k]
    is the membership set of step k.  ``out`` is created only after the
    initial states are drawn, so an X(0) that cannot be sampled leaves
    no directory behind.
    """
    x0s = sim.sample_states(sets[0], runs, rng)
    out.mkdir(parents=True, exist_ok=True)
    seeds = rng.integers(2 ** 31, size=runs).tolist()
    policies = [sim.RandomVertex(seed=v) for v in seeds]
    batch = sim.simulate_runs(model, gains, x0s, policies, disturbance)
    inside, reports = sim.verify_runs(batch.states, sets, tol)
    write_trajectories_csv(out / "trajectories.csv", batch, inside)
    return audit_runs(reports, tol)


# -- subcommand drivers ----------------------------------------------------

def _check_runs(runs):
    if runs < 1:
        raise ConfigError("--runs must be at least 1, got %d" % runs)


def run_synth(config_path, out_dir, tol=None):
    cfg = load_config(config_path)
    problem = cfg.problem
    if problem.nonneg_bounds and not all_bounded(problem.tube):
        raise ConfigError("tube must be bounded for the guaranteed mode")
    tol = cfg.containment_tol if tol is None else _number(tol, "--tol")
    result = synth.synthesize(problem, containment_tol=tol,
                              eps_zero_tol=cfg.defect_zero_tol)
    write_result_files(out_dir, problem, result)
    print("synthesized %d steps -> %s" % (result.horizon, out_dir))
    if not result.certified:
        print("warning: a step failed certification", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _load_traversed_sets(gains_path, tube: TargetTube):
    """Traversed sets from the sets.json written next to the gains, when
    available; the tube sections otherwise.  Sampling and auditing always
    use the same sets, so re-audits of a synthesis run are exact."""
    sets_path = Path(gains_path).parent / "sets.json"
    if not sets_path.exists():
        return list(tube.sets)
    steps = _object(_load_json(sets_path), str(sets_path), "steps")["steps"]
    out = []
    for k, entry in enumerate(_list(steps, "%s: steps" % sets_path, tube.horizon + 1)):
        name = "%s: steps[%d]" % (sets_path, k)
        bounds = _numbers(_object(entry, name, "set_bounds")["set_bounds"],
                          name + ".set_bounds")
        try:
            out.append(PolyhedralSet(tube[k].A, bounds))
        except ValueError as exc:
            raise ConfigError("%s.set_bounds: %s" % (name, exc))
    return out


def run_simulate(config_path, gains_path, runs, seed, out_dir, tol=None):
    _check_runs(runs)
    cfg = load_config(config_path)
    problem = cfg.problem
    gains = load_gains(gains_path, problem.model, problem.horizon)
    sets = _load_traversed_sets(gains_path, problem.tube)
    tol = cfg.containment_tol if tol is None else _number(tol, "--tol")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    out = Path(out_dir)
    audit = linear_audit(out, problem.model, gains, sets, runs, rng, tol,
                         problem.disturbance)
    _write_json(out / "audit.json", audit)
    print("%d/%d runs inside the tube (worst violation %g)"
          % (audit["passed"], audit["runs"], audit["worst_violation"]))
    return EXIT_OK if audit["failed"] == 0 else EXIT_AUDIT


def _load_check(config_path, tol, *set_keys):
    """A check file, its model, its gain F and the tolerance in force;
    ``set_keys`` name the sets the check needs."""
    obj = _object(_load_json(config_path), "config", "model", "F", *set_keys)
    tol = (_number(obj.get("tol", 1e-7), "tol") if tol is None
           else _number(tol, "--tol"))
    return obj, decode_model(obj["model"]), decode_matrix(obj["F"], "F"), tol


def _report_check(verdict, rpt, out_path):
    """Print the verdict line, write the report with its certificates to
    ``out_path`` (if given) and return the exit code of the verdict."""
    summary = {verdict: rpt.contained, "worst_violation": rpt.worst_violation}
    print(json.dumps(summary))
    if out_path:
        if rpt.certificates is not None:
            summary["certificates"] = [encode_matrix(G) for G in rpt.certificates]
        _write_json(out_path, summary)
    return EXIT_OK if rpt.contained else EXIT_AUDIT


def run_check_contain(config_path, out_path=None, tol=None):
    obj, model, F, tol = _load_check(config_path, tol, "P1", "P2")
    V = obj.get("V")
    rpt = check_containment(model, F, decode_set(obj["P1"], "P1"),
                            decode_set(obj["P2"], "P2"), tol=tol,
                            disturbance=None if V is None else decode_set(V, "V"))
    return _report_check("contained", rpt, out_path)


def run_check_invariant(config_path, out_path=None, tol=None):
    obj, model, F, tol = _load_check(config_path, tol, "S", "V")
    rpt = check_robust_invariant(model, F, decode_set(obj["S"], "S"),
                                 decode_set(obj["V"], "V"), tol=tol)
    return _report_check("invariant", rpt, out_path)


# -- tanks demo -------------------------------------------------------------

TANKS_SETPOINT = (2.0, 1.6)
TANKS_R1 = (3.0, 4.0, 5.0)
TANKS_R2 = 5.0


def tanks_problem(horizon=15):
    """Demo problem: three tank-area models, tank-2 output feedback,
    step-response tube on both levels, pump/drain direction limits."""
    pairs = []
    for R1 in TANKS_R1:
        Ac, Bc = sim.tanks_linearize(R1, TANKS_R2, *TANKS_SETPOINT)
        pairs.append(sim.discretize_zoh(Ac, Bc, sim.SAMPLE_TIME))
    model = PolytopicModel(vertices=pairs, C=np.array([[0.0, 1.0]]))
    specs = [
        StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.10, settle_time=10.0,
                 settle_tol=0.01, overshoot=0.01, initial_lower=-0.30,
                 sample_time=sim.SAMPLE_TIME),
        StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.05, settle_time=10.0,
                 settle_tol=0.01, overshoot=0.01, initial_lower=-0.15,
                 sample_time=sim.SAMPLE_TIME),
    ]
    t = tube_from_step_specs(specs, np.eye(2), horizon)
    # worst-case admissible shifted controls over the unknown tank-1 area:
    # inflow >= 0 and outflow <= 0 for every area in the family
    drop = np.sqrt(TANKS_SETPOINT[0] - TANKS_SETPOINT[1])
    u1_floor = min(np.sqrt(2 * sim.GRAVITY) / R1 * drop for R1 in TANKS_R1)
    u2_ceil = np.sqrt(2 * sim.GRAVITY) / TANKS_R2 * drop
    U = PolyhedralSet(np.array([[-1.0, 0.0], [0.0, 1.0]]),
                      np.array([u1_floor, u2_ceil]))
    problem = synth.SynthesisProblem(model=model, tube=t,
                                     control_constraints=[U] * horizon)
    return problem, specs


def _write_envelope_csv(path, spec, Ts, K, runs_by_r1, coord):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        labels = sorted(runs_by_r1)
        w.writerow(["k", "lower", "upper"] + ["e%d_r1_%g" % (coord + 1, r) for r in labels])
        for k in range(K + 1):
            t = k * Ts
            row = [k, "%.17g" % spec.lower_envelope(t), "%.17g" % spec.upper_envelope(t)]
            for r in labels:
                row.append("%.17g" % runs_by_r1[r].states[k][coord])
            w.writerow(row)


def _write_sets_csv(path, tube_sets, traversed_sets):
    # one enumeration per distinct set: X(k) is H(k) on TubeExact steps,
    # and a settled tube repeats its sections
    found = step_vertices(tube_sets + traversed_sets)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "set", "vertex", "e1", "e2"])
        for k, (H, X) in enumerate(zip(found, found[len(tube_sets):])):
            for name, verts in (("H", H), ("X", X)):
                for j, v in enumerate(verts):
                    w.writerow([k, name, j, "%.17g" % v[0], "%.17g" % v[1]])


def run_demo_tanks(out_dir, horizon=15, runs=100, seed=0, r1=None, tol=1e-7):
    _check_runs(runs)
    tol = _number(tol, "--tol")
    if r1 is not None and not _number(r1, "--r1") > 0.0:
        raise ConfigError("--r1 must be positive, got %r" % r1)
    problem, specs = tanks_problem(horizon=horizon)
    result = synth.synthesize(problem, containment_tol=tol)

    # the nonlinear runs come first: one that leaves the model's domain
    # raises SimulationError before any file is written
    areas = list(TANKS_R1) if r1 is None else [float(r1)]
    nl_runs = {}
    for j, area in enumerate(areas):
        e0 = sim.sample_states(result.sets[0], 1, np.random.default_rng(seed + 7 + j))[0]
        nl_runs[area] = sim.tanks_nonlinear_simulate(
            area, TANKS_R2, np.asarray(TANKS_SETPOINT) + e0, result.gains,
            TANKS_SETPOINT)
    _, nl_reports = sim.verify_runs(np.stack([tr.states for tr in nl_runs.values()]),
                                    problem.tube.sets, tol=1e-3)

    out = Path(out_dir)
    write_result_files(out, problem, result)
    audit = linear_audit(out, problem.model, result.gains, result.sets, runs,
                         np.random.default_rng(seed), tol)
    for area, rep in zip(areas, nl_reports):
        if not rep.ok:
            audit["failures"].append({"run": "nonlinear_r1_%g" % area,
                                      "k": rep.first_violation[0],
                                      "row": rep.first_violation[1],
                                      "violation": rep.first_violation[2]})
    nl_worst = max(rep.worst for rep in nl_reports)
    audit["nonlinear_worst_violation"] = float(nl_worst)
    _write_json(out / "audit.json", audit)

    Ts = specs[0].sample_time
    _write_envelope_csv(out / "tank1_envelopes.csv", specs[0], Ts, horizon, nl_runs, 0)
    _write_envelope_csv(out / "tank2_envelopes.csv", specs[1], Ts, horizon, nl_runs, 1)
    _write_sets_csv(out / "tube_sets.csv", list(problem.tube.sets), result.sets)

    ok = (result.certified and audit["failed"] == 0
          and all(rep.ok for rep in nl_reports))
    print("tanks demo: %d linear runs (%d passed), %d nonlinear runs, "
          "worst envelope slack %g -> %s"
          % (audit["runs"], audit["passed"], len(nl_runs), nl_worst, out))
    return EXIT_OK if ok else EXIT_AUDIT


# -- argument parsing and the exit-code boundary ------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tubesynth",
        description="Feedback synthesis and auditing for polyhedral target tubes")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="synthesize gains from a problem file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=lambda a: run_synth(a.config, a.out, tol=a.tol))

    p = subs.add_parser("simulate", help="audit stored gains by simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--gains", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=lambda a: run_simulate(a.config, a.gains, a.runs, a.seed,
                                              a.out, tol=a.tol))

    p = subs.add_parser("check-contain", help="one-shot containment check")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=lambda a: run_check_contain(a.config, a.out, tol=a.tol))

    p = subs.add_parser("check-invariant", help="robust-invariance check")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=lambda a: run_check_invariant(a.config, a.out, tol=a.tol))

    p = subs.add_parser("demo-tanks", help="coupled-tanks case study")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(run=lambda a: run_demo_tanks(a.out, horizon=a.k, runs=a.runs,
                                                seed=a.seed, r1=a.r1, tol=a.tol))

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (synth.SynthesisError, lp.LpNumericalError) as exc:
        print("synthesis failed: %s" % exc, file=sys.stderr)
        return EXIT_SYNTH
    except (ConfigError, ValueError, EmptySetError, UnboundedSetError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except sim.SimulationError as exc:
        print("audit failed: %s" % exc, file=sys.stderr)
        return EXIT_AUDIT


if __name__ == "__main__":
    sys.exit(main())
