"""Command-line front end and file formats.

Subcommands: synth, simulate, check-contain, check-invariant,
demo-tanks.  Config and result files are JSON; every matrix is encoded
as {"rows": r, "cols": c, "data": [...]} with row-major data, so the
files are diffable and language-neutral.  Trajectories are written as
RFC-4180 CSV with a header row.

Exit codes: 0 success, 2 input/validation error, 3 synthesis failure,
4 audit failure (a membership or containment check came back false).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import lp, sim, synth
from .polytope import EmptySetError, PolyhedralSet, is_bounded, vertices
from .reach import PolytopicModel, check_containment, \
    check_containment_disturbance, check_robust_invariant
from .tube import StepSpec, TargetTube, tube_from_step_specs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SYNTH = 3
EXIT_AUDIT = 4


class ConfigError(Exception):
    """Malformed or inconsistent input file."""


# -- JSON helpers --------------------------------------------------------

def encode_matrix(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"rows": M.shape[0], "cols": M.shape[1],
            "data": [float(v) for v in M.reshape(-1)]}


def decode_matrix(obj, name="matrix"):
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = np.asarray(obj["data"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("%s: expected {rows, cols, data}: %s" % (name, exc))
    if data.size != rows * cols:
        raise ConfigError("%s: %d data values for a %dx%d matrix"
                          % (name, data.size, rows, cols))
    return data.reshape(rows, cols)


def encode_set(P: PolyhedralSet):
    return {"A": encode_matrix(P.A), "b": [float(v) for v in P.b]}


def decode_set(obj, name="set"):
    if not isinstance(obj, dict) or "A" not in obj or "b" not in obj:
        raise ConfigError("%s: expected {A, b}" % name)
    try:
        return PolyhedralSet(decode_matrix(obj["A"], name + ".A"),
                             np.asarray(obj["b"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ConfigError("%s: %s" % (name, exc))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc))


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# -- problem configuration ------------------------------------------------

@dataclass
class ProblemConfig:
    """Validated, in-memory form of a problem file."""

    horizon: int
    model: PolytopicModel
    tube: TargetTube
    disturbance: Optional[List[Tuple[np.ndarray, np.ndarray]]]
    control_constraints: Optional[List[Tuple[np.ndarray, np.ndarray]]]
    nonneg_bounds: bool
    disturbance_floor: bool
    containment_tol: float
    defect_zero_tol: float
    seed: int

    def to_problem(self) -> synth.SynthesisProblem:
        return synth.SynthesisProblem(
            model=self.model, tube=self.tube, disturbance=self.disturbance,
            control_constraints=self.control_constraints,
            nonneg_bounds=self.nonneg_bounds,
            disturbance_floor=self.disturbance_floor)


def decode_model(obj):
    if not isinstance(obj, dict) or "vertices" not in obj or "C" not in obj:
        raise ConfigError("model: expected {vertices, C[, D]}")
    if not isinstance(obj["vertices"], list):
        raise ConfigError("model.vertices: expected a list")
    pairs = []
    for i, v in enumerate(obj["vertices"]):
        if not isinstance(v, dict) or "A" not in v or "B" not in v:
            raise ConfigError("model.vertices[%d]: expected {A, B}" % i)
        pairs.append((decode_matrix(v["A"], "model.vertices[%d].A" % i),
                      decode_matrix(v["B"], "model.vertices[%d].B" % i)))
    D = obj.get("D")
    try:
        return PolytopicModel(vertices=pairs, C=decode_matrix(obj["C"], "model.C"),
                              D=None if D is None else decode_matrix(D, "model.D"))
    except ValueError as exc:
        raise ConfigError("model: %s" % exc)


def _decode_tube(obj, K, n):
    if not isinstance(obj, dict):
        raise ConfigError("tube: expected an object")
    if "explicit" in obj:
        entries = obj["explicit"]
        if len(entries) != K + 1:
            raise ConfigError("tube.explicit has %d entries, expected %d"
                              % (len(entries), K + 1))
        sets = [decode_set(e, "tube.explicit[%d]" % k) for k, e in enumerate(entries)]
        t = TargetTube(sets)
    elif "step_specs" in obj:
        block = obj["step_specs"]
        if not isinstance(block, dict) or "C" not in block or "specs" not in block:
            raise ConfigError("tube.step_specs: expected {C, specs}")
        C = decode_matrix(block["C"], "tube.step_specs.C")
        specs = []
        for i, s in enumerate(block["specs"]):
            try:
                specs.append(StepSpec(**s))
            except (TypeError, ValueError) as exc:
                raise ConfigError("tube.step_specs.specs[%d]: %s" % (i, exc))
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
    """Per-step (A, b) pairs from a list of K sets, bare or as {"sets": [...]}."""
    if obj is None:
        return None
    entries = obj["sets"] if isinstance(obj, dict) and "sets" in obj else obj
    if not isinstance(entries, list) or len(entries) != K:
        raise ConfigError("%s: expected a list of %d sets" % (what, K))
    sets = [decode_set(e, "%s[%d]" % (what, k)) for k, e in enumerate(entries)]
    return [(S.A, S.b) for S in sets]


def load_config(path) -> ProblemConfig:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not {"horizon", "model", "tube"} <= obj.keys():
        raise ConfigError("config needs horizon, model and tube")
    try:
        K = int(obj["horizon"])
    except (TypeError, ValueError):
        raise ConfigError("horizon: expected an integer, got %r" % (obj["horizon"],))
    if K < 1:
        raise ConfigError("horizon must be at least 1")
    model = decode_model(obj["model"])
    t = _decode_tube(obj["tube"], K, model.n)
    flags = obj.get("flags", {})
    tols = obj.get("tolerances", {})
    seeds = obj.get("seeds", {})
    cfg = ProblemConfig(
        horizon=K, model=model, tube=t,
        disturbance=_decode_setlist(obj.get("disturbance"), K, "disturbance"),
        control_constraints=_decode_setlist(obj.get("control_constraints"), K,
                                            "control_constraints"),
        nonneg_bounds=bool(flags.get("nonneg_bounds", True)),
        disturbance_floor=bool(flags.get("disturbance_floor", False)),
        containment_tol=float(tols.get("containment", 1e-7)),
        defect_zero_tol=float(tols.get("defect_zero", synth.EPS_ZERO_TOL)),
        seed=int(seeds.get("simulate", 0)))
    try:
        cfg.to_problem()   # cross-checks every dimension at load time
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


# -- result files ----------------------------------------------------------

def write_result_files(out_dir, cfg: ProblemConfig, result: synth.SynthesisResult):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    K = result.horizon

    _write_json(out / "gains.json", {
        "horizon": K,
        "inputs": cfg.model.m,
        "outputs": cfg.model.r,
        "gains": [encode_matrix(F) for F in result.gains],
    })

    steps = []
    for k in range(K + 1):
        entry = {
            "k": k,
            "tube_bounds": [float(v) for v in cfg.tube[k].b],
            "set_bounds": [float(v) for v in result.bounds[k]],
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
    obj = _load_json(path)
    gains = obj.get("gains")
    if gains is None:
        raise ConfigError("gains file lacks a 'gains' list")
    if len(gains) != K:
        raise ConfigError("gains file has %d entries, expected %d" % (len(gains), K))
    out = []
    for k, g in enumerate(gains):
        F = decode_matrix(g, "gains[%d]" % k)
        if F.shape != (model.m, model.r):
            raise ConfigError("gains[%d] is %dx%d, expected %dx%d"
                              % (k, F.shape[0], F.shape[1], model.m, model.r))
        out.append(F)
    return out


def _realized_field(w):
    if isinstance(w, (int, np.integer)):
        return str(int(w))
    return ";".join("%.17g" % v for v in np.asarray(w).reshape(-1))


def write_trajectories_csv(path, runs: sim.Runs, inside):
    """One row per run and step of ``runs``; ``inside`` holds the (R, K+1)
    membership flags.  Rows are formatted and written one run at a time.

    No field can contain a comma, quote or line break, so every row is
    formatted with one template; the bytes are those csv.writer would
    write (CRLF line ends, nothing quoted).
    """
    K = runs.horizon
    n = runs.states.shape[2]
    m = runs.controls.shape[2]
    header = (["run_id", "k"] + ["x_%d" % (i + 1) for i in range(n)]
              + ["u_%d" % (i + 1) for i in range(m)] + ["realized", "membership_ok"])
    step_row = ",".join(["%d", "%d"] + ["%.17g"] * (n + m) + ["%s", "%d"]) + "\r\n"
    last_row = ",".join(["%d", "%d"] + ["%.17g"] * n + [""] * (m + 1) + ["%d"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rid in range(len(runs)):
            xs = runs.states[rid].tolist()
            us = runs.controls[rid].tolist()
            realized = runs.realized[rid]
            if realized.ndim == 1:
                realized = realized.tolist()
            ok = inside[rid].tolist()
            fh.write("".join([step_row % (rid, k, *xs[k], *us[k],
                                          _realized_field(realized[k]), ok[k])
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


def linear_audit(out, model, gains, sets, runs, rng, tol, disturbance_sampler=None):
    """Simulate ``runs`` closed-loop runs, write trajectories.csv into
    ``out`` and return the audit summary.

    ``rng`` draws the initial states from sets[0], then one seed per
    run; run r realizes a uniformly random vertex at every step (and,
    with a sampler, its disturbance) from its own generator.  sets[k]
    is the membership set of step k.
    """
    x0s = sim.sample_states(sets[0], runs, rng)
    seeds = rng.integers(2 ** 31, size=runs).tolist()
    policies = [sim.RandomVertex(seed=v) for v in seeds]
    batch = sim.simulate_runs(model, gains, x0s, policies, disturbance_sampler)
    inside, reports = sim.verify_runs(batch.states, sets, tol)
    write_trajectories_csv(out / "trajectories.csv", batch, inside)
    return audit_runs(reports, tol)


# -- subcommand drivers ----------------------------------------------------

def run_synth(config_path, out_dir, tol=None):
    try:
        cfg = load_config(config_path)
        if cfg.nonneg_bounds and not all(is_bounded(s) for s in cfg.tube.sets):
            raise ConfigError("tube must be bounded for the guaranteed mode")
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except EmptySetError:
        print("config error: a tube section is empty", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = synth.synthesize(
            cfg.to_problem(),
            containment_tol=cfg.containment_tol if tol is None else tol,
            eps_zero_tol=cfg.defect_zero_tol)
    except (synth.SynthesisError, lp.LpNumericalError) as exc:
        print("synthesis failed: %s" % exc, file=sys.stderr)
        return EXIT_SYNTH
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    write_result_files(out_dir, cfg, result)
    print("synthesized %d steps -> %s" % (result.horizon, out_dir))
    if not result.certified:
        print("warning: a step failed certification", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def _load_traversed_sets(gains_path, cfg):
    """Traversed sets from the sets.json written next to the gains, when
    available; the tube sections otherwise.  Sampling and auditing always
    use the same sets, so re-audits of a synthesis run are exact."""
    sets_path = Path(gains_path).parent / "sets.json"
    if not sets_path.exists():
        return list(cfg.tube.sets)
    obj = _load_json(sets_path)
    steps = obj.get("steps") if isinstance(obj, dict) else None
    if not isinstance(steps, list) or len(steps) != cfg.horizon + 1:
        raise ConfigError("%s: expected a list of %d steps"
                          % (sets_path, cfg.horizon + 1))
    out = []
    for k, entry in enumerate(steps):
        try:
            out.append(PolyhedralSet(cfg.tube[k].A, entry["set_bounds"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("%s: steps[%d].set_bounds: %s" % (sets_path, k, exc))
    return out


def run_simulate(config_path, gains_path, runs, seed, out_dir, tol=None):
    try:
        if runs < 1:
            raise ConfigError("--runs must be at least 1, got %d" % runs)
        cfg = load_config(config_path)
        gains = load_gains(gains_path, cfg.model, cfg.horizon)
        sets = _load_traversed_sets(gains_path, cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    tol = cfg.containment_tol if tol is None else tol
    sampler = None
    if cfg.disturbance is not None and cfg.model.p > 0:
        v_corners = [np.array(vertices(PolyhedralSet(W, g)))
                     for W, g in cfg.disturbance]

        def sampler(k, rng, _v=v_corners):
            V = _v[k]
            return rng.dirichlet(np.ones(V.shape[0])) @ V

    rng = np.random.default_rng(seed if seed is not None else cfg.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    audit = linear_audit(out, cfg.model, gains, sets, runs, rng, tol, sampler)
    _write_json(out / "audit.json", audit)
    print("%d/%d runs inside the tube (worst violation %g)"
          % (audit["passed"], audit["runs"], audit["worst_violation"]))
    return EXIT_OK if audit["failed"] == 0 else EXIT_AUDIT


def run_check_contain(config_path, out_path=None, tol=None):
    try:
        obj = _load_json(config_path)
        model = decode_model(obj["model"])
        F = decode_matrix(obj["F"], "F")
        P1 = decode_set(obj["P1"], "P1")
        P2 = decode_set(obj["P2"], "P2")
        V = decode_set(obj["V"], "V") if obj.get("V") is not None else None
        tol = tol if tol is not None else float(obj.get("tol", 1e-7))
    except (ConfigError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        if V is None:
            rpt = check_containment(model, F, P1, P2, tol=tol)
        else:
            rpt = check_containment_disturbance(model, F, P1, V, P2, tol=tol)
    except (ValueError, EmptySetError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    payload = {"contained": rpt.contained, "worst_violation": rpt.worst_violation}
    if rpt.certificates is not None:
        payload["certificates"] = [encode_matrix(G) for G in rpt.certificates]
    print(json.dumps({"contained": rpt.contained,
                      "worst_violation": rpt.worst_violation}))
    if out_path:
        _write_json(out_path, payload)
    return EXIT_OK if rpt.contained else EXIT_AUDIT


def run_check_invariant(config_path, out_path=None, tol=None):
    try:
        obj = _load_json(config_path)
        model = decode_model(obj["model"])
        F = decode_matrix(obj["F"], "F")
        S = decode_set(obj["S"], "S")
        V = decode_set(obj["V"], "V")
        tol = tol if tol is not None else float(obj.get("tol", 1e-7))
    except (ConfigError, KeyError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        rpt = check_robust_invariant(model, F, S, V, tol=tol)
    except (ValueError, EmptySetError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    payload = {"invariant": rpt.contained, "worst_violation": rpt.worst_violation}
    if rpt.certificates is not None:
        payload["certificates"] = [encode_matrix(G) for G in rpt.certificates]
    print(json.dumps({"invariant": rpt.contained,
                      "worst_violation": rpt.worst_violation}))
    if out_path:
        _write_json(out_path, payload)
    return EXIT_OK if rpt.contained else EXIT_AUDIT


# -- tanks demo -------------------------------------------------------------

TANKS_SETPOINT = (2.0, 1.6)
TANKS_R1 = (3.0, 4.0, 5.0)
TANKS_R2 = 5.0


def tanks_problem(horizon=15, Ts=1.0):
    """Demo problem: three tank-area models, tank-2 output feedback,
    step-response tube on both levels, pump/drain direction limits."""
    pairs = []
    for R1 in TANKS_R1:
        Ac, Bc = sim.tanks_linearize(R1, TANKS_R2, *TANKS_SETPOINT)
        pairs.append(sim.discretize_zoh(Ac, Bc, Ts))
    model = PolytopicModel(vertices=pairs, C=np.array([[0.0, 1.0]]))
    specs = [
        StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.10, settle_time=10.0,
                 settle_tol=0.01, overshoot=0.01, initial_lower=-0.30,
                 sample_time=Ts),
        StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.05, settle_time=10.0,
                 settle_tol=0.01, overshoot=0.01, initial_lower=-0.15,
                 sample_time=Ts),
    ]
    t = tube_from_step_specs(specs, np.eye(2), horizon)
    # worst-case admissible shifted controls over the unknown tank-1 area:
    # inflow >= 0 and outflow <= 0 for every area in the family
    drop = np.sqrt(TANKS_SETPOINT[0] - TANKS_SETPOINT[1])
    u1_floor = min(np.sqrt(2 * sim.GRAVITY) / R1 * drop for R1 in TANKS_R1)
    u2_ceil = np.sqrt(2 * sim.GRAVITY) / TANKS_R2 * drop
    U = np.array([[-1.0, 0.0], [0.0, 1.0]])
    theta = np.array([u1_floor, u2_ceil])
    problem = synth.SynthesisProblem(model=model, tube=t,
                                     control_constraints=[(U, theta)] * horizon)
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "set", "vertex", "e1", "e2"])
        for k, (H, X) in enumerate(zip(tube_sets, traversed_sets)):
            for name, S in (("H", H), ("X", X)):
                for j, v in enumerate(vertices(S)):
                    w.writerow([k, name, j, "%.17g" % v[0], "%.17g" % v[1]])


def run_demo_tanks(out_dir, horizon=15, runs=100, seed=0, r1=None, tol=1e-7):
    out = Path(out_dir)
    stage = "setup"
    if runs < 1:
        print("demo %s failed: --runs must be at least 1, got %d" % (stage, runs),
              file=sys.stderr)
        return EXIT_INPUT
    try:
        problem, specs = tanks_problem(horizon=horizon)
    except ValueError as exc:
        print("demo %s failed: %s" % (stage, exc), file=sys.stderr)
        return EXIT_INPUT

    stage = "synthesis"
    try:
        result = synth.synthesize(problem, containment_tol=tol)
    except (synth.SynthesisError, lp.LpNumericalError) as exc:
        print("demo %s failed: %s" % (stage, exc), file=sys.stderr)
        return EXIT_SYNTH
    model = problem.model
    cfg_like = ProblemConfig(
        horizon=horizon, model=model, tube=problem.tube, disturbance=None,
        control_constraints=problem.control_constraints, nonneg_bounds=True,
        disturbance_floor=False, containment_tol=tol,
        defect_zero_tol=synth.EPS_ZERO_TOL, seed=seed)
    write_result_files(out, cfg_like, result)

    stage = "linear audit"
    audit = linear_audit(out, model, result.gains, result.sets, runs,
                         np.random.default_rng(seed), tol)

    stage = "nonlinear runs"
    areas = list(TANKS_R1) if r1 is None else [float(r1)]
    nl_runs = {}
    nl_worst = -np.inf
    nl_ok = True
    for j, area in enumerate(areas):
        e0 = sim.sample_states(result.sets[0], 1, np.random.default_rng(seed + 7 + j))[0]
        x0 = np.asarray(TANKS_SETPOINT) + e0
        tr = sim.tanks_nonlinear_simulate(area, TANKS_R2, x0, result.gains,
                                          TANKS_SETPOINT)
        rep = sim.verify_membership(tr, list(problem.tube.sets), tol=1e-3)
        nl_worst = max(nl_worst, rep.worst)
        nl_runs[area] = tr
        if not rep.ok:
            nl_ok = False
            audit["failures"].append({"run": "nonlinear_r1_%g" % area,
                                      "k": rep.first_violation[0],
                                      "row": rep.first_violation[1],
                                      "violation": rep.first_violation[2]})
    audit["nonlinear_worst_violation"] = float(nl_worst)
    _write_json(out / "audit.json", audit)

    stage = "figure data"
    Ts = specs[0].sample_time
    _write_envelope_csv(out / "tank1_envelopes.csv", specs[0], Ts, horizon, nl_runs, 0)
    _write_envelope_csv(out / "tank2_envelopes.csv", specs[1], Ts, horizon, nl_runs, 1)
    _write_sets_csv(out / "tube_sets.csv", list(problem.tube.sets), result.sets)

    ok = result.certified and audit["failed"] == 0 and nl_ok
    print("tanks demo: %d linear runs (%d passed), %d nonlinear runs, "
          "worst envelope slack %g -> %s"
          % (audit["runs"], audit["passed"], len(nl_runs), nl_worst, out))
    return EXIT_OK if ok else EXIT_AUDIT


# -- argument parsing --------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tubesynth",
        description="Feedback synthesis and auditing for polyhedral target tubes")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="synthesize gains from a problem file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=None)

    p = subs.add_parser("simulate", help="audit stored gains by simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--gains", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)

    p = subs.add_parser("check-contain", help="one-shot containment check")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None)

    p = subs.add_parser("check-invariant", help="robust-invariance check")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tol", type=float, default=None)

    p = subs.add_parser("demo-tanks", help="coupled-tanks case study")
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-7)

    args = parser.parse_args(argv)
    if args.command == "synth":
        return run_synth(args.config, args.out, tol=args.tol)
    if args.command == "simulate":
        return run_simulate(args.config, args.gains, args.runs, args.seed,
                            args.out, tol=args.tol)
    if args.command == "check-contain":
        return run_check_contain(args.config, args.out, tol=args.tol)
    if args.command == "check-invariant":
        return run_check_invariant(args.config, args.out, tol=args.tol)
    if args.command == "demo-tanks":
        return run_demo_tanks(args.out, horizon=args.k, runs=args.runs,
                              seed=args.seed, r1=args.r1, tol=args.tol)
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
