import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import envelope_csv_reference, sets_csv_reference, trajectories_csv_reference
from tubesynth import cli, lp, polytope, sim, synth
from tubesynth.reach import ContainmentReport


def mat(rows):
    rows = [list(map(float, r)) for r in rows]
    return {"rows": len(rows), "cols": len(rows[0]),
            "data": [v for r in rows for v in r]}


def interval(width):
    return {"A": mat([[1.0], [-1.0]]), "b": [width, width]}


def scalar_config(a=0.5, b=1.0):
    return {
        "horizon": 2,
        "model": {"vertices": [{"A": mat([[a]]), "B": mat([[b]])}],
                  "C": mat([[1.0]])},
        "tube": {"explicit": [interval(1.0), interval(1.0), interval(0.1)]},
        "seeds": {"simulate": 3},
    }


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_matrix_round_trip():
    M = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(cli.decode_matrix(cli.encode_matrix(M)), M)
    with pytest.raises(cli.ConfigError):
        cli.decode_matrix({"rows": 2, "cols": 3, "data": [1.0]})
    with pytest.raises(cli.ConfigError):
        cli.decode_matrix({"rows": 2})


def test_synth_writes_expected_files(tmp_path):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    gains = json.loads((out / "gains.json").read_text())
    assert gains["horizon"] == 2 and len(gains["gains"]) == 2
    sets = json.loads((out / "sets.json").read_text())
    assert sets["steps"][2]["set_bounds"] == [0.1, 0.1]
    assert sets["steps"][0]["provenance"] == "TubeExact"
    assert "provenance" not in sets["steps"][2]
    certs = json.loads((out / "certificates.json").read_text())
    assert all(step["contained"] for step in certs["steps"])
    assert all("certificates" in step for step in certs["steps"])


def test_synth_rejects_bad_dimensions(tmp_path):
    bad = scalar_config()
    bad["model"]["C"] = mat([[1.0, 2.0]])
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_synth_rejects_wrong_tube_length(tmp_path):
    bad = scalar_config()
    bad["tube"]["explicit"] = bad["tube"]["explicit"][:2]
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_synth_failure_exit_code(tmp_path):
    bad = scalar_config()
    bad["control_constraints"] = {"sets": [
        {"A": mat([[1.0], [-1.0]]), "b": [-1.0, -1.0]}] * 2}
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_synth_empty_traversed_set_exit_code(tmp_path):
    # without nonnegative offsets the shrunken X(0) comes out empty
    cfg_obj = scalar_config(a=0.5, b=0.0)
    cfg_obj["tube"]["explicit"][2] = {"A": mat([[1.0], [-1.0]]), "b": [0.6, -0.5]}
    cfg_obj["flags"] = {"nonneg_bounds": False}
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_synth_empty_tube_section_exit_code(tmp_path, capsys):
    cfg_obj = scalar_config()
    cfg_obj["tube"]["explicit"][1] = {"A": mat([[1.0], [-1.0]]), "b": [-1.0, -1.0]}
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: tube section H(1): set is empty\n"


def test_synth_unbounded_tube_section_exit_code(tmp_path, capsys):
    cfg_obj = scalar_config()
    cfg_obj["tube"]["explicit"][1] = {"A": mat([[1.0]]), "b": [1.0]}
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        "config error: tube section H(1): set is unbounded\n"
    assert not (tmp_path / "o").exists()


def test_synth_uncertified_step_writes_files_and_exits_4(tmp_path, capsys, monkeypatch):
    # neither the LP1 multipliers nor the support-LP check prove containment
    def not_contained(*args, **kwargs):
        return ContainmentReport(certificates=None, worst_violation=1.0)

    monkeypatch.setattr(synth, "verify_certificates", not_contained)
    monkeypatch.setattr(synth, "check_containment", not_contained)
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "warning: a step failed certification\n"
    assert sorted(p.name for p in out.iterdir()) == \
        ["certificates.json", "gains.json", "sets.json"]
    certs = json.loads((out / "certificates.json").read_text())["steps"]
    assert [step["contained"] for step in certs] == [False, False]


def test_synth_unbounded_uncertified_step_writes_null(tmp_path, capsys, monkeypatch):
    # an infinite worst violation (an unbounded image) is written as null
    def unbounded(*args, **kwargs):
        return ContainmentReport(certificates=None, worst_violation=np.inf)

    monkeypatch.setattr(synth, "verify_certificates", unbounded)
    monkeypatch.setattr(synth, "check_containment", unbounded)
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "warning: a step failed certification\n"
    certs = strict_json(out / "certificates.json")["steps"]
    assert certs == [{"k": 0, "contained": False, "worst_violation": None},
                     {"k": 1, "contained": False, "worst_violation": None}]


def tanks_config(horizon):
    """cli.tanks_problem as a problem file, its tube section by section."""
    problem, _ = cli.tanks_problem(horizon)
    model = problem.model

    def encode_set(S):
        return {"A": cli.encode_matrix(S.A), "b": S.b.tolist()}

    return {"horizon": horizon,
            "model": {"vertices": [{"A": cli.encode_matrix(A), "B": cli.encode_matrix(B)}
                                   for A, B in model.vertices],
                      "C": cli.encode_matrix(model.C)},
            "tube": {"explicit": [encode_set(S) for S in problem.tube.sets]},
            "control_constraints": [encode_set(U) for U in problem.control_constraints]}


@pytest.mark.parametrize("horizon", [15, 60])
def test_synth_bounded_tube_check_reuses_the_cone_verdict(tmp_path, monkeypatch, horizon):
    # 11 LP1 and 7 LP2 solves, and the 4 LPs of the one cone verdict that
    # the boundedness check and the vertex enumeration share; no section
    # has a negative offset, so no emptiness LP runs
    cfg = write(tmp_path / "cfg.json", tanks_config(horizon))
    polytope._rows_bound_every_set.cache_clear()
    solve = lp.solve
    calls = []

    def recording(problem, solver=None):
        calls.append(problem)
        return solve(problem, solver)

    monkeypatch.setattr(lp, "solve", recording)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 22


def test_synth_vertex_without_input_matrix_exit_code(tmp_path):
    bad = scalar_config()
    del bad["model"]["vertices"][0]["B"]
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_synth_step_specs_without_output_map_exit_code(tmp_path):
    bad = scalar_config()
    bad["tube"] = {"step_specs": {"specs": []}}
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _degrade_stage_one(monkeypatch):
    """Make every LP with equality rows (the stage-1 LP) fail numerically."""
    solve = lp.solve

    def degraded(problem, solver=None):
        if problem.A_eq.shape[0]:
            raise lp.LpNumericalError("pivot below tolerance")
        return solve(problem, solver)

    monkeypatch.setattr(lp, "solve", degraded)


def test_synth_lp_numerical_error_exit_code(tmp_path, monkeypatch):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    _degrade_stage_one(monkeypatch)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_demo_tanks_lp_numerical_error_exit_code(tmp_path, monkeypatch):
    _degrade_stage_one(monkeypatch)
    assert cli.main(["demo-tanks", "--out", str(tmp_path / "d"), "--runs", "2"]) == 3


def test_simulate_round_trip(tmp_path):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    cli.main(["synth", "--config", cfg, "--out", str(out)])
    code = cli.main(["simulate", "--config", cfg, "--gains",
                     str(out / "gains.json"), "--out", str(out),
                     "--runs", "20", "--seed", "5"])
    assert code == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["runs"] == 20 and audit["failed"] == 0
    assert audit["worst_violation"] <= 0.0

    with open(out / "trajectories.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run_id", "k", "x_1", "u_1", "realized", "membership_ok"]
    assert len(rows) == 1 + 20 * 3
    # terminal rows carry no control or realization fields
    last = rows[3]
    assert last[1] == "2" and last[3] == "" and last[4] == ""
    assert all(r[-1] == "1" for r in rows[1:])

    # identical invocation reproduces identical artifacts
    out2 = tmp_path / "out2"
    cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
              "--out", str(out2), "--runs", "20", "--seed", "5"])
    assert (out / "trajectories.csv").read_text() == \
        (out2 / "trajectories.csv").read_text()
    a1 = json.loads((out / "audit.json").read_text())
    a2 = json.loads((out2 / "audit.json").read_text())
    assert a1 == a2


def test_simulate_audit_failure_exit_code(tmp_path):
    # identity dynamics hold the state, so auditing against a tube that
    # shrinks beneath the reachable floor must flag the first tight step
    cfg = write(tmp_path / "cfg.json", scalar_config(a=1.0, b=0.0))
    out = tmp_path / "out"
    cli.main(["synth", "--config", cfg, "--out", str(out)])
    harsh = scalar_config(a=1.0, b=0.0)
    harsh["tube"]["explicit"] = [interval(1.0), interval(1e-4), interval(1e-5)]
    cfg2 = write(tmp_path / "harsh.json", harsh)
    gains2 = tmp_path / "gains_only"
    gains2.mkdir()
    (gains2 / "gains.json").write_text((out / "gains.json").read_text())
    code = cli.main(["simulate", "--config", cfg2, "--gains",
                     str(gains2 / "gains.json"), "--out", str(tmp_path / "a"),
                     "--runs", "10", "--seed", "1"])
    assert code == 4
    audit = json.loads((tmp_path / "a" / "audit.json").read_text())
    assert audit["failed"] > 0
    assert audit["failures"][0]["k"] == 1


def run_cli(argv, **env):
    """The command line in a fresh process, with ``env`` added to its
    environment; returns the CompletedProcess, output as bytes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c",
                           "import sys; from tubesynth.cli import main; sys.exit(main())"]
                          + argv, capture_output=True, env=environ)


def strict_json(path):
    """The JSON file at ``path``; NaN and Infinity, which RFC 8259 does
    not allow, raise."""
    def reject(name):
        raise ValueError("%s in %s" % (name, path))

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_simulate_diverging_runs_write_strict_json(tmp_path):
    # B u = 1e308 (1e308 x) overflows at the first step: every run is at
    # inf from k = 1 on
    cfg = write(tmp_path / "cfg.json", scalar_config(b=1e308))
    gains = write(tmp_path / "gains.json", {"gains": [mat([[1e308]])] * 2})
    done = run_cli(["simulate", "--config", cfg, "--gains", gains, "--runs", "5",
                    "--out", str(tmp_path / "out")])
    assert done.returncode == 4
    assert done.stderr == b""
    audit = strict_json(tmp_path / "out" / "audit.json")
    assert audit["failed"] == 5 and audit["worst_violation"] is None
    assert [(f["k"], f["violation"]) for f in audit["failures"]] == [(1, None)] * 5
    assert b"inf" in (tmp_path / "out" / "trajectories.csv").read_bytes()


def test_simulate_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # dense vertex matrices, a dense output map and a 1x2 gain: products
    # whose BLAS forms differ between kernels with and without FMA
    rng = np.random.default_rng(4)
    boxset = lambda w: {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]), "b": [w] * 4}
    cfg = write(tmp_path / "cfg.json", {
        "horizon": 6,
        "model": {"vertices": [{"A": mat(rng.normal(size=(2, 2)) * 0.5),
                                "B": mat(rng.normal(size=(2, 1)))} for _ in range(2)],
                  "C": mat(rng.normal(size=(2, 2)))},
        "tube": {"explicit": [boxset(1.0)] + [boxset(1.5)] * 6}})
    gains = write(tmp_path / "gains.json",
                  {"gains": [mat(rng.normal(size=(1, 2)) * 0.3) for _ in range(6)]})
    outs = []
    for kernel in ("Nehalem", None):
        out = tmp_path / ("out-%s" % kernel)
        env = {} if kernel is None else {"OPENBLAS_CORETYPE": kernel}
        done = run_cli(["simulate", "--config", cfg, "--gains", gains, "--runs", "200",
                        "--seed", "1", "--out", str(out)], **env)
        assert done.returncode in (0, 4), done.stderr
        outs.append(out)
    for name in ("trajectories.csv", "audit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_model_without_outputs_synthesizes_and_simulates(tmp_path):
    # C has no rows: every gain is 1x0 and every control is an empty sum
    cfg_obj = scalar_config()
    cfg_obj["model"]["C"] = {"rows": 0, "cols": 1, "data": []}
    cfg_obj["tube"]["explicit"] = [interval(1.0)] * 3
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    gains = strict_json(out / "gains.json")
    assert gains["outputs"] == 0
    assert gains["gains"] == [{"rows": 1, "cols": 0, "data": []}] * 2
    assert cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
                     "--out", str(out), "--runs", "3"]) == 0
    with open(out / "trajectories.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = [row for row in rows if row["k"] != "2"]
    assert len(steps) == 6 and all(row["u_1"] == "0" for row in steps)


def test_gains_dimension_check(tmp_path):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    cli.main(["synth", "--config", cfg, "--out", str(out)])
    gains = json.loads((out / "gains.json").read_text())
    gains["gains"] = gains["gains"][:1]
    bad = write(tmp_path / "gains.json", gains)
    assert cli.main(["simulate", "--config", cfg, "--gains", bad,
                     "--out", str(tmp_path / "a")]) == 2


def test_simulate_with_disturbance_config(tmp_path):
    boxset = lambda w: {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                        "b": [w, w, w, w]}
    cfg_obj = {
        "horizon": 3,
        "model": {"vertices": [{"A": mat([[0.4, 0], [0, 0.4]]),
                                "B": mat([[1.0, 0], [0, 1.0]])}],
                  "C": mat([[1.0, 0], [0, 1.0]]),
                  "D": mat([[1.0, 0], [0, 1.0]])},
        "tube": {"explicit": [boxset(1.0), boxset(0.5), boxset(0.25),
                              boxset(0.12)]},
        "disturbance": {"sets": [boxset(0.005)] * 3},
        "flags": {"nonneg_bounds": True, "disturbance_floor": True},
    }
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--gains",
                     str(out / "gains.json"), "--out", str(out),
                     "--runs", "15", "--seed", "2"]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["failed"] == 0


def test_check_contain_verdicts(tmp_path):
    base = {
        "model": {"vertices": [{"A": mat([[0.5, 0], [0, 0.5]]),
                                "B": mat([[0.0], [0.0]])}],
                  "C": mat([[0.0, 0.0]])},
        "F": mat([[0.0]]),
        "P1": {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]), "b": [1, 1, 1, 1]},
        "P2": {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
               "b": [0.6, 0.6, 0.6, 0.6]},
    }
    cfg = write(tmp_path / "in.json", base)
    rpt = tmp_path / "report.json"
    assert cli.main(["check-contain", "--config", cfg, "--out", str(rpt)]) == 0
    payload = json.loads(rpt.read_text())
    assert payload["contained"] and len(payload["certificates"]) == 1

    base["P2"]["b"] = [0.4, 0.4, 0.4, 0.4]
    cfg = write(tmp_path / "in2.json", base)
    assert cli.main(["check-contain", "--config", cfg]) == 4

    del base["P2"]
    cfg = write(tmp_path / "in3.json", base)
    assert cli.main(["check-contain", "--config", cfg]) == 2


def test_check_contain_overflowing_lp_is_a_synthesis_failure(tmp_path):
    # a support LP whose ratio test overflows to NaN: numerical trouble in
    # the LP, exit 3 with one line on stderr and no NumPy warning
    cfg = write(tmp_path / "in.json", {
        "model": {"vertices": [{"A": mat([[1e300]]), "B": mat([[0.0]])}],
                  "C": mat([[1.0]])},
        "F": mat([[0.0]]),
        "P1": {"A": mat([[5e-10], [-2e-10]]), "b": [1e300, 1e300]},
        "P2": {"A": mat([[-1.0]]), "b": [0.0]},
    })
    done = run_cli(["check-contain", "--config", cfg])
    assert done.returncode == 3
    err = done.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("synthesis failed: "), err


def test_check_invariant_verdicts(tmp_path):
    base = {
        "model": {"vertices": [{"A": mat([[0.5, 0], [0, 0.5]]),
                                "B": mat([[0.0], [0.0]])}],
                  "C": mat([[0.0, 0.0]]), "D": mat([[1.0, 0], [0, 1.0]])},
        "F": mat([[0.0]]),
        "S": {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]), "b": [1, 1, 1, 1]},
        "V": {"A": mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
              "b": [0.25, 0.25, 0.25, 0.25]},
    }
    cfg = write(tmp_path / "in.json", base)
    assert cli.main(["check-invariant", "--config", cfg]) == 0
    base["V"]["b"] = [0.6, 0.6, 0.6, 0.6]
    cfg = write(tmp_path / "in2.json", base)
    assert cli.main(["check-invariant", "--config", cfg]) == 4


@pytest.mark.parametrize("command, verdict, config", [
    # P1 = {x >= 0} maps onto itself, which no bound caps
    ("check-contain", "contained", {
        "model": {"vertices": [{"A": mat([[1.0]]), "B": mat([[0.0]])}],
                  "C": mat([[1.0]])},
        "F": mat([[0.0]]),
        "P1": {"A": mat([[-1.0]]), "b": [0.0]},
        "P2": {"A": mat([[1.0]]), "b": [1.0]}}),
    # a support LP of the stacked (x, v) set is unbounded
    ("check-invariant", "invariant", {
        "model": {"vertices": [{"A": mat([[1e300]]), "B": mat([[0.0]])}],
                  "C": mat([[1.0]]), "D": mat([[1e300]])},
        "F": mat([[0.0]]),
        "S": {"A": mat([[5e-10], [-2e-10]]), "b": [1e300, 1e300]},
        "V": {"A": mat([[1e-300], [-1.0]]), "b": [1e300, 1e300]}}),
], ids=["contain", "invariant"])
def test_check_unbounded_image_reports_null(tmp_path, capsys, command, verdict, config):
    # an infinite worst violation is null on stdout and in the report,
    # which stay strict JSON
    cfg = write(tmp_path / "in.json", config)
    rpt = tmp_path / "report.json"
    assert cli.main([command, "--config", cfg, "--out", str(rpt)]) == 4
    assert capsys.readouterr().out == '{"%s": false, "worst_violation": null}\n' % verdict
    assert strict_json(rpt) == {verdict: False, "worst_violation": None}


def test_step_spec_tube_config(tmp_path):
    cfg_obj = {
        "horizon": 15,
        "model": {"vertices": [{"A": mat([[0.5, 0], [0, 0.5]]),
                                "B": mat([[1.0], [0.0]])}],
                  "C": mat([[0.0, 1.0]])},
        "tube": {"step_specs": {
            "C": mat([[1.0, 0.0], [0.0, 1.0]]),
            "specs": [
                {"setpoint": 0.0, "rise_time": 5.0, "rise_tol": 0.1,
                 "settle_time": 10.0, "settle_tol": 0.01, "overshoot": 0.01,
                 "initial_lower": -0.3, "sample_time": 1.0},
                {"setpoint": 0.0, "rise_time": 5.0, "rise_tol": 0.05,
                 "settle_time": 10.0, "settle_tol": 0.01, "overshoot": 0.01,
                 "initial_lower": -0.15, "sample_time": 1.0}]}},
    }
    cfg = write(tmp_path / "cfg.json", cfg_obj)
    loaded = cli.load_config(cfg)
    assert loaded.problem.tube.horizon == 15
    assert loaded.problem.tube[0].b.tolist() == [0.01, 0.3, 0.01, 0.15]


def test_demo_tanks_smoke(tmp_path):
    out = tmp_path / "demo"
    code = cli.main(["demo-tanks", "--out", str(out), "--runs", "10",
                     "--seed", "0"])
    assert code == 0
    for name in ("gains.json", "sets.json", "certificates.json",
                 "trajectories.csv", "audit.json", "tank1_envelopes.csv",
                 "tank2_envelopes.csv", "tube_sets.csv"):
        assert (out / name).exists()
    audit = json.loads((out / "audit.json").read_text())
    assert audit["failed"] == 0
    assert audit["nonlinear_worst_violation"] <= 1e-3


def test_demo_tanks_nonlinear_envelope_failure_is_named_by_area(tmp_path, capsys):
    # the linear runs pass, the nonlinear run with a tank-1 area of 20
    # leaves its envelope: an audit failure with nothing on stderr, listed
    # under the area's name while the counts are the linear runs'
    out = tmp_path / "demo"
    assert cli.main(["demo-tanks", "--out", str(out), "--runs", "5", "--r1", "20",
                     "--seed", "0"]) == 4
    assert capsys.readouterr().err == ""
    audit = strict_json(out / "audit.json")
    assert (audit["runs"], audit["passed"], audit["failed"]) == (5, 5, 0)
    assert audit["failures"] == [{"run": "nonlinear_r1_20", "k": 10, "row": 1,
                                  "violation": pytest.approx(0.0110549, abs=1e-7)}]
    assert audit["nonlinear_worst_violation"] == audit["failures"][0]["violation"]


@pytest.fixture(scope="module")
def tanks_synthesis():
    problem, specs = cli.tanks_problem()
    return problem, specs, synth.synthesize(problem)


def tanks_runs(problem, result, runs, rng):
    """Runs and membership flags drawn from ``rng`` as cli.linear_audit
    draws them."""
    x0s = sim.sample_states(result.sets[0], runs, rng)
    batch = sim.simulate_runs(problem.model, result.gains, x0s, rng)
    inside, _ = sim.verify_runs(batch.states, result.sets, 1e-7)
    return batch, inside


def assert_trajectories_match_reference(tmp_path, runs, inside):
    cli.write_trajectories_csv(tmp_path / "fast.csv", runs, inside)
    trajectories_csv_reference(tmp_path / "reference.csv", runs, inside)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_trajectories_csv_matches_reference_on_tanks_runs(tmp_path, tanks_synthesis, seed):
    problem, _, result = tanks_synthesis
    runs, inside = tanks_runs(problem, result, 300, np.random.default_rng(seed))
    assert cli.TRAJECTORY_BLOCK_ROWS < 300 * 16 and inside.all()
    assert_trajectories_match_reference(tmp_path, runs, inside)
    inside[::7, 3] = False
    inside[5] = False
    assert_trajectories_match_reference(tmp_path, runs, inside)


def synthetic_runs(rng, R, K, n, m, vertices):
    """Runs whose fields span the formatter's exact window and beyond:
    magnitudes from 1e-12 to 1e9, zeros of both signs, whole numbers."""
    def fields(shape):
        v = 10.0 ** rng.uniform(-12, 9, size=shape) * rng.choice([-1.0, 1.0], size=shape)
        pick = rng.random(shape)
        v[pick < 0.05] = 0.0
        v[(pick >= 0.05) & (pick < 0.1)] = -0.0
        whole = (pick >= 0.1) & (pick < 0.2)
        v[whole] = np.round(v[whole])
        return v

    return sim.Runs(states=fields((R, K + 1, n)), controls=fields((R, K, m)),
                    realized=rng.integers(vertices, size=(R, K)), disturbances=None)


def test_trajectories_csv_matches_reference_on_edge_runs(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    # 12 vertex models: two-digit realizations; some runs fail membership
    runs = synthetic_runs(rng, 40, 6, 3, 2, 12)
    assert runs.realized.max() >= 10
    assert_trajectories_match_reference(tmp_path, runs, rng.random((40, 7)) < 0.8)
    # a diverged run: inf and nan states and controls
    runs.states[0, 3:] = np.inf
    runs.states[1, 2:, 0] = -np.inf
    runs.states[2, 4:, 1] = np.nan
    runs.controls[2, 4:] = np.nan
    assert_trajectories_match_reference(tmp_path, runs, np.isfinite(runs.states).all(axis=2))
    # one run, one step, one state and one input
    one = synthetic_runs(rng, 1, 1, 1, 1, 2)
    assert_trajectories_match_reference(tmp_path, one, np.array([[True, False]]))
    # run counts across a block boundary of 3 runs, and blocks shorter
    # than one run, which still take one run each
    for rows in (15, 17, 4):
        monkeypatch.setattr(cli, "TRAJECTORY_BLOCK_ROWS", rows)
        for R in (1, 3, 4, 10):
            runs = synthetic_runs(rng, R, 4, 2, 2, 3)
            assert_trajectories_match_reference(tmp_path, runs, rng.random((R, 5)) < 0.9)


def test_set_and_envelope_csvs_match_reference(tmp_path, tanks_synthesis):
    problem, specs, result = tanks_synthesis
    tube = list(problem.tube.sets)
    cli._write_sets_csv(tmp_path / "fast.csv", tube, result.sets)
    sets_csv_reference(tmp_path / "reference.csv", tube, result.sets)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    K = problem.horizon
    rng = np.random.default_rng(3)
    runs_by_r1 = {area: synthetic_runs(rng, 1, K, 2, 1, 1).states[0] for area in cli.TANKS_R1}
    runs_by_r1[3.0][:3] = [[0.0, -0.0], [1e-10, -2e-12], [np.nan, 0.5]]
    for coord, spec in enumerate(specs):
        cli._write_envelope_csv(tmp_path / "fast.csv", spec, K, runs_by_r1, coord)
        envelope_csv_reference(tmp_path / "reference.csv", spec, spec.sample_time, K,
                               runs_by_r1, coord)
        assert (tmp_path / "fast.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("r1", [None, 5.0])
def test_demo_tanks_draws_everything_from_the_seed_generator(tmp_path, tanks_synthesis, r1):
    # one default_rng(--seed): the linear runs first, then one start in
    # X(0) per tank-1 area in a single sample_states call
    out = tmp_path / "demo"
    argv = ["demo-tanks", "--out", str(out), "--runs", "7", "--seed", "11"]
    assert cli.main(argv + ([] if r1 is None else ["--r1", "%g" % r1])) == 0
    problem, specs, result = tanks_synthesis
    rng = np.random.default_rng(11)
    runs, inside = tanks_runs(problem, result, 7, rng)
    areas = cli.TANKS_R1 if r1 is None else (r1,)
    starts = sim.sample_states(result.sets[0], len(areas), rng)
    nl_runs = {area: sim.tanks_nonlinear_simulate(area, cli.TANKS_R2,
                                                  np.asarray(cli.TANKS_SETPOINT) + e0,
                                                  result.gains, cli.TANKS_SETPOINT)
               for area, e0 in zip(areas, starts)}
    trajectories_csv_reference(tmp_path / "trajectories.csv", runs, inside)
    assert (out / "trajectories.csv").read_bytes() == \
        (tmp_path / "trajectories.csv").read_bytes()
    for coord, spec in enumerate(specs):
        name = "tank%d_envelopes.csv" % (coord + 1)
        envelope_csv_reference(tmp_path / name, spec, spec.sample_time,
                               problem.horizon, nl_runs, coord)
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_demo_tanks_short_horizon_rejected(tmp_path):
    assert cli.main(["demo-tanks", "--out", str(tmp_path / "x"), "--k", "8"]) == 2


def test_demo_tanks_single_area_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["demo-tanks", "--out", str(a), "--r1", "5", "--seed", "7",
                     "--runs", "5"]) == 0
    assert cli.main(["demo-tanks", "--out", str(b), "--r1", "5", "--seed", "7",
                     "--runs", "5"]) == 0
    assert (a / "trajectories.csv").read_text() == (b / "trajectories.csv").read_text()
    assert (a / "tank2_envelopes.csv").read_text() == \
        (b / "tank2_envelopes.csv").read_text()
    with open(a / "tank2_envelopes.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["k", "lower", "upper", "e2_r1_5"]


def test_simulate_rejects_runs_below_one(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
                     "--out", str(tmp_path / "a"), "--runs", "0"]) == 2
    assert "--runs must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def diagonal_config():
    """X(0) = {x1 + x2 = 0, |x1 - x2| <= 1}: a segment, the kind of
    lower-dimensional set LP2 leaves when offsets shrink to zero."""
    return {
        "horizon": 2,
        "model": {"vertices": [{"A": mat([[0.5, 0.0], [0.0, 0.5]]),
                                "B": mat([[1.0], [0.0]])}],
                  "C": mat([[1.0, 0.0]])},
        "tube": {"explicit": [
            {"A": mat([[1, 1], [-1, -1], [1, -1], [-1, 1]]), "b": [0.0, 0.0, 1.0, 1.0]},
            {"A": mat([[1, 0], [0, 1], [-1, 0], [0, -1]]), "b": [1.0] * 4},
            {"A": mat([[1, 0], [0, 1], [-1, 0], [0, -1]]), "b": [1.0] * 4}]},
    }


def test_simulate_samples_lower_dimensional_initial_set(tmp_path):
    # no sets.json next to the gains, so X(0) is the diagonal tube section
    cfg = write(tmp_path / "cfg.json", diagonal_config())
    gains = write(tmp_path / "gains.json", {"gains": [mat([[0.0]])] * 2})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--gains", gains,
                     "--out", str(out), "--runs", "50", "--seed", "4"]) == 0
    audit = json.loads((out / "audit.json").read_text())
    assert audit["runs"] == audit["passed"] == 50


def box7_config():
    """A one-step config whose tube sections are 7-D boxes, above the
    enumeration cap of polytope.vertices."""
    n = 7
    box7 = {"A": mat(np.vstack([np.eye(n), -np.eye(n)])), "b": [1.0] * (2 * n)}
    return {"horizon": 1,
            "model": {"vertices": [{"A": mat(np.eye(n)), "B": mat(np.zeros((n, 1)))}],
                      "C": mat(np.eye(1, n))},
            "tube": {"explicit": [box7, box7]}}


def box7_simulate_files(tmp_path):
    """box7_config, whose X(0) is then a 7-D box, and a gains file for it."""
    cfg = write(tmp_path / "cfg.json", box7_config())
    gains = write(tmp_path / "gains.json", {"gains": [mat([[0.0]])]})
    return cfg, gains


def test_simulate_initial_set_past_vertex_cap_exits_2(tmp_path, capsys):
    cfg, gains = box7_simulate_files(tmp_path)
    assert cli.main(["simulate", "--config", cfg, "--gains", gains,
                     "--out", str(tmp_path / "out"), "--runs", "3"]) == 2
    assert capsys.readouterr().err == \
        "config error: tube section H(0): dimension 7 above the enumeration cap 6\n"


def test_simulate_empty_disturbance_set_is_named(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", empty_disturbance_set())
    gains = write(tmp_path / "gains.json", {"gains": [mat([[0.0]])] * 2})
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--gains", gains,
                     "--out", str(out), "--runs", "3"]) == 2
    assert capsys.readouterr().err == "config error: disturbance set V(0): set is empty\n"
    assert not out.exists()


def test_simulate_failed_initial_draw_leaves_no_out_dir(tmp_path):
    cfg, gains = box7_simulate_files(tmp_path)
    out = tmp_path / "nested" / "out"
    assert cli.main(["simulate", "--config", cfg, "--gains", gains,
                     "--out", str(out), "--runs", "3"]) == 2
    assert not out.exists() and not out.parent.exists()


def test_demo_tanks_rejects_runs_below_one(tmp_path, capsys):
    assert cli.main(["demo-tanks", "--out", str(tmp_path / "d"), "--runs", "-1"]) == 2
    assert "--runs must be at least 1" in capsys.readouterr().err


def test_simulate_rejects_malformed_sets_json(tmp_path):
    cfg = write(tmp_path / "cfg.json", scalar_config())
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    good = json.loads((out / "sets.json").read_text())
    for step in ({"k": 1}, {"k": 1, "set_bounds": [1.0, 1.0, 1.0]},
                 {"k": 1, "set_bounds": ["wide", 1.0]}):
        sets = json.loads(json.dumps(good))
        sets["steps"][1] = step
        write(out / "sets.json", sets)
        assert cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
                         "--out", str(tmp_path / "a"), "--runs", "3"]) == 2


def test_simulate_rejects_a_sets_json_wider_than_the_tube(tmp_path, capsys):
    # zero gains leave 15 of 20 runs outside H(2) = [-0.1, 0.1]; X(k) = [-1, 1]
    # at every step would have audited them all as inside
    cfg = write(tmp_path / "cfg.json", scalar_config())
    files = tmp_path / "files"
    files.mkdir()
    write(files / "gains.json", {"gains": [mat([[0.0]])] * 2})
    write(files / "sets.json",
          {"steps": [{"k": k, "set_bounds": [1.0, 1.0]} for k in range(3)]})
    out = tmp_path / "audit"
    assert cli.main(["simulate", "--config", cfg, "--gains", str(files / "gains.json"),
                     "--out", str(out), "--runs", "20", "--seed", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert "steps[2].set_bounds" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("config", [scalar_config(), tanks_config(15)],
                         ids=["scalar", "tanks15"])
def test_simulate_accepts_the_sets_json_of_its_own_synthesis(tmp_path, config):
    cfg = write(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--gains", str(out / "gains.json"),
                     "--out", str(out), "--runs", "20", "--seed", "2"]) == 0


@pytest.mark.parametrize("field", ["disturbance", "control_constraints"])
def test_synth_rejects_non_numeric_set_offsets(tmp_path, field):
    bad = scalar_config()
    bad["model"]["D"] = mat([[1.0]])
    for offsets in (["small", 0.01], {"small": 0.01}):
        bad[field] = {"sets": [{"A": mat([[1.0], [-1.0]]), "b": offsets}] * 2}
        cfg = write(tmp_path / "bad.json", bad)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_synth_rejects_non_integer_horizon(tmp_path):
    bad = scalar_config()
    bad["horizon"] = "two"
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def _patched(**fields):
    cfg = scalar_config()
    cfg.update(fields)
    return cfg


EMPTY_INTERVAL = {"A": mat([[1.0], [-1.0]]), "b": [-1.0, -1.0]}


def unbounded_section_under_control():
    cfg = _patched(flags={"nonneg_bounds": False},
                   control_constraints={"sets": [interval(1.0)] * 2})
    cfg["tube"]["explicit"][0] = {"A": mat([[1.0]]), "b": [1.0]}
    return cfg


def empty_section():
    cfg = _patched(flags={"nonneg_bounds": False})
    cfg["tube"]["explicit"][1] = EMPTY_INTERVAL
    return cfg


def unbounded_section_nonneg():
    cfg = scalar_config()
    cfg["tube"]["explicit"][1] = {"A": mat([[1.0]]), "b": [1.0]}
    return cfg


def empty_section_nonneg():
    cfg = scalar_config()
    cfg["tube"]["explicit"][1] = EMPTY_INTERVAL
    return cfg


def empty_disturbance_set():
    cfg = _patched(flags={"disturbance_floor": False},
                   disturbance={"sets": [EMPTY_INTERVAL, interval(0.01)]})
    cfg["model"]["D"] = mat([[1.0]])
    return cfg


@pytest.mark.parametrize("config, named", [
    (unbounded_section_under_control(), "tube section H(0)"),
    (dict(box7_config(), control_constraints={"sets": [interval(1.0)]}),
     "tube section H(0)"),
    (empty_section(), "tube section H(1)"),
    (empty_disturbance_set(), "disturbance set V(0)"),
    (unbounded_section_nonneg(), "tube section H(1)"),
    (empty_section_nonneg(), "tube section H(1)"),
], ids=["unbounded-under-control", "box7-under-control", "empty-section",
        "empty-disturbance", "unbounded-nonneg", "empty-section-nonneg"])
def test_synth_rejects_a_set_its_steps_cannot_read(tmp_path, capsys, config, named):
    # a set that synthesize's up-front rule rejects under the config's flags
    # is an input error found before the first stage LP, not a synthesis
    # failure or a vacuous certificate
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", write(tmp_path / "cfg.json", config),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: %s: " % named)
    assert not out.exists()


def contain_config():
    return {
        "model": {"vertices": [{"A": mat([[0.5]]), "B": mat([[0.0]])}],
                  "C": mat([[0.0]])},
        "F": mat([[0.0]]), "P1": interval(1.0), "P2": interval(0.6),
    }


@pytest.mark.parametrize("command, payload", [
    ("synth", _patched(tolerances={"containment": "tight"})),
    ("synth", _patched(tolerances={"defect_zero": "x"})),
    ("synth", _patched(flags=[1])),
    ("synth", _patched(tolerances=[1])),
    ("synth", _patched(flags={"nonneg_bounds": "false"})),
    ("synth", _patched(seeds={"simulate": "x"})),
    ("synth", _patched(tube={"explicit": 5})),
    ("simulate", [1]),          # the gains file
    ("simulate", {"gains": 5}),
    ("check-contain", dict(contain_config(), tol="x")),
    ("check-contain", [1]),
    ("check-invariant", [1]),
    ("synth", _patched(seeds={"simulate": -3})),
])
def test_malformed_input_exits_2(tmp_path, capsys, command, payload):
    good = write(tmp_path / "good.json", scalar_config())
    bad = write(tmp_path / "bad.json", payload)
    if command == "simulate":
        assert cli.main(["synth", "--config", good, "--out", str(tmp_path)]) == 0
        argv = ["simulate", "--config", good, "--gains", bad, "--out", str(tmp_path / "a")]
    else:
        argv = [command, "--config", bad, "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


def invariant_config():
    return {
        "model": {"vertices": [{"A": mat([[0.5]]), "B": mat([[0.0]])}],
                  "C": mat([[0.0]]), "D": mat([[1.0]])},
        "F": mat([[0.0]]), "S": interval(1.0), "V": interval(0.25),
    }


@pytest.mark.parametrize("command", ["check-contain", "check-invariant"])
def test_check_with_an_empty_disturbance_set_names_it(tmp_path, capsys, command):
    # the source set is not empty: only the disturbance set can be
    config = dict(invariant_config(), P1=interval(1.0), P2=interval(1.0),
                  V=EMPTY_INTERVAL)
    assert cli.main([command, "--config", write(tmp_path / "cfg.json", config),
                     "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == \
        "config error: source set or disturbance set is empty\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["synth", "simulate", "check-contain",
                                     "check-invariant", "demo-tanks"])
def test_non_finite_tol_exits_2(tmp_path, capsys, command, tol):
    scalar = write(tmp_path / "scalar.json", scalar_config())
    out = str(tmp_path / "o")
    if command == "simulate":
        assert cli.main(["synth", "--config", scalar, "--out", str(tmp_path / "s")]) == 0
        argv = ["simulate", "--config", scalar,
                "--gains", str(tmp_path / "s" / "gains.json"), "--runs", "5"]
    elif command == "demo-tanks":
        argv = ["demo-tanks", "--runs", "5"]
    else:
        config = {"synth": scalar_config(), "check-contain": contain_config(),
                  "check-invariant": invariant_config()}[command]
        argv = [command, "--config", write(tmp_path / "cfg.json", config)]
    capsys.readouterr()
    assert cli.main(argv + ["--out", out, "--tol", tol]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --tol")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["synth", "simulate", "check-contain",
                                     "check-invariant", "demo-tanks"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    # an output directory that is a regular file, or a report path below one
    blocker = tmp_path / "afile"
    blocker.write_text("")
    scalar = write(tmp_path / "scalar.json", scalar_config())
    assert cli.main(["synth", "--config", scalar, "--out", str(tmp_path / "s")]) == 0
    argv = {
        "synth": ["synth", "--config", scalar, "--out", str(blocker)],
        "simulate": ["simulate", "--config", scalar, "--runs", "3",
                     "--gains", str(tmp_path / "s" / "gains.json"), "--out", str(blocker)],
        "check-contain": ["check-contain", "--out", str(blocker / "r.json"),
                          "--config", write(tmp_path / "c.json", contain_config())],
        "check-invariant": ["check-invariant", "--out", str(blocker / "r.json"),
                            "--config", write(tmp_path / "i.json", invariant_config())],
        "demo-tanks": ["demo-tanks", "--runs", "2", "--out", str(blocker)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")


@pytest.mark.parametrize("seed", ["-1", "-7"])
@pytest.mark.parametrize("command", ["simulate", "demo-tanks"])
def test_negative_seed_exits_2(tmp_path, capsys, command, seed):
    out = tmp_path / "o"
    if command == "simulate":
        scalar = write(tmp_path / "scalar.json", scalar_config())
        assert cli.main(["synth", "--config", scalar, "--out", str(tmp_path / "s")]) == 0
        argv = ["simulate", "--config", scalar,
                "--gains", str(tmp_path / "s" / "gains.json")]
    else:
        argv = ["demo-tanks"]
    capsys.readouterr()
    assert cli.main(argv + ["--runs", "5", "--seed", seed, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --seed")
    assert not out.exists()


@pytest.mark.parametrize("r1", ["0", "-3", "nan", "inf"])
def test_demo_tanks_rejects_non_positive_r1(tmp_path, capsys, r1):
    assert cli.main(["demo-tanks", "--out", str(tmp_path / "o"), "--runs", "1",
                     "--r1", r1]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --r1")
    assert not (tmp_path / "o").exists()


def test_demo_tanks_level_inversion_is_an_audit_failure(tmp_path, capsys):
    # a tank-1 area this small empties tank 1 below tank 2 within a step,
    # where the nonlinear model is undefined
    assert cli.main(["demo-tanks", "--out", str(tmp_path / "o"), "--runs", "1",
                     "--r1", "0.01"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("audit failed: level inversion")
    # the nonlinear runs are audited before any file is written
    assert not (tmp_path / "o").exists()


def test_scalar_fields_decoded_before_the_tube(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("tube built before the scalar fields were checked")

    monkeypatch.setattr(cli, "tube_from_step_specs", never)
    spec = {"setpoint": 0.0, "rise_time": 5.0, "rise_tol": 0.1, "settle_time": 10.0,
            "settle_tol": 0.01, "overshoot": 0.01, "initial_lower": -0.3,
            "sample_time": 1.0}
    bad = _patched(horizon=10 ** 9, tolerances={"containment": "tight"},
                   tube={"step_specs": {"C": mat([[1.0]]), "specs": [spec]}})
    cfg = write(tmp_path / "bad.json", bad)
    assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "tolerances.containment" in capsys.readouterr().err


# -- exit-code contract on arbitrary input -----------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


def scalar_gains():
    return {"gains": [mat([[-0.5]]), mat([[-0.5]])]}


def _paths(obj, prefix=()):
    """Every key path into a JSON value, the value itself included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _set_path(obj, path, value):
    """obj with the entry at ``path`` replaced (None deletes it); a path
    that an earlier mutation cut off is left alone."""
    if not path:
        return value
    try:
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass
    return obj


EXTRA_PATHS = [("flags",), ("flags", "nonneg_bounds"), ("flags", "disturbance_floor"),
               ("tolerances",), ("tolerances", "containment"), ("tolerances", "defect_zero"),
               ("disturbance",), ("control_constraints",), ("model", "D")]


@st.composite
def mutated(draw, base):
    obj = base()
    paths = list(_paths(obj)) + EXTRA_PATHS
    values = st.floats() | st.integers(-3, 3) | json_values
    for _ in range(draw(st.integers(1, 3))):
        obj = _set_path(obj, draw(st.sampled_from(paths)), draw(values))
    return obj


@pytest.fixture(scope="module")
def synthesized(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    cfg = write(out / "cfg.json", scalar_config())
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(command=st.sampled_from(["synth", "simulate", "check-contain", "check-invariant"]),
       as_gains=st.booleans(),
       payload=(json_values | mutated(scalar_config) | mutated(scalar_gains)
                | mutated(contain_config)))
def test_exit_code_contract_on_any_input(synthesized, command, as_gains, payload):
    with tempfile.TemporaryDirectory() as tmp:
        bad = write(Path(tmp) / "in.json", payload)
        out = str(Path(tmp) / "out")
        if command == "simulate":
            cfg, gains = str(synthesized / "cfg.json"), str(synthesized / "gains.json")
            if as_gains:
                gains = bad
            else:
                cfg = bad
            argv = ["simulate", "--config", cfg, "--gains", gains, "--out", out,
                    "--runs", "3"]
        else:
            argv = [command, "--config", bad, "--out", out]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(argv) in (0, 2, 3, 4)
    # a synthesis failure names a real step, 0 <= k < horizon
    for k in re.findall(r"^synthesis failed: step k=(-?\d+)", err.getvalue(), re.M):
        assert 0 <= int(k) < payload["horizon"]
