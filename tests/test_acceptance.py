"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
on failure) and then asserts, so the suite doubles as a checklist.
"""

import time

import numpy as np
import pytest

from tubesynth import lp, sim, synth
from tubesynth.cli import tanks_problem
from tubesynth.polytope import PolyhedralSet, box, vertices
from tubesynth.reach import PolytopicModel, check_containment, \
    check_containment_disturbance, check_robust_invariant
from tubesynth.tube import TargetTube

from oracles import lp_vertex_optimum, random_bounded_set, \
    random_containment_instance, vertex_mapping_contained


def _report(num, ok, detail):
    print("criterion %d %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok


def _containment_sample(count=200, seed=90210):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pairs, C, F, src, tgt = random_containment_instance(rng)
        model = PolytopicModel(vertices=pairs, C=C)
        out.append((model, F, PolyhedralSet(*src), PolyhedralSet(*tgt),
                    (pairs, C, src, tgt)))
    return out


def test_criterion_1_certificate_oracle_equivalence():
    start = time.perf_counter()
    sample = _containment_sample()
    agree = 0
    verdicts = {True: 0, False: 0}
    for model, F, P1, P2, (pairs, C, src, tgt) in sample:
        got = check_containment(model, F, P1, P2, tol=1e-7).contained
        ref = vertex_mapping_contained(pairs, C, F, src, tgt, tol=1e-7)
        agree += got == ref
        verdicts[ref] += 1
    elapsed = time.perf_counter() - start
    ok = agree == len(sample) and elapsed < 30.0
    _report(1, ok, "%d/%d verdicts agree with the vertex-mapping oracle "
            "(%d contained / %d not) in %.2f s" %
            (agree, len(sample), verdicts[True], verdicts[False], elapsed))


def test_criterion_2_certificate_soundness():
    worst_neg = 0.0
    worst_eq = 0.0
    worst_bound = 0.0
    contained = 0
    for model, F, P1, P2, _ in _containment_sample():
        rpt = check_containment(model, F, P1, P2, tol=1e-7)
        if not rpt.contained:
            continue
        contained += 1
        for G, A_cl in zip(rpt.certificates, model.closed_loop(F)):
            worst_neg = min(worst_neg, float(G.min()))
            worst_eq = max(worst_eq, float(np.max(np.abs(G @ P1.A - P2.A @ A_cl))))
            worst_bound = max(worst_bound, float(np.max(G @ P1.b - P2.b)))
    ok = (contained > 0 and worst_neg >= -1e-10 and worst_eq <= 1e-8
          and worst_bound <= 1e-8)
    _report(2, ok, "%d contained verdicts; min entry %.1e, equality residual "
            "%.1e, bound residual %.1e" % (contained, worst_neg, worst_eq,
                                           worst_bound))


def test_criterion_3_hand_solved_fixtures():
    t = TargetTube([box([-1], [1]), box([-1], [1]), box([-0.1], [0.1])])
    ctrl = synth.synthesize(synth.SynthesisProblem(
        model=PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[1.0]]))],
                             C=np.array([[1.0]])), tube=t))
    gains_ok = all(abs(0.5 + F[0, 0]) <= 0.1 + 1e-9 for F in ctrl.gains)
    exact_ok = ctrl.provenance == [synth.TUBE_EXACT, synth.TUBE_EXACT]

    auto = synth.synthesize(synth.SynthesisProblem(
        model=PolytopicModel(vertices=[(np.array([[2.0]]), np.zeros((1, 1)))],
                             C=np.array([[1.0]])), tube=t))
    shrink_ok = (np.max(np.abs(auto.sets[1].b - 0.05)) <= 1e-8
                 and np.max(np.abs(auto.sets[0].b - 0.025)) <= 1e-8)
    ok = gains_ok and exact_ok and shrink_ok
    _report(3, ok, "controllable: %s with gains %s; autonomous offsets %s / %s"
            % (ctrl.provenance, [round(F[0, 0], 6) for F in ctrl.gains],
               auto.sets[1].b.tolist(), auto.sets[0].b.tolist()))


def test_criterion_4_existence_under_guarantees():
    rng = np.random.default_rng(404)
    succeeded = 0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        r = int(rng.integers(1, n + 1))
        model = PolytopicModel(
            vertices=[(rng.normal(size=(n, n)) * rng.uniform(0.2, 2.0),
                       rng.normal(size=(n, m))) for _ in range(s)],
            C=rng.normal(size=(r, n)))
        K = int(rng.integers(2, 6))
        t = TargetTube([box(-rng.uniform(0.05, 1.5, size=n),
                            rng.uniform(0.05, 1.5, size=n))
                        for _ in range(K + 1)])
        try:
            res = synth.synthesize(synth.SynthesisProblem(model=model, tube=t,
                                                          nonneg_bounds=True))
        except synth.SynthesisError:
            continue
        succeeded += res.certified
    _report(4, succeeded == 50,
            "%d/50 bounded origin-interior problems synthesized and certified"
            % succeeded)


def test_criterion_5_zero_disturbance_reduction():
    rng = np.random.default_rng(55)
    model = PolytopicModel(
        vertices=[(np.array([[0.9, 0.4], [-0.2, 0.7]]), np.array([[0.1], [1.0]])),
                  (np.array([[1.1, 0.2], [0.1, 0.8]]), np.array([[0.0], [0.9]]))],
        C=np.eye(2))
    t = TargetTube([box([-w] * 2, [w] * 2) for w in (1.0, 1.0, 0.8, 0.6, 0.5)])
    res = synth.synthesize(synth.SynthesisProblem(model=model, tube=t))
    checked = 0
    agree = 0
    for trial in range(3):
        D = rng.normal(size=(2, int(rng.integers(1, 4))))
        model_d = PolytopicModel(vertices=model.vertices, C=model.C, D=D)
        zero = box(np.zeros(D.shape[1]), np.zeros(D.shape[1]))
        for k in range(res.horizon):
            nominal = res.step_reports[k]
            disturbed = check_containment_disturbance(
                model_d, res.gains[k], res.sets[k], zero, res.sets[k + 1],
                tol=1e-7)
            checked += 1
            agree += disturbed.contained == nominal.contained == True
    _report(5, agree == checked,
            "%d/%d steps keep a contained verdict with a zero disturbance set "
            "and arbitrary D" % (agree, checked))


def test_criterion_6_tanks_reproduction():
    start = time.perf_counter()
    problem, specs = tanks_problem(horizon=15)
    model = problem.model
    res = synth.synthesize(problem, containment_tol=1e-7)
    synth_ok = res.certified

    # 100 random closed-loop runs from the first traversed set
    rng = np.random.default_rng(2601)
    terminal = box([-0.01, -0.01], [0.01, 0.01])
    runs = sim.simulate_runs(model, res.gains, sim.sample_states(res.sets[0], 100, rng),
                             rng)
    _, report = sim.verify_runs(runs.states, res.sets, tol=1e-7)
    at_target = np.all(runs.states[:, -1] @ terminal.A.T <= terminal.b + 1e-7, axis=1)
    run_ok = int(np.sum(report.ok & at_target))
    linear_ok = run_ok == 100

    # three nonlinear runs, one per tank-1 area
    tube_sets = list(problem.tube.sets)
    errors = []
    for j, R1 in enumerate((3.0, 4.0, 5.0)):
        e0 = sim.sample_states(res.sets[0], 1, np.random.default_rng(7 + j))[0]
        errors.append(sim.tanks_nonlinear_simulate(R1, 5.0, np.array([2.0, 1.6]) + e0,
                                                   res.gains, (2.0, 1.6)))
    nl_worst = sim.verify_runs(np.stack(errors), tube_sets, tol=1e-3)[1].worst.max()
    nonlinear_ok = nl_worst <= 1e-3

    # control rows hold at every tube-section vertex
    ctrl_resid = -np.inf
    for k in range(res.horizon):
        U, theta = problem.control_constraints[k].A, problem.control_constraints[k].b
        for h in vertices(problem.tube[k]):
            r = U @ res.gains[k] @ model.C @ h - theta
            ctrl_resid = max(ctrl_resid, float(r.max()))
    control_ok = ctrl_resid <= 1e-8

    elapsed = time.perf_counter() - start
    ok = synth_ok and linear_ok and nonlinear_ok and control_ok and elapsed < 300
    _report(6, ok, "synthesis certified=%s; %d/100 linear runs in the "
            "traversed sets and terminal box; nonlinear envelope slack %.2e; "
            "control residual %.2e; %.1f s"
            % (synth_ok, run_ok, nl_worst, ctrl_resid, elapsed))


def test_criterion_7_lp_solver_validation():
    rng = np.random.default_rng(700)
    matched = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        A, b = random_bounded_set(rng, n, extra_rows=3)
        c = rng.normal(size=n)
        sense = lp.MAXIMIZE if rng.integers(2) else lp.MINIMIZE
        p = lp.LpProblem(c=c, A_in=A, b_in=b, free=np.ones(n, dtype=bool),
                         sense=sense)
        s = lp.solve(p)
        ref = lp_vertex_optimum(c, A, b, "max" if sense == lp.MAXIMIZE else "min")
        matched += (s.status == lp.OPTIMAL
                    and abs(s.objective - ref) <= 1e-7 * (1 + abs(ref)))

    infeasible = 0
    for i in range(20):
        a = np.array([np.cos(i), np.sin(i)])
        p = lp.LpProblem(c=[1, 1], A_in=np.vstack([a, -a]), b_in=[-1, -1],
                         free=[True, True])
        infeasible += lp.solve(p).status == lp.INFEASIBLE

    unbounded = 0
    for i in range(10):
        d = np.array([np.cos(0.2 * i) + 1.5, np.sin(0.2 * i) + 1.5])
        a = np.array([-d[1], d[0]])
        p = lp.LpProblem(c=d, A_in=a[None, :], b_in=[1.0], free=[True, True],
                         sense=lp.MAXIMIZE)
        unbounded += lp.solve(p).status == lp.UNBOUNDED

    p = lp.LpProblem(c=rng.normal(size=3), A_in=np.vstack([np.eye(3), -np.eye(3)]),
                     b_in=np.ones(6), free=np.ones(3, dtype=bool),
                     sense=lp.MAXIMIZE)
    s1, s2 = lp.solve(p), lp.solve(p)
    deterministic = (s1.objective == s2.objective and np.array_equal(s1.x, s2.x)
                     and np.array_equal(s1.duals_in, s2.duals_in))

    ok = matched == 100 and infeasible == 20 and unbounded == 10 and deterministic
    _report(7, ok, "%d/100 vertex-oracle matches, %d/20 infeasible, "
            "%d/10 unbounded, repeats bit-identical=%s"
            % (matched, infeasible, unbounded, deterministic))


def test_criterion_8_robust_invariance_and_dual_mode():
    # classification of the two box examples
    model = PolytopicModel(vertices=[(0.5 * np.eye(2), np.zeros((2, 1)))],
                           C=np.zeros((1, 2)), D=np.eye(2))
    S = box([-1, -1], [1, 1])
    F0 = np.zeros((1, 1))
    good = check_robust_invariant(model, F0, S, box([-0.25] * 2, [0.25] * 2))
    bad = check_robust_invariant(model, F0, S, box([-0.6] * 2, [0.6] * 2))
    classify_ok = good.contained and not bad.contained

    # dual-mode composition: horizon gains from a disturbed synthesis,
    # then a static gain whose invariant set contains the terminal box
    plant = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2))],
                           C=np.eye(2), D=np.eye(2))
    widths = (1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.01)
    t = TargetTube([box([-w] * 2, [w] * 2) for w in widths])
    V = box([-0.005] * 2, [0.005] * 2)
    K = 6
    res = synth.synthesize(synth.SynthesisProblem(
        model=plant, tube=t, disturbance=[V] * K,
        disturbance_floor=True))
    F_hold = -0.2 * np.eye(2)
    S_hold = box([-0.02] * 2, [0.02] * 2)
    terminal = t[K]
    hold_ok = check_robust_invariant(plant, F_hold, S_hold, V).contained
    covers = all(np.all(S_hold.A @ v <= S_hold.b + 1e-12)
                 for v in vertices(terminal))

    rng = np.random.default_rng(88)
    gains = list(res.gains) + [F_hold] * K
    runs = sim.simulate_runs(plant, gains, sim.sample_states(res.sets[0], 20, rng), rng,
                             disturbance=[V] * len(gains))
    tail = runs.states[:, K:2 * K + 1]
    runs_ok = int(np.sum(np.all(tail @ terminal.A.T <= terminal.b + 1e-7, axis=(1, 2))))

    ok = classify_ok and res.certified and hold_ok and covers and runs_ok == 20
    _report(8, ok, "box examples classified=%s; dual-mode: synthesis "
            "certified=%s, hold gain invariant=%s, terminal covered=%s, "
            "%d/20 disturbed runs stay in the terminal box over the second "
            "horizon" % (classify_ok, res.certified, hold_ok, covers, runs_ok))
