import numpy as np
import pytest

from tubesynth import lp, polytope, synth
from tubesynth.cli import tanks_problem
from tubesynth.polytope import PolyhedralSet, box, vertices
from tubesynth.reach import PolytopicModel, check_containment, step_maps, \
    verify_certificates
from tubesynth.sim import sample_states, simulate_runs, verify_runs
from tubesynth.tube import TargetTube

from oracles import DenseSimplexReference, lp1_kron_reference

INTERVAL_ROWS = np.array([[1.0], [-1.0]])


def scalar_model(a, b):
    return PolytopicModel(vertices=[(np.array([[a]]), np.array([[b]]))],
                          C=np.array([[1.0]]))


def interval_tube(*halfwidths):
    return TargetTube([box([-w], [w]) for w in halfwidths])


# -- stage-1 LP -------------------------------------------------------------

def interval(w):
    return PolyhedralSet(INTERVAL_ROWS, [w, w])


def test_lp1_variable_and_row_counts():
    # three vertices, four rows on both sections, n=2, m=2, r=1:
    # 3*16 multiplier entries + 2 gain entries + 4 defect entries
    model = PolytopicModel(
        vertices=[(a * np.eye(2), np.ones((2, 2))) for a in (0.3, 0.5, 0.7)],
        C=np.array([[0.0, 1.0]]))
    S = box([-1, -1], [1, 1])
    p = synth.build_lp1(model, S, S)
    assert p.nvars == 54
    assert p.A_eq.shape[0] == 24
    assert p.A_in.shape[0] == 12


def test_lp1_scalar_hand_solution():
    # A=0.5, B=1, C=1, section +-1 into +-0.1: zero defect with any gain
    # making |0.5 + F| <= 0.1
    model = scalar_model(0.5, 1.0)
    sol = lp.solve(synth.build_lp1(model, interval(1.0), interval(0.1)))
    assert sol.status == lp.OPTIMAL
    eps, F, blocks = synth.split_lp1_solution(sol.x, model, 2)
    assert np.max(np.abs(eps)) <= 1e-9
    assert abs(0.5 + F[0, 0]) <= 0.1 + 1e-9
    G = blocks[0]
    assert G.shape == (2, 2) and G.min() >= -1e-12
    assert np.max(np.abs(G @ INTERVAL_ROWS - INTERVAL_ROWS * (0.5 + F[0, 0]))) <= 1e-9


def test_lp1_split_reads_the_block_width_from_the_solution():
    # with V(k) each block spans the section rows and the V(k) rows
    model = PolytopicModel(vertices=scalar_model(0.5, 1.0).vertices,
                           C=np.array([[1.0]]), D=np.array([[1.0]]))
    V = PolyhedralSet(np.array([[1.0], [-1.0], [2.0]]), [0.1, 0.1, 0.3])
    sol = lp.solve(synth.build_lp1(model, interval(1.0), interval(1.0), V))
    assert sol.status == lp.OPTIMAL
    _, _, blocks = synth.split_lp1_solution(sol.x, model, 2)
    assert [G.shape for G in blocks] == [(2, 5)]


def test_lp1_zero_column_d_without_v_is_the_nominal_lp():
    # a model whose D has no columns and a step without V(k): the LP is
    # the nominal one, byte for byte
    model = scalar_model(0.5, 1.0)
    model_d = PolytopicModel(vertices=model.vertices, C=model.C,
                             D=np.zeros((1, 0)))
    p_nom = synth.build_lp1(model, interval(1.0), interval(1.0))
    p_d = synth.build_lp1(model_d, interval(1.0), interval(1.0))
    for field in ("c", "A_eq", "b_eq", "A_in", "b_in", "free"):
        a, b = getattr(p_nom, field), getattr(p_d, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def test_lp1_rejects_inconsistent_disturbance():
    model_d = PolytopicModel(vertices=scalar_model(0.5, 1.0).vertices,
                             C=np.array([[1.0]]), D=np.array([[1.0]]))
    with pytest.raises(ValueError, match="no disturbance map"):
        synth.build_lp1(scalar_model(0.5, 1.0), interval(1.0), interval(1.0),
                        interval(0.1))
    with pytest.raises(ValueError, match="disturbance set dimension 2"):
        synth.build_lp1(model_d, interval(1.0), interval(1.0),
                        box([-0.1, -0.1], [0.1, 0.1]))


def test_lp1_rejects_sections_of_the_wrong_dimension():
    model = scalar_model(0.5, 1.0)
    with pytest.raises(ValueError, match="next set has dimension 2"):
        synth.build_lp1(model, interval(1.0), box([-1, -1], [1, 1]))
    with pytest.raises(ValueError, match="set dimensions"):
        synth.build_lp1(model, box([-1, -1], [1, 1]), interval(1.0))


def _lp1_calls(monkeypatch, problem):
    """Arguments of every build_lp1 call in a synthesis of ``problem``."""
    calls = []
    build = synth.build_lp1

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return build(*args, **kwargs)

    monkeypatch.setattr(synth, "build_lp1", spy)
    try:
        synth.synthesize(problem)
    except synth.SynthesisError:
        pass
    monkeypatch.setattr(synth, "build_lp1", build)
    return calls


def disturbed_problem():
    """Two vertex models under one V(k) over a shrinking box tube."""
    return synth.SynthesisProblem(
        model=PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2)),
                                       (0.6 * np.eye(2), -np.eye(2))],
                             C=np.eye(2), D=np.array([[1.0], [-0.5]])),
        tube=TargetTube([box([-w] * 2, [w] * 2) for w in (1.0, 0.5, 0.25, 0.12)]),
        disturbance=[PolyhedralSet(np.array([[1.0], [-1.0]]),
                                   np.array([0.005, 0.003]))] * 3)


def controlled_problem():
    """Two vertex models, one output and three control rows U(k)."""
    U = np.array([[1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])
    return synth.SynthesisProblem(
        model=PolytopicModel(
            vertices=[(np.array([[0.9, 0.4], [-0.2, 0.7]]),
                       np.array([[0.1, 0.0], [1.0, 0.3]])),
                      (np.array([[1.1, 0.2], [0.1, 0.8]]),
                       np.array([[0.0, -0.2], [0.9, 1.0]]))],
            C=np.array([[1.0, -1.0]])),
        tube=TargetTube([box([-w] * 2, [w] * 2) for w in (1.0, 1.0, 0.8, 0.6)]),
        control_constraints=[PolyhedralSet(U, np.array([2.0, 1.5, 1.0]))] * 3)


def test_lp1_assembly_matches_kron_reference_bitwise(monkeypatch):
    # tanks steps, disturbed steps and control-row steps: the same bytes,
    # signed zeros included, as the per-vertex np.kron/np.vstack assembly
    # over the raw arrays of the step's sets
    seen = set()
    for problem in (tanks_problem(horizon=15)[0], disturbed_problem(),
                    controlled_problem()):
        for (model, H, X_next, V), kwargs in _lp1_calls(monkeypatch, problem):
            got = synth.build_lp1(model, H, X_next, V, **kwargs)
            control = kwargs["control"]
            want = lp1_kron_reference(
                model, H.A, H.b, X_next.A, X_next.b,
                disturbance=None if V is None else (V.A, V.b),
                control_rows=None if control is None
                else (control[0].A, control[0].b, control[1]))
            for field in ("c", "A_eq", "b_eq", "A_in", "b_in", "free"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
            seen.update(name for name, value in (("disturbance", V),
                                                 ("control", control))
                        if value is not None)
    assert seen == {"disturbance", "control"}


# -- stage-2 LP -------------------------------------------------------------

def test_lp2_scalar_hand_solution():
    # multipliers 2I against next offsets 0.1: offsets halve
    p = synth.build_lp2([2 * np.eye(2)], interval(1.0), interval(0.1))
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert np.allclose(sol.x, 0.05, atol=1e-9)


def test_lp2_zero_vector_feasible_with_nonneg():
    # with nonnegative offsets forced and nonnegative next offsets, the
    # zero vector always satisfies every multiplier row
    p = synth.build_lp2([np.array([[3.0, 1.0], [0.5, 2.0]])], interval(1.0),
                        interval(0.0), nonneg=True)
    sol = lp.solve(p)
    assert sol.status == lp.OPTIMAL
    assert np.allclose(sol.x, 0.0, atol=1e-9)


def test_lp2_floor_rows_with_zero_map_equal_nonneg():
    blocks = [2 * np.eye(2)]
    with_floor = lp.solve(synth.build_lp2(blocks, interval(1.0), interval(0.1),
                                          floor_values=[np.zeros(2)]))
    with_nonneg = lp.solve(synth.build_lp2(blocks, interval(1.0), interval(0.1),
                                           nonneg=True))
    assert np.allclose(with_floor.x, with_nonneg.x, atol=1e-9)


def test_lp2_infeasible_without_safeguards():
    # multiplier row forces the offset above the section bound
    p = synth.build_lp2([-np.eye(2)], interval(1.0), interval(-2.0))
    assert lp.solve(p).status == lp.INFEASIBLE


def test_lp2_rejects_blocks_of_the_wrong_width():
    # a block spans the section rows, plus the V(k) rows when V is given
    V = PolyhedralSet(INTERVAL_ROWS, [0.005, 0.003])
    for G, V_k in ((np.ones((2, 3)), V), (np.ones((2, 2)), V),
                   (np.ones((2, 4)), None)):
        with pytest.raises(ValueError, match="multiplier block has"):
            synth.build_lp2([G], interval(1.0), interval(1.0), V_k)
    p = synth.build_lp2([np.ones((2, 4))], interval(1.0), interval(1.0), V)
    assert p.A_in.shape == (4, 2)
    assert np.array_equal(p.b_in, [1.0, 1.0, 0.992, 0.992])


def support_check(prob, res, k, tol=1e-7):
    """The support-LP containment check of step k."""
    return check_containment(prob.model, res.gains[k], res.sets[k], res.sets[k + 1],
                             tol=tol, disturbance=None if prob.disturbance is None
                             else prob.disturbance[k])


def assert_certificates_sound(prob, res, tol=1e-7):
    """Plain NumPy residuals of every step's certificates, and each verdict
    against the support-LP check on the same sets and gain."""
    model = prob.model
    for k, rpt in enumerate(res.step_reports):
        assert rpt.contained == support_check(prob, res, k, tol).contained
        if not rpt.contained:
            continue
        X, Y = res.sets[k], res.sets[k + 1]
        A_src, b_src = X.A, X.b
        if prob.disturbance is not None:
            W, gamma = prob.disturbance[k].A, prob.disturbance[k].b
            A_src = np.block([[X.A, np.zeros((X.nrows, model.p))],
                              [np.zeros((W.shape[0], model.n)), W]])
            b_src = np.concatenate([X.b, gamma])
        assert len(rpt.certificates) == model.s
        for G, (A, B) in zip(rpt.certificates, model.vertices):
            M = A + B @ res.gains[k] @ model.C
            if prob.disturbance is not None:
                M = np.hstack([M, model.D])
            assert G.min() >= -1e-10
            assert np.max(np.abs(G @ A_src - Y.A @ M)) <= lp.FEASIBILITY_TOL
            assert np.max(G @ b_src - Y.b) <= tol
            assert np.max(G @ b_src - Y.b) <= rpt.worst_violation + 1e-15


# -- full recursion ----------------------------------------------------------

def test_scalar_controllable_case():
    res = synth.synthesize(synth.SynthesisProblem(
        model=scalar_model(0.5, 1.0), tube=interval_tube(1.0, 1.0, 0.1)))
    assert res.provenance == [synth.TUBE_EXACT, synth.TUBE_EXACT]
    assert np.allclose(res.sets[0].b, 1.0)
    assert np.allclose(res.sets[1].b, 1.0)
    assert np.allclose(res.sets[2].b, 0.1)
    for F in res.gains:
        assert abs(0.5 + F[0, 0]) <= 0.1 + 1e-9
    assert res.certified
    assert len(res.step_reports) == res.provenance.count(synth.TUBE_EXACT)


def test_scalar_autonomous_case():
    res = synth.synthesize(synth.SynthesisProblem(
        model=scalar_model(2.0, 0.0), tube=interval_tube(1.0, 1.0, 0.1)))
    assert res.provenance == [synth.SHRUNK, synth.SHRUNK]
    assert np.allclose(res.sets[1].b, 0.05, atol=1e-8)
    assert np.allclose(res.sets[0].b, 0.025, atol=1e-8)
    assert res.certified
    assert synth.TUBE_EXACT not in res.provenance


def test_result_invariants():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        s = int(rng.integers(1, 3))
        model = PolytopicModel(
            vertices=[(rng.normal(size=(n, n)) * 0.4, rng.normal(size=(n, 1)) * 0.3)
                      for _ in range(s)],
            C=rng.normal(size=(1, n)))
        K = int(rng.integers(2, 5))
        widths = np.sort(rng.uniform(0.2, 1.5, size=K + 1))[::-1]
        t = TargetTube([box([-w] * n, [w] * n) for w in widths])
        prob = synth.SynthesisProblem(model=model, tube=t)
        res = synth.synthesize(prob)
        assert np.array_equal(res.sets[K].b, t[K].b)      # terminal kept
        for k in range(K + 1):
            assert np.all(res.sets[k].b <= t[k].b + 1e-12)  # inside the tube
            assert np.all(res.sets[k].b >= -1e-12)          # nonneg offsets
        for k in range(K):
            exact = np.max(np.abs(res.residuals[k])) <= synth.EPS_ZERO_TOL
            assert (res.provenance[k] == synth.TUBE_EXACT) == exact
        assert res.certified
        assert_certificates_sound(prob, res)


def test_tube_exact_steps_certify_from_full_section():
    model = scalar_model(0.5, 1.0)
    t = interval_tube(1.0, 1.0, 0.1)
    res = synth.synthesize(synth.SynthesisProblem(model=model, tube=t))
    for k, (rpt, prov) in enumerate(zip(res.step_reports, res.provenance)):
        if prov != synth.TUBE_EXACT:
            continue
        full = check_containment(model, res.gains[k], t[k],
                                 PolyhedralSet(t[k + 1].A, res.sets[k + 1].b))
        assert rpt.contained and full.contained


def test_random_problems_with_guarantees_always_synthesize():
    # bounded sections with the origin interior plus nonnegative offsets:
    # the recursion has a solution for any vertex matrices
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        r = int(rng.integers(1, n + 1))
        model = PolytopicModel(
            vertices=[(rng.normal(size=(n, n)) * rng.uniform(0.2, 1.5),
                       rng.normal(size=(n, m))) for _ in range(s)],
            C=rng.normal(size=(r, n)))
        K = int(rng.integers(2, 5))
        t = TargetTube([box(-rng.uniform(0.05, 1.5, size=n),
                            rng.uniform(0.05, 1.5, size=n))
                        for _ in range(K + 1)])
        res = synth.synthesize(synth.SynthesisProblem(model=model, tube=t))
        assert res.certified


def test_closed_loop_stays_in_traversed_sets():
    rng = np.random.default_rng(5150)
    model = PolytopicModel(
        vertices=[(np.array([[0.9, 0.4], [-0.2, 0.7]]), np.array([[0.1], [1.0]])),
                  (np.array([[1.1, 0.2], [0.1, 0.8]]), np.array([[0.0], [0.9]]))],
        C=np.array([[1.0, 0.0], [0.0, 1.0]]))
    t = TargetTube([box([-w] * 2, [w] * 2) for w in (1.0, 1.0, 0.8, 0.6, 0.5)])
    res = synth.synthesize(synth.SynthesisProblem(model=model, tube=t))
    assert res.certified
    runs = simulate_runs(model, res.gains, sample_states(res.sets[0], 100, rng), rng)
    _, report = verify_runs(runs.states, res.sets, tol=1e-7)
    assert report.ok.all()


def test_disturbed_synthesis_certifies():
    model = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2))],
                           C=np.eye(2), D=np.eye(2))
    widths = (1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.01)
    t = TargetTube([box([-w] * 2, [w] * 2) for w in widths])
    V = box([-0.005] * 2, [0.005] * 2)
    prob = synth.SynthesisProblem(model=model, tube=t,
                                  disturbance=[V] * 6,
                                  disturbance_floor=True)
    res = synth.synthesize(prob)
    assert res.certified
    assert np.array_equal(res.sets[6].b, t[6].b)
    # the wide LP1 blocks over [X(k) 0; 0 W] are the certificates
    assert all(G.shape == (4, 8) for G in res.step_reports[0].certificates)
    assert_certificates_sound(prob, res)


def test_disturbed_recursion_aborts_cleanly_or_certifies():
    # under a disturbance the second stage may be left without room by
    # the first stage's multiplier split; the contract is: certified
    # output or a clean stage-2 abort naming the step, never bad gains
    rng = np.random.default_rng(31337)
    aborted = 0
    certified = 0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        s = int(rng.integers(1, 3))
        model = PolytopicModel(
            vertices=[(rng.normal(size=(n, n)) * rng.uniform(0.2, 1.2),
                       rng.normal(size=(n, 1))) for _ in range(s)],
            C=rng.normal(size=(1, n)), D=rng.normal(size=(n, 1)) * 0.05)
        K = int(rng.integers(2, 5))
        t = TargetTube([box(-rng.uniform(0.3, 1.5, size=n),
                            rng.uniform(0.3, 1.5, size=n))
                        for _ in range(K + 1)])
        V = box([-0.002], [0.002])
        prob = synth.SynthesisProblem(model=model, tube=t,
                                      disturbance=[V] * K,
                                      disturbance_floor=True)
        try:
            res = synth.synthesize(prob)
        except synth.SynthesisError as err:
            assert err.stage == "stage 2"
            assert 0 <= err.k < K
            aborted += 1
            continue
        assert res.certified
        certified += 1
    assert certified > 0 and certified + aborted == 30


def test_disturbance_floor_enumerates_a_repeated_set_once(monkeypatch):
    model = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2))],
                           C=np.eye(2), D=np.eye(2))
    widths = (1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.01)
    V = box([-0.005] * 2, [0.005] * 2)
    enumerated = []

    def spy(P, *args, **kwargs):
        enumerated.append(P)
        return vertices(P, *args, **kwargs)

    for module in (polytope, synth):
        monkeypatch.setattr(module, "vertices", spy)
    prob = synth.SynthesisProblem(
        model=model, tube=TargetTube([box([-w] * 2, [w] * 2) for w in widths]),
        disturbance=[V] * 6, disturbance_floor=True)
    assert synth.synthesize(prob).certified
    assert len(enumerated) == 1 and enumerated[0] is V


def test_disturbance_image_outside_tube_is_rejected():
    model = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2))],
                           C=np.eye(2), D=np.eye(2))
    t = TargetTube([box([-1] * 2, [1] * 2), box([-0.01] * 2, [0.01] * 2)])
    V = box([-0.5] * 2, [0.5] * 2)   # image misses the terminal box
    prob = synth.SynthesisProblem(model=model, tube=t,
                                  disturbance=[V],
                                  disturbance_floor=True)
    with pytest.raises(ValueError):
        synth.synthesize(prob)


@pytest.mark.parametrize("floor", [False, True])
def test_an_empty_disturbance_set_is_an_input_error(floor):
    # x+ = 2 x + v has no point of V(k) = {v <= -1, -v <= -1} to add, so
    # every certificate over section x V(k) would hold vacuously
    model = PolytopicModel(vertices=[(np.array([[2.0]]), np.array([[0.0]]))],
                           C=np.array([[1.0]]), D=np.array([[1.0]]))
    V = PolyhedralSet(INTERVAL_ROWS, [-1.0, -1.0])
    prob = synth.SynthesisProblem(model=model, tube=interval_tube(1.0, 1.0, 1.0),
                                  disturbance=[V] * 2, disturbance_floor=floor)
    with pytest.raises(polytope.EmptySetError,
                       match=r"^disturbance set V\(0\): set is empty$"):
        synth.synthesize(prob)


def test_contradictory_control_rows_abort_with_step_index():
    # U F h <= -1 and -U F h <= -1 cannot both hold
    model = scalar_model(0.5, 1.0)
    t = interval_tube(1.0, 1.0, 0.1)
    U = np.array([[1.0], [-1.0]])
    theta = np.array([-1.0, -1.0])
    prob = synth.SynthesisProblem(model=model, tube=t,
                                  control_constraints=[PolyhedralSet(U, theta)] * 2)
    with pytest.raises(synth.SynthesisError) as err:
        synth.synthesize(prob)
    assert err.value.k == 1
    assert err.value.stage == "stage 1"


def test_unbounded_section_under_control_rows_is_an_input_error():
    # control rows need the section vertices, which an unbounded H(0) lacks:
    # an input error naming the section, not a synthesis failure
    t = TargetTube([PolyhedralSet([[1.0]], [1.0]), box([-1], [1]), box([-1], [1])])
    prob = synth.SynthesisProblem(model=scalar_model(0.5, 1.0), tube=t,
                                  control_constraints=[box([-1], [1])] * 2)
    with pytest.raises(polytope.UnboundedSetError,
                       match=r"^tube section H\(0\): .*bounded set"):
        synth.synthesize(prob)


def test_an_unbounded_section_is_an_input_error_under_nonneg_bounds():
    # the existence guarantee of nonneg_bounds needs a bounded tube; without
    # it the same problem certifies
    t = TargetTube([box([-1], [1]), PolyhedralSet([[1.0]], [1.0]), box([-0.1], [0.1])])
    prob = synth.SynthesisProblem(model=scalar_model(0.5, 1.0), tube=t)
    with pytest.raises(polytope.UnboundedSetError, match=r"^tube section H\(1\): "):
        synth.synthesize(prob)
    prob.nonneg_bounds = False
    assert synth.synthesize(prob).certified


def test_a_fault_in_section_enumeration_is_not_a_synthesis_error(monkeypatch):
    # an error that is not one of a set's propagates as it is
    def broken(*args, **kwargs):
        raise RuntimeError("not a set error")

    monkeypatch.setattr(synth, "step_vertices", broken)
    prob = stepped_control_problem([3.0, 3.0])
    with pytest.raises(RuntimeError, match="not a set error"):
        synth.synthesize(prob)


def test_control_rows_are_respected():
    model = scalar_model(0.5, 1.0)
    t = interval_tube(1.0, 1.0, 0.1)
    U = np.array([[1.0], [-1.0]])
    theta = np.array([0.2, 0.2])     # |u| <= 0.2 over the section
    res = synth.synthesize(synth.SynthesisProblem(
        model=model, tube=t, control_constraints=[PolyhedralSet(U, theta)] * 2))
    for k, F in enumerate(res.gains):
        for h in (t[k].b[0], -t[k].b[1]):
            assert abs(F[0, 0] * h) <= 0.2 + 1e-8


def test_problem_validation():
    model = scalar_model(0.5, 1.0)
    t = interval_tube(1.0, 1.0, 0.1)
    unit = PolyhedralSet(np.eye(1), np.ones(1))
    with pytest.raises(ValueError):
        synth.SynthesisProblem(model=model, tube=t, disturbance=[unit] * 2)
    with pytest.raises(ValueError):
        synth.SynthesisProblem(model=model, tube=t, disturbance_floor=True)
    with pytest.raises(ValueError):
        synth.SynthesisProblem(model=model, tube=t, control_constraints=[unit])
    model2 = PolytopicModel(vertices=[(np.eye(2), np.ones((2, 1)))],
                            C=np.ones((1, 2)))
    with pytest.raises(ValueError):
        synth.SynthesisProblem(model=model2, tube=t)
    # V(k) must be a PolyhedralSet in R^p and U(k) one in R^m
    disturbed = PolytopicModel(vertices=model.vertices, C=model.C,
                               D=np.ones((1, 1)))
    square = box([-1.0] * 2, [1.0] * 2)
    synth.SynthesisProblem(model=disturbed, tube=t, disturbance=[unit] * 2,
                           control_constraints=[unit] * 2)
    for field in ("disturbance", "control_constraints"):
        with pytest.raises(ValueError, match="dimension 2, expected 1"):
            synth.SynthesisProblem(model=disturbed, tube=t,
                                   **{field: [unit, square]})
        with pytest.raises(ValueError, match="not a PolyhedralSet"):
            synth.SynthesisProblem(model=disturbed, tube=t,
                                   **{field: [(unit.A, unit.b)] * 2})


# -- certificates taken from the first-stage LP -------------------------------

def test_certificates_under_control_rows_are_sound():
    prob, _ = tanks_problem(horizon=15)
    res = synth.synthesize(prob)
    assert res.certified
    assert set(res.provenance) == {synth.TUBE_EXACT, synth.SHRUNK}
    assert_certificates_sound(prob, res)
    # LP2 makes the multiplier bound tight on Shrunk steps, so their
    # reports read 0 where the support LP's tight gap is negative
    for k, rpt in enumerate(res.step_reports):
        if res.provenance[k] == synth.SHRUNK:
            assert abs(rpt.worst_violation) <= 1e-12
            assert support_check(prob, res, k).worst_violation < -1e-4


def test_rejected_multipliers_fall_back_to_the_support_check(monkeypatch):
    # a defect below eps_zero_tol keeps the full section although it does
    # not map inside: the LP1 blocks miss the bound threshold, and the
    # verdict comes from the support LP, with or without a disturbance
    fallbacks = []

    def spy(*args, **kwargs):
        fallbacks.append(args)
        return check_containment(*args, **kwargs)

    monkeypatch.setattr(synth, "check_containment", spy)
    nominal = synth.SynthesisProblem(model=scalar_model(2.0, 0.0),
                                     tube=interval_tube(1.0, 1.0, 0.1))
    disturbed = synth.SynthesisProblem(
        model=PolytopicModel(vertices=nominal.model.vertices, C=nominal.model.C,
                             D=np.array([[1.0]])),
        tube=interval_tube(1.0, 1.0, 0.1), disturbance=[box([-0.01], [0.01])] * 2)
    for prob in (nominal, disturbed):
        fallbacks.clear()
        res = synth.synthesize(prob, eps_zero_tol=10.0)
        assert res.provenance == [synth.TUBE_EXACT, synth.TUBE_EXACT]
        assert len(fallbacks) == 2
        assert not res.certified
        for k, rpt in enumerate(res.step_reports):
            ref = support_check(prob, res, k)
            assert not rpt.contained and rpt.certificates is None
            assert rpt.worst_violation == ref.worst_violation


# -- steps with the same LP inputs ---------------------------------------------

def stepped_disturbance_problem(halfwidths, floor):
    """x+ = 0.5 x + v over the constant tube |x| <= 1, with |v| <= halfwidths[k].

    Runs of equal V(k) repeat a step's LP inputs; a step whose V(k)
    differs from the next one's has the same sections but a different
    outcome (|v| <= 0.1 keeps the section, 0.55 and 0.6 shrink it).
    """
    K = len(halfwidths)
    return synth.SynthesisProblem(
        model=PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[0.0]]))],
                             C=np.array([[1.0]]), D=np.array([[1.0]])),
        tube=TargetTube([box([-1.0], [1.0]) for _ in range(K + 1)]),
        disturbance=[box([-h], [h]) for h in halfwidths], disturbance_floor=floor)


def stepped_control_problem(bounds):
    """x+ = 2 x + u over the constant tube |x| <= 1, with |u| <= bounds[k]
    over the section: a bound of 3 keeps the section, 0.5 shrinks it."""
    K = len(bounds)
    return synth.SynthesisProblem(
        model=scalar_model(2.0, 1.0),
        tube=TargetTube([box([-1.0], [1.0]) for _ in range(K + 1)]),
        control_constraints=[box([-t], [t]) for t in bounds])


def shrunk_fixed_point_problem():
    """x+ = x into |x| <= 0.5 from the sections |x| <= 1: every step is
    Shrunk to |x| <= 0.5, so each one has the next step's LP inputs."""
    return synth.SynthesisProblem(
        model=scalar_model(1.0, 0.0),
        tube=TargetTube([box([-1.0], [1.0])] * 5 + [box([-0.5], [0.5])]))


def floor_flag_problem():
    """x+ = 0.5 x + v with v in [-0.5, u/2], u = -2**-24: sections
    [-2, 1] into the terminal section [-1, u].

    Step K-1 is Shrunk onto [-1, u] byte for byte, so step K-2 has step
    K-1's LP inputs except the disturbance-floor flag.  The image
    D v = u/2 lies above u by less than the containment tolerance, so
    the up-front check admits it, but step K-2's floor row psi_1 >= u/2
    meets the cap psi_1 <= u of its stage 2: that step fails, which
    taking step K-1's unfloored solution would hide.
    """
    u = -2.0 ** -24
    return synth.SynthesisProblem(
        model=PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[0.0]]))],
                             C=np.array([[1.0]]), D=np.array([[1.0]])),
        tube=TargetTube([box([-2.0], [1.0])] * 3 + [box([-1.0], [u])]),
        disturbance=[box([-0.5], [u / 2])] * 3, nonneg_bounds=False,
        disturbance_floor=True)


def resolved_step(prob, X_next, k, tol=1e-7):
    """Step k into X_next solved again by solve_step from its own inputs,
    built from the problem, with a fresh solver: (gain, defect, offsets
    of X(k), provenance, report).  An LP without an optimum raises
    SynthesisError, as in synthesize."""
    model, H = prob.model, prob.tube[k]
    V = None if prob.disturbance is None else prob.disturbance[k]
    ctrl = None
    if prob.control_constraints is not None:
        ctrl = (prob.control_constraints[k], vertices(H))
    floors = None
    if prob.disturbance_floor and k <= prob.horizon - 2:
        floors = [H.A @ model.D @ v for v in vertices(V)]
    X, F, eps, prov, rpt = synth.solve_step(
        model, H, X_next, V, control=ctrl, floors=floors, nonneg=prob.nonneg_bounds,
        containment_tol=tol, solver=lp.DenseSimplexSolver(), k=k)
    return F, eps, X.b, prov, rpt


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def repeats_next_step(prob, res, k):
    """Whether step k's inputs are step k+1's, as synthesize compares
    them: H, the next set, V, U and the disturbance-floor flag."""
    def inputs(j):
        V = None if prob.disturbance is None else prob.disturbance[j]
        U = None if prob.control_constraints is None else prob.control_constraints[j]
        return (prob.tube[j], res.sets[j + 1], V, U,
                prob.disturbance_floor and j <= prob.horizon - 2)
    return inputs(k) == inputs(k + 1)


def step_arrays(res, k):
    """The gain, the defect and the certificate blocks of step k."""
    return [res.gains[k], res.residuals[k]] + (res.step_reports[k].certificates or [])


@pytest.mark.parametrize("make", [
    lambda: tanks_problem(horizon=15)[0],
    lambda: tanks_problem(horizon=40)[0],
    disturbed_problem,
    controlled_problem,
    lambda: stepped_disturbance_problem([0.1, 0.6, 0.1, 0.1, 0.6, 0.6, 0.1, 0.1],
                                        floor=False),
    lambda: stepped_disturbance_problem([0.1, 0.55, 0.1, 0.1, 0.55, 0.1, 0.1],
                                        floor=True),
    lambda: stepped_control_problem([3.0, 0.5, 3.0, 3.0, 0.5, 3.0, 3.0]),
    shrunk_fixed_point_problem,
], ids=["tanks15", "tanks40", "disturbed", "controlled", "stepped-V",
        "disturbance-floor", "stepped-U", "shrunk-fixed-point"])
def test_every_step_matches_its_own_resolve_bitwise(make):
    # a step that takes the next step's LP solutions must give the bytes
    # that solving its own LPs gives; it shares step k+1's arrays exactly
    # when it repeats step k+1's inputs
    prob = make()
    res = synth.synthesize(prob)
    for k in range(prob.horizon):
        F, eps, b, prov, rpt = resolved_step(prob, res.sets[k + 1], k)
        assert same_bytes(res.gains[k], F), k
        assert same_bytes(res.residuals[k], eps), k
        assert same_bytes(res.sets[k].b, b), k
        assert res.provenance[k] == prov, k
        got = res.step_reports[k]
        assert got.contained == rpt.contained, k
        assert got.worst_violation == rpt.worst_violation, k
        assert (got.certificates is None) == (rpt.certificates is None), k
        for G, G_ref in zip(got.certificates or [], rpt.certificates or []):
            assert same_bytes(G, G_ref), k
    for k in range(prob.horizon - 1):
        arrays, next_arrays = step_arrays(res, k), step_arrays(res, k + 1)
        if repeats_next_step(prob, res, k):
            assert res.step_reports[k] is res.step_reports[k + 1], k
            assert all(a is b for a, b in zip(arrays, next_arrays)), k
        else:
            assert not any(np.shares_memory(a, b)
                           for a in arrays for b in next_arrays), k
    assert res.certified


def test_floor_flag_keeps_a_step_from_taking_an_unfloored_solution():
    # the steps K-1 and K-2 of floor_flag_problem differ in the floor
    # flag alone: step K-1 is Shrunk onto H(K) byte for byte, and step
    # K-2's own stage 2 has no solution
    prob = floor_flag_problem()
    K = prob.horizon
    _, _, b, prov, _ = resolved_step(prob, prob.tube[K], K - 1)
    assert prov == synth.SHRUNK and same_bytes(b, prob.tube[K].b)
    with pytest.raises(synth.SynthesisError, match="stage 2"):
        resolved_step(prob, prob.tube[K], K - 2)
    with pytest.raises(synth.SynthesisError) as err:
        synth.synthesize(prob)
    assert (err.value.k, err.value.stage) == (K - 2, "stage 2")
    # without the floor every step is Shrunk onto H(K)
    prob.disturbance_floor = False
    assert synth.synthesize(prob).provenance == [synth.SHRUNK] * K


class CountingSolver(lp.LpSolver):
    """Dense simplex backend that counts LP1 (with equality rows) and LP2
    (inequality rows only) solves."""

    def __init__(self):
        self.lp1 = self.lp2 = 0

    def solve(self, problem):
        if problem.A_eq.shape[0]:
            self.lp1 += 1
        else:
            self.lp2 += 1
        return lp.DenseSimplexSolver().solve(problem)


def test_synthesis_cost_follows_the_distinct_steps(monkeypatch):
    # the tanks tube is constant after its settling time: longer horizons
    # add only steps whose LP inputs repeat, and every call solves anew
    enumerated = []

    def spy(P, *args, **kwargs):
        enumerated.append(P)
        return vertices(P, *args, **kwargs)

    monkeypatch.setattr(polytope, "vertices", spy)
    for K in (15, 60):
        prob = tanks_problem(horizon=K)[0]
        for _ in range(2):
            enumerated.clear()
            counter = CountingSolver()
            assert synth.synthesize(prob, solver=counter).certified
            assert (counter.lp1, counter.lp2) == (11, 7)
            assert len(enumerated) == 11
    counter = CountingSolver()
    synth.synthesize(shrunk_fixed_point_problem(), solver=counter)
    assert (counter.lp1, counter.lp2) == (1, 1)


@pytest.mark.parametrize("K", [15, 60])
def test_a_repeated_step_is_the_next_step_shared(monkeypatch, K):
    # the post-solve work runs once per distinct step: a repeated step is
    # step k+1's set, gain, defect and certificate blocks
    rechecks = []

    def spy(*args, **kwargs):
        rechecks.append(args)
        return verify_certificates(*args, **kwargs)

    monkeypatch.setattr(synth, "verify_certificates", spy)
    prob = tanks_problem(horizon=K)[0]
    res = synth.synthesize(prob)
    assert len(rechecks) == 11
    t = prob.tube
    repeated = [k for k in range(K - 1)
                if t[k] == t[k + 1] and res.sets[k + 1] == res.sets[k + 2]]
    assert repeated == list(range(10, K - 1))
    for k in repeated:
        assert res.sets[k] is res.sets[k + 1]
        assert res.gains[k] is res.gains[k + 1]
        assert res.residuals[k] is res.residuals[k + 1]
        blocks = res.step_reports[k].certificates
        next_blocks = res.step_reports[k + 1].certificates
        assert len(blocks) == len(next_blocks) == prob.model.s
        for G, G_next in zip(blocks, next_blocks):
            assert same_bytes(G, G_next) and G is G_next, k


def test_a_certified_result_cannot_be_edited_in_place():
    # every array a step hands out is read-only, so the gains and the
    # blocks that certify them stay the pair the recheck accepted
    prob = tanks_problem(horizon=15)[0]
    res = synth.synthesize(prob)
    support = check_containment(prob.model, res.gains[0], res.sets[0], res.sets[1])
    assert support.contained
    for a in (res.gains[3], res.residuals[3], res.step_reports[12].certificates[0],
              support.certificates[0]):
        before = a.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] += 1.0
        assert a.tobytes() == before
    assert res.certified
    for k in range(prob.horizon):
        source, maps = step_maps(prob.model, res.gains[k], res.sets[k])
        again = verify_certificates(res.step_reports[k].certificates, source,
                                    res.sets[k + 1], maps)
        assert again.contained, k


# -- empty traversed sets ------------------------------------------------------

def test_empty_traversed_set_is_a_synthesis_error():
    # without nonnegative offsets the second stage can shrink X(0) to
    # {x <= c, -x <= d} with c + d < 0; the step is named, not certified
    model = scalar_model(0.5, 0.0)
    t = TargetTube([box([-1], [1]), box([-1], [1]), box([0.5], [0.6])])
    prob = synth.SynthesisProblem(model=model, tube=t, nonneg_bounds=False)
    with pytest.raises(synth.SynthesisError) as err:
        synth.synthesize(prob)
    assert err.value.k == 0
    assert err.value.stage == "stage 2"
    assert "empty" in str(err.value)


def test_negative_offsets_of_a_nonempty_set_are_accepted():
    # X(k) away from the origin has a negative offset but is not empty
    t = TargetTube([box([-1], [1]), box([-1], [1]), box([2.0], [3.0])])
    prob = synth.SynthesisProblem(model=scalar_model(2.0, 0.0), tube=t,
                                  nonneg_bounds=False)
    res = synth.synthesize(prob)
    assert np.any(res.sets[0].b < 0)
    assert res.certified


# -- whole recursions against the reference simplex ----------------------------

# (n, s, q, K, rho, d, r): states, vertex models, section rows, horizon,
# spectral radius, final offset scale and outputs
STABLE_FAMILY = [(2, 2, 6, 8, 1.1, 0.3, 2), (3, 2, 8, 8, 1.1, 0.3, 3),
                 (3, 3, 10, 8, 1.0, 0.3, 2), (4, 2, 10, 8, 1.05, 0.4, 3)]


def stable_family_problem(n, s, q, K, rho, d, r, seed):
    """Nominal problem of the stable family: s perturbed copies of one
    (A0, B0) with A0 scaled to spectral radius rho, m = min(2, n) inputs,
    C = I or a random r x n map, and a tube {A_H x <= b0 (1 - (1-d) k/K)}
    whose rows are +-e_i plus q - 2n random unit normals."""
    rng = np.random.default_rng(seed)
    m = min(2, n)
    A0 = rng.normal(size=(n, n))
    A0 *= rho / np.max(np.abs(np.linalg.eigvals(A0)))
    B0 = rng.normal(size=(n, m))
    vertices = [(A0 + rng.normal(0.0, 0.05, size=(n, n)),
                 B0 + rng.normal(0.0, 0.05, size=(n, m))) for _ in range(s)]
    C = np.eye(n) if r == n else rng.normal(size=(r, n))
    rows = rng.normal(size=(q - 2 * n, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    A_H = np.vstack([np.eye(n), -np.eye(n), rows])
    b0 = np.concatenate([np.ones(2 * n), rng.uniform(0.6, 1.0, size=q - 2 * n)])
    tube = TargetTube([PolyhedralSet(A_H, b0 * (1.0 - (1.0 - d) * k / K))
                       for k in range(K + 1)])
    return synth.SynthesisProblem(model=PolytopicModel(vertices=vertices, C=C),
                                  tube=tube)


def recursion_outcome(problem, solver=None):
    """The bytes of a synthesis (gains, X(k) offsets, provenance, step
    verdicts and certificate blocks), or the error it stops with."""
    try:
        res = synth.synthesize(problem, solver=solver)
    except synth.SynthesisError as exc:
        return ("SynthesisError", exc.k, exc.stage, str(exc))
    except lp.LpError as exc:
        return (type(exc).__name__, str(exc))
    steps = [(rpt.contained, repr(rpt.worst_violation),
              [G.tobytes() for G in rpt.certificates or ()])
             for rpt in res.step_reports]
    return ([F.tobytes() for F in res.gains], [X.b.tobytes() for X in res.sets],
            res.provenance, steps)


@pytest.mark.parametrize("config", STABLE_FAMILY)
def test_stable_family_recursions_match_the_reference_simplex(config):
    # every synthesis of the family, failures included, comes out the same
    # with the list-basis np.outer simplex
    reference = DenseSimplexReference()
    for seed in range(15):
        problem = stable_family_problem(*config, seed)
        assert recursion_outcome(problem) \
            == recursion_outcome(problem, reference), seed


@pytest.mark.parametrize("make", [lambda: tanks_problem(horizon=15)[0],
                                  disturbed_problem, controlled_problem],
                         ids=["tanks", "disturbed", "controlled"])
def test_recursions_match_the_reference_simplex(make):
    got = recursion_outcome(make())
    assert got == recursion_outcome(make(), DenseSimplexReference())
    assert isinstance(got[0], list)     # a synthesis, not an error
