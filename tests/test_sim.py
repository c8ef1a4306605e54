import numpy as np
import pytest

from oracles import simulate_reference, tanks_rk4_reference, verify_runs_reference
from tubesynth import polytope, sim
from tubesynth.cli import tanks_problem
from tubesynth.polytope import PolyhedralSet, box, vertices
from tubesynth.reach import PolytopicModel
from tubesynth.synth import synthesize


def scalar_model(a, b):
    return PolytopicModel(vertices=[(np.array([[a]]), np.array([[b]]))],
                          C=np.array([[1.0]]))


def vertex_model(model, i):
    """The one-vertex model that always realizes vertex i of ``model``."""
    return PolytopicModel([model.vertices[i]], model.C)


def test_zero_dynamics():
    model = scalar_model(0.0, 0.0)
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 4, [[3.0]],
                             np.random.default_rng(0))
    assert runs.states[0, 0, 0] == 3.0
    assert np.all(runs.states[0, 1:] == 0.0)


def test_scalar_deadbeat():
    model = scalar_model(0.5, 1.0)
    runs = sim.simulate_runs(model, [np.array([[-0.5]])] * 3, [[1.0]],
                             np.random.default_rng(0))
    assert runs.states.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]
    assert runs.controls[0, 0, 0] == -0.5
    # controls follow the exact feedback law u = F C x
    assert np.array_equal(runs.controls[0, :, 0], -0.5 * runs.states[0, :-1, 0])


def test_fixed_vertex_matches_matrix_powers():
    rng = np.random.default_rng(6)
    model = PolytopicModel(
        vertices=[(rng.normal(size=(3, 3)) * 0.4, rng.normal(size=(3, 2)))
                  for _ in range(2)],
        C=rng.normal(size=(2, 3)))
    gains = [rng.normal(size=(2, 2)) * 0.2 for _ in range(8)]
    x0 = rng.normal(size=3)
    for i in range(2):
        runs = sim.simulate_runs(vertex_model(model, i), gains, x0[None],
                                 np.random.default_rng(i))
        assert runs.realized.tolist() == [[0] * 8]
        A, B = model.vertices[i]
        x = x0.copy()
        for k in range(8):
            x = (A + B @ gains[k] @ model.C) @ x
            assert np.max(np.abs(runs.states[0, k + 1] - x)) <= 1e-12


def test_seeded_runs_are_reproducible():
    model = PolytopicModel(
        vertices=[(0.5 * np.eye(2), np.zeros((2, 1))),
                  (0.8 * np.eye(2), np.zeros((2, 1)))],
        C=np.zeros((1, 2)))
    gains = [np.zeros((1, 1))] * 5
    a = sim.simulate_runs(model, gains, [[1, 1]], np.random.default_rng(3))
    b = sim.simulate_runs(model, gains, [[1, 1]], np.random.default_rng(3))
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.realized, b.realized)


def test_verify_membership_reports_first_violation():
    model = scalar_model(2.0, 0.0)
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 4, [[0.2]],
                             np.random.default_rng(0))
    sets = [box([-1], [1])] * 5
    _, rep = sim.verify_runs(runs.states, sets, tol=1e-7)
    assert rep.ok.tolist() == [False]
    assert rep.first_k.tolist() == [3] and rep.first_row.tolist() == [0]
    assert rep.first_amount[0] == pytest.approx(0.6, abs=1e-12)  # 0.2*2^3 - 1
    assert rep.worst[0] == pytest.approx(2.2, abs=1e-12)
    _, ok = sim.verify_runs(runs.states, [box([-4], [4])] * 5, tol=1e-7)
    assert ok.ok.tolist() == [True] and ok.first_k.tolist() == [-1]


def test_verify_membership_flags_non_finite_state():
    # 0 * inf makes every residual at k = 1 NaN; the step must still fail
    with np.errstate(invalid="ignore"):
        _, rep = sim.verify_runs([[[0.0, 0.0], [5.0, np.inf]]],
                                 [box([-1, -1], [1, 1])] * 2)
    assert rep.ok.tolist() == [False]
    assert rep.first_k.tolist() == [1] and rep.first_amount.tolist() == [np.inf]
    assert rep.worst.tolist() == [np.inf]


def test_membership_length_mismatch():
    model = scalar_model(1.0, 0.0)
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 2, [[0.0]],
                             np.random.default_rng(0))
    with pytest.raises(ValueError, match="have 3 states but 2 sets"):
        sim.verify_runs(runs.states, [box([-1], [1])] * 2)


def test_samplers_stay_inside():
    P = box([-0.3, -0.1], [0.2, 0.4])
    model = PolytopicModel(vertices=[(np.eye(2), np.zeros((2, 1)))],
                           C=np.zeros((1, 2)), D=np.eye(2))
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 50, np.zeros((2, 2)),
                             np.random.default_rng(12), disturbance=[P] * 50)
    for v in runs.disturbances.reshape(-1, 2):
        assert np.all(P.A @ v <= P.b + 1e-12)
    pts = sim.sample_states(P, 50, np.random.default_rng(1))
    for x in pts:
        assert np.all(P.A @ x <= P.b)


# -- tanks -------------------------------------------------------------------

def test_linearization_values():
    cases = {5: -0.707107, 3: -1.178511, 4: -0.883883}
    for R1, a11 in cases.items():
        A, B = sim.tanks_linearize(R1, 5, 2.0, 1.6)
        assert A[0, 0] == pytest.approx(a11, abs=1e-6)
        assert A[0, 1] == pytest.approx(-a11, abs=1e-6)
        assert A[1, 0] == pytest.approx(0.707107, abs=1e-6)
        assert A[1, 1] == pytest.approx(-0.707107, abs=1e-6)
        assert np.array_equal(B, np.eye(2))
    with pytest.raises(ValueError):
        sim.tanks_linearize(5, 5, 1.6, 2.0)


def test_zoh_identity_and_scalar():
    Ad, Bd = sim.discretize_zoh(np.zeros((2, 2)), np.eye(2), 1.0)
    assert np.allclose(Ad, np.eye(2), atol=1e-14)
    assert np.allclose(Bd, np.eye(2), atol=1e-14)
    Ad, Bd = sim.discretize_zoh(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
    assert Ad[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert Bd[0, 0] == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    with pytest.raises(ValueError):
        sim.discretize_zoh(np.zeros((1, 1)), np.ones((1, 1)), 0.0)


def test_zoh_preserves_tank_eigenstructure():
    # the continuous matrix is singular, so one discrete eigenvalue is
    # exactly one and the other is the exponential of the nonzero mode
    A, B = sim.tanks_linearize(5, 5, 2.0, 1.6)
    Ad, _ = sim.discretize_zoh(A, B, 1.0)
    eigs = np.sort(np.linalg.eigvals(Ad).real)
    assert eigs[1] == pytest.approx(1.0, abs=1e-12)
    assert eigs[0] == pytest.approx(np.exp(-np.sqrt(2.0)), abs=1e-12)


def test_zoh_semigroup_property():
    A, B = sim.tanks_linearize(3, 5, 2.0, 1.6)
    Ad, Bd = sim.discretize_zoh(A, B, 1.0)
    Ah, Bh = sim.discretize_zoh(A, B, 0.5)
    assert np.max(np.abs(Ah @ Ah - Ad)) <= 1e-9
    assert np.max(np.abs(Ah @ Bh + Bh - Bd)) <= 1e-9


def test_equilibrium_start_stays_at_zero_error():
    errors = sim.tanks_nonlinear_simulate(5, 5, [2.0, 1.6],
                                          [np.zeros((2, 1))] * 6, [2.0, 1.6])
    assert errors.shape == (7, 2)
    assert np.max(np.abs(errors)) <= 1e-12


def test_zero_gains_do_not_settle():
    # without feedback the pumps hold the equilibrium flows; the level
    # difference relaxes but the absolute error persists
    x0 = [1.8, 1.5]
    errors = sim.tanks_nonlinear_simulate(5, 5, x0, [np.zeros((2, 1))] * 12,
                                          [2.0, 1.6])
    assert np.max(np.abs(errors[10])) > 0.01
    assert np.max(np.abs(errors[12])) > 0.01


def test_rk4_step_halving_stability():
    gains = [np.array([[-0.3], [-0.9]])] * 10
    a = sim.tanks_nonlinear_simulate(4, 5, [1.8, 1.52], gains, [2.0, 1.6],
                                     step=0.01)
    b = sim.tanks_nonlinear_simulate(4, 5, [1.8, 1.52], gains, [2.0, 1.6],
                                     step=0.005)
    assert np.max(np.abs(a - b)) < 1e-6


def test_level_inversion_aborts():
    with pytest.raises(sim.SimulationError):
        sim.tanks_nonlinear_simulate(5, 5, [1.5, 1.7], [np.zeros((2, 1))] * 3,
                                     [2.0, 1.6])


def test_policy_validation():
    model = scalar_model(1.0, 0.0)
    with pytest.raises(ValueError, match="model has dimension 1"):
        sim.simulate_runs(model, [np.zeros((1, 1))], [[0.0, 1.0]],
                          np.random.default_rng(0))


def test_disturbance_sets_need_map():
    model = scalar_model(0.5, 1.0)
    with pytest.raises(ValueError, match="no D"):
        sim.simulate_runs(model, [np.zeros((1, 1))], [[0.0]],
                          np.random.default_rng(0), disturbance=[box([-1], [1])])


def test_disturbance_sets_match_steps_and_dimension():
    model = PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[1.0]]))],
                           C=np.array([[1.0]]), D=np.array([[1.0]]))
    gains = [np.zeros((1, 1))] * 3
    for bad, message in (([box([-1], [1])] * 2, "one disturbance set per step"),
                         ([box([-1], [1])] * 4, "one disturbance set per step"),
                         ([box([-1, -1], [1, 1])] * 3, "dimension 2, expected 1"),
                         ([(np.array([[1.0]]), np.array([1.0]))] * 3,
                          "not a PolyhedralSet")):
        with pytest.raises(ValueError, match=message):
            sim.simulate_runs(model, gains, np.zeros((2, 1)),
                              np.random.default_rng(1), disturbance=bad)


def test_repeated_disturbance_set_is_enumerated_once(monkeypatch):
    model = PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[1.0]]))],
                           C=np.array([[1.0]]), D=np.array([[1.0]]))
    V = box([-0.1], [0.2])
    enumerated = []

    def spy(P, *args, **kwargs):
        enumerated.append(P)
        return vertices(P, *args, **kwargs)

    for module in (polytope, sim):
        monkeypatch.setattr(module, "vertices", spy)
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 5, np.zeros((3, 1)),
                             np.random.default_rng(0), disturbance=[V] * 5)
    assert len(enumerated) == 1 and enumerated[0] is V
    assert np.all((runs.disturbances >= -0.1) & (runs.disturbances <= 0.2))


def test_sampling_degenerate_sets():
    singleton = box([0.0, 0.0], [0.0, 0.0])
    pts = sim.sample_states(singleton, 5, np.random.default_rng(0))
    assert np.max(np.abs(pts)) <= 1e-12
    flat = box([-1.0, 0.5], [1.0, 0.5])
    pts = sim.sample_states(flat, 10, np.random.default_rng(1))
    assert np.max(np.abs(pts[:, 1] - 0.5)) <= 1e-10
    # a segment off the axes: uniform draws from its bounding box never land on it
    diagonal = PolyhedralSet(np.array([[1.0, 1.0], [-1.0, -1.0],
                                       [1.0, -1.0], [-1.0, 1.0]]),
                             np.array([0.0, 0.0, 1.0, 1.0]))
    pts = sim.sample_states(diagonal, 20, np.random.default_rng(2))
    assert pts.shape == (20, 2)
    assert np.max(np.abs(pts[:, 0] + pts[:, 1])) <= 1e-12
    assert np.max(np.abs(pts[:, 0] - pts[:, 1])) <= 1.0 + 1e-12


# -- batched runs against the one-at-a-time references ------------------------

def _three_vertex_model(rng):
    # vertex matrices as strided views, the way discretize_zoh returns them
    blocks = [rng.normal(size=(5, 5)) * 0.4 for _ in range(3)]
    return PolytopicModel(vertices=[(M[:3, :3], M[:3, 3:]) for M in blocks],
                          C=rng.normal(size=(2, 3)))


def test_batched_runs_match_reference():
    rng = np.random.default_rng(21)
    model = _three_vertex_model(rng)
    gains = [rng.normal(size=(2, 2)) * 0.3 for _ in range(9)]
    x0s = rng.normal(size=(40, 3))
    runs = sim.simulate_runs(model, gains, x0s, np.random.default_rng(31))
    states, controls, realized = simulate_reference(model, gains, x0s, 31)
    assert np.array_equal(runs.states, states)
    assert np.array_equal(runs.controls, controls)
    assert np.array_equal(runs.realized, realized)
    one = sim.simulate_runs(model, gains, x0s[7:8], np.random.default_rng(32))
    states, _, realized = simulate_reference(model, gains, x0s[7:8], 32)
    assert np.array_equal(one.states, states)
    assert np.array_equal(one.realized, realized)


def test_batched_disturbed_runs_match_reference():
    rng = np.random.default_rng(22)
    model = PolytopicModel(
        vertices=[(rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 1)))
                  for _ in range(2)],
        C=np.eye(2), D=rng.normal(size=(2, 2)))
    gains = [rng.normal(size=(1, 2)) * 0.3 for _ in range(6)]
    x0s = rng.normal(size=(25, 2))
    # a different V(k) at every step, one of them a triangle
    V = [box([-0.1 * (k + 1), -0.2], [0.1, 0.05 * (k + 1)]) for k in range(6)]
    V[2] = PolyhedralSet(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                         np.array([0.1, 0.1, 0.05]))
    runs = sim.simulate_runs(model, gains, x0s, np.random.default_rng(100),
                             disturbance=V)
    states, controls, realized = simulate_reference(model, gains, x0s, 100,
                                                    disturbance=V)
    assert np.array_equal(runs.states, states)
    assert np.array_equal(runs.controls, controls)
    assert np.array_equal(runs.realized, realized)


# -- the one-run delegates against the batch functions at R = 1 ---------------

def assert_delegates_match_batch(model, gains, x0, sets, seed, disturbance=None):
    """``simulate_closed_loop`` and ``verify_membership`` from ``x0`` give
    the bytes of ``simulate_runs`` and ``verify_runs`` on the one run."""
    one = sim.simulate_closed_loop(model, gains, x0, np.random.default_rng(seed),
                                   disturbance)
    batch = sim.simulate_runs(model, gains, [x0], np.random.default_rng(seed),
                              disturbance)
    for name in ("states", "controls", "realized", "disturbances"):
        got, want = getattr(one, name), getattr(batch, name)
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    report = sim.verify_membership(one.states[0], sets, tol=1e-7)
    _, want = sim.verify_runs(batch.states, sets, tol=1e-7)
    for name in ("worst", "first_k", "first_row", "first_amount"):
        got = getattr(report, name)
        assert got.shape == (1,) and got.tobytes() == getattr(want, name).tobytes()
    return report


def test_one_run_delegates_match_batch_on_a_tanks_start():
    problem, _ = tanks_problem(horizon=15)
    result = synthesize(problem)
    rng = np.random.default_rng(5)
    x0 = sim.sample_states(result.sets[0], 1, rng)[0]
    report = assert_delegates_match_batch(problem.model, result.gains, x0,
                                          result.sets, 6)
    assert report.ok.tolist() == [True]


def test_one_run_delegates_match_batch_on_a_disturbed_start():
    model = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2)),
                                     (0.6 * np.eye(2), -np.eye(2))],
                           C=np.eye(2), D=np.array([[1.0], [-0.5]]))
    gains = [np.array([[-0.1, 0.0], [0.0, 0.05]])] * 3
    sets = [box([-w] * 2, [w] * 2) for w in (1.0, 0.5, 0.25, 0.12)]
    V = [PolyhedralSet(np.array([[1.0], [-1.0]]), np.array([0.005, 0.003]))] * 3
    report = assert_delegates_match_batch(model, gains, [0.95, -0.9], sets, 7,
                                          disturbance=V)
    # the start leaves the tube, so the report's violation fields are set
    assert report.ok.tolist() == [False] and report.first_k[0] > 0


def test_verify_runs_flags_and_reports():
    states = np.array([[[0.2], [0.4], [0.8]],
                       [[0.2], [1.5], [0.1]],
                       [[3.0], [0.0], [2.0]]])
    sets = [box([-1], [1]), box([-1], [1]), box([-0.5], [0.5])]
    inside, report = sim.verify_runs(states, sets, tol=1e-7)
    assert inside.tolist() == [[True, True, False], [True, False, True],
                               [False, True, False]]
    assert report.first_k.tolist() == [2, 1, 0]
    assert report.first_row.tolist() == [0, 0, 0]
    assert report.first_amount.tolist() == pytest.approx([0.3, 0.5, 2.0], abs=1e-15)
    assert report.worst.tolist() == pytest.approx([0.3, 0.5, 2.0], abs=1e-15)
    assert not report.ok.any()
    _, report = sim.verify_runs(states, [box([-4], [4])] * 3, tol=1e-7)
    assert report.ok.all()
    assert report.first_k.tolist() == report.first_row.tolist() == [-1] * 3
    assert np.isnan(report.first_amount).all()


def _dense_set(rng, n, q):
    """q random dense rows about the origin, offsets in [0.2, 1]."""
    return PolyhedralSet(rng.normal(size=(q, n)), rng.uniform(0.2, 1.0, size=q))


def assert_verify_runs_matches_reference(states, sets, tol):
    inside, report = sim.verify_runs(states, sets, tol)
    flags, worst, first = verify_runs_reference(states, sets, tol)
    assert np.array_equal(inside, flags)
    assert report.worst.tobytes() == worst.tobytes()
    assert report.ok.tolist() == [f is None for f in first]
    for r, f in enumerate(first):
        if f is not None:
            got = (report.first_k[r], report.first_row[r], report.first_amount[r])
            assert np.array_equal(got, f) and np.signbit(got[2]) == np.signbit(f[2])
    return inside


def test_verify_runs_matches_reference_on_dense_sets():
    rng = np.random.default_rng(40)
    for n, q, R, K in ((1, 2, 1, 0), (2, 5, 1, 4), (3, 7, 60, 5), (4, 4, 33, 2)):
        sets = [_dense_set(rng, n, q) for _ in range(K + 1)]
        # some states fall outside their set, some do not
        states = rng.normal(scale=0.6, size=(R, K + 1, n))
        inside = assert_verify_runs_matches_reference(states, sets, 1e-7)
        assert R == 1 or 0 < inside.mean() < 1
        for tol in (0.0, 0.25, -0.1):
            assert_verify_runs_matches_reference(states, sets, tol)


def test_verify_runs_matches_reference_on_non_finite_and_boundary_states():
    rng = np.random.default_rng(41)
    sets = [_dense_set(rng, 2, 5) for _ in range(4)]
    states = rng.normal(scale=0.3, size=(9, 4, 2))
    states[0, 1] = [np.inf, 0.0]
    states[1, 2] = [np.nan, 0.1]
    states[2, 1:] = [-np.inf, np.inf]
    states[3, 3] = [1.7e308, -1.7e308]     # finite, but A x overflows to ±inf
    # run 5 on a boundary at step 2: residuals 0.0 and -0.0 tie for the max
    states[5, :] = [0.0, -0.0]
    sets[2] = PolyhedralSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
                            np.array([0.0, 0.0, 1.0]))
    inside = assert_verify_runs_matches_reference(states, sets, 1e-7)
    assert_verify_runs_matches_reference(states[5:6], sets, -1.0)
    assert not inside[:4].all(axis=1).any()
    _, report = sim.verify_runs(states, sets, 1e-7)
    assert report.first_amount[:3].tolist() == [np.inf] * 3
    assert report.worst[5] == 0.0 and not np.signbit(report.worst[5])


def test_tanks_nonlinear_matches_array_rk4():
    gains = [np.array([[-0.3], [-0.9]]), np.array([[0.2], [-0.4]])] * 5
    for R1, x0 in ((3.0, [1.75, 1.52]), (5.0, [2.2, 1.7])):
        errors = sim.tanks_nonlinear_simulate(R1, 5.0, x0, gains, [2.0, 1.6])
        ref = tanks_rk4_reference(R1, 5.0, x0, gains, [2.0, 1.6])
        assert np.array_equal(errors, ref)
