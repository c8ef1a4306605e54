import numpy as np
import pytest

from oracles import simulate_reference, tanks_rk4_reference
from tubesynth import polytope, sim
from tubesynth.polytope import PolyhedralSet, box, vertices
from tubesynth.reach import PolytopicModel


def scalar_model(a, b):
    return PolytopicModel(vertices=[(np.array([[a]]), np.array([[b]]))],
                          C=np.array([[1.0]]))


def test_zero_dynamics():
    model = scalar_model(0.0, 0.0)
    traj = sim.simulate_closed_loop(model, [np.zeros((1, 1))] * 4, [3.0],
                                    sim.FixedVertex(0))
    assert traj.states[0, 0] == 3.0
    assert np.all(traj.states[1:] == 0.0)


def test_scalar_deadbeat():
    model = scalar_model(0.5, 1.0)
    traj = sim.simulate_closed_loop(model, [np.array([[-0.5]])] * 3, [1.0],
                                    sim.FixedVertex(0))
    assert traj.states.ravel().tolist() == [1.0, 0.0, 0.0, 0.0]
    assert traj.controls[0, 0] == -0.5
    # controls follow the exact feedback law u = F C x
    assert np.array_equal(traj.controls[:, 0], -0.5 * traj.states[:-1, 0])


def test_fixed_vertex_matches_matrix_powers():
    rng = np.random.default_rng(6)
    model = PolytopicModel(
        vertices=[(rng.normal(size=(3, 3)) * 0.4, rng.normal(size=(3, 2)))
                  for _ in range(2)],
        C=rng.normal(size=(2, 3)))
    gains = [rng.normal(size=(2, 2)) * 0.2 for _ in range(8)]
    x0 = rng.normal(size=3)
    for i in range(2):
        traj = sim.simulate_closed_loop(model, gains, x0, sim.FixedVertex(i))
        A, B = model.vertices[i]
        x = x0.copy()
        for k in range(8):
            x = (A + B @ gains[k] @ model.C) @ x
            assert np.max(np.abs(traj.states[k + 1] - x)) <= 1e-12


def test_random_convex_steps_match_recorded_weights():
    rng = np.random.default_rng(9)
    model = PolytopicModel(
        vertices=[(rng.normal(size=(2, 2)) * 0.5, rng.normal(size=(2, 1)))
                  for _ in range(3)],
        C=rng.normal(size=(1, 2)))
    gains = [rng.normal(size=(1, 1)) for _ in range(6)]
    traj = sim.simulate_closed_loop(model, gains, [0.3, -0.7],
                                    sim.RandomConvex(seed=11))
    for k, w in enumerate(traj.realized):
        assert w.min() >= 0.0 and w.sum() == pytest.approx(1.0, abs=1e-12)
        A = sum(wi * Ai for wi, (Ai, _) in zip(w, model.vertices))
        B = sum(wi * Bi for wi, (_, Bi) in zip(w, model.vertices))
        F = np.asarray(gains[k], dtype=float).reshape(1, 1)
        y = model.C @ traj.states[k]
        x_next = A @ traj.states[k] + B @ (F @ y)
        assert np.array_equal(traj.states[k + 1], x_next)   # bitwise


def test_seeded_runs_are_reproducible():
    model = PolytopicModel(
        vertices=[(0.5 * np.eye(2), np.zeros((2, 1))),
                  (0.8 * np.eye(2), np.zeros((2, 1)))],
        C=np.zeros((1, 2)))
    gains = [np.zeros((1, 1))] * 5
    a = sim.simulate_closed_loop(model, gains, [1, 1], sim.RandomVertex(seed=3))
    b = sim.simulate_closed_loop(model, gains, [1, 1], sim.RandomVertex(seed=3))
    assert np.array_equal(a.states, b.states)
    assert a.realized == b.realized


def test_verify_membership_reports_first_violation():
    model = scalar_model(2.0, 0.0)
    traj = sim.simulate_closed_loop(model, [np.zeros((1, 1))] * 4, [0.2],
                                    sim.FixedVertex(0))
    sets = [box([-1], [1])] * 5
    rep = sim.verify_membership(traj, sets, tol=1e-7)
    assert not rep.ok
    k, row, amount = rep.first_violation
    assert k == 3 and amount == pytest.approx(0.6, abs=1e-12)  # 0.2*2^3 - 1
    assert rep.worst == pytest.approx(2.2, abs=1e-12)
    ok = sim.verify_membership(traj, [box([-4], [4])] * 5, tol=1e-7)
    assert ok.ok and ok.first_violation is None


def test_verify_membership_flags_non_finite_state():
    # 0 * inf makes every residual at k = 1 NaN; the step must still fail
    with np.errstate(invalid="ignore"):
        rep = sim.verify_membership([[0.0, 0.0], [5.0, np.inf]],
                                    [box([-1, -1], [1, 1])] * 2)
    assert rep.ok is False
    assert rep.first_violation[0] == 1 and rep.first_violation[2] == np.inf
    assert rep.worst == np.inf


def test_membership_length_mismatch():
    model = scalar_model(1.0, 0.0)
    traj = sim.simulate_closed_loop(model, [np.zeros((1, 1))] * 2, [0.0],
                                    sim.FixedVertex(0))
    with pytest.raises(ValueError):
        sim.verify_membership(traj, [box([-1], [1])] * 2)


def test_samplers_stay_inside():
    P = box([-0.3, -0.1], [0.2, 0.4])
    model = PolytopicModel(vertices=[(np.eye(2), np.zeros((2, 1)))],
                           C=np.zeros((1, 2)), D=np.eye(2))
    runs = sim.simulate_runs(model, [np.zeros((1, 1))] * 50, np.zeros((2, 2)),
                             [sim.RandomVertex(seed=12), sim.RandomVertex(seed=13)],
                             disturbance=[P] * 50)
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
    traj = sim.tanks_nonlinear_simulate(5, 5, [2.0, 1.6],
                                        [np.zeros((2, 1))] * 6, [2.0, 1.6])
    assert np.max(np.abs(traj.states)) <= 1e-12
    assert not traj.overflow


def test_zero_gains_do_not_settle():
    # without feedback the pumps hold the equilibrium flows; the level
    # difference relaxes but the absolute error persists
    x0 = [1.8, 1.5]
    traj = sim.tanks_nonlinear_simulate(5, 5, x0, [np.zeros((2, 1))] * 12,
                                        [2.0, 1.6])
    assert np.max(np.abs(traj.states[10])) > 0.01
    assert np.max(np.abs(traj.states[12])) > 0.01


def test_rk4_step_halving_stability():
    gains = [np.array([[-0.3], [-0.9]])] * 10
    a = sim.tanks_nonlinear_simulate(4, 5, [1.8, 1.52], gains, [2.0, 1.6],
                                     step=0.01)
    b = sim.tanks_nonlinear_simulate(4, 5, [1.8, 1.52], gains, [2.0, 1.6],
                                     step=0.005)
    assert np.max(np.abs(a.states - b.states)) < 1e-6


def test_level_inversion_aborts():
    with pytest.raises(sim.SimulationError):
        sim.tanks_nonlinear_simulate(5, 5, [1.5, 1.7], [np.zeros((2, 1))] * 3,
                                     [2.0, 1.6])


def test_overflow_sets_flag():
    # start near the rim with a gain pushing more water in
    gains = [np.array([[5.0], [0.0]])] * 3
    traj = sim.tanks_nonlinear_simulate(5, 5, [2.95, 2.10], gains, [2.0, 1.6])
    assert traj.overflow


def test_policy_validation():
    model = scalar_model(1.0, 0.0)
    with pytest.raises(ValueError):
        sim.simulate_closed_loop(model, [np.zeros((1, 1))], [0.0],
                                 sim.FixedVertex(3))
    with pytest.raises(TypeError):
        sim.simulate_closed_loop(model, [np.zeros((1, 1))], [0.0], "random")
    with pytest.raises(ValueError):
        sim.simulate_closed_loop(model, [np.zeros((1, 1))], [0.0, 1.0],
                                 sim.FixedVertex(0))


def test_disturbance_sets_need_map():
    model = scalar_model(0.5, 1.0)
    with pytest.raises(ValueError, match="no D"):
        sim.simulate_closed_loop(model, [np.zeros((1, 1))], [0.0],
                                 sim.FixedVertex(0), disturbance=[box([-1], [1])])


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
                              [sim.RandomVertex(seed=1)] * 2, disturbance=bad)


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
                             [sim.RandomVertex(seed=i) for i in range(3)],
                             disturbance=[V] * 5)
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
    seeds = rng.integers(2 ** 31, size=40).tolist()
    runs = sim.simulate_runs(model, gains, x0s,
                             [sim.RandomVertex(seed=s) for s in seeds])
    states, controls, realized = simulate_reference(model, gains, x0s, seeds)
    assert np.array_equal(runs.states, states)
    assert np.array_equal(runs.controls, controls)
    assert np.array_equal(runs.realized, realized)
    one = sim.simulate_closed_loop(model, gains, x0s[7], sim.RandomVertex(seed=seeds[7]))
    assert np.array_equal(one.states, states[7])
    assert one.realized == realized[7].tolist()


def test_batched_disturbed_runs_match_reference():
    rng = np.random.default_rng(22)
    model = PolytopicModel(
        vertices=[(rng.normal(size=(2, 2)) * 0.4, rng.normal(size=(2, 1)))
                  for _ in range(2)],
        C=np.eye(2), D=rng.normal(size=(2, 2)))
    gains = [rng.normal(size=(1, 2)) * 0.3 for _ in range(6)]
    x0s = rng.normal(size=(25, 2))
    seeds = list(range(100, 125))
    # a different V(k) at every step, one of them a triangle
    V = [box([-0.1 * (k + 1), -0.2], [0.1, 0.05 * (k + 1)]) for k in range(6)]
    V[2] = PolyhedralSet(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                         np.array([0.1, 0.1, 0.05]))
    runs = sim.simulate_runs(model, gains, x0s,
                             [sim.RandomVertex(seed=s) for s in seeds],
                             disturbance=V)
    states, controls, realized = simulate_reference(model, gains, x0s, seeds,
                                                    disturbance=V)
    assert np.array_equal(runs.states, states)
    assert np.array_equal(runs.controls, controls)
    assert np.array_equal(runs.realized, realized)


def test_verify_runs_flags_and_reports():
    states = np.array([[[0.2], [0.4], [0.8]],
                       [[0.2], [1.5], [0.1]],
                       [[3.0], [0.0], [2.0]]])
    sets = [box([-1], [1]), box([-1], [1]), box([-0.5], [0.5])]
    inside, reports = sim.verify_runs(states, sets, tol=1e-7)
    assert inside.tolist() == [[True, True, False], [True, False, True],
                               [False, True, False]]
    assert [rep.first_violation[:2] for rep in reports] == [(2, 0), (1, 0), (0, 0)]
    assert [rep.first_violation[2] for rep in reports] == \
        pytest.approx([0.3, 0.5, 2.0], abs=1e-15)
    assert [rep.worst for rep in reports] == pytest.approx([0.3, 0.5, 2.0], abs=1e-15)
    assert not any(rep.ok for rep in reports)
    _, reports = sim.verify_runs(states, [box([-4], [4])] * 3, tol=1e-7)
    assert all(rep.ok and rep.first_violation is None for rep in reports)


def test_tanks_nonlinear_matches_array_rk4():
    gains = [np.array([[-0.3], [-0.9]]), np.array([[0.2], [-0.4]])] * 5
    for R1, x0 in ((3.0, [1.75, 1.52]), (5.0, [2.2, 1.7])):
        traj = sim.tanks_nonlinear_simulate(R1, 5.0, x0, gains, [2.0, 1.6])
        ref = tanks_rk4_reference(R1, 5.0, x0, gains, [2.0, 1.6])
        assert np.array_equal(traj.states, ref)
