import numpy as np
import pytest

from tubesynth import reach
from tubesynth.polytope import EmptySetError, PolyhedralSet, box

from oracles import random_containment_instance, vertex_mapping_contained

NO_INPUT = np.zeros((2, 1))
NO_OUTPUT = np.zeros((1, 2))
F0 = np.zeros((1, 1))


def _autonomous(*As, D=None):
    return reach.PolytopicModel(vertices=[(np.asarray(A, dtype=float), NO_INPUT)
                                          for A in As], C=NO_OUTPUT, D=D)


def unit_box():
    return box([-1, -1], [1, 1])


def test_identity_map_is_contained_with_identity_certificate():
    r = reach.check_containment(_autonomous(np.eye(2)), F0, unit_box(), unit_box())
    assert r.contained and r.worst_violation == pytest.approx(0.0, abs=1e-12)
    G = r.certificates[0]
    assert np.allclose(G, np.eye(4), atol=1e-9)


def test_scaling_into_larger_box():
    r = reach.check_containment(_autonomous(0.5 * np.eye(2)), F0, unit_box(),
                                box([-0.6, -0.6], [0.6, 0.6]))
    assert r.contained
    assert r.worst_violation == pytest.approx(-0.1, abs=1e-9)


def test_two_vertices_worst_violation():
    model = _autonomous(0.5 * np.eye(2), 0.9 * np.eye(2))
    r = reach.check_containment(model, F0, unit_box(), box([-0.6, -0.6], [0.6, 0.6]))
    assert not r.contained
    assert r.certificates is None
    assert r.worst_violation == pytest.approx(0.3, abs=1e-9)


def test_unbounded_source_reports_not_contained():
    half = PolyhedralSet([[1.0, 0.0]], [1.0])
    r = reach.check_containment(_autonomous(np.eye(2)), F0, half, unit_box())
    assert not r.contained and r.worst_violation == np.inf


def test_empty_source_raises():
    empty = PolyhedralSet([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(EmptySetError):
        reach.check_containment(_autonomous(np.eye(2)), F0, empty, unit_box())


def test_verify_certificates_accepts_support_duals():
    model = _autonomous(0.5 * np.eye(2), 0.8 * np.eye(2))
    target = box([-0.9, -0.9], [0.9, 0.9])
    r = reach.check_containment(model, F0, unit_box(), target)
    v = reach.verify_certificates(r.certificates, unit_box(), target,
                                  model.closed_loop(F0))
    assert v.contained
    assert v.worst_violation == pytest.approx(r.worst_violation, abs=1e-12)


def test_verify_certificates_rejects_each_failed_threshold():
    maps = [0.5 * np.eye(2)]
    target = box([-0.6, -0.6], [0.6, 0.6])
    G = 0.5 * np.eye(4)
    assert reach.verify_certificates([G], unit_box(), target, maps).contained
    negative = G.copy()
    negative[0, 1] = -1e-6
    wrong_map = [0.4 * np.eye(2)]
    loose = box([-0.4, -0.4], [0.4, 0.4])
    for blocks, tgt, ms in (([negative], target, maps), ([G], target, wrong_map),
                            ([G], loose, maps)):
        v = reach.verify_certificates(blocks, unit_box(), tgt, ms)
        assert not v.contained and v.certificates is None
    assert reach.verify_certificates([G], unit_box(), loose, maps).worst_violation \
        == pytest.approx(0.1)


def test_zero_disturbance_map_matches_nominal():
    rng = np.random.default_rng(2)
    pairs, C, F, (A1, b1), (A2, b2) = random_containment_instance(rng)
    n = pairs[0][0].shape[0]
    model0 = reach.PolytopicModel(vertices=pairs, C=C)
    modelD = reach.PolytopicModel(vertices=pairs, C=C, D=np.zeros((n, 2)))
    P1, P2 = PolyhedralSet(A1, b1), PolyhedralSet(A2, b2)
    nominal = reach.check_containment(model0, F, P1, P2)
    disturbed = reach.check_containment_disturbance(
        modelD, F, P1, box([-5, -2], [3, 4]), P2)
    assert nominal.contained == disturbed.contained
    assert nominal.worst_violation == pytest.approx(disturbed.worst_violation,
                                                    abs=1e-9)


def test_disturbed_check_containment_matches_the_delegate():
    rng = np.random.default_rng(5)
    for _ in range(20):
        pairs, C, F, src, tgt = random_containment_instance(rng)
        n = pairs[0][0].shape[0]
        p = int(rng.integers(1, 3))
        model = reach.PolytopicModel(vertices=pairs, C=C,
                                     D=rng.normal(size=(n, p)) * 0.1)
        V = box(-rng.uniform(0.0, 1.0, size=p), rng.uniform(0.0, 1.0, size=p))
        P1, P2 = PolyhedralSet(*src), PolyhedralSet(*tgt)
        one = reach.check_containment(model, F, P1, P2, disturbance=V)
        ref = reach.check_containment_disturbance(model, F, P1, V, P2)
        assert one.contained == ref.contained
        assert one.worst_violation == ref.worst_violation
        assert (one.certificates is None) == (ref.certificates is None)
        for G, G_ref in zip(one.certificates or [], ref.certificates or []):
            assert G.tobytes() == G_ref.tobytes()


def test_step_maps_nominal_and_disturbed():
    model = _autonomous(0.5 * np.eye(2), D=np.array([[1.0], [2.0]]))
    src, V = unit_box(), box([-0.1], [0.3])
    source, maps = reach.step_maps(model, F0, src)
    assert source is src
    assert [M.tolist() for M in maps] == [(0.5 * np.eye(2)).tolist()]
    source, maps = reach.step_maps(model, F0, src, disturbance=V)
    assert source.A.tolist() == [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                                 [0, 0, 1], [0, 0, -1]]
    assert source.b.tolist() == [1, 1, 1, 1, 0.3, 0.1]
    assert maps[0].tolist() == [[0.5, 0, 1], [0, 0.5, 2]]


def test_step_source_is_the_source_of_step_maps():
    model = _autonomous(0.5 * np.eye(2), D=np.array([[1.0], [2.0]]))
    src = unit_box()
    assert reach.step_source(model, src) is src
    for V in (box([-0.1], [0.3]), PolyhedralSet(np.array([[1.0], [-2.0], [3.0]]),
                                                 [0.1, 0.2, 0.5])):
        stacked = reach.step_source(model, src, V)
        assert stacked == reach.step_maps(model, F0, src, V)[0]
        assert stacked.A.shape == (src.nrows + V.nrows, 3)


def test_step_maps_rejects_inconsistent_data():
    D = np.array([[1.0], [2.0]])
    for step in (reach.step_source,
                 lambda model, src, V: reach.step_maps(model, F0, src, V)):
        with pytest.raises(ValueError, match="no disturbance map"):
            step(_autonomous(np.eye(2)), unit_box(), box([0], [0]))
        with pytest.raises(ValueError, match="disturbance set dimension 2"):
            step(_autonomous(np.eye(2), D=D), unit_box(), unit_box())
        for V in (None, box([0], [0])):
            with pytest.raises(ValueError, match="set dimensions"):
                step(_autonomous(np.eye(2), D=D), box([-1], [1]), V)


def test_disturbance_minkowski_margin():
    model = _autonomous(0.5 * np.eye(2), D=np.eye(2))
    r = reach.check_containment_disturbance(
        model, F0, unit_box(), box([-0.25] * 2, [0.25] * 2), unit_box())
    assert r.contained
    assert r.worst_violation == pytest.approx(-0.25, abs=1e-9)
    r = reach.check_containment_disturbance(
        model, F0, unit_box(), box([-0.6] * 2, [0.6] * 2), unit_box())
    assert not r.contained
    assert r.worst_violation == pytest.approx(0.1, abs=1e-9)


def test_disturbance_certificates_satisfy_block_conditions():
    model = _autonomous(0.5 * np.eye(2), D=np.eye(2))
    src, v_set, tgt = unit_box(), box([-0.25] * 2, [0.25] * 2), unit_box()
    r = reach.check_containment_disturbance(model, F0, src, v_set, tgt)
    stacked_A = np.zeros((8, 4))
    stacked_A[:4, :2] = src.A
    stacked_A[4:, 2:] = v_set.A
    stacked_b = np.concatenate([src.b, v_set.b])
    for G in r.certificates:
        assert G.min() >= -1e-10
        ext = np.hstack([0.5 * np.eye(2), np.eye(2)])
        assert np.max(np.abs(G @ stacked_A - tgt.A @ ext)) <= 1e-8
        assert np.max(G @ stacked_b - tgt.b) <= 1e-8


def test_contractivity_factors():
    W = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    assert reach.contractivity_factor(0.5 * np.eye(2), W) == pytest.approx(0.5, abs=1e-9)
    assert reach.contractivity_factor(np.zeros((2, 2)), W) == pytest.approx(0.0, abs=1e-12)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert reach.contractivity_factor(rot, W) == pytest.approx(1.0, abs=1e-9)


def test_contractivity_requires_unit_offsets():
    W = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), 2 * np.ones(4))
    with pytest.raises(ValueError):
        reach.contractivity_factor(np.eye(2), W)


def test_contractivity_reports_degenerate_sets():
    # a unit-offset set always contains the origin, so the only failure
    # mode is an unbounded image direction
    half = PolyhedralSet([[1.0, 0.0]], [1.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(reach.CertificateError):
        reach.contractivity_factor(swap, half)


def test_contractivity_bounded_by_one_when_box_maps_into_itself():
    rng = np.random.default_rng(8)
    W = PolyhedralSet(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
    for _ in range(25):
        A = rng.normal(size=(2, 2))
        A /= np.max(np.sum(np.abs(A), axis=1)) / rng.uniform(0.2, 1.0)
        if np.max(np.abs(corners @ A.T)) <= 1.0:  # box image inside the box
            assert reach.contractivity_factor(A, W) <= 1.0 + 1e-8


def test_robust_invariance_examples():
    model = _autonomous(0.5 * np.eye(2), D=np.eye(2))
    ok = reach.check_robust_invariant(model, F0, unit_box(), box([-0.25] * 2, [0.25] * 2))
    assert ok.contained
    bad = reach.check_robust_invariant(model, F0, unit_box(), box([-0.6] * 2, [0.6] * 2))
    assert not bad.contained
    # boundary case: identity dynamics with a zero disturbance set
    ident = _autonomous(np.eye(2), D=np.eye(2))
    edge = reach.check_robust_invariant(ident, F0, unit_box(), box([0, 0], [0, 0]))
    assert edge.contained


def test_verdict_matches_vertex_oracle():
    rng = np.random.default_rng(123)
    both = {True: 0, False: 0}
    for _ in range(60):
        pairs, C, F, src, tgt = random_containment_instance(rng)
        model = reach.PolytopicModel(vertices=pairs, C=C)
        r = reach.check_containment(model, F, PolyhedralSet(*src),
                                    PolyhedralSet(*tgt), tol=1e-7)
        ref = vertex_mapping_contained(pairs, C, F, src, tgt, tol=1e-7)
        assert r.contained == ref
        both[ref] += 1
    assert both[True] > 5 and both[False] > 5  # the sample exercises both verdicts


def test_certificate_soundness_on_contained_instances():
    rng = np.random.default_rng(321)
    seen = 0
    while seen < 20:
        pairs, C, F, src, tgt = random_containment_instance(rng)
        model = reach.PolytopicModel(vertices=pairs, C=C)
        P1, P2 = PolyhedralSet(*src), PolyhedralSet(*tgt)
        r = reach.check_containment(model, F, P1, P2, tol=1e-7)
        if not r.contained:
            continue
        seen += 1
        for G, A_cl in zip(r.certificates, model.closed_loop(F)):
            assert G.min() >= -1e-10
            assert np.max(np.abs(G @ P1.A - P2.A @ A_cl)) <= 1e-8
            assert np.max(G @ P1.b - P2.b) <= 1e-8


def test_hull_verdict_matches_sampled_convex_combinations():
    # containment over the vertex matrices decides containment for every
    # matrix in the hull; corner weights are part of the sample so a
    # not-contained verdict is reproduced too
    rng = np.random.default_rng(77)
    for _ in range(8):
        pairs, C, F, src, tgt = random_containment_instance(rng)
        s = len(pairs)
        model = reach.PolytopicModel(vertices=pairs, C=C)
        P1, P2 = PolyhedralSet(*src), PolyhedralSet(*tgt)
        hull_verdict = reach.check_containment(model, F, P1, P2).contained
        weights = [np.eye(s)[i] for i in range(s)]
        weights += [rng.dirichlet(np.ones(s)) for _ in range(50 - s)]
        combo_verdicts = []
        for w in weights:
            A = sum(wi * Ai for wi, (Ai, _) in zip(w, pairs))
            B = sum(wi * Bi for wi, (_, Bi) in zip(w, pairs))
            single = reach.PolytopicModel(vertices=[(A, B)], C=C)
            combo_verdicts.append(
                reach.check_containment(single, F, P1, P2).contained)
        assert all(combo_verdicts) == hull_verdict


def test_model_validation():
    with pytest.raises(ValueError):
        reach.PolytopicModel(vertices=[], C=NO_OUTPUT)
    with pytest.raises(ValueError):
        reach.PolytopicModel(vertices=[(np.eye(2), NO_INPUT),
                                       (np.eye(3), np.zeros((3, 1)))], C=NO_OUTPUT)
    with pytest.raises(ValueError):
        reach.PolytopicModel(vertices=[(np.eye(2), NO_INPUT)], C=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        reach.check_containment_disturbance(
            _autonomous(np.eye(2)), F0, unit_box(), box([0], [0]), unit_box())
