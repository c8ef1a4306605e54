import numpy as np
import pytest

from tubesynth import polytope as poly

from oracles import enum_vertices, point_in_convex_polygon, random_bounded_set, \
    vertices_loop_reference


def test_box_rows_unit():
    B = poly.box([-1, -1], [1, 1])
    assert B.A.tolist() == [[1, 0], [-1, 0], [0, 1], [0, -1]]
    assert B.b.tolist() == [1, 1, 1, 1]


def test_box_tanks_target():
    B = poly.box([-0.01, -0.01], [0.01, 0.01])
    assert np.allclose(B.b, 0.01)
    assert poly.contains_point(B, [0.009, -0.009], tol=0.0)
    assert not poly.contains_point(B, [0.02, 0.0], tol=1e-9)


def test_box_degenerate_singleton():
    Z = poly.box([0.0], [0.0])
    assert poly.contains_point(Z, [0.0], tol=0.0)
    V = poly.vertices(Z)
    assert len(V) == 1 and V[0][0] == pytest.approx(0.0, abs=1e-12)


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        poly.box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        poly.box([0.0], [0.0, 1.0])


def test_set_validation():
    with pytest.raises(ValueError):
        poly.PolyhedralSet(np.zeros((1, 2)), [1.0])      # zero row
    with pytest.raises(ValueError):
        poly.PolyhedralSet(np.eye(2), [1.0])             # length mismatch


def test_contains_point_cases():
    B = poly.box([-1, -1], [1, 1])
    assert poly.contains_point(B, [0, 0], tol=0.0)
    assert not poly.contains_point(B, [1 + 1e-6, 0], tol=1e-7)
    with pytest.raises(ValueError):
        poly.contains_point(B, [0, 0, 0])


def test_contains_convex_combination_of_vertices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A, b = random_bounded_set(rng, 2, extra_rows=2)
        P = poly.PolyhedralSet(A, b)
        V = np.array(enum_vertices(A, b))
        w = rng.dirichlet(np.ones(V.shape[0]))
        assert poly.contains_point(P, w @ V, tol=1e-9)


def test_support_values():
    B = poly.box([-1, -1], [1, 1])
    assert poly.support_max(B, [2, -1]) == pytest.approx(3.0, abs=1e-9)
    tri = poly.PolyhedralSet([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    assert poly.support_max(tri, [1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_support_error_codes():
    ray = poly.PolyhedralSet([[-1.0]], [0.0])
    with pytest.raises(poly.UnboundedSetError):
        poly.support_max(ray, [1.0])
    empty = poly.PolyhedralSet([[1.0], [-1.0]], [-1.0, -1.0])
    with pytest.raises(poly.EmptySetError):
        poly.support_max(empty, [1.0])


def test_is_bounded():
    assert poly.is_bounded(poly.box([-1, -1], [1, 1]))
    assert not poly.is_bounded(poly.PolyhedralSet([[1, 0]], [1]))
    assert poly.is_bounded(poly.PolyhedralSet([[-1, 0], [0, -1], [1, 1]], [0, 0, 1]))
    with pytest.raises(poly.EmptySetError):
        poly.is_bounded(poly.PolyhedralSet([[1.0], [-1.0]], [-1.0, -1.0]))


def test_vertices_box_and_triangle():
    got = {tuple(np.round(v, 9)) for v in poly.vertices(poly.box([-1, -1], [1, 1]))}
    assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    tri = poly.PolyhedralSet([[-1, 0], [0, -1], [1, 1]], [0, 0, 1])
    got = {tuple(np.round(v, 9)) for v in poly.vertices(tri)}
    assert got == {(0, 0), (1, 0), (0, 1)}


def test_vertices_error_modes():
    with pytest.raises(poly.UnboundedSetError):
        poly.vertices(poly.PolyhedralSet([[1, 0], [0, 1]], [1, 1]))
    with pytest.raises(poly.EmptySetError):
        poly.vertices(poly.PolyhedralSet([[1.0], [-1.0]], [-1.0, -1.0]))
    big = poly.box([-1] * 7, [1] * 7)
    with pytest.raises(ValueError):
        poly.vertices(big)
    # cap is configurable
    assert len(poly.vertices(big, max_dim=7)) == 128


def test_vertices_empty_set_after_rows_cached_as_bounded():
    rows = poly.box([-1, -1], [1, 1]).A
    assert len(poly.vertices(poly.PolyhedralSet(rows, [1, 1, 1, 1]))) == 4
    assert poly._CONE_CACHE[(rows.shape, rows.tobytes())] is True
    # x <= -1 and x >= 1: the cached rows are bounded, but no vertex is feasible
    with pytest.raises(poly.EmptySetError):
        poly.vertices(poly.PolyhedralSet(rows, [-1, -1, 1, 1]))


def test_vertices_unbounded_rows_still_rejected():
    strip = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
    for _ in range(2):   # the second call reads the cached verdict
        with pytest.raises(poly.UnboundedSetError):
            poly.vertices(poly.PolyhedralSet(strip, [1, 1, 1]))
    # empty as well as unbounded: emptiness is reported first, as before
    with pytest.raises(poly.EmptySetError):
        poly.vertices(poly.PolyhedralSet(strip, [-1, -1, 1]))


def test_vertices_match_convex_hull_membership():
    # random bounded 2-d set with 6 rows; 10^4 probes against the hull
    rng = np.random.default_rng(31)
    A, b = random_bounded_set(rng, 2, extra_rows=2)
    while A.shape[0] != 6:
        A, b = random_bounded_set(rng, 2, extra_rows=2)
    P = poly.PolyhedralSet(A, b)
    V = poly.vertices(P)
    lo = np.min(V, axis=0) - 0.1
    hi = np.max(V, axis=0) + 0.1
    pts = rng.uniform(lo, hi, size=(10000, 2))
    for pt in pts:
        in_P = poly.contains_point(P, pt, tol=1e-9)
        in_hull = point_in_convex_polygon(pt, V)
        assert in_P == in_hull


def test_box_membership_agrees_with_interval_test():
    rng = np.random.default_rng(17)
    lo = rng.uniform(-2, 0, size=3)
    hi = rng.uniform(0, 2, size=3)
    B = poly.box(lo, hi)
    pts = rng.uniform(lo - 0.5, hi + 0.5, size=(10000, 3))
    member = np.array([poly.contains_point(B, p, tol=0.0) for p in pts])
    interval = np.all((pts >= lo) & (pts <= hi), axis=1)
    assert np.array_equal(member, interval)


def test_vertex_support_consistency():
    # max over vertices of a.v equals the support value, 100 directions
    rng = np.random.default_rng(23)
    for _ in range(5):
        A, b = random_bounded_set(rng, 2, extra_rows=2)
        P = poly.PolyhedralSet(A, b)
        V = np.array(poly.vertices(P))
        for _ in range(20):
            a = rng.normal(size=2)
            assert np.max(V @ a) == pytest.approx(poly.support_max(P, a), abs=1e-7)


def test_vertices_inside_and_distinct():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        A, b = random_bounded_set(rng, n, extra_rows=2)
        P = poly.PolyhedralSet(A, b)
        V = poly.vertices(P)
        for v in V:
            assert np.max(P.A @ v - P.b) <= 1e-9
        for i in range(len(V)):
            for j in range(i + 1, len(V)):
                assert np.max(np.abs(V[i] - V[j])) >= 1e-9


def test_sets_are_immutable():
    B = poly.box([-1], [1])
    with pytest.raises(ValueError):
        B.A[0, 0] = 5.0


def test_vertices_subset_cap():
    P = poly.box([-1, -1], [1, 1])
    with pytest.raises(ValueError):
        poly.vertices(P, max_subsets=2)


def _assert_same_vertices(P, **caps):
    """vertices(P) equals the per-subset loop: the same outcome, and the
    same vertices bit for bit in the same order."""
    try:
        want = vertices_loop_reference(P, **caps)
    except (ValueError, poly.EmptySetError, poly.UnboundedSetError) as exc:
        with pytest.raises(type(exc)):
            poly.vertices(P, **caps)
        return None
    got = poly.vertices(P, **caps)
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert u.tobytes() == v.tobytes()
    return got


def test_vertices_match_loop_reference_bitwise():
    rng = np.random.default_rng(808)
    outcomes = set()
    for trial in range(100):
        n = int(rng.integers(1, 5))
        A, b = random_bounded_set(rng, n, extra_rows=5)
        if trial % 4 == 0:
            # integer rows and half-integer offsets: degenerate vertices
            # and singular row subsets
            G = np.round(rng.normal(size=(3, n)))
            G[~G.any(axis=1), 0] = 1.0
            A = np.vstack([A, G])
            b = np.round(np.concatenate([b, rng.uniform(0.2, 1.0, size=3)]) * 2) / 2
        if trial % 9 == 0:
            b = b - 1.0                      # often empty
        V = _assert_same_vertices(poly.PolyhedralSet(A, b))
        outcomes.add(V is None)
    assert outcomes == {True, False}


def test_vertices_of_box_skip_singular_subsets():
    # parallel rows make most of the C(6, 3) = 20 subsets singular
    V = _assert_same_vertices(poly.box([-1, -1, -1], [1, 2, 3]))
    assert len(V) == 8


def test_vertices_of_diagonal_segment():
    seg = poly.PolyhedralSet([[1, 1], [-1, -1], [1, -1], [-1, 1]], [0, 0, 1, 1])
    V = _assert_same_vertices(seg)
    assert {tuple(np.round(v, 12)) for v in V} == {(0.5, -0.5), (-0.5, 0.5)}


def test_vertices_when_every_subset_is_singular(monkeypatch):
    # parallel rows only: unbounded, as before
    strip = poly.PolyhedralSet([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]], [1, 1, 3])
    with pytest.raises(poly.UnboundedSetError):
        poly.vertices(strip)
    # past a (forced) boundedness verdict, a batch without one solvable
    # subset finds no vertex and reports the set empty, like the loop
    monkeypatch.setattr(poly, "_rows_bound_every_set", lambda A: True)
    for f in (poly.vertices, vertices_loop_reference):
        with pytest.raises(poly.EmptySetError):
            f(strip)


def test_vertices_across_subset_chunks(monkeypatch):
    rng = np.random.default_rng(4)
    A, b = random_bounded_set(rng, 3, extra_rows=0)
    A = np.vstack([A, rng.normal(size=(4, 3))])
    b = np.concatenate([b, rng.uniform(0.3, 1.0, size=4)])
    P = poly.PolyhedralSet(A, b)                     # C(10, 3) = 120 subsets
    monkeypatch.setattr(poly, "_SUBSET_CHUNK", 7)
    assert len(_assert_same_vertices(P)) >= 8
    monkeypatch.undo()
    # at the module's chunk size: C(20, 4) = 4845 subsets, two chunks
    A = np.vstack([np.eye(4), -np.eye(4), rng.normal(size=(12, 4))])
    P = poly.PolyhedralSet(A, np.ones(20))
    assert poly._SUBSET_CHUNK < 4845
    assert len(_assert_same_vertices(P)) >= 2


def test_vertices_subset_cap_checked_before_any_work(monkeypatch):
    # C(200, 6) ~ 8e10 subsets: the cap is raised before the enumeration
    # or the boundedness check starts
    def fail(*args):
        raise AssertionError("enumeration started past the subset cap")

    monkeypatch.setattr(poly, "combinations", fail)
    monkeypatch.setattr(poly, "_rows_bound_every_set", fail)
    rng = np.random.default_rng(6)
    P = poly.PolyhedralSet(rng.normal(size=(200, 6)), np.ones(200))
    with pytest.raises(ValueError, match="exceed the cap"):
        poly.vertices(P)
