import numpy as np
import pytest

from tubesynth import lp, synth
from tubesynth.cli import tanks_problem

from oracles import DenseSimplexReference, lp_vertex_optimum, random_bounded_set


def test_box_maximum():
    p = lp.LpProblem(c=[1, 1], A_in=[[1, 0], [0, 1]], b_in=[1, 1], sense=lp.MAXIMIZE)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(s.x, [1, 1], atol=1e-9)


def test_nonneg_minimum_at_zero():
    s = lp.solve(lp.LpProblem(c=[1], sense=lp.MINIMIZE))
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(0.0, abs=1e-12)


def test_unbounded_ray():
    p = lp.LpProblem(c=[1], A_in=[[-1]], b_in=[0], free=[True], sense=lp.MAXIMIZE)
    assert lp.solve(p).status == lp.UNBOUNDED


def test_equality_duals():
    # max x1 + 2 x2 s.t. x1 + x2 = 3, x1 <= 2, x >= 0
    p = lp.LpProblem(c=[1, 2], A_eq=[[1, 1]], b_eq=[3], A_in=[[1, 0]], b_in=[2],
                     sense=lp.MAXIMIZE)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert s.objective == pytest.approx(6.0, abs=1e-9)
    assert s.duals_eq[0] * 3 + s.duals_in[0] * 2 == pytest.approx(6.0, abs=1e-7)


def test_minimize_equality_duals():
    # min x1 + 3 x2 s.t. x1 + x2 = 2, x1 <= 1.5, x >= 0
    p = lp.LpProblem(c=[1, 3], A_eq=[[1, 1]], b_eq=[2], A_in=[[1, 0]],
                     b_in=[1.5], sense=lp.MINIMIZE)
    s = lp.solve(p)
    assert s.status == lp.OPTIMAL
    assert np.allclose(s.x, [1.5, 0.5], atol=1e-9)
    assert s.objective == pytest.approx(3.0, abs=1e-9)
    # strong duality and the minimize sign convention on inequality rows
    assert s.duals_eq[0] * 2 + s.duals_in[0] * 1.5 == pytest.approx(3.0, abs=1e-7)
    assert s.duals_in[0] <= 1e-9


def test_shape_validation():
    with pytest.raises(ValueError):
        lp.LpProblem(c=[1, 2], A_in=[[1]], b_in=[1])
    with pytest.raises(ValueError):
        lp.LpProblem(c=[1], A_in=[[1]], b_in=[1, 2])
    with pytest.raises(ValueError):
        lp.LpProblem(c=[1], A_in=[[np.inf]], b_in=[1])


@pytest.mark.parametrize("block", ["eq", "in"])
def test_constraint_block_without_right_hand_side_is_rejected(block):
    # rows without offsets used to build and then fail inside solve
    with pytest.raises(ValueError, match="b_%s is missing for the 1 rows" % block):
        lp.LpProblem(c=[1], **{"A_" + block: [[1]], "b_" + block: None})
    with pytest.raises(ValueError, match="b_%s is missing for the 2 rows" % block):
        lp.LpProblem(c=[1, 1], **{"A_" + block: np.ones((2, 2))})
    # an empty block needs no offsets
    assert lp.solve(lp.LpProblem(c=[1], **{"A_" + block: np.zeros((0, 1))})).status \
        == lp.OPTIMAL


def _random_lp(rng):
    n = int(rng.integers(2, 5))
    A, b = random_bounded_set(rng, n, extra_rows=3)
    c = rng.normal(size=n)
    sense = lp.MAXIMIZE if rng.integers(2) else lp.MINIMIZE
    return lp.LpProblem(c=c, A_in=A, b_in=b, free=np.ones(n, dtype=bool),
                        sense=sense)


def test_overflowing_tableau_is_a_numerical_error():
    # the pivot 2e-10 takes the right-hand side 1e300 past the float range,
    # so x comes out NaN; every residual comparison with NaN is false, and
    # only the non-finite objective classifies the solve
    p = lp.LpProblem(c=[1], A_in=[[2e-10]], b_in=[1e300], sense=lp.MAXIMIZE)
    for solver in (lp.DenseSimplexSolver(), DenseSimplexReference()):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(lp.LpNumericalError, match="objective nan"):
            solver.solve(p)


def test_nan_ratio_test_minimum_is_a_numerical_error():
    # the first ratio test overflows (1e300 / 2e-10 = inf), its pivot leaves
    # NaN right-hand sides, and the next ratio test's minimum is NaN, with
    # which no row ties
    p = lp.LpProblem(c=[1, 1e300], A_in=[[2e-10, 1], [3e-10, -1], [0, 3e-10]],
                     b_in=[1e300, 1e308, 0], sense=lp.MAXIMIZE)
    with pytest.raises(lp.LpNumericalError, match="ratio test minimum is nan"):
        lp.solve(p)


# (problem, optimal x, duals_in, message): every pair of duals closes the
# duality gap, so only the dual conditions can reject it
_BAD_DUALS = [
    # max x s.t. x <= 1, x <= 2: y = (2, -0.5) has a negative entry
    (lp.LpProblem(c=[1], A_in=[[1], [1]], b_in=[1, 2], sense=lp.MAXIMIZE),
     [1.0], [2.0, -0.5], "dual sign violation"),
    # the same LP with y = (0.5, 0.25): A'y = 0.75 < c
    (lp.LpProblem(c=[1], A_in=[[1], [1]], b_in=[1, 2], sense=lp.MAXIMIZE),
     [1.0], [0.5, 0.25], "reduced cost residual"),
    # min 0 x over a free x >= 0: y = -1 leaves c - A'y = -1 on a free column
    (lp.LpProblem(c=[0], A_in=[[-1]], b_in=[0], free=[True]),
     [0.0], [-1.0], "reduced cost residual"),
]


@pytest.mark.parametrize("problem, x, duals_in, message", _BAD_DUALS,
                         ids=["sign", "reduced-cost", "free-column"])
def test_verify_rejects_duals_that_break_dual_feasibility(problem, x, duals_in, message):
    solver = lp.DenseSimplexSolver()
    x = np.array(x)
    objective = float(problem.c @ x)
    with pytest.raises(lp.LpNumericalError, match=message):
        solver._verify(problem, x, objective, np.zeros(0), np.array(duals_in))
    # the solver's own duals pass the same checks
    sol = solver.solve(problem)
    assert sol.status == lp.OPTIMAL and sol.objective == objective


# (problem, x, duals_eq, duals_in, message): x passes every check before
# the one named, so only that check can reject it
_BAD_PRIMALS = [
    # min x s.t. x = 1: x = 2 misses the equality
    (lp.LpProblem(c=[1], A_eq=[[1]], b_eq=[1]), [2.0], [1.0], [],
     "equality residual"),
    # max x s.t. x <= 1: x = 2 breaks the row
    (lp.LpProblem(c=[1], A_in=[[1]], b_in=[1], sense=lp.MAXIMIZE), [2.0], [], [1.0],
     "inequality residual"),
    # min x s.t. x <= 1: x = -1 meets the row but not x >= 0
    (lp.LpProblem(c=[1], A_in=[[1]], b_in=[1]), [-1.0], [], [0.0],
     "sign violation on nonnegative variable"),
    # max x s.t. x <= 1: x = 1 is optimal, but y = 0.5 prices it at 0.5
    (lp.LpProblem(c=[1], A_in=[[1]], b_in=[1], sense=lp.MAXIMIZE), [1.0], [], [0.5],
     "duality gap"),
]


@pytest.mark.parametrize("problem, x, duals_eq, duals_in, message", _BAD_PRIMALS,
                         ids=["equality", "inequality", "sign", "gap"])
def test_verify_rejects_primal_exit_check_failures(problem, x, duals_eq, duals_in,
                                                   message):
    solver = lp.DenseSimplexSolver()
    x = np.array(x)
    with pytest.raises(lp.LpNumericalError, match=message):
        solver._verify(problem, x, float(problem.c @ x), np.array(duals_eq),
                       np.array(duals_in))
    assert solver.solve(problem).status == lp.OPTIMAL


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = _random_lp(rng)
        s = lp.solve(p)
        assert s.status == lp.OPTIMAL
        ref = lp_vertex_optimum(p.c, p.A_in, p.b_in,
                                "max" if p.sense == lp.MAXIMIZE else "min")
        assert s.objective == pytest.approx(ref, abs=1e-7)


def test_optimal_solution_invariants():
    # feasibility, complementary slackness, duality gap, weak duality
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = _random_lp(rng)
        s = lp.solve(p)
        assert s.status == lp.OPTIMAL
        slack = p.b_in - p.A_in @ s.x
        assert slack.min() >= -1e-8 * (1 + np.abs(s.x).max())
        cs = np.max(np.abs(s.duals_in * slack))
        assert cs <= 1e-7 * (1 + abs(s.objective) + np.abs(s.duals_in).max())
        dual_obj = float(p.b_in @ s.duals_in)
        assert abs(dual_obj - s.objective) <= 1e-7 * (1 + abs(s.objective))
        if p.sense == lp.MINIMIZE:
            assert dual_obj <= s.objective + 1e-7 * (1 + abs(s.objective))
        else:
            assert dual_obj >= s.objective - 1e-7 * (1 + abs(s.objective))
        # dual signs and stationarity on free variables
        sign = 1.0 if p.sense == lp.MAXIMIZE else -1.0
        assert np.min(sign * s.duals_in) >= -1e-9
        assert np.max(np.abs(p.A_in.T @ s.duals_in - p.c)) <= 1e-7


def _infeasible_problems():
    rng = np.random.default_rng(11)
    out = []
    for _ in range(7):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        out.append(lp.LpProblem(c=np.ones(n), A_in=np.vstack([a, -a]),
                                b_in=[-1.0, -1.0], free=np.ones(n, dtype=bool)))
    for _ in range(7):
        # equality unreachable inside the box
        n = int(rng.integers(2, 4))
        out.append(lp.LpProblem(c=np.ones(n), A_eq=np.ones((1, n)), b_eq=[10.0],
                                A_in=np.eye(n), b_in=np.ones(n)))
    for _ in range(6):
        # sign conflict with the nonnegativity default
        n = int(rng.integers(1, 4))
        A = np.zeros((1, n))
        A[0, 0] = 1.0
        out.append(lp.LpProblem(c=np.ones(n), A_in=A, b_in=[-1.0]))
    return out


def test_phase_one_flags_infeasible():
    problems = _infeasible_problems()
    assert len(problems) == 20
    for p in problems:
        assert lp.solve(p).status == lp.INFEASIBLE


def _unbounded_problems():
    rng = np.random.default_rng(3)
    out = []
    for _ in range(10):
        n = int(rng.integers(2, 4))
        d = np.abs(rng.normal(size=n)) + 0.1  # recession direction
        a = rng.normal(size=n)
        a -= (a @ d) / (d @ d) * d            # row orthogonal to it
        out.append(lp.LpProblem(c=d, A_in=a[None, :], b_in=[1.0],
                                free=np.ones(n, dtype=bool), sense=lp.MAXIMIZE))
    return out


def test_unbounded_classification():
    for p in _unbounded_problems():
        assert lp.solve(p).status == lp.UNBOUNDED


def test_bit_identical_repeats():
    rng = np.random.default_rng(99)
    for _ in range(20):
        p = _random_lp(rng)
        s1 = lp.solve(p)
        s2 = lp.solve(p)
        s3 = lp.DenseSimplexSolver().solve(p)
        for a, b in ((s1, s2), (s1, s3)):
            assert a.objective == b.objective
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.duals_in, b.duals_in)
            assert a.iterations == b.iterations


def test_solver_interface_substitution():
    class Recording(lp.LpSolver):
        def __init__(self):
            self.calls = 0
            self.inner = lp.DenseSimplexSolver()

        def solve(self, problem):
            self.calls += 1
            return self.inner.solve(problem)

    backend = Recording()
    p = lp.LpProblem(c=[1], sense=lp.MINIMIZE)
    s = lp.solve(p, solver=backend)
    assert backend.calls == 1 and s.status == lp.OPTIMAL


def test_random_equality_lps_match_doubled_oracle():
    # equalities encoded for the oracle as opposing inequality pairs
    rng = np.random.default_rng(606)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        w = rng.uniform(0.5, 2.0, size=n)
        A_box = np.vstack([np.eye(n), -np.eye(n)])
        b_box = np.concatenate([w, w])
        a = rng.normal(size=n)
        x_int = rng.uniform(-0.3, 0.3, size=n) * w
        b_eq = float(a @ x_int)
        c = rng.normal(size=n)
        sense = lp.MAXIMIZE if rng.integers(2) else lp.MINIMIZE
        p = lp.LpProblem(c=c, A_eq=a[None, :], b_eq=[b_eq], A_in=A_box,
                         b_in=b_box, free=np.ones(n, dtype=bool), sense=sense)
        s = lp.solve(p)
        assert s.status == lp.OPTIMAL
        A_all = np.vstack([A_box, a, -a])
        b_all = np.concatenate([b_box, [b_eq, -b_eq]])
        ref = lp_vertex_optimum(c, A_all, b_all,
                                "max" if sense == lp.MAXIMIZE else "min")
        assert s.objective == pytest.approx(ref, abs=1e-7)
        assert abs(s.duals_eq[0] * b_eq + s.duals_in @ b_box - s.objective) \
            <= 1e-7 * (1 + abs(s.objective))


class _Recording(lp.LpSolver):
    """Backend that keeps every problem it is handed."""

    def __init__(self):
        self.problems = []
        self.inner = lp.DenseSimplexSolver()

    def solve(self, problem):
        self.problems.append(problem)
        return self.inner.solve(problem)


def _assert_same_solution(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert a.objective == b.objective
    for field in ("x", "duals_eq", "duals_in"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u is None) == (v is None)
        if u is not None:
            assert u.tobytes() == v.tobytes()


def _degenerate_lps():
    # small integer rows under unit offsets: many tied ratio tests, where
    # the lowest-basis-index rule picks the leaving row
    rng = np.random.default_rng(5)
    out = []
    for _ in range(40):
        n = int(rng.integers(3, 6))
        A = rng.integers(0, 3, size=(2 * n, n)).astype(float)
        A[~A.any(axis=1), 0] = 1.0
        out.append(lp.LpProblem(c=rng.integers(1, 4, size=n), A_in=A,
                                b_in=np.ones(2 * n), sense=lp.MAXIMIZE))
    return out


class _BranchProbe(lp.DenseSimplexSolver):
    """The package solver, noting the rarely taken branches of each solve
    in ``taken``."""

    def solve(self, problem):
        self.taken = set()
        self._phases = 0
        self._in_loop = False
        sol = super().solve(problem)
        if sol.status == lp.UNBOUNDED and self._phases == 2:
            self.taken.add("unbounded after phase 1")
        if problem.sense == lp.MAXIMIZE and problem.free.all():
            self.taken.add("all free, maximize")
        return sol

    def _iterate(self, T, basis, limit, max_iter, buf):
        if not self._phases and (np.signbit(T) & (T == 0.0)).any():
            self.taken.add("negative zero in the tableau")
        self._phases += 1
        self._in_loop = True
        try:
            return super()._iterate(T, basis, limit, max_iter, buf)
        finally:
            self._in_loop = False

    def _pivot(self, T, basis, row, col, buf):
        if not self._in_loop:
            self.taken.add("artificial pivoted out")
        super()._pivot(T, basis, row, col, buf)


def _rare_branch_lps():
    """(branch, LP) pairs, each LP taking the named branch."""
    return [
        # row 3 = row 1 + row 2, all at zero level: phase 1 ends with an
        # artificial basic at zero in a row that still has structural entries
        ("artificial pivoted out",
         lp.LpProblem(c=[1, 2], A_eq=[[1, 1], [1, -1], [2, 0]], b_eq=[0, 0, 0])),
        ("artificial pivoted out",
         lp.LpProblem(c=[-1, 1, 0], A_eq=[[1, 1, 0], [1, -1, 0], [2, 0, 0]],
                      b_eq=[0, 0, 0])),
        # flipped rows: -1 times a zero entry is -0.0, and so is a -0.0 offset
        ("negative zero in the tableau",
         lp.LpProblem(c=[1, 1], A_in=[[-1, 0], [0, -1], [1, 1]],
                      b_in=[-1.0, -0.0, 4.0])),
        ("negative zero in the tableau",
         lp.LpProblem(c=[1, -1], A_in=[[-1, 0], [0, 1], [1, 1]],
                      b_in=[-0.5, -0.0, 4.0], free=[True, True])),
        ("all free, maximize",
         lp.LpProblem(c=[1, -2, 0.5], A_in=np.vstack([np.eye(3), -np.eye(3)]),
                      b_in=[1, 2, 3, 0.5, 0.25, 4], free=[True] * 3,
                      sense=lp.MAXIMIZE)),
        ("all free, maximize",
         lp.LpProblem(c=[0.0, 1.0], A_eq=[[1, 1]], b_eq=[-1.0],
                      A_in=[[0, 1], [1, -1]], b_in=[2.0, 0.0], free=[True, True],
                      sense=lp.MAXIMIZE)),
        # feasible after phase 1, then an improving ray in phase 2
        ("unbounded after phase 1",
         lp.LpProblem(c=[1, 0], A_eq=[[1, -1]], b_eq=[1.0], sense=lp.MAXIMIZE)),
        ("unbounded after phase 1",
         lp.LpProblem(c=[-1, 0], A_in=[[-1, 1]], b_in=[-1.0])),
    ]


def test_pivot_loop_matches_reference_bitwise():
    # the same pivots and the same bits as the list-basis np.outer loop,
    # on the random LPs above, degenerate LPs, LPs that take the rare
    # branches and every LP of a tanks synthesis
    reference = DenseSimplexReference()
    solver = _BranchProbe()
    for branch, p in _rare_branch_lps():
        got, want = solver.solve(p), reference.solve(p)
        _assert_same_solution(got, want)
        assert branch in solver.taken, branch
    problems = _degenerate_lps()
    for seed in (42, 7, 99):
        rng = np.random.default_rng(seed)
        problems += [_random_lp(rng) for _ in range(100)]
    problems += _infeasible_problems() + _unbounded_problems()
    recording = _Recording()
    synth.synthesize(tanks_problem(horizon=15)[0], solver=recording)
    assert len(recording.problems) == 18
    problems += recording.problems
    statuses = set()
    for p in problems:
        got, want = solver.solve(p), reference.solve(p)
        _assert_same_solution(got, want)
        statuses.add(got.status)
    assert statuses == {lp.OPTIMAL, lp.INFEASIBLE, lp.UNBOUNDED}
