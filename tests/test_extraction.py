"""The dense simplex returns what it proves: a nonnegative variable never
comes back negative, so synthesis offsets and multipliers are >= 0."""

import pytest

from tubesynth import lp, synth

from test_synth import STABLE_FAMILY, stable_family_problem

# (configuration index in STABLE_FAMILY, seed): stable-family problems whose
# final tableaus hold slightly negative basic values; read as they stand,
# those give
NEGATIVE_OFFSET = [(0, 4), (3, 0), (3, 11)]  # X(k) offsets down to -4.5e-14
SIGN_VIOLATION = [(1, 10), (3, 3)]           # an LP2 that fails its sign check
EMPTIED_SET = [(1, 0)]                       # an empty X(2) at stage 2


class NonnegativeRecorder(lp.DenseSimplexSolver):
    """The dense solver, recording the smallest nonnegative variable of
    every optimal solution."""

    def __init__(self):
        super().__init__()
        self.smallest = []

    def solve(self, problem):
        sol = super().solve(problem)
        if sol.status == lp.OPTIMAL and not problem.free.all():
            self.smallest.append(sol.x[~problem.free].min())
        return sol


@pytest.mark.parametrize("config, seed", NEGATIVE_OFFSET + SIGN_VIOLATION + EMPTIED_SET)
def test_stable_family_round_off_certifies_with_nonnegative_offsets(config, seed):
    problem = stable_family_problem(*STABLE_FAMILY[config], seed)
    solver = NonnegativeRecorder()
    res = synth.synthesize(problem, solver=solver)
    assert res.certified
    assert min(X.b.min() for X in res.sets) >= 0.0
    assert all(G.min() >= 0.0 for rpt in res.step_reports for G in rpt.certificates)
    assert solver.smallest and min(solver.smallest) >= 0.0

