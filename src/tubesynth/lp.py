"""Dense linear programming with primal and dual reporting.

The solver is a two-phase tableau simplex using Bland's anti-cycling
rule, so it terminates on every input and breaks ties the same way on
every run: identical problems give bit-identical solutions.  That
determinism matters downstream, where optimal bases are not unique and
the synthesized feedback must be reproducible.

Problems are small and dense (tens to a few hundred rows), so no
attempt is made at sparse or revised-simplex machinery.  At these
sizes a pivot spends more time in NumPy call overhead than in
arithmetic, so the pivot loop keeps its calls few: the entering column
is the first set entry of a mask (``argmax``), the ratio test is one
masked ``np.divide``, the leaving row is read from an int-array basis,
the tableau update is one broadcast rank-1 product, and each phase
prices its objective row with one ordered ``np.subtract.reduce`` over
the stacked rows.  Each forms the same floating-point operations, in
the same order, as an element-wise loop would, so the pivot sequence
and every output bit are fixed by the problem alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

MINIMIZE = "min"
MAXIMIZE = "max"

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Tolerances: feasibility on constraint residuals, reduced-cost threshold
# for optimality, and the smallest pivot magnitude accepted.
FEASIBILITY_TOL = 1e-8
REDUCED_COST_TOL = 1e-9
PIVOT_TOL = 1e-10


class LpError(Exception):
    """Base class for solver failures."""


class LpNumericalError(LpError):
    """The tableau degraded numerically (tiny pivot, runaway iteration
    count, or an optimal basis whose residuals fail the exit checks)."""


def _matrix(A, ncols, name):
    if A is None:
        return np.zeros((0, ncols))
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("%s must be a 2-d array" % name)
    if A.shape[1] != ncols:
        raise ValueError("%s has %d columns, expected %d" % (name, A.shape[1], ncols))
    return A


def _vector(b, nrows, name):
    if b is None:
        return np.zeros(0)
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.size != nrows:
        raise ValueError("%s has length %d, expected %d" % (name, b.size, nrows))
    return b


@dataclass
class LpProblem:
    """min/max c'x  s.t.  A_eq x = b_eq,  A_in x <= b_in.

    Each variable is either nonnegative (default) or free, selected by
    the boolean mask ``free``.  Matrices may be None for empty blocks.
    """

    c: np.ndarray
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    A_in: Optional[np.ndarray] = None
    b_in: Optional[np.ndarray] = None
    free: Optional[np.ndarray] = None
    sense: str = MINIMIZE

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        n = self.c.size
        if n == 0:
            raise ValueError("problem has no variables")
        self.A_eq = _matrix(self.A_eq, n, "A_eq")
        self.b_eq = _vector(self.b_eq, self.A_eq.shape[0], "b_eq")
        self.A_in = _matrix(self.A_in, n, "A_in")
        self.b_in = _vector(self.b_in, self.A_in.shape[0], "b_in")
        if self.free is None:
            self.free = np.zeros(n, dtype=bool)
        else:
            self.free = np.asarray(self.free, dtype=bool).reshape(-1)
            if self.free.size != n:
                raise ValueError("free mask length mismatch")
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError("sense must be %r or %r" % (MINIMIZE, MAXIMIZE))
        for name, arr in (("c", self.c), ("A_eq", self.A_eq), ("b_eq", self.b_eq),
                          ("A_in", self.A_in), ("b_in", self.b_in)):
            if not np.all(np.isfinite(arr)):
                raise ValueError("%s contains non-finite entries" % name)

    @property
    def nvars(self):
        return self.c.size


@dataclass
class LpSolution:
    """Status-classified solve result.

    For an optimal solution the duals satisfy, in the problem's own
    sense:

    * objective == b_eq . duals_eq + b_in . duals_in  (strong duality)
    * minimize: duals_in <= 0 and A' duals <= c (equality on free vars)
    * maximize: duals_in >= 0 and A' duals >= c (equality on free vars)
    """

    status: str
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    duals_eq: Optional[np.ndarray] = None
    duals_in: Optional[np.ndarray] = None
    iterations: int = 0


class LpSolver(ABC):
    """Interface point for substituting an alternative LP backend."""

    @abstractmethod
    def solve(self, problem: LpProblem) -> LpSolution:
        """Solve and classify the problem; never return silently-bad data."""


class DenseSimplexSolver(LpSolver):
    """Reference two-phase dense simplex with Bland's rule."""

    feasibility_tol = FEASIBILITY_TOL
    reduced_cost_tol = REDUCED_COST_TOL
    pivot_tol = PIVOT_TOL

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, T, basis, row, col):
        piv = T[row, col]
        if abs(piv) < self.pivot_tol:
            raise LpNumericalError("pivot %g below tolerance" % piv)
        T[row] /= piv
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= colvals[:, None] * T[row]
        # re-orthogonalise the pivot column exactly
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    def _iterate(self, T, basis, allowed, max_iter):
        """Run simplex pivots until optimal or unbounded.

        ``allowed`` is a boolean mask of columns permitted to enter the
        basis and ``basis`` an int array of the basic column per row.
        Entering column: lowest index with reduced cost below
        -reduced_cost_tol; leaving row: minimum ratio, ties broken by
        lowest basis index (Bland).
        """
        m = T.shape[0] - 1
        neg_tol = -self.reduced_cost_tol
        no_ratio = np.full(m, np.inf)
        it = 0
        while True:
            entering = allowed & (T[-1, :-1] < neg_tol)
            col = int(entering.argmax())
            if not entering[col]:
                return OPTIMAL, it
            colvals = T[:m, col]
            eligible = colvals > self.pivot_tol
            if not eligible.any():
                return UNBOUNDED, it
            ratios = np.divide(np.maximum(T[:m, -1], 0.0), colvals,
                               out=no_ratio.copy(), where=eligible)
            rmin = ratios.min()
            rows = (ratios <= rmin + 1e-12 * (1.0 + abs(rmin))).nonzero()[0]
            row = int(rows[basis[rows].argmin()])
            self._pivot(T, basis, row, col)
            it += 1
            if it > max_iter:
                raise LpNumericalError("iteration limit %d exceeded" % max_iter)

    # -- main entry --------------------------------------------------------

    def solve(self, problem: LpProblem) -> LpSolution:
        n = problem.nvars
        free = problem.free

        # Column expansion: every variable gets a nonnegative column; free
        # variables get a negated copy right next to it (the in-place
        # substitution x = x_plus - x_minus), which also fixes Bland's
        # column ordering.
        nfree = int(free.sum())
        plus_col = np.arange(n) + np.concatenate([[0], np.cumsum(free[:-1])])
        minus_col = np.where(free, plus_col + 1, -1)
        nx = n + nfree

        sense_sign = 1.0 if problem.sense == MINIMIZE else -1.0
        c_int = np.zeros(nx)
        c_int[plus_col] = sense_sign * problem.c
        c_int[minus_col[free]] = -sense_sign * problem.c[free]

        me = problem.A_eq.shape[0]
        mi = problem.A_in.shape[0]
        m = me + mi
        b = np.concatenate([problem.b_eq, problem.b_in])
        # flip rows so every right-hand side is nonnegative
        sigma = np.where(b < 0.0, -1.0, 1.0)
        b = b * sigma

        # initial basis: slack where it forms an identity column, otherwise
        # a phase-1 artificial
        slack_col = nx + np.arange(mi)
        art_start = nx + mi
        art_rows = np.flatnonzero((np.arange(m) < me) | (sigma < 0.0))
        art_col = art_start + np.arange(art_rows.size)
        ncols = art_start + art_rows.size
        basis = np.empty(m, dtype=np.intp)
        basis[me:] = slack_col
        basis[art_rows] = art_col
        initial_basis = basis.copy()

        T = np.zeros((m + 1, ncols + 1))
        for rows, A in ((slice(0, me), problem.A_eq), (slice(me, m), problem.A_in)):
            T[rows, plus_col] = A
            T[rows, minus_col[free]] = -A[:, free]
        T[me + np.arange(mi), slack_col] = 1.0
        T[:m, :art_start] *= sigma[:, None]
        T[:m, -1] = b
        T[art_rows, art_col] = 1.0

        max_iter = 500 * (m + ncols + 10)

        # phase 1: minimise the sum of artificials
        if art_rows.size:
            T[-1, art_col] = 1.0
            # the artificial rows subtracted one after another, in row order
            T[-1] = np.subtract.reduce(T[np.concatenate([[m], art_rows])], axis=0)
            allowed = np.ones(ncols, dtype=bool)
            status, it1 = self._iterate(T, basis, allowed, max_iter)
            if status != OPTIMAL:
                raise LpNumericalError("phase 1 cannot be unbounded")
            if -T[-1, -1] > self.feasibility_tol:
                return LpSolution(status=INFEASIBLE, iterations=it1)
            # pivot out any artificial stuck in the basis at zero level;
            # rows with no structural entry are redundant and stay inert
            for i in np.flatnonzero(basis >= art_start):
                nz = np.flatnonzero(np.abs(T[i, :art_start]) > 1e-9)
                if nz.size:
                    self._pivot(T, basis, i, int(nz[0]))
        else:
            it1 = 0

        # phase 2: original objective priced out on the current basis;
        # artificial columns may never re-enter
        T[-1, :] = 0.0
        T[-1, :nx] = c_int
        cb = np.zeros(m)
        structural = basis < nx
        cb[structural] = c_int[basis[structural]]
        priced = np.flatnonzero(cb)
        T[-1] = np.subtract.reduce(
            np.concatenate([T[-1:], cb[priced, None] * T[priced]]), axis=0)
        allowed = np.ones(ncols, dtype=bool)
        allowed[art_start:] = False
        status, it2 = self._iterate(T, basis, allowed, max_iter)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, iterations=it1 + it2)

        # primal extraction
        x_full = np.zeros(ncols)
        x_full[basis] = T[:m, -1]
        x = x_full[plus_col].copy()
        x[free] -= x_full[minus_col[free]]
        objective = float(problem.c @ x)

        # dual extraction: the initial identity column of row i carries
        # -y_i in the final reduced-cost row
        y = -T[-1, initial_basis]
        y_user = sigma * y
        if problem.sense == MAXIMIZE:
            y_user = -y_user
        duals_eq = y_user[:me].copy()
        duals_in = y_user[me:].copy()

        self._verify(problem, x, objective, duals_eq, duals_in)
        return LpSolution(status=OPTIMAL, x=x, objective=objective,
                          duals_eq=duals_eq, duals_in=duals_in,
                          iterations=it1 + it2)

    def _verify(self, problem, x, objective, duals_eq, duals_in):
        """Exit checks; a basis that produces bad residuals is reported
        as a numerical failure rather than returned."""
        scale = 1.0 + float(np.max(np.abs(x), initial=0.0))
        if problem.A_eq.shape[0]:
            r_eq = np.max(np.abs(problem.A_eq @ x - problem.b_eq))
            if r_eq > self.feasibility_tol * scale:
                raise LpNumericalError("equality residual %g" % r_eq)
        if problem.A_in.shape[0]:
            r_in = np.max(problem.A_in @ x - problem.b_in)
            if r_in > self.feasibility_tol * scale:
                raise LpNumericalError("inequality residual %g" % r_in)
        if np.any(x[~problem.free] < -self.feasibility_tol * scale):
            raise LpNumericalError("sign violation on nonnegative variable")
        dual_obj = float(problem.b_eq @ duals_eq + problem.b_in @ duals_in)
        gap = abs(dual_obj - objective)
        if gap > 1e-7 * (1.0 + abs(objective) + float(np.sum(np.abs(problem.b_in)))):
            raise LpNumericalError("duality gap %g" % gap)


_DEFAULT_SOLVER = DenseSimplexSolver()


def solve(problem: LpProblem, solver: Optional[LpSolver] = None) -> LpSolution:
    """Solve with the given backend (bundled simplex by default)."""
    return (solver or _DEFAULT_SOLVER).solve(problem)
