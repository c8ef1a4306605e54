"""Dense linear programming with primal and dual reporting.

The solver is a two-phase tableau simplex using Bland's anti-cycling
rule, so it terminates on every input and breaks ties the same way on
every run: identical problems give bit-identical solutions.  That
determinism matters downstream, where optimal bases are not unique and
the synthesized feedback must be reproducible.

Problems are small and dense (tens to a few hundred rows), so no
attempt is made at sparse or revised-simplex machinery.  At these
sizes a pivot spends more time in NumPy call overhead than in
arithmetic, so the pivot loop is written to the call count.  Each solve
allocates its update buffer once, each phase its ratio-test arrays
once, and every per-pivot ufunc writes into them with ``out=``.  The
entering column is the first set entry of a reduced-cost mask
(``argmax``) below a column limit; phase 2 stops before the
artificials.  The ratio test is one masked ``np.divide``; its minimum
is read through ``argmin``.  An infinite minimum with no eligible row
means unbounded, and a NaN minimum (an overflowed tableau) is a
numerical error.  A lone tied row leaves directly, and several go
to the lowest basis index.  The tableau update is one broadcast
``np.multiply`` of the pivot column and row into a buffer, then one
``np.subtract``.  Both phases price their cost row the same way: one
ordered ``np.subtract.reduce`` of the cost row and, in row order, each
row times the cost of its basic column, where that cost is nonzero.
Overflow and invalid-value warnings are silenced inside a solve, since
the exit checks classify what they would report.

Every step forms the same floating-point operations, in the same order,
as an element-wise loop would, so the pivot sequence and every output
bit are fixed by the problem alone.  That rules out ``einsum`` and BLAS
products for the update, and skipping the rows whose pivot-column entry
is zero: each of those can leave a zero with another sign than the
dense update gives it.
"""

from __future__ import annotations

import math
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
        if nrows:
            raise ValueError("%s is missing for the %d rows of its matrix" % (name, nrows))
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
            if not np.isfinite(arr).all():
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


def _price(T, basis):
    """Price the cost row T[-1] out on the basis: subtract, in row order,
    each row whose basic column has a nonzero cost, times that cost."""
    cb = T[-1, basis]
    priced = cb.nonzero()[0]
    T[-1] = np.subtract.reduce(
        np.concatenate([T[-1:], cb[priced, None] * T[priced]]), axis=0)


class DenseSimplexSolver(LpSolver):
    """Reference two-phase dense simplex with Bland's rule."""

    # -- tableau mechanics -------------------------------------------------

    def _pivot(self, T, basis, row, col, product):
        """Pivot on T[row, col]: divide the row by the pivot, subtract
        the row times the pivot column's entry from every row (the pivot
        row itself by a zero multiple) and reset the pivot column to a
        unit vector.  ``product`` is a scratch array shaped like T."""
        piv = T[row, col]
        if abs(piv) < PIVOT_TOL:
            raise LpNumericalError("pivot %g below tolerance" % piv)
        prow = T[row]
        np.divide(prow, piv, out=prow)
        # the pivot column is its own multiplier column, with a zero at the
        # pivot row; what the update writes to that column is overwritten
        T[row, col] = 0.0
        np.multiply(T[:, col:col + 1], prow, out=product)
        np.subtract(T, product, out=T)
        # re-orthogonalise the pivot column exactly
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    def _iterate(self, T, basis, limit, max_iter, product):
        """Run simplex pivots until optimal or unbounded.

        Only the columns below ``limit`` may enter the basis; ``basis``
        is an int array of the basic column per row.  Entering column:
        lowest index with reduced cost below -REDUCED_COST_TOL; leaving
        row: minimum ratio, ties broken by lowest basis index (Bland).
        The problem is unbounded when no row has a pivot entry above
        PIVOT_TOL, so that every ratio stays infinite.  ``product`` is
        passed on to ``_pivot``.
        """
        m = T.shape[0] - 1
        reduced = T[-1, :limit]
        rhs = T[:m, -1]
        entering = np.empty(limit, dtype=bool)
        eligible = np.empty(m, dtype=bool)
        tie = np.empty(m, dtype=bool)
        clamped = np.empty(m)
        ratios = np.empty(m)
        less, greater, maximum, divide, less_equal = (
            np.less, np.greater, np.maximum, np.divide, np.less_equal)
        inf = np.inf
        it = 0
        while True:
            less(reduced, -REDUCED_COST_TOL, out=entering)
            col = int(entering.argmax())
            if not entering[col]:
                return OPTIMAL, it
            colvals = T[:m, col]
            greater(colvals, PIVOT_TOL, out=eligible)
            maximum(rhs, 0.0, out=clamped)
            ratios.fill(inf)
            divide(clamped, colvals, out=ratios, where=eligible)
            # the first smallest ratio, or the first NaN: the minimum
            rmin = float(ratios[ratios.argmin()]) if m else inf
            # an infinite minimum is unbounded unless a ratio overflowed
            if rmin == inf and not eligible.any():
                return UNBOUNDED, it
            if math.isnan(rmin):
                raise LpNumericalError("ratio test minimum is nan")
            less_equal(ratios, rmin + 1e-12 * (1.0 + abs(rmin)), out=tie)
            rows = tie.nonzero()[0]
            row = int(rows[0] if rows.size == 1 else rows[basis[rows].argmin()])
            self._pivot(T, basis, row, col, product)
            it += 1
            if it > max_iter:
                raise LpNumericalError("iteration limit %d exceeded" % max_iter)

    # -- main entry --------------------------------------------------------

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, problem: LpProblem) -> LpSolution:
        c, free = problem.c, problem.free
        A_eq, b_eq, A_in, b_in = problem.A_eq, problem.b_eq, problem.A_in, problem.b_in
        n = c.size
        me = A_eq.shape[0]
        mi = A_in.shape[0]
        m = me + mi

        # Column expansion: every variable gets a nonnegative column; free
        # variables get a negated copy right next to it (the in-place
        # substitution x = x_plus - x_minus), which also fixes Bland's
        # column ordering.
        free_at = free.nonzero()[0]
        nx = n + free_at.size
        plus_col = np.add.accumulate(free, dtype=np.intp)   # free up to j
        plus_col -= free
        plus_col += np.arange(n)
        plus_free = plus_col[free_at]
        minus_free = plus_free + 1

        # rows with a negative right-hand side are flipped; they, and every
        # equality row, start on a phase-1 artificial, the other rows on
        # their slack
        b = np.concatenate([b_eq, b_in])
        starts_artificial = b < 0.0
        flipped = starts_artificial.nonzero()[0]
        starts_artificial[:me] = True
        art_rows = starts_artificial.nonzero()[0]
        art_start = nx + mi
        ncols = art_start + art_rows.size
        art_col = np.arange(art_start, ncols)
        basis = np.arange(nx - me, art_start)    # slack nx + i - me of row i
        basis[art_rows] = art_col
        initial_basis = basis.copy()

        T = np.zeros((m + 1, ncols + 1))
        T[:me, plus_col] = A_eq
        T[me:m, plus_col] = A_in
        T[:m, minus_free] = -T[:m, plus_free]
        # the slack identity: entries (me + i, nx + i) of the flat tableau
        width = ncols + 1
        T.reshape(-1)[me * width + nx:m * width:width + 1] = 1.0
        T[flipped, :art_start] *= -1.0
        b[flipped] *= -1.0
        T[:m, -1] = b
        T[art_rows, art_col] = 1.0

        max_iter = 500 * (m + ncols + 10)
        product = np.empty_like(T)

        # phase 1: minimise the sum of artificials
        if art_rows.size:
            T[-1, art_start:ncols] = 1.0
            _price(T, basis)
            status, it1 = self._iterate(T, basis, ncols, max_iter, product)
            if status != OPTIMAL:
                raise LpNumericalError("phase 1 cannot be unbounded")
            if -T[-1, -1] > FEASIBILITY_TOL:
                return LpSolution(status=INFEASIBLE, iterations=it1)
            # pivot out any artificial stuck in the basis at zero level;
            # rows with no structural entry are redundant and stay inert
            for i in (basis >= art_start).nonzero()[0]:
                nz = (np.abs(T[i, :art_start]) > 1e-9).nonzero()[0]
                if nz.size:
                    self._pivot(T, basis, i, int(nz[0]), product)
        else:
            it1 = 0

        # phase 2: the objective, negated when maximising, priced out on
        # the current basis; artificial columns may never re-enter
        sign = 1.0 if problem.sense == MINIMIZE else -1.0
        T[-1] = 0.0
        T[-1, plus_col] = sign * c
        T[-1, minus_free] = -sign * c[free_at]
        _price(T, basis)
        status, it2 = self._iterate(T, basis, art_start, max_iter, product)
        if status == UNBOUNDED:
            return LpSolution(status=UNBOUNDED, iterations=it1 + it2)

        # primal extraction; every tableau column is nonnegative (free
        # variables are split), so a negative basic value is round-off
        x_full = np.zeros(ncols)
        x_full[basis] = T[:m, -1]
        np.copyto(x_full, 0.0, where=x_full < 0.0)
        x = x_full[plus_col]
        x[free_at] -= x_full[minus_free]
        objective = float(c @ x)

        # dual extraction: the initial identity column of row i carries
        # -sign * y_i in the final reduced-cost row
        y = -sign * T[-1, initial_basis]
        y[flipped] *= -1.0
        duals_eq = y[:me].copy()
        duals_in = y[me:].copy()

        self._verify(problem, x, objective, duals_eq, duals_in)
        return LpSolution(status=OPTIMAL, x=x, objective=objective,
                          duals_eq=duals_eq, duals_in=duals_in,
                          iterations=it1 + it2)

    def _verify(self, problem, x, objective, duals_eq, duals_in):
        """Exit checks; a basis that produces bad residuals is reported
        as a numerical failure rather than returned.  A non-finite entry
        of x or of the duals makes its objective non-finite (0 * inf and
        0 * nan are nan), where every tolerance comparison would pass.
        The duals must meet LpSolution's sign and reduced-cost
        conditions, since callers ship them as certificates."""
        scale = 1.0 + float(np.abs(x).max(initial=0.0))
        if problem.A_eq.shape[0]:
            r_eq = np.abs(problem.A_eq @ x - problem.b_eq).max()
            if r_eq > FEASIBILITY_TOL * scale:
                raise LpNumericalError("equality residual %g" % r_eq)
        if problem.A_in.shape[0]:
            r_in = (problem.A_in @ x - problem.b_in).max()
            if r_in > FEASIBILITY_TOL * scale:
                raise LpNumericalError("inequality residual %g" % r_in)
        if (x[~problem.free] < -FEASIBILITY_TOL * scale).any():
            raise LpNumericalError("sign violation on nonnegative variable")
        dual_obj = float(problem.b_eq @ duals_eq + problem.b_in @ duals_in)
        if not (math.isfinite(objective) and math.isfinite(dual_obj)):
            raise LpNumericalError("objective %g, dual objective %g" % (objective, dual_obj))
        gap = abs(dual_obj - objective)
        if gap > 1e-7 * (1.0 + abs(objective) + float(np.abs(problem.b_in).sum())):
            raise LpNumericalError("duality gap %g" % gap)
        # minimising: duals_in <= 0 and c - A'y >= 0; maximising flips both
        sign = 1.0 if problem.sense == MINIMIZE else -1.0
        y_max = float(np.abs(np.concatenate([duals_eq, duals_in])).max(initial=0.0))
        dual_tol = FEASIBILITY_TOL * (1.0 + y_max)
        wrong_sign = float((sign * duals_in).max(initial=0.0))
        if wrong_sign > dual_tol:
            raise LpNumericalError("dual sign violation %g" % wrong_sign)
        reduced = sign * (problem.c - problem.A_eq.T @ duals_eq - problem.A_in.T @ duals_in)
        worst = max(float(-reduced[~problem.free].min(initial=0.0)),
                    float(np.abs(reduced[problem.free]).max(initial=0.0)))
        if worst > dual_tol:
            raise LpNumericalError("reduced cost residual %g" % worst)


_DEFAULT_SOLVER = DenseSimplexSolver()


def solve(problem: LpProblem, solver: Optional[LpSolver] = None) -> LpSolution:
    """Solve with the given backend (bundled simplex by default)."""
    return (solver or _DEFAULT_SOLVER).solve(problem)
