"""H-representation polyhedral sets.

A set is stored as the pair (A, b) describing {x : A x <= b}.  The
operations here are the small geometric kernel the rest of the package
leans on: membership, support functions, boundedness, and brute-force
vertex enumeration for the low-dimensional sets this toolkit targets.

Values are immutable after construction (the arrays are marked
read-only), so sets can be shared freely across threads, hashed, and
compared by representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from . import lp

# membership and containment slack accepted by default; vertex
# deduplication distance
MEMBERSHIP_TOL = 1e-7
VERTEX_DEDUP_TOL = 1e-9
# row subsets solved per stacked call in vertices
_SUBSET_CHUNK = 4096


class EmptySetError(Exception):
    """The polyhedron has no points (detected by LP phase 1)."""


class UnboundedSetError(Exception):
    """The polyhedron is unbounded in a queried direction."""


@dataclass(eq=False)
class PolyhedralSet:
    """{x in R^n : A x <= b} with A of shape (q, n) and b of length q.

    Two sets are equal when they have the same representation: the same
    shape and the same bytes of A and b.  Equal sets give bit-identical
    results in every routine here.  Row order and scaling count, and so
    does the sign of a zero, so -0.0 and 0.0 differ; a test of the same
    point set is a containment check, not ``==``.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-d array")
        q, n = A.shape
        if q < 1 or n < 1:
            raise ValueError("A must have at least one row and one column")
        if (np.abs(A).max(axis=1) == 0.0).any():
            raise ValueError("A contains an all-zero row")
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if b.size != q:
            raise ValueError("b has length %d, expected %d" % (b.size, q))
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("A and b must be finite")
        A = A.copy()
        b = b.copy()
        A.setflags(write=False)
        b.setflags(write=False)
        self.A = A
        self.b = b

    def _key(self):
        return self.A.shape, self.A.tobytes(), self.b.tobytes()

    def __eq__(self, other):
        if not isinstance(other, PolyhedralSet):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def nrows(self):
        return self.A.shape[0]


def check_step_sets(sets, K, dim, what):
    """Raise ValueError unless ``sets`` holds K PolyhedralSets in R^dim."""
    if len(sets) != K:
        raise ValueError("need one %s set per step (%d)" % (what, K))
    for k, S in enumerate(sets):
        if not isinstance(S, PolyhedralSet):
            raise ValueError("%s set %d is not a PolyhedralSet" % (what, k))
        if S.dim != dim:
            raise ValueError("%s set %d has dimension %d, expected %d"
                             % (what, k, S.dim, dim))


def box(lo, hi) -> PolyhedralSet:
    """Axis-aligned box {x : lo <= x <= hi} as 2n inequality rows."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.size != hi.size:
        raise ValueError("lo and hi have different lengths")
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise ValueError("lo[%d]=%g exceeds hi[%d]=%g" % (i, lo[i], i, hi[i]))
    n = lo.size
    A = np.zeros((2 * n, n))
    b = np.zeros(2 * n)
    for i in range(n):
        A[2 * i, i] = 1.0
        b[2 * i] = hi[i]
        A[2 * i + 1, i] = -1.0
        b[2 * i + 1] = -lo[i]
    return PolyhedralSet(A, b)


def contains_point(P: PolyhedralSet, x, tol=MEMBERSHIP_TOL) -> bool:
    """True iff every row satisfies A x <= b + tol."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != P.dim:
        raise ValueError("point has dimension %d, set has %d" % (x.size, P.dim))
    return bool(np.all(P.A @ x <= P.b + tol))


def support_lp(P: PolyhedralSet, a) -> lp.LpSolution:
    """Raw LP solution of max a.x over P (all variables free).

    The inequality duals of an optimal solution are the nonnegative
    row multipliers g with g'A = a and g'b equal to the support value;
    callers extracting containment certificates read them directly.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size != P.dim:
        raise ValueError("direction has dimension %d, set has %d" % (a.size, P.dim))
    problem = lp.LpProblem(c=a, A_in=P.A, b_in=P.b,
                           free=np.ones(P.dim, dtype=bool), sense=lp.MAXIMIZE)
    return lp.solve(problem)


def support_max(P: PolyhedralSet, a) -> float:
    """Support value max a.x over P; errors are raised, never encoded."""
    sol = support_lp(P, a)
    if sol.status == lp.INFEASIBLE:
        raise EmptySetError("set is empty")
    if sol.status == lp.UNBOUNDED:
        raise UnboundedSetError("unbounded in the queried direction")
    return float(sol.objective)


def is_empty(P: PolyhedralSet) -> bool:
    """True iff P has no point.  No LP is run when every offset is
    nonnegative, since the origin is then in P; else one feasibility LP."""
    if (P.b >= 0.0).all():
        return False
    return support_lp(P, np.zeros(P.dim)).status == lp.INFEASIBLE


def is_bounded(P: PolyhedralSet) -> bool:
    """Whether P is bounded, from its row matrix alone.  Empty sets raise."""
    if is_empty(P):
        raise EmptySetError("set is empty")
    return _rows_bound_every_set(P.A.shape, P.A.tobytes())


@lru_cache(maxsize=256)
def _rows_bound_every_set(shape, rows) -> bool:
    """Is every nonempty {x : A x <= b} bounded, whatever b is?  A is the
    ``shape`` float matrix with the bytes ``rows``.

    True iff the recession cone {x : A x <= 0} is {0}, that is iff its
    support along every +-e_i is finite.  Tubes share one row matrix
    across all steps, so the verdict is cached by the bytes of A.
    """
    cone = PolyhedralSet(np.frombuffer(rows).reshape(shape), np.zeros(shape[0]))
    eye = np.eye(shape[1])
    return all(support_lp(cone, e).status != lp.UNBOUNDED   # e_0, -e_0, e_1, ...
               for e in np.hstack([eye, -eye]).reshape(-1, shape[1]))


def vertices(P: PolyhedralSet, max_dim=6, max_subsets=500000):
    """All vertices of a bounded nonempty P, by brute force.

    Every subset of ``dim`` rows is solved as one square system, in
    lexicographic order of the row indices.  The subsets go through a
    stacked ``np.linalg.solve`` in chunks of ``_SUBSET_CHUNK``, so memory
    stays bounded at the ``max_subsets`` cap.  A subset whose LU
    factorisation meets an exactly zero pivot (``slogdet`` sign 0, the
    case where a single solve raises LinAlgError) is skipped; the rest
    are solved exactly as one at a time would.  A solution is rejected
    when its residual exceeds 1e-9 (1 + |x|_inf), which screens out
    ill-conditioned active sets, kept when it is feasible in all rows,
    and deduplicated at 1e-9 in the infinity norm against the vertices
    found so far.  Vertices are returned in first-found order, which
    sample_states draws its weights over.  Intended for low dimensions
    only; the caps guard against combinatorial blow-up.

    Boundedness is decided from the row matrix alone (cached), and
    emptiness by the enumeration itself: a bounded set without a
    feasible vertex raises EmptySetError.
    """
    n = P.dim
    q = P.nrows
    if n > max_dim:
        raise ValueError("dimension %d above the enumeration cap %d" % (n, max_dim))
    if q < n:
        raise UnboundedSetError("fewer rows than dimensions")
    if comb(q, n) > max_subsets:
        raise ValueError("row subsets %d exceed the cap %d" % (comb(q, n), max_subsets))
    if not _rows_bound_every_set(P.A.shape, P.A.tobytes()):
        if is_empty(P):  # reported as such, not as unbounded
            raise EmptySetError("set is empty")
        raise UnboundedSetError("vertex enumeration needs a bounded set")

    found = []
    found_coords = []        # the same vertices as lists of floats
    subsets = combinations(range(q), n)
    while True:
        rows = np.fromiter(chain.from_iterable(islice(subsets, _SUBSET_CHUNK)),
                           dtype=np.intp).reshape(-1, n)
        if rows.shape[0] == 0:
            break
        M = P.A[rows]
        rhs = P.b[rows]
        solvable = np.linalg.slogdet(M)[0] != 0.0
        M = M[solvable]
        rhs = rhs[solvable]
        x = np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        # negated, so a NaN residual is kept exactly as a per-subset
        # "skip if resid > tol" would keep it (the feasibility test then
        # drops it)
        resid = np.abs(np.matmul(M, x[:, :, None])[:, :, 0] - rhs).max(axis=1)
        kept = ~(resid > 1e-9 * (1.0 + np.abs(x).max(axis=1)))
        x = x[kept]
        feasible = (np.matmul(P.A, x[:, :, None])[:, :, 0]
                    <= P.b + VERTEX_DEDUP_TOL).all(axis=1)
        x = x[feasible]
        # sequential: the first of near-duplicates wins; the distances are
        # taken on Python floats, which round as NumPy's float64 does
        for v, coords in zip(x, x.tolist()):
            if all(max([abs(a - b) for a, b in zip(coords, w)]) >= VERTEX_DEDUP_TOL
                   for w in found_coords):
                found.append(v)
                found_coords.append(coords)
    if not found:
        raise EmptySetError("set is empty")
    return found


def step_vertices(sets, name="set %d", enumerated=None, bounded=False):
    """``vertices`` of the first ``enumerated`` sets (all by default) of
    the per-step list ``sets``, after checking every set nonempty and,
    given ``bounded``, bounded by the cached cone verdict of its rows.
    Equal sets (the same object, as in ``[V] * K``, or the same
    representation, as in a settled tube) are checked once and share one
    vertex list.  A failing set raises this module's error for it,
    prefixed with ``name % k`` for the first step k that holds it."""
    enumerated = len(sets) if enumerated is None else enumerated
    found = {}
    for k, S in enumerate(sets):
        if S in found:
            continue
        try:
            # an empty set is reported as empty, not as past the caps
            if is_empty(S):
                raise EmptySetError("set is empty")
            # vertices checks boundedness itself
            if bounded and k >= enumerated and not _rows_bound_every_set(
                    S.A.shape, S.A.tobytes()):
                raise UnboundedSetError("set is unbounded")
            found[S] = vertices(S) if k < enumerated else None
        except (ValueError, EmptySetError, UnboundedSetError) as exc:
            raise type(exc)("%s: %s" % (name % k, exc)) from None
    return [found[S] for S in sets[:enumerated]]
