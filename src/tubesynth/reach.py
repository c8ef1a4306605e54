"""One-step reachability certificates for polytopic difference inclusions.

The model is x(k+1) = A(k)x(k) + B(k)u(k) (+ D v(k)), with [A(k) B(k)]
ranging over the convex hull of finitely many vertex pairs [A_i B_i]
and output feedback u = F C x.  Containment of the one-step reachable
set of one polyhedron in another is decided primal-side: for each
vertex matrix and each target row, a support LP gives the tightest
bound the image attains; the verdict compares those bounds against the
target offsets.  When containment holds, the LP duals stacked row by
row form nonnegative certificate matrices G_i with

    G_i >= 0,   G_i A_src = A_tgt (A_i + B_i F C),   G_i b_src <= b_tgt,

which any third party can recheck by matrix arithmetic alone;
``verify_certificates`` is that recheck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import lp
from .polytope import (EmptySetError, PolyhedralSet, UnboundedSetError, support_lp,
                       support_max)

DEFAULT_TOL = 1e-7
# certificate entries may undershoot zero by this much
CERT_SIGN_TOL = 1e-10


class CertificateError(Exception):
    """A certificate LP failed for numerical reasons (e.g. a shape set
    without interior); the condition is reported, never guessed around."""


@dataclass
class PolytopicModel:
    """Vertex matrices of the inclusion plus the fixed output map.

    vertices : list of (A_i, B_i) pairs, A_i n-by-n and B_i n-by-m
    C        : r-by-n output map
    D        : optional n-by-p disturbance map
    """

    vertices: List[Tuple[np.ndarray, np.ndarray]]
    C: np.ndarray
    D: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("model needs at least one vertex pair")
        pairs = []
        n = None
        m = None
        for A, B in self.vertices:
            A = np.asarray(A, dtype=float)
            B = np.asarray(B, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("A_i must be square")
            if n is None:
                n, m = A.shape[0], B.shape[1]
            if A.shape != (n, n) or B.shape != (n, m):
                raise ValueError("vertex matrices have inconsistent shapes")
            pairs.append((A, B))
        self.vertices = pairs
        self.C = np.asarray(self.C, dtype=float)
        if self.C.ndim != 2 or self.C.shape[1] != n:
            raise ValueError("C must have %d columns" % n)
        if self.D is not None:
            self.D = np.asarray(self.D, dtype=float)
            if self.D.ndim != 2 or self.D.shape[0] != n:
                raise ValueError("D must have %d rows" % n)

    @property
    def n(self):
        return self.vertices[0][0].shape[0]

    @property
    def m(self):
        return self.vertices[0][1].shape[1]

    @property
    def r(self):
        return self.C.shape[0]

    @property
    def s(self):
        return len(self.vertices)

    @property
    def p(self):
        return 0 if self.D is None else self.D.shape[1]

    def closed_loop(self, F) -> List[np.ndarray]:
        """A_i + B_i F C for every vertex."""
        F = np.asarray(F, dtype=float).reshape(self.m, self.r)
        return [A + B @ F @ self.C for A, B in self.vertices]


@dataclass
class ContainmentReport:
    contained: bool
    certificates: Optional[List[np.ndarray]]
    worst_violation: float


def verify_certificates(blocks, source: PolyhedralSet, target: PolyhedralSet,
                        maps, tol=DEFAULT_TOL) -> ContainmentReport:
    """Recheck multiplier certificates by matrix arithmetic alone.

    Block G_i certifies maps[i] * source inside target when

        G_i >= -CERT_SIGN_TOL,
        ||G_i A_src - A_tgt maps[i]||_inf <= lp.FEASIBILITY_TOL,
        max(G_i b_src - b_tgt) <= tol.

    worst_violation is the largest bound residual max(G_i b_src - b_tgt),
    an upper bound on the tight support gap.  Blocks that miss a
    threshold give contained=False with no certificates; that says only
    that these multipliers do not prove containment, not that it fails.
    """
    if len(blocks) != len(maps):
        raise ValueError("%d certificate blocks for %d maps" % (len(blocks), len(maps)))
    ok = True
    worst = -np.inf
    certs = []
    for G, M in zip(blocks, maps):
        G = np.asarray(G, dtype=float)
        if G.shape != (target.nrows, source.nrows):
            raise ValueError("certificate block is %dx%d, expected %dx%d"
                             % (G.shape + (target.nrows, source.nrows)))
        worst = max(worst, float(np.max(G @ source.b - target.b)))
        ok = (ok and G.min() >= -CERT_SIGN_TOL
              and np.max(np.abs(G @ source.A - target.A @ M)) <= lp.FEASIBILITY_TOL)
        certs.append(G)
    contained = bool(ok and worst <= tol)
    return ContainmentReport(contained=contained,
                             certificates=certs if contained else None,
                             worst_violation=worst)


def step_source(model: PolytopicModel, source: PolyhedralSet,
                disturbance: Optional[PolyhedralSet] = None) -> PolyhedralSet:
    """The set one closed-loop step runs over.

    Without a disturbance this is ``source`` itself.  With a set V over
    the p disturbance coordinates the step x+ = (A_i + B_i F C) x + D v
    runs over the stacked vector (x, v), and the source is the
    block-diagonal set [A_src 0; 0 A_v] with offsets [b_src; b_v].
    This is the one place the (state, disturbance) layout is formed:
    the certificate recheck, the support-LP check and the first
    synthesis LP all read it from here.
    """
    if source.dim != model.n:
        raise ValueError("set dimensions do not match the model")
    if disturbance is None:
        return source
    if model.D is None:
        raise ValueError("model has no disturbance map D")
    if disturbance.dim != model.p:
        raise ValueError("disturbance set dimension %d, D has %d columns"
                         % (disturbance.dim, model.p))
    stacked_A = np.zeros((source.nrows + disturbance.nrows, model.n + model.p))
    stacked_A[:source.nrows, :model.n] = source.A
    stacked_A[source.nrows:, model.n:] = disturbance.A
    return PolyhedralSet(stacked_A, np.concatenate([source.b, disturbance.b]))


def step_maps(model: PolytopicModel, F, source: PolyhedralSet,
              disturbance: Optional[PolyhedralSet] = None):
    """Source set (``step_source``) and per-vertex maps of one
    closed-loop step.

    The maps are A_i + B_i F C, widened to [A_i + B_i F C  D] over the
    stacked (x, v) when a disturbance set is given, so certificates
    cover both blocks:

        G_i [A_src 0; 0 A_v] = A_tgt [A_i + B_i F C  D],
        G_i [b_src; b_v] <= b_tgt,  G_i >= 0.
    """
    stacked = step_source(model, source, disturbance)
    if disturbance is None:
        return stacked, model.closed_loop(F)
    return stacked, [np.hstack([A_cl, model.D]) for A_cl in model.closed_loop(F)]


def check_containment(model: PolytopicModel, F, source: PolyhedralSet,
                      target: PolyhedralSet, tol=DEFAULT_TOL,
                      disturbance: Optional[PolyhedralSet] = None) -> ContainmentReport:
    """Does every admissible one-step image of ``source`` (plus D V when
    a ``disturbance`` set V is given) lie in ``target``?

    It suffices to check the vertex matrices: the reachable set is the
    convex hull of the per-vertex images and the target is convex.  For
    each map of ``step_maps`` and each target row a support LP gives the
    tightest bound; an unbounded support makes containment in the
    (finite) target impossible and short-circuits to
    worst_violation = +inf.
    """
    if target.dim != model.n:
        raise ValueError("set dimensions do not match the model")
    source, maps = step_maps(model, F, source, disturbance)
    worst = -np.inf
    certs = []
    for A_map in maps:
        directions = target.A @ A_map
        G = np.zeros((target.nrows, source.nrows))
        for j in range(target.nrows):
            sol = support_lp(source, directions[j])
            if sol.status == lp.INFEASIBLE:
                raise EmptySetError("source set is empty")
            if sol.status == lp.UNBOUNDED:
                return ContainmentReport(contained=False, certificates=None,
                                         worst_violation=np.inf)
            worst = max(worst, float(sol.objective) - target.b[j])
            G[j] = sol.duals_in
        certs.append(G)
    contained = bool(worst <= tol)
    return ContainmentReport(contained=contained,
                             certificates=certs if contained else None,
                             worst_violation=float(worst))


def check_containment_disturbance(model: PolytopicModel, F, source: PolyhedralSet,
                                  v_set: PolyhedralSet, target: PolyhedralSet,
                                  tol=DEFAULT_TOL) -> ContainmentReport:
    """``check_containment`` with the disturbance set ``v_set``."""
    return check_containment(model, F, source, target, tol, disturbance=v_set)


def contractivity_factor(A, shape_set: PolyhedralSet) -> float:
    """Smallest factor eta such that A maps shape_set into eta*shape_set.

    ``shape_set`` must be given with unit offsets, P(W, 1); a factor
    below one certifies contraction of the autonomous step x+ = A x.
    Row-wise, eta is the largest support of the image directions, and
    stacking the support duals yields G >= 0 with G W = W A and
    G 1 <= eta 1.
    """
    if not np.all(shape_set.b == 1.0):
        raise ValueError("shape set must have all offsets equal to one")
    A = np.asarray(A, dtype=float)
    if A.shape != (shape_set.dim, shape_set.dim):
        raise ValueError("A must be %d-by-%d" % (shape_set.dim, shape_set.dim))
    # a unit-offset set contains the origin, so it is never empty
    try:
        eta = max(support_max(shape_set, a) for a in shape_set.A @ A)
    except UnboundedSetError as exc:
        raise CertificateError("shape set is unbounded along an image direction") from exc
    return float(max(eta, 0.0))


def check_robust_invariant(model: PolytopicModel, F_static, S: PolyhedralSet,
                           V: PolyhedralSet, tol=DEFAULT_TOL) -> ContainmentReport:
    """Is S invariant for x+ = (A(k) + B(k) F C) x + D v, v in V?

    Plain containment check with source and target both equal to S
    under the static gain.
    """
    return check_containment(model, F_static, S, S, tol=tol, disturbance=V)
