"""Backward-in-time synthesis of a time-varying output feedback.

Starting from the terminal set, each step k = K-1, ..., 0 solves two
linear programs:

* the first searches jointly over a feedback gain F(k) and nonnegative
  row-multiplier blocks G_i(k) (one per model vertex) for the choice
  that brings the one-step image of the full tube section H(k) as
  close as possible to the next traversed set, measured by a
  nonnegative defect vector that is minimised;
* when the defect is not zero, the second keeps the gain and the
  multipliers and instead shrinks the section offsets, maximising
  their sum subject to the multiplier bound, so the traversed set
  X(k) = {Q(k) x <= psi(k)} is as large a subset of H(k) as that gain
  certifies.

A zero defect means the whole section maps inside the next set, so the
section is kept unchanged ("TubeExact"); otherwise the shrunken
offsets are recorded ("Shrunk").

Both LPs take the step's sets as they are: the section H(k), the next
set X(k+1) and, when given, this step's disturbance set V(k) and
control set U(k).  A disturbance widens every multiplier block over the
rows of reach.step_source(model, H(k), V(k)), the block-diagonal set
over the stacked (state, disturbance) vector; control sets add rows
U(k) F(k) C h <= theta(k) for every vertex h of the tube section.

The first LP's multiplier blocks are the step's certificates: over the
step source S they satisfy G_i A_S = Q(k+1) [A_i + B_i F C  D] (no D
columns without V(k)), and the defect-free bound rows (the first LP's
when the defect is zero, the second LP's otherwise) give
G_i b_S <= psi(k+1).  As soon as X(k) is fixed, the step's blocks are
rechecked by matrix arithmetic alone (reach.verify_certificates) over
reach.step_maps, which reads the same step source.  A step whose
blocks miss a threshold is decided by the support-LP containment check
instead, so a "not contained" verdict always comes from the tight
check.  The reports ship with the result.

A tube built from step-response specs is constant after its settling
time, so its late steps repeat one another's LP inputs.  A step whose
builder arguments (H(k), X(k+1), V(k), U(k) and whether the
disturbance floor applies) are byte-identical to the next step's
reuses that step's LP solutions instead of solving the same LPs again:
identical inputs give bit-identical solutions, so the result is
unchanged, and the synthesis cost follows the number of distinct steps
rather than the horizon.  Everything after the solves still runs at
every step: unpacking the gain and multipliers into fresh arrays,
fixing X(k), the emptiness probe and the certificate recheck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import lp
# vertices is not called here but stays bound, as it was: the benchmark's
# tracer (perfbench/tracing.py) expects to wrap it in this module
from .polytope import PolyhedralSet, check_step_sets, step_vertices, support_lp, \
    vertices
from .reach import ContainmentReport, PolytopicModel, check_containment, step_maps, \
    step_source, verify_certificates
from .tube import TargetTube

TUBE_EXACT = "TubeExact"
SHRUNK = "Shrunk"

# infinity-norm threshold under which the defect counts as exactly zero
EPS_ZERO_TOL = 1e-7


class SynthesisError(Exception):
    """Synthesis aborted; carries the step index where it failed."""

    def __init__(self, k, stage, message):
        super().__init__("step k=%d (%s): %s" % (k, stage, message))
        self.k = k
        self.stage = stage


@dataclass
class SynthesisProblem:
    """Inputs of the backward recursion.

    disturbance        : per-step sets V(k) = {W v <= gamma} over the p
                         disturbance coordinates, k = 0..K-1, bounding
                         the additive disturbance; needs model.D.
    control_constraints: per-step sets {U u <= theta} over the m inputs,
                         k = 0..K-1, enforced over the vertices of each
                         tube section.
    nonneg_bounds      : keep the shrunken offsets nonnegative; for a
                         nominal problem over a bounded tube with the
                         origin interior this makes the recursion always
                         succeed (the zero offsets are always feasible).
    disturbance_floor  : additionally force each traversed set to cover
                         the disturbance image D V(k) (applied at steps
                         k <= K-2; the terminal step is covered by the
                         input requirement D V(k) inside H(k+1), which
                         is validated up front).

    With a disturbance the second stage can still come up empty: the
    first stage fixes one optimal multiplier split between the state
    and disturbance blocks, and a split that spends a row's whole
    budget on the disturbance part leaves no room for positive
    offsets.  The recursion then aborts with the failing step rather
    than substituting a different relaxation.
    """

    model: PolytopicModel
    tube: TargetTube
    disturbance: Optional[List[PolyhedralSet]] = None
    control_constraints: Optional[List[PolyhedralSet]] = None
    nonneg_bounds: bool = True
    disturbance_floor: bool = False

    def __post_init__(self):
        if self.tube.dim != self.model.n:
            raise ValueError("tube dimension %d, model dimension %d"
                             % (self.tube.dim, self.model.n))
        K = self.tube.horizon
        if K < 1:
            raise ValueError("horizon must be at least 1")
        if self.disturbance is not None:
            if self.model.D is None:
                raise ValueError("disturbance bounds given but model has no D")
            check_step_sets(self.disturbance, K, self.model.p, "disturbance")
        if self.control_constraints is not None:
            check_step_sets(self.control_constraints, K, self.model.m, "control")
        if self.disturbance_floor and self.disturbance is None:
            raise ValueError("disturbance_floor needs disturbance bounds")

    @property
    def horizon(self):
        return self.tube.horizon


@dataclass
class SynthesisResult:
    """Gains, traversed sets, per-step defects and certification."""

    gains: List[np.ndarray]                       # F(k), k = 0..K-1
    sets: List[PolyhedralSet]                     # X(k), k = 0..K
    residuals: List[np.ndarray]                   # defect vectors, k = 0..K-1
    provenance: List[str]                         # TUBE_EXACT or SHRUNK per k
    step_reports: List[ContainmentReport]         # X(k) -> X(k+1) under F(k)

    @property
    def horizon(self):
        return len(self.gains)

    @property
    def certified(self):
        return all(r.contained for r in self.step_reports)


def _kron(a, b):
    """np.kron of two matrices by one broadcast product: the same
    element products, without np.kron's per-call dimension handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def build_lp1(model: PolytopicModel, H: PolyhedralSet, X_next: PolyhedralSet,
              V: Optional[PolyhedralSet] = None, control=None) -> lp.LpProblem:
    """First-stage LP of the step from the tube section H into X_next.

    Variables, in order: defect vector (one entry per X_next row,
    nonnegative), gain entries (row-major, free), then one multiplier
    block per model vertex (row-major, nonnegative) over the rows of
    the step's source S = reach.step_source(model, H, V): H itself, or
    [A_H 0; 0 A_V] over (x, v) when this step's disturbance set V is
    given.  Equality rows tie each block to the gain through

        G_i A_S = A_next [A_i + B_i F C  D]

    (without V the D columns drop out), and inequality rows bound
    G_i b_S <= b_next + defect.

    ``control`` is (U, section vertices): U F C h <= theta at every
    vertex h of H, for the set U = {U u <= theta} of this step.
    """
    if X_next.dim != model.n:
        raise ValueError("next set has dimension %d, model has %d"
                         % (X_next.dim, model.n))
    source = step_source(model, H, V)
    n, m, r, s = model.n, model.m, model.r, model.s
    q1 = X_next.nrows
    q0t, w = source.A.shape  # columns of each block; n + p stacked coordinates
    nF = m * r
    nG = q1 * q0t
    nvars = q1 + nF + s * nG
    C_ext = np.hstack([model.C, np.zeros((r, w - n))])
    D = np.zeros((n, 0)) if V is None else model.D

    ne = q1 * w              # equality rows per model vertex
    nc = 0 if control is None else control[0].nrows * len(control[1])
    A_eq = np.zeros((s * ne, nvars))
    b_eq = np.empty(s * ne)
    A_in = np.zeros((s * q1 + nc, nvars))
    b_in = np.empty(s * q1 + nc)

    # the blocks shared by every model vertex
    g_cols = _kron(np.eye(q1), source.A.T)            # (q1*w) x nG
    g_bound = _kron(np.eye(q1), source.b[None, :])    # q1 x nG
    neg_eye = -np.eye(q1)
    for i, (A_i, B_i) in enumerate(model.vertices):
        eq = slice(i * ne, (i + 1) * ne)
        bnd = slice(i * q1, (i + 1) * q1)
        g = slice(q1 + nF + i * nG, q1 + nF + (i + 1) * nG)
        A_eq[eq, q1:q1 + nF] = -_kron(X_next.A @ B_i, C_ext.T)
        A_eq[eq, g] = g_cols
        b_eq[eq] = (X_next.A @ np.hstack([A_i, D])).reshape(-1)
        A_in[bnd, :q1] = neg_eye
        A_in[bnd, g] = g_bound
        b_in[bnd] = X_next.b

    if control is not None:
        U, section_vertices = control
        row = s * q1
        for h in section_vertices:
            A_in[row:row + U.nrows, q1:q1 + nF] = _kron(U.A, (model.C @ h)[None, :])
            b_in[row:row + U.nrows] = U.b
            row += U.nrows

    c = np.zeros(nvars)
    c[:q1] = 1.0
    free = np.zeros(nvars, dtype=bool)
    free[q1:q1 + nF] = True
    return lp.LpProblem(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
                        free=free, sense=lp.MINIMIZE)


def split_lp1_solution(x, model: PolytopicModel, q1):
    """Unpack an LP1 primal vector of a step into X_next's q1 rows into
    (defect, gain, multiplier blocks); the block width follows from x."""
    nF = model.m * model.r
    nG = (x.size - q1 - nF) // model.s
    eps = x[:q1].copy()
    F = x[q1:q1 + nF].reshape(model.m, model.r).copy()
    blocks = [x[q1 + nF + i * nG:q1 + nF + (i + 1) * nG].reshape(q1, nG // q1).copy()
              for i in range(model.s)]
    return eps, F, blocks


def build_lp2(multiplier_blocks, H: PolyhedralSet, X_next: PolyhedralSet,
              V: Optional[PolyhedralSet] = None, nonneg=False,
              floor_values=None) -> lp.LpProblem:
    """Second-stage LP: maximise the offset sum psi of X(k) = {A_H x <= psi}.

    Each block G_i = [G_x G_v] of the first LP (G_v spans the rows of
    this step's disturbance set V, when given) keeps its bound row:
    G_x psi <= b_next - G_v b_V; and psi <= b_H keeps X(k) inside the
    section H.  ``nonneg`` pins the offsets at or above zero;
    ``floor_values`` adds per-row lower bounds (one vector per
    disturbance-image vertex).
    """
    q0 = H.nrows
    width = q0 if V is None else q0 + V.nrows
    in_rows = [np.eye(q0)]
    in_rhs = [H.b]
    for G in multiplier_blocks:
        if G.shape[1] != width:
            raise ValueError("multiplier block has %d columns, expected %d"
                             % (G.shape[1], width))
        in_rows.append(G[:, :q0])
        in_rhs.append(X_next.b if V is None else X_next.b - G[:, q0:] @ V.b)
    for v in floor_values or ():
        in_rows.append(-np.eye(q0))
        in_rhs.append(-v)
    free = np.zeros(q0, dtype=bool) if nonneg else np.ones(q0, dtype=bool)
    return lp.LpProblem(c=np.ones(q0), A_in=np.vstack(in_rows),
                        b_in=np.concatenate(in_rhs), free=free,
                        sense=lp.MAXIMIZE)


def synthesize(problem: SynthesisProblem, containment_tol=1e-7,
               eps_zero_tol=EPS_ZERO_TOL, solver=None) -> SynthesisResult:
    """Run the backward recursion and certify every accepted step.

    Raises SynthesisError with the failing step when either stage LP
    has no solution.  The first stage can only fail under control
    constraints.  The second cannot fail for a nominal problem with
    nonnegative offsets, but may under a disturbance (see
    SynthesisProblem) or with the safeguards disabled.  With
    ``nonneg_bounds`` off the offsets can also describe an empty
    traversed set, which raises SynthesisError ("traversed set is
    empty") at that step; one feasibility LP decides it, and only when
    some offset is negative (otherwise the origin is in the set).

    Each step report carries the first LP's multiplier blocks when they
    pass reach.verify_certificates; its worst_violation is then their
    bound residual max(G b_src - b_tgt), an upper bound on the tight
    support gap.  Otherwise the report is the support-LP check's.

    A step whose LP inputs are byte-identical to step k+1's takes that
    step's LP solutions rather than solving again; its certificates are
    still rechecked against its own sets.  Nothing is kept between
    calls: each call solves every distinct step.
    """
    model = problem.model
    K = problem.horizon
    tube = problem.tube

    v_vertices = None
    if problem.disturbance_floor:
        v_vertices = step_vertices(problem.disturbance)
        # input requirement: the disturbance image fits in the next tube
        # section at every step
        for k in range(K):
            H_next = tube[k + 1]
            for v in v_vertices[k]:
                img = model.D @ v
                if np.any(H_next.A @ img > H_next.b + containment_tol):
                    raise ValueError(
                        "disturbance image leaves the tube section at step %d" % (k + 1))

    section_vertices = None
    if problem.control_constraints is not None:
        try:
            section_vertices = step_vertices(tube.sets[:K])
        except Exception as exc:
            raise SynthesisError(-1, "vertices",
                                 "tube section enumeration failed: %s" % exc)

    sets = [None] * K + [tube[K]]
    gains = [None] * K
    residuals = [None] * K
    provenance = [None] * K
    step_reports = [None] * K

    # a step whose LP inputs equal step k+1's keeps sol1 and sol2 from
    # that step: PolyhedralSet equality compares the bytes of A and b,
    # so equal keys mean bit-identical LPs and bit-identical solutions
    next_key = None
    for k in range(K - 1, -1, -1):
        H, X_next = tube[k], sets[k + 1]
        V = None if problem.disturbance is None else problem.disturbance[k]
        U = None if problem.control_constraints is None \
            else problem.control_constraints[k]
        floor = problem.disturbance_floor and k <= K - 2
        key = (H, X_next, V, U, floor)
        if key != next_key:
            lp1 = build_lp1(model, H, X_next, V, control=None if U is None
                            else (U, section_vertices[k]))
            sol1, sol2 = lp.solve(lp1, solver), None
            if sol1.status != lp.OPTIMAL:
                raise SynthesisError(k, "stage 1", "LP is %s" % sol1.status)
        next_key = key
        eps, F, blocks = split_lp1_solution(sol1.x, model, X_next.nrows)
        if np.max(np.abs(eps), initial=0.0) <= eps_zero_tol:
            X, provenance[k], stage = H, TUBE_EXACT, "stage 1"
        else:
            if sol2 is None:
                floors = None
                if floor:
                    floors = [H.A @ model.D @ v for v in v_vertices[k]]
                lp2 = build_lp2(blocks, H, X_next, V, nonneg=problem.nonneg_bounds,
                                floor_values=floors)
                sol2 = lp.solve(lp2, solver)
                if sol2.status != lp.OPTIMAL:
                    raise SynthesisError(k, "stage 2", "LP is %s" % sol2.status)
            X, provenance[k], stage = PolyhedralSet(H.A, sol2.x), SHRUNK, "stage 2"
        if np.any(X.b < 0.0):   # otherwise the origin is in X(k)
            if support_lp(X, np.zeros(model.n)).status == lp.INFEASIBLE:
                raise SynthesisError(k, stage, "traversed set is empty")
        source, maps = step_maps(model, F, X, V)
        rpt = verify_certificates(blocks, source, X_next, maps, tol=containment_tol)
        if not rpt.contained:
            rpt = check_containment(model, F, X, X_next, tol=containment_tol,
                                    disturbance=V)
        sets[k], gains[k], residuals[k], step_reports[k] = X, F, eps, rpt

    return SynthesisResult(gains=gains, sets=sets, residuals=residuals,
                           provenance=provenance, step_reports=step_reports)
