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

One backward step (both LPs, X(k), the emptiness probe, the
certificate recheck and its support-LP fallback) is ``solve_step``.

A tube built from step-response specs is constant after its settling
time, so its late steps repeat one another's inputs.  A step whose
inputs (H(k), X(k+1), V(k), U(k) and whether the disturbance floor
applies) are byte-identical to the next step's is that step, shared:
identical inputs give bit-identical results, so it reuses step k+1's
solution, and the whole synthesis cost follows the number of distinct
steps.  Every array a step hands out (the gain, the defect and the
certificate blocks) is read-only, as its X(k) is immutable, so a
repeated step holds step k+1's objects themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import lp
# vertices is not called here but stays bound, as it was: the benchmark's
# tracer (perfbench/tracing.py) expects to wrap it in this module
from .polytope import MEMBERSHIP_TOL, PolyhedralSet, check_step_sets, is_empty, \
    step_vertices, vertices
from .reach import ContainmentReport, PolytopicModel, check_containment, step_maps, \
    step_source, verify_certificates
from .tube import TargetTube

TUBE_EXACT = "TubeExact"
SHRUNK = "Shrunk"

# infinity-norm threshold under which the defect counts as exactly zero
EPS_ZERO_TOL = 1e-7


class SynthesisError(Exception):
    """Synthesis aborted at a real step k, 0 <= k < K, in "stage 1" or "stage 2"."""

    def __init__(self, k, stage, message):
        super().__init__("step k=%d (%s): %s" % (k, stage, message))
        self.k = k
        self.stage = stage


@dataclass
class SynthesisProblem:
    """Inputs of the backward recursion.  Every tube section H(k) and
    disturbance set V(k) must be nonempty, or each certificate over an
    empty one would hold vacuously; under ``nonneg_bounds`` every section
    must also be bounded, which its existence guarantee needs.

    disturbance        : per-step sets V(k) = {W v <= gamma} over the p
                         disturbance coordinates, k = 0..K-1, bounding
                         the additive disturbance; needs model.D.
    control_constraints: per-step sets {U u <= theta} over the m inputs,
                         k = 0..K-1, enforced over the vertices of each
                         tube section, which must then be enumerable.
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
    C_ext = model.C if w == n else np.hstack([model.C, np.zeros((r, w - n))])

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
        A_eq[eq, q1:q1 + nF] = _kron(-(X_next.A @ B_i), C_ext.T)
        A_eq[eq, g] = g_cols
        # [A_i D] in C order, as np.hstack lays it out, for the same product
        b_eq[eq] = (X_next.A @ (np.ascontiguousarray(A_i) if V is None
                                else np.hstack([A_i, model.D]))).reshape(-1)
        A_in[bnd, :q1] = neg_eye
        A_in[bnd, g] = g_bound
        b_in[bnd] = X_next.b

    if control is not None:
        # U F C h <= theta for every section vertex h, one row block each
        U, section_vertices = control
        outputs = np.array([model.C @ h for h in section_vertices])
        A_in[s * q1:, q1:q1 + nF] = (U.A[None, :, :, None] * outputs[:, None, None, :]
                                     ).reshape(nc, nF)
        b_in[s * q1:].reshape(-1, U.nrows)[:] = U.b

    c = np.zeros(nvars)
    c[:q1] = 1.0
    free = np.zeros(nvars, dtype=bool)
    free[q1:q1 + nF] = True
    return lp.LpProblem(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
                        free=free, sense=lp.MINIMIZE)


def split_lp1_solution(x, model: PolytopicModel, q1):
    """Unpack an LP1 primal vector of a step into X_next's q1 rows into
    (defect, gain, multiplier blocks); the block width follows from x.
    All three are read-only views of one read-only copy of x."""
    nF = model.m * model.r
    nG = (x.size - q1 - nF) // model.s
    x = np.array(x)
    x.setflags(write=False)
    eps = x[:q1]
    F = x[q1:q1 + nF].reshape(model.m, model.r)
    blocks = [x[q1 + nF + i * nG:q1 + nF + (i + 1) * nG].reshape(q1, nG // q1)
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


def solve_step(model: PolytopicModel, H: PolyhedralSet, X_next: PolyhedralSet, V=None,
               control=None, floors=None, nonneg=True, containment_tol=MEMBERSHIP_TOL,
               eps_zero_tol=EPS_ZERO_TOL, solver=None, k=0):
    """One backward step from the section H into X_next: (X(k), F(k),
    defect, provenance, report).

    ``V`` and ``control`` are build_lp1's, ``floors`` and ``nonneg`` are
    build_lp2's.  The second LP runs only when the defect's infinity
    norm exceeds ``eps_zero_tol``.  The report is the first LP's
    multiplier blocks when reach.verify_certificates accepts them, and
    the support-LP check's otherwise.  Raises SynthesisError naming
    step ``k`` when either LP has no optimum or a shrunken X(k) is empty.
    """
    sol1 = lp.solve(build_lp1(model, H, X_next, V, control=control), solver)
    if sol1.status != lp.OPTIMAL:
        raise SynthesisError(k, "stage 1", "LP is %s" % sol1.status)
    eps, F, blocks = split_lp1_solution(sol1.x, model, X_next.nrows)
    if np.abs(eps).max(initial=0.0) <= eps_zero_tol:
        X, provenance = H, TUBE_EXACT
    else:
        sol2 = lp.solve(build_lp2(blocks, H, X_next, V, nonneg=nonneg,
                                  floor_values=floors), solver)
        if sol2.status != lp.OPTIMAL:
            raise SynthesisError(k, "stage 2", "LP is %s" % sol2.status)
        X, provenance = PolyhedralSet(H.A, sol2.x), SHRUNK
        if is_empty(X):
            raise SynthesisError(k, "stage 2", "traversed set is empty")
    source, maps = step_maps(model, F, X, V)
    report = verify_certificates(blocks, source, X_next, maps, tol=containment_tol)
    if not report.contained:
        report = check_containment(model, F, X, X_next, containment_tol, V)
    return X, F, eps, provenance, report


def synthesize(problem: SynthesisProblem, containment_tol=MEMBERSHIP_TOL,
               eps_zero_tol=EPS_ZERO_TOL, solver=None) -> SynthesisResult:
    """Run the backward recursion and certify every accepted step.

    An input set that SynthesisProblem rules out raises polytope's
    error, naming the set, before the first stage LP.  A
    SynthesisError names the failing step, 0 <= k < K, when either stage
    LP has no solution.  The first stage can only fail under control
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

    A step whose inputs differ from step k+1's runs ``solve_step``; a
    repeated step is step k+1's solution, shared.  The gains, defects
    and certificate blocks are read-only, so a certified result cannot
    be edited in place.  Nothing is kept between calls: each call
    solves every distinct step.
    """
    model = problem.model
    K = problem.horizon
    tube = problem.tube

    section_vertices = step_vertices(
        tube.sets, "tube section H(%d)",
        enumerated=0 if problem.control_constraints is None else K,
        bounded=problem.nonneg_bounds)
    v_vertices = step_vertices(problem.disturbance or [], "disturbance set V(%d)",
                               enumerated=K if problem.disturbance_floor else 0)
    if problem.disturbance_floor:
        # input requirement: the disturbance image fits in the next tube
        # section at every step
        for k in range(K):
            H_next = tube[k + 1]
            for v in v_vertices[k]:
                img = model.D @ v
                if np.any(H_next.A @ img > H_next.b + containment_tol):
                    raise ValueError(
                        "disturbance image leaves the tube section at step %d" % (k + 1))

    sets = [None] * K + [tube[K]]
    gains = [None] * K
    residuals = [None] * K
    provenance = [None] * K
    step_reports = [None] * K

    # PolyhedralSet equality compares the bytes of A and b, so a key equal
    # to step k+1's means bit-identical LPs, sets and recheck
    next_key = None
    for k in range(K - 1, -1, -1):
        H, X_next = tube[k], sets[k + 1]
        V = None if problem.disturbance is None else problem.disturbance[k]
        U = None if problem.control_constraints is None \
            else problem.control_constraints[k]
        floor = problem.disturbance_floor and k <= K - 2
        key = (H, X_next, V, U, floor)
        if key != next_key:
            control = None if U is None else (U, section_vertices[k])
            floors = [H.A @ model.D @ v for v in v_vertices[k]] if floor else None
            step = solve_step(
                model, H, X_next, V, control=control, floors=floors,
                nonneg=problem.nonneg_bounds, containment_tol=containment_tol,
                eps_zero_tol=eps_zero_tol, solver=solver, k=k)
        next_key = key
        sets[k], gains[k], residuals[k], provenance[k], step_reports[k] = step

    return SynthesisResult(gains=gains, sets=sets, residuals=residuals,
                           provenance=provenance, step_reports=step_reports)
