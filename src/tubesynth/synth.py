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

The first LP's multiplier blocks are the step's certificates: they
satisfy G_i Q(k) = Q(k+1)(A_i + B_i F C), and the defect-free bound
rows (the first LP's when the defect is zero, the second LP's
otherwise) give G_i psi(k) <= psi(k+1).  As soon as X(k) is fixed,
the step's blocks are rechecked by matrix arithmetic alone
(reach.verify_certificates) over the step of reach.step_maps, the same
for nominal and disturbed problems.  A step whose blocks miss a
threshold is decided by the support-LP containment check instead, so a
"not contained" verdict always comes from the tight check.  The
reports ship with the result.

A tube built from step-response specs is constant after its settling
time, so its late steps repeat one another's LP inputs.  A step whose
inputs (H(k), X(k+1), V(k), U(k) and whether the disturbance floor
applies) are byte-identical to the next step's reuses that step's LP
solutions instead of solving the same LPs again: identical inputs give
bit-identical solutions, so the result is unchanged, and the synthesis
cost follows the number of distinct steps rather than the horizon.
Everything after the solves still runs at every step: unpacking the
gain and multipliers into fresh arrays, fixing X(k), the emptiness
probe and the certificate recheck.

Optional extensions follow the same pattern: a bounded additive
disturbance widens the multiplier blocks over the stacked (state,
disturbance) constraints, and polytopic control constraints add rows
U(k) F(k) C h <= theta(k) for every vertex h of the tube section.
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
    verify_certificates
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


def build_lp1(model: PolytopicModel, Q_now, bound_now, Q_next, bound_next,
              disturbance=None, control_rows=None) -> lp.LpProblem:
    """First-stage LP of one backward step.

    Variables, in order: defect vector (one entry per next-set row,
    nonnegative), gain entries (row-major, free), then one multiplier
    block per model vertex (row-major, nonnegative).  Equality rows tie
    each multiplier block to the gain through

        G_i [Q_now 0; 0 W] = Q_next [A_i + B_i F C  D]

    (nominal problems drop the disturbance columns), and inequality
    rows bound G_i [bound_now; gamma] <= bound_next + defect.

    ``disturbance`` is the (W, gamma) arrays of this step's V(k), which
    need the model's D map;
    ``control_rows`` is (U, theta, tube_vertices) enforcing
    U F C h <= theta at every tube-section vertex h.
    """
    Q_now = np.asarray(Q_now, dtype=float)
    Q_next = np.asarray(Q_next, dtype=float)
    bound_now = np.asarray(bound_now, dtype=float).reshape(-1)
    bound_next = np.asarray(bound_next, dtype=float).reshape(-1)
    n, m, r, s = model.n, model.m, model.r, model.s
    q0 = Q_now.shape[0]
    q1 = Q_next.shape[0]
    if Q_now.shape[1] != n or Q_next.shape[1] != n:
        raise ValueError("section matrices must have %d columns" % n)
    if bound_now.size != q0 or bound_next.size != q1:
        raise ValueError("section bound lengths do not match their matrices")

    if disturbance is not None:
        if model.D is None:
            raise ValueError("disturbance bounds given but model has no D")
        W, gamma = disturbance
        W = np.asarray(W, dtype=float)
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        p = model.p
        if W.ndim != 2 or W.shape[1] != p:
            raise ValueError("disturbance matrix W has shape %s, expected %d columns"
                             % (W.shape, p))
        qv = W.shape[0]
        if gamma.size != qv:
            raise ValueError("disturbance offsets have length %d, W has %d rows"
                             % (gamma.size, qv))
        D = model.D
    else:
        p, qv = 0, 0
        W = np.zeros((0, 0))
        gamma = np.zeros(0)
        D = np.zeros((n, 0))

    q0t = q0 + qv            # columns of each multiplier block
    nF = m * r
    nG = q1 * q0t
    nvars = q1 + nF + s * nG

    # block-diagonal section matrix and the extended data maps
    Q_ext = np.zeros((q0t, n + p))
    Q_ext[:q0, :n] = Q_now
    if qv:
        Q_ext[q0:, n:] = W
    C_ext = np.hstack([model.C, np.zeros((r, p))])
    bound_ext = np.concatenate([bound_now, gamma])

    ne = q1 * (n + p)        # equality rows per model vertex
    nc = 0                   # control rows
    if control_rows is not None:
        U, theta, section_vertices = control_rows
        U = np.asarray(U, dtype=float)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        nc = U.shape[0] * len(section_vertices)
    A_eq = np.zeros((s * ne, nvars))
    b_eq = np.empty(s * ne)
    A_in = np.zeros((s * q1 + nc, nvars))
    b_in = np.empty(s * q1 + nc)

    # the blocks shared by every model vertex
    g_cols = _kron(np.eye(q1), Q_ext.T)               # (q1*(n+p)) x nG
    g_bound = _kron(np.eye(q1), bound_ext[None, :])   # q1 x nG
    neg_eye = -np.eye(q1)
    for i, (A_i, B_i) in enumerate(model.vertices):
        eq = slice(i * ne, (i + 1) * ne)
        bnd = slice(i * q1, (i + 1) * q1)
        g = slice(q1 + nF + i * nG, q1 + nF + (i + 1) * nG)
        A_eq[eq, q1:q1 + nF] = -_kron(Q_next @ B_i, C_ext.T)
        A_eq[eq, g] = g_cols
        b_eq[eq] = (Q_next @ np.hstack([A_i, D])).reshape(-1)
        A_in[bnd, :q1] = neg_eye
        A_in[bnd, g] = g_bound
        b_in[bnd] = bound_next

    if control_rows is not None:
        row = s * q1
        for h in section_vertices:
            y = model.C @ np.asarray(h, dtype=float)
            A_in[row:row + U.shape[0], q1:q1 + nF] = _kron(U, y[None, :])
            b_in[row:row + U.shape[0]] = theta
            row += U.shape[0]

    c = np.zeros(nvars)
    c[:q1] = 1.0
    free = np.zeros(nvars, dtype=bool)
    free[q1:q1 + nF] = True
    return lp.LpProblem(c=c, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in,
                        free=free, sense=lp.MINIMIZE)


def split_lp1_solution(x, q0, q1, s, m, r, qv=0):
    """Unpack an LP1 primal vector into (defect, gain, multiplier blocks)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    q0t = q0 + qv
    nF = m * r
    nG = q1 * q0t
    eps = x[:q1].copy()
    F = x[q1:q1 + nF].reshape(m, r).copy()
    blocks = [x[q1 + nF + i * nG:q1 + nF + (i + 1) * nG].reshape(q1, q0t).copy()
              for i in range(s)]
    return eps, F, blocks


def build_lp2(multiplier_blocks, bound_now, bound_next, gamma=None,
              nonneg=False, floor_values=None) -> lp.LpProblem:
    """Second-stage LP: maximise the offset sum of the traversed set.

    Constraints: each multiplier block maps the new offsets below the
    next-set offsets (minus the fixed disturbance contribution when
    ``gamma`` is present), and the offsets stay below the tube section.
    ``nonneg`` pins the offsets at or above zero; ``floor_values`` adds
    per-row lower bounds (one vector per disturbance-image vertex).
    """
    bound_now = np.asarray(bound_now, dtype=float).reshape(-1)
    bound_next = np.asarray(bound_next, dtype=float).reshape(-1)
    q0 = bound_now.size
    width = q0
    if gamma is not None:
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        width += gamma.size
    in_rows = [np.eye(q0)]
    in_rhs = [bound_now]
    for G in multiplier_blocks:
        G = np.asarray(G, dtype=float)
        if G.shape[1] != width:
            raise ValueError("multiplier block has %d columns, expected %d"
                             % (G.shape[1], width))
        in_rows.append(G[:, :q0])
        in_rhs.append(bound_next if gamma is None
                      else bound_next - G[:, q0:] @ gamma)
    if floor_values is not None:
        for v in floor_values:
            v = np.asarray(v, dtype=float).reshape(-1)
            if v.size != q0:
                raise ValueError("floor vector length mismatch")
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
            lp1 = build_lp1(model, H.A, H.b, X_next.A, X_next.b,
                            disturbance=None if V is None else (V.A, V.b),
                            control_rows=None if U is None
                            else (U.A, U.b, section_vertices[k]))
            sol1, sol2 = lp.solve(lp1, solver), None
            if sol1.status != lp.OPTIMAL:
                raise SynthesisError(k, "stage 1", "LP is %s" % sol1.status)
        next_key = key
        eps, F, blocks = split_lp1_solution(
            sol1.x, H.nrows, X_next.nrows, model.s, model.m, model.r,
            0 if V is None else V.nrows)
        if np.max(np.abs(eps), initial=0.0) <= eps_zero_tol:
            X, provenance[k], stage = H, TUBE_EXACT, "stage 1"
        else:
            if sol2 is None:
                floors = None
                if floor:
                    floors = [H.A @ model.D @ v for v in v_vertices[k]]
                lp2 = build_lp2(blocks, H.b, X_next.b,
                                gamma=None if V is None else V.b,
                                nonneg=problem.nonneg_bounds, floor_values=floors)
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
