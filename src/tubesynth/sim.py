"""Closed-loop simulation, membership auditing, and the coupled-tanks plant.

The linear simulator realizes a uniformly random vertex model of the
inclusion at every step and applies the stored feedback sequence
exactly: y = C x, u = F(k) y, x+ = (A x) + (B u) (+ D v).
``simulate_runs`` steps many runs at once and draws everything from one
caller-supplied generator: first the vertex indices of every run and
step, then the disturbances v(k) in V(k) step by step.  A caller that
seeds one generator and draws the initial states X(0) from it first
(``sample_states``) reproduces every run bit for bit.  Initial states
and disturbances are Dirichlet(1, ..., 1) combinations of the set's
vertices, w_0 v_0 + w_1 v_1 + ..., so every draw lies in the set even
when it is lower-dimensional.

Every matrix-vector product on this path, in the draws, the
propagation and the audit (``verify_runs``), is a sum in column order,
M x = (M[:, 0] x_0 + M[:, 1] x_1) + ..., formed by one elementwise
multiply and one add per column over the whole row of R runs.  No BLAS
kernel is involved, so the bytes of a batch depend only on the inputs,
not on the machine's kernel or its use of fused multiply-adds; and each
run gets the bits of the same sums on Python floats.  The arrays are
held runs-last, (..., R); ``Runs`` exposes them as (R, ...) views.

The tanks plant is the usual pair of coupled water tanks: levels x1,
x2, inflow into tank 1 and outflow from tank 2, gravity-driven flow
between them.  Helpers linearize it about a level pair, discretize
exactly under a zero-order hold, and integrate the nonlinear equations
with RK4 under the sampled feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .polytope import MEMBERSHIP_TOL, PolyhedralSet, check_step_sets, step_vertices, \
    vertices
from .reach import PolytopicModel


class SimulationError(Exception):
    """The simulated state left the model's validity domain."""


@dataclass
class Runs:
    """R closed-loop runs over one horizon, indexed by a leading run axis
    (views of runs-last arrays when ``simulate_runs`` made them)."""
    states: np.ndarray                    # (R, K+1, n)
    controls: np.ndarray                  # (R, K, m)
    realized: np.ndarray                  # (R, K) vertex indices
    disturbances: Optional[np.ndarray]    # (R, K, p) or None

    def __len__(self):
        return self.states.shape[0]

    @property
    def horizon(self):
        return self.states.shape[1] - 1


def _products(M, x, out=None):
    """The rows of M x for every run, into ``out`` (a new (a, R) array by
    default).  x is (b, R), one row per coordinate, and M is (a, b), one
    matrix for every run, or (a, b, R), one per run.  Row i is
    (M[i, 0] x_0 + M[i, 1] x_1) + ..., one elementwise multiply and add
    over the R runs per column; an empty sum is 0."""
    a, b = M.shape[:2]
    if out is None:
        out = np.empty((a, x.shape[1]))
    if b == 0:
        out[...] = 0.0
        return out
    term = np.empty(x.shape[1])
    for i in range(a):
        np.multiply(M[i, 0], x[0], out=out[i])
        for j in range(1, b):
            out[i] += np.multiply(M[i, j], x[j], out=term)
    return out


def simulate_runs(model: PolytopicModel, gains: Sequence[np.ndarray], x0s, rng,
                  disturbance: Optional[Sequence[PolyhedralSet]] = None) -> Runs:
    """Run the exact closed-loop recursion for len(gains) steps from every
    row of ``x0s``, each step realizing a uniformly random vertex model.

    All draws come from the one generator ``rng``, in this order: the
    (R, K) vertex indices in one ``integers`` call, then, given the sets
    V(k), for each step k in turn the R points of V(k), as Dirichlet(1,
    ..., 1) weights over its vertices.  ``disturbance`` holds one set
    V(k) per step over the model's p disturbance coordinates (it needs a
    D map); equal sets are enumerated once, and an error names V(k).

    All runs are propagated together, each product as a column-order
    sum (see the module docstring): y = C x, u = F(k) y, then
    x+ = (A x) + (B u), then + D v.  A run that diverges is propagated
    to inf or NaN without a warning; the audit reports it.
    """
    X0 = np.asarray(x0s, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != model.n:
        raise ValueError("initial states have shape %s, model has dimension %d"
                         % (X0.shape, model.n))
    R = X0.shape[0]
    K = len(gains)
    if disturbance is not None:
        if model.D is None:
            raise ValueError("disturbance sets given but model has no D")
        check_step_sets(disturbance, K, model.p, "disturbance")
    realized = rng.integers(model.s, size=(R, K))
    V = None
    if disturbance is not None:
        V = np.empty((K, model.p, R))
        for k, verts in enumerate(step_vertices(disturbance, "disturbance set V(%d)")):
            V[k] = _hull_draw(np.array(verts), rng, R)

    # runs-last buffers: row i of X[k] is coordinate i of every run
    X = np.empty((K + 1, model.n, R))
    U = np.empty((K, model.m, R))
    X[0] = X0.T
    A_all = np.stack([A for A, _ in model.vertices], axis=-1)   # (n, n, s)
    B_all = np.stack([B for _, B in model.vertices], axis=-1)   # (n, m, s)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            F = np.asarray(gains[k], dtype=float).reshape(model.m, model.r)
            _products(F, _products(model.C, X[k]), out=U[k])
            idx = realized[:, k]
            _products(np.take(A_all, idx, axis=2), X[k], out=X[k + 1])
            X[k + 1] += _products(np.take(B_all, idx, axis=2), U[k])
            if V is not None:
                X[k + 1] += _products(model.D, V[k])
    return Runs(states=X.transpose(2, 0, 1), controls=U.transpose(2, 0, 1),
                realized=realized,
                disturbances=None if V is None else V.transpose(2, 0, 1))


def simulate_closed_loop(model: PolytopicModel, gains: Sequence[np.ndarray], x0, rng,
                         disturbance: Optional[Sequence[PolyhedralSet]] = None) -> Runs:
    """``simulate_runs`` with the single run from ``x0``."""
    return simulate_runs(model, gains, np.reshape(x0, (1, -1)), rng, disturbance)


@dataclass
class RunsReport:
    """The membership audit of R runs, one entry per run in each array.

    The amount of a step is its largest row residual max(A x - b); a
    non-finite amount (a diverged or NaN state) counts as +inf.  A step
    passes when its amount is at most the tolerance.
    """
    worst: np.ndarray                     # (R,) largest amount over the steps
    first_k: np.ndarray                   # (R,) first failing step, -1 if none
    first_row: np.ndarray                 # (R,) its residual's row, -1 if none
    first_amount: np.ndarray              # (R,) its amount, NaN if none

    @property
    def ok(self):
        return self.first_k < 0


def _residuals(P: PolyhedralSet, x):
    """The (q, R) residuals A x - b of the (n, R) points ``x``."""
    res = _products(P.A, x)
    for row, b in zip(res, P.b):
        row -= b
    return res


def verify_runs(states, sets: Sequence[PolyhedralSet], tol=MEMBERSHIP_TOL):
    """Check states[r, k] against sets[k] for every run r and step k.

    Each set's residuals A x - b are formed for all runs at once as
    column-order sums (see the module docstring).  Returns the (R, K+1)
    flags "step k of run r passes" and the RunsReport of the runs.  The
    first violation of a run is its first step with an amount above
    ``tol``, at the first row that attains that amount (the first NaN
    row, if any).
    """
    states = np.asarray(states, dtype=float)
    if len(sets) != states.shape[1]:
        raise ValueError("have %d states but %d sets" % (states.shape[1], len(sets)))
    X = np.moveaxis(states, 0, -1)        # (K+1, n, R)
    R = X.shape[2]
    amount = np.empty((len(sets), R))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, S in enumerate(sets):
            np.maximum.reduce(_residuals(S, X[k]), axis=0, out=amount[k])
        # adding 0.0 turns a -0.0 amount into 0.0: the sign of a zero from
        # a tie in np.maximum depends on its code path
        amount += 0.0
        amount[~np.isfinite(amount)] = np.inf
        inside = amount <= tol
        first_k = np.argmin(inside, axis=0)
        failed = np.flatnonzero(~inside[first_k, np.arange(R)])
        report = RunsReport(worst=np.maximum.reduce(amount, axis=0),
                            first_k=np.full(R, -1), first_row=np.full(R, -1),
                            first_amount=np.full(R, np.nan))
        report.first_k[failed] = first_k[failed]
        report.first_amount[failed] = amount[first_k[failed], failed]
        # the row of a failing step: its residuals again, for those runs
        # only (steps gathered in a set: np.unique imports numpy.ma, 1.3 MB)
        for k in set(first_k[failed].tolist()):
            runs = failed[first_k[failed] == k]
            report.first_row[runs] = np.argmax(_residuals(sets[k], X[k][:, runs]), axis=0)
    return inside.T, report


def verify_membership(states, sets: Sequence[PolyhedralSet],
                      tol=MEMBERSHIP_TOL) -> RunsReport:
    """The ``verify_runs`` report of the single run ``states``, (K+1, n)."""
    return verify_runs(np.asarray(states)[None], sets, tol)[1]


def _hull_draw(V, rng, size):
    """``size`` points of the hull of the rows of V, runs-last (d, size):
    Dirichlet(1, ..., 1) weights w over the rows, each point
    w_0 V[0] + w_1 V[1] + ... summed in that order."""
    W = rng.dirichlet(np.ones(V.shape[0]), size)
    return _products(V.T, W.T)


def sample_states(P: PolyhedralSet, count, rng):
    """``count`` random convex combinations of the vertices of P, shape
    (count, n).

    The points are not uniform over P, but each lies in it up to
    rounding, also when P is lower-dimensional (an offset shrunk to
    zero).  P must be bounded, nonempty and within the caps of
    ``vertices``, which raises ValueError past them.
    """
    return _hull_draw(np.array(vertices(P)), rng, count).T


# -- coupled tanks -------------------------------------------------------

GRAVITY = 10.0  # m/s^2
SAMPLE_TIME = 1.0  # s, of the linear models and the nonlinear runs


def tanks_linearize(R1, R2, level1, level2):
    """Continuous-time (A, B) of the tanks' error dynamics about a level pair.

    Tank areas R1, R2 (m^2); operating levels level1 > level2 (m).  The
    input matrix of the shifted controls is the identity.
    """
    if level1 <= level2:
        raise ValueError("need level1 > level2 for a valid operating point")
    L1 = np.sqrt(2.0 * GRAVITY) / R1
    L2 = np.sqrt(2.0 * GRAVITY) / R2
    factor = 0.5 / np.sqrt(level1 - level2)
    A = factor * np.array([[-L1, L1], [L2, -L2]])
    return A, np.eye(2)


# the series of _expm_series stops at a term this small relative to its
# sum, and fails after this many terms
_EXPM_TOL = 1e-14
_EXPM_MAX_TERMS = 60


def _expm_series(M):
    """Scaled-and-squared truncated Taylor series of expm(M)."""
    norm = np.max(np.sum(np.abs(M), axis=1), initial=0.0)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    Ms = M / (2.0 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, _EXPM_MAX_TERMS + 1):
        term = term @ Ms / k
        out = out + term
        if np.max(np.abs(term)) <= _EXPM_TOL * max(1.0, np.max(np.abs(out))):
            break
    else:
        raise RuntimeError("matrix exponential series did not converge "
                           "within %d terms" % _EXPM_MAX_TERMS)
    for _ in range(squarings):
        out = out @ out
    return out


def discretize_zoh(A, B, Ts):
    """Exact zero-order-hold discretization of xdot = A x + B u.

    Uses the block trick exp([[A, B], [0, 0]] Ts) whose top row holds
    (A_d, B_d); the exponential is a truncated scaled series with
    residual far below the requested sampling accuracy.
    """
    if Ts <= 0:
        raise ValueError("sampling time must be positive")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    m = B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    E = _expm_series(M * Ts)
    return E[:n, :n], E[:n, n:]


def tanks_nonlinear_simulate(R1, R2, x0, gains, setpoint, step=0.01) -> np.ndarray:
    """Integrate the nonlinear tanks under the sampled error feedback.

    ``x0`` and ``setpoint`` are physical levels (m).  The feedback acts
    on the tank-2 error only: the shifted control is F(k) e2(k), held
    over each SAMPLE_TIME interval, for len(gains) intervals; RK4
    integrates each interval in substeps of about ``step`` seconds.
    Physical flows are recovered from the shift and clipped so the pump
    never runs backwards (inflow >= 0, outflow <= 0).  A level inversion
    (x1 < x2) aborts, because the model's square root leaves its domain.

    Returns the (K+1, 2) error states, sampled every SAMPLE_TIME.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    setpoint = np.asarray(setpoint, dtype=float).reshape(2)
    if setpoint[0] <= setpoint[1]:
        raise ValueError("setpoint must have level1 > level2")
    n_steps = len(gains)
    # the integration runs on Python floats, with the stage derivatives
    # (-L1 sqrt(x1 - x2) + u1, L2 sqrt(x1 - x2) + u2) written out: the
    # same operations in the same order as on 2-vectors, without an array
    # or a call per stage
    L1 = float(np.sqrt(2.0 * GRAVITY) / R1)
    nL1 = -L1
    L2 = float(np.sqrt(2.0 * GRAVITY) / R2)
    shift = float(np.sqrt(setpoint[0] - setpoint[1]))
    s1, s2 = float(setpoint[0]), float(setpoint[1])

    states = np.zeros((n_steps + 1, 2))

    x1, x2 = float(x0[0]), float(x0[1])
    states[0] = (x1 - s1, x2 - s2)
    substeps = max(1, int(round(SAMPLE_TIME / step)))
    h = SAMPLE_TIME / substeps
    half = 0.5 * h
    sixth = h / 6.0
    sqrt = math.sqrt
    for k in range(n_steps):
        e2 = x2 - s2
        F = np.asarray(gains[k], dtype=float).reshape(2, 1)
        u_shift = (F @ np.array([e2])).reshape(2)
        # physical controls: undo the equilibrium shift, then clip so
        # inflow stays nonnegative and outflow nonpositive
        u1 = max(float(u_shift[0]) + L1 * shift, 0.0)
        u2 = min(float(u_shift[1]) - L2 * shift, 0.0)
        try:
            for _ in range(substeps):
                root = sqrt(x1 - x2)
                a1, a2 = nL1 * root + u1, L2 * root + u2
                root = sqrt((x1 + half * a1) - (x2 + half * a2))
                b1, b2 = nL1 * root + u1, L2 * root + u2
                root = sqrt((x1 + half * b1) - (x2 + half * b2))
                c1, c2 = nL1 * root + u1, L2 * root + u2
                root = sqrt((x1 + h * c1) - (x2 + h * c2))
                d1, d2 = nL1 * root + u1, L2 * root + u2
                x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
                x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        except ValueError:
            # math.sqrt of a negative level difference
            raise SimulationError("level inversion at x = %s, within step %d"
                                  % (np.array([x1, x2]), k)) from None
        states[k + 1] = (x1 - s1, x2 - s2)
    return states
