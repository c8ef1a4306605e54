"""Closed-loop simulation, membership auditing, and the coupled-tanks plant.

The linear simulator draws a realization of the inclusion at every
step according to a policy (a fixed vertex, a random vertex, or a
random point of the matrix hull) and applies the stored feedback
sequence exactly: y = C x, u = F(k) y, x+ = A x + B u (+ D v).
``simulate_runs`` steps many runs at once; each run draws from its own
generator seeded by its policy, so a run is the same alone
(``simulate_closed_loop``) or in a batch, and one seed reproduces it
bit for bit.  ``verify_runs`` audits every run and step from one
product A_k x each.  ``sample_states`` draws initial states, and
``simulate_runs`` the disturbances v(k) in V(k), as Dirichlet(1, ...,
1) combinations of the set's vertices, so every draw lies in the set
even when it is lower-dimensional.

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

from .polytope import PolyhedralSet, check_step_sets, step_vertices, vertices
from .reach import PolytopicModel


class SimulationError(Exception):
    """The simulated state left the model's validity domain."""


@dataclass
class FixedVertex:
    """Always realize vertex ``index`` of the inclusion."""
    index: int


@dataclass
class RandomVertex:
    """Pick an independent uniformly random vertex at every step."""
    seed: int = 0


@dataclass
class RandomConvex:
    """Pick independent random hull weights at every step."""
    seed: int = 0


@dataclass
class Trajectory:
    states: np.ndarray                    # (K+1, n)
    controls: np.ndarray                  # (K, m)
    realized: list                        # per step: vertex index or weights
    disturbances: Optional[np.ndarray]    # (K, p) or None
    overflow: bool = False

    @property
    def horizon(self):
        return self.states.shape[0] - 1


def _weights(policy, rng, s):
    if isinstance(policy, FixedVertex):
        if not 0 <= policy.index < s:
            raise ValueError("vertex index %d out of range" % policy.index)
        return policy.index
    if isinstance(policy, RandomVertex):
        return int(rng.integers(s))
    if isinstance(policy, RandomConvex):
        return rng.dirichlet(np.ones(s))
    raise TypeError("unknown realization policy %r" % (policy,))


def _realize(policy, s, K, v_vertices):
    """One run's draws from its own generator, in the order the step
    recursion consumes them: the realization of step k, then (given the
    vertex arrays of the V(k)) a point of V(k).  Returns (K,) vertex
    indices or (K, s) hull weights, and the (K, p) disturbances or None."""
    rng = np.random.default_rng(getattr(policy, "seed", 0))
    if v_vertices is None and isinstance(policy, RandomVertex):
        # one call yields the same stream as K single draws
        return rng.integers(s, size=K), None
    realized = []
    disturbances = []
    for k in range(K):
        realized.append(_weights(policy, rng, s))
        if v_vertices is not None:
            disturbances.append(_hull_draw(v_vertices[k], rng))
    return (np.array(realized),
            np.array(disturbances) if v_vertices is not None else None)


@dataclass
class Runs:
    """R closed-loop runs over one horizon, stacked along a leading run axis."""
    states: np.ndarray                    # (R, K+1, n)
    controls: np.ndarray                  # (R, K, m)
    realized: np.ndarray                  # (R, K) vertex indices or (R, K, s) weights
    disturbances: Optional[np.ndarray]    # (R, K, p) or None

    def __len__(self):
        return self.states.shape[0]

    @property
    def horizon(self):
        return self.states.shape[1] - 1

    def trajectory(self, r) -> Trajectory:
        """Run r as a Trajectory (arrays are views into the stack)."""
        realized = self.realized[r]
        return Trajectory(
            states=self.states[r], controls=self.controls[r],
            realized=realized.tolist() if realized.ndim == 1 else list(realized),
            disturbances=None if self.disturbances is None else self.disturbances[r])


def simulate_runs(model: PolytopicModel, gains: Sequence[np.ndarray], x0s,
                  policies: Sequence,
                  disturbance: Optional[Sequence[PolyhedralSet]] = None) -> Runs:
    """Run the exact closed-loop recursion for len(gains) steps from every
    row of ``x0s``, run r realizing ``policies[r]``.

    Each run draws from its own ``default_rng(policy.seed)``, so a run's
    states do not depend on the other runs.  ``disturbance`` holds one
    set V(k) per step over the model's p disturbance coordinates (it
    needs a D map); right after step k's realization the run draws v(k)
    from the same generator as Dirichlet(1, ..., 1) weights over the
    vertices of V(k), which are enumerated once per distinct set.

    All runs are propagated together: the stacked products
    ``np.matmul(A[idx], x[..., None])`` give bit for bit the per-run
    ``A @ x``, which ``X @ A.T`` would not.  The policies must all
    realize vertices (FixedVertex, RandomVertex) or all hull weights
    (RandomConvex).
    """
    X0 = np.asarray(x0s, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != model.n:
        raise ValueError("initial states have shape %s, model has dimension %d"
                         % (X0.shape, model.n))
    if len(policies) != X0.shape[0]:
        raise ValueError("have %d initial states but %d policies"
                         % (X0.shape[0], len(policies)))
    K = len(gains)
    v_vertices = None
    if disturbance is not None:
        if model.D is None:
            raise ValueError("disturbance sets given but model has no D")
        check_step_sets(disturbance, K, model.p, "disturbance")
        v_vertices = [np.array(v) for v in step_vertices(disturbance)]
    draws = [_realize(policy, model.s, K, v_vertices) for policy in policies]
    realized = np.stack([w for w, _ in draws])
    disturbances = np.stack([v for _, v in draws]) if v_vertices is not None else None

    R = X0.shape[0]
    states = np.empty((R, K + 1, model.n))
    controls = np.empty((R, K, model.m))
    if realized.ndim == 2:
        A_stack = np.array([A for A, _ in model.vertices])
        B_stack = np.array([B for _, B in model.vertices])
    x = X0[..., None]                     # (R, n, 1): one column per run
    states[:, 0] = X0
    for k in range(K):
        if realized.ndim == 2:
            A = A_stack[realized[:, k]]
            B = B_stack[realized[:, k]]
        else:
            A = np.array([sum(wi * Ai for wi, (Ai, _) in zip(w, model.vertices))
                          for w in realized[:, k]])
            B = np.array([sum(wi * Bi for wi, (_, Bi) in zip(w, model.vertices))
                          for w in realized[:, k]])
        F = np.asarray(gains[k], dtype=float).reshape(model.m, model.r)
        u = np.matmul(F, np.matmul(model.C, x))
        x = np.matmul(A, x) + np.matmul(B, u)
        if disturbances is not None:
            x = x + np.matmul(model.D, disturbances[:, k, :, None])
        controls[:, k] = u[..., 0]
        states[:, k + 1] = x[..., 0]
    return Runs(states=states, controls=controls, realized=realized,
                disturbances=disturbances)


def simulate_closed_loop(model: PolytopicModel, gains: Sequence[np.ndarray], x0,
                         policy,
                         disturbance: Optional[Sequence[PolyhedralSet]] = None
                         ) -> Trajectory:
    """Run the exact closed-loop recursion for len(gains) steps.

    ``disturbance`` is one set V(k) per step, drawn from the policy's
    generator so one seed reproduces the whole run.  This is
    ``simulate_runs`` with a single run.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != model.n:
        raise ValueError("x0 has dimension %d, model has %d" % (x0.size, model.n))
    return simulate_runs(model, gains, x0[None], [policy],
                         disturbance).trajectory(0)


@dataclass
class MembershipReport:
    ok: bool
    first_violation: Optional[tuple]      # (k, row, amount) or None
    worst: float                          # max over steps of max row residual


def verify_runs(states, sets: Sequence[PolyhedralSet], tol=1e-7):
    """Check states[r, k] against sets[k] for every run r and step k.

    The products A_k x are formed once per (run, step).  Returns the
    (R, K+1) flags ``A x <= b + tol`` and one MembershipReport per run,
    whose first violation is the first step with max(A x - b) > tol.
    A step with a non-finite residual (a diverged or NaN state) is a
    violation of amount +inf.
    """
    states = np.asarray(states, dtype=float)
    if len(sets) != states.shape[1]:
        raise ValueError("have %d states but %d sets" % (states.shape[1], len(sets)))
    R, steps = states.shape[:2]
    inside = np.empty((R, steps), dtype=bool)
    row_max = np.empty((R, steps))
    row_arg = np.empty((R, steps), dtype=int)
    for k, S in enumerate(sets):
        products = np.matmul(S.A, states[:, k, :, None])[..., 0]
        inside[:, k] = np.all(products <= S.b + tol, axis=1)
        resid = products - S.b
        row_max[:, k] = resid.max(axis=1)
        row_arg[:, k] = resid.argmax(axis=1)
    row_max[~np.isfinite(row_max)] = np.inf
    worst = np.fmax.reduce(row_max, axis=1, initial=-np.inf)
    violated = row_max > tol
    first_k = violated.argmax(axis=1)
    reports = []
    for r in range(R):
        first = None
        if violated[r, first_k[r]]:
            k = int(first_k[r])
            first = (k, int(row_arg[r, k]), float(row_max[r, k]))
        reports.append(MembershipReport(ok=first is None, first_violation=first,
                                        worst=float(worst[r])))
    return inside, reports


def verify_membership(traj: Trajectory, sets: Sequence[PolyhedralSet],
                      tol=1e-7) -> MembershipReport:
    """Check states[k] against sets[k] for every k; report the first miss."""
    states = traj.states if isinstance(traj, Trajectory) else traj
    return verify_runs(np.asarray(states)[None], sets, tol)[1][0]


def _hull_draw(V, rng, size=None):
    """Dirichlet(1, ..., 1) weights over the rows of V, applied to V: one
    point of their hull, or ``size`` points stacked."""
    return rng.dirichlet(np.ones(V.shape[0]), size) @ V


def sample_states(P: PolyhedralSet, count, rng):
    """``count`` random convex combinations of the vertices of P, shape
    (count, n).

    The points are not uniform over P, but each lies in it up to
    rounding, also when P is lower-dimensional (an offset shrunk to
    zero).  P must be bounded, nonempty and within the caps of
    ``vertices``, which raises ValueError past them.
    """
    return _hull_draw(np.array(vertices(P)), rng, count)


# -- coupled tanks -------------------------------------------------------

GRAVITY = 10.0  # m/s^2
TANK_HEIGHT = 3.0  # m
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


def _expm_series(M, tol=1e-14, max_terms=60):
    """Scaled-and-squared truncated Taylor series of expm(M)."""
    norm = np.max(np.sum(np.abs(M), axis=1), initial=0.0)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    Ms = M / (2.0 ** squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, max_terms + 1):
        term = term @ Ms / k
        out = out + term
        if np.max(np.abs(term)) <= tol * max(1.0, np.max(np.abs(out))):
            break
    else:
        raise RuntimeError("matrix exponential series did not converge "
                           "within %d terms" % max_terms)
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


def tanks_nonlinear_simulate(R1, R2, x0, gains, setpoint, step=0.01) -> Trajectory:
    """Integrate the nonlinear tanks under the sampled error feedback.

    ``x0`` and ``setpoint`` are physical levels (m).  The feedback acts
    on the tank-2 error only: the shifted control is F(k) e2(k), held
    over each SAMPLE_TIME interval, for len(gains) intervals; RK4
    integrates each interval in substeps of about ``step`` seconds.
    Physical flows are recovered from the shift and clipped so the pump
    never runs backwards (inflow >= 0, outflow <= 0).  Levels above the
    tank height set the overflow flag; a level inversion (x1 < x2)
    aborts, because the model's square root leaves its domain.

    Returns the trajectory in error coordinates, sampled every SAMPLE_TIME.
    """
    x0 = np.asarray(x0, dtype=float).reshape(2)
    setpoint = np.asarray(setpoint, dtype=float).reshape(2)
    if setpoint[0] <= setpoint[1]:
        raise ValueError("setpoint must have level1 > level2")
    n_steps = len(gains)
    # the integration runs on Python floats: the same operations in the
    # same order as on 2-vectors, without an array per stage
    L1 = float(np.sqrt(2.0 * GRAVITY) / R1)
    L2 = float(np.sqrt(2.0 * GRAVITY) / R2)
    shift = float(np.sqrt(setpoint[0] - setpoint[1]))
    s1, s2 = float(setpoint[0]), float(setpoint[1])

    def deriv(x1, x2, u1, u2):
        d = x1 - x2
        if d < 0.0:
            raise SimulationError("level inversion at x = %s" % np.array([x1, x2]))
        root = math.sqrt(d)
        return -L1 * root + u1, L2 * root + u2

    states = np.zeros((n_steps + 1, 2))
    controls = np.zeros((n_steps, 2))
    overflow = False

    x1, x2 = float(x0[0]), float(x0[1])
    states[0] = (x1 - s1, x2 - s2)
    substeps = max(1, int(round(SAMPLE_TIME / step)))
    h = SAMPLE_TIME / substeps
    half = 0.5 * h
    sixth = h / 6.0
    for k in range(n_steps):
        e2 = x2 - s2
        F = np.asarray(gains[k], dtype=float).reshape(2, 1)
        u_shift = (F @ np.array([e2])).reshape(2)
        controls[k] = u_shift
        # physical controls: undo the equilibrium shift, then clip so
        # inflow stays nonnegative and outflow nonpositive
        u1 = max(float(u_shift[0]) + L1 * shift, 0.0)
        u2 = min(float(u_shift[1]) - L2 * shift, 0.0)
        for _ in range(substeps):
            a1, a2 = deriv(x1, x2, u1, u2)
            b1, b2 = deriv(x1 + half * a1, x2 + half * a2, u1, u2)
            c1, c2 = deriv(x1 + half * b1, x2 + half * b2, u1, u2)
            d1, d2 = deriv(x1 + h * c1, x2 + h * c2, u1, u2)
            x1 = x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
            x2 = x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        if x1 > TANK_HEIGHT or x2 > TANK_HEIGHT:
            overflow = True
        states[k + 1] = (x1 - s1, x2 - s2)
    return Trajectory(states=states, controls=controls, realized=[None] * n_steps,
                      disturbances=None, overflow=overflow)
