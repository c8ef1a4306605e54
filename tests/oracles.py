"""Independent brute-force oracles shared by the test modules.

Everything here avoids the package's LP solver and vertex routines on
purpose: enumeration is done with plain linear algebra so the oracles
stay meaningful when the code under test is wrong.
"""

from itertools import combinations

import numpy as np


def enum_vertices(A, b, feas_tol=1e-9):
    """All vertices of {x : A x <= b} by solving every n-row subsystem."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    q, n = A.shape
    out = []
    for rows in combinations(range(q), n):
        M = A[list(rows)]
        r = b[list(rows)]
        try:
            x = np.linalg.solve(M, r)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(M @ x - r)) > 1e-9 * (1.0 + np.max(np.abs(x))):
            continue
        if np.all(A @ x <= b + feas_tol):
            if not any(np.max(np.abs(x - v)) < 1e-9 for v in out):
                out.append(x)
    return out


def lp_vertex_optimum(c, A, b, sense):
    """Optimal value of c'x over the bounded region {A x <= b}."""
    vals = [float(np.dot(c, v)) for v in enum_vertices(A, b)]
    return max(vals) if sense == "max" else min(vals)


def random_bounded_set(rng, n, extra_rows=2, box_lo=(-1.5, -0.5),
                       box_hi=(0.5, 1.5), off_range=(0.3, 1.2)):
    """Rows of a bounded polyhedron with the origin strictly inside:
    a random box plus a few random cuts."""
    lo = rng.uniform(*box_lo, size=n)
    hi = rng.uniform(*box_hi, size=n)
    A = np.zeros((2 * n, n))
    b = np.zeros(2 * n)
    for i in range(n):
        A[2 * i, i] = 1.0
        b[2 * i] = hi[i]
        A[2 * i + 1, i] = -1.0
        b[2 * i + 1] = -lo[i]
    for _ in range(int(rng.integers(0, extra_rows + 1))):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        A = np.vstack([A, a])
        b = np.concatenate([b, [rng.uniform(*off_range)]])
    return A, b


def random_containment_instance(rng):
    """Random (vertices, C, F, P1 rows, P2 rows) for a containment check.

    Scales are drawn so both verdicts occur over a sample.
    """
    n = int(rng.integers(2, 4))
    s = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    r = int(rng.integers(1, 3))
    pairs = []
    for _ in range(s):
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.2, 0.9) / max(np.max(np.sum(np.abs(A), axis=1)), 1e-9)
        B = rng.normal(size=(n, m)) * 0.3
        pairs.append((A, B))
    C = rng.normal(size=(r, n))
    F = rng.normal(size=(m, r)) * 0.3
    A1, b1 = random_bounded_set(rng, n)
    A2, b2 = random_bounded_set(rng, n,
                                box_lo=(-1.2, -0.4), box_hi=(0.4, 1.2))
    return pairs, C, F, (A1, b1), (A2, b2)


def vertex_mapping_contained(pairs, C, F, src, tgt, tol=1e-7):
    """Brute-force verdict: every vertex image under every closed-loop
    vertex matrix lies in the target."""
    A2, b2 = tgt
    F = np.asarray(F, dtype=float)
    C = np.asarray(C, dtype=float)
    for A, B in pairs:
        Acl = A + B @ F @ C
        for v in enum_vertices(*src):
            if np.any(A2 @ (Acl @ v) > b2 + tol):
                return False
    return True


def point_in_convex_polygon(pt, verts, tol=1e-9):
    """2-d membership in the convex hull of ``verts`` by cross products."""
    P = np.asarray(verts, dtype=float)
    c = P.mean(axis=0)
    order = np.argsort(np.arctan2(P[:, 1] - c[1], P[:, 0] - c[0]))
    P = P[order]
    k = len(P)
    for i in range(k):
        a, bb = P[i], P[(i + 1) % k]
        edge = bb - a
        cross = edge[0] * (pt[1] - a[1]) - edge[1] * (pt[0] - a[0])
        if cross < -tol * (1.0 + np.linalg.norm(edge)):
            return False
    return True


def simulate_reference(model, gains, x0s, seeds, disturbance_sampler=None):
    """Per-run closed loop, one vector at a time: run r draws a vertex
    (then, with a sampler, a disturbance) per step from default_rng(seeds[r])
    and steps x+ = A x + B u (+ D v) with u = F(k) C x.

    Returns stacked states (R, K+1, n), controls (R, K, m) and vertex
    indices (R, K)."""
    states, controls, realized = [], [], []
    for x0, seed in zip(x0s, seeds):
        rng = np.random.default_rng(seed)
        x = np.asarray(x0, dtype=float).copy()
        xs, us, idx = [x], [], []
        for k, F in enumerate(gains):
            i = int(rng.integers(len(model.vertices)))
            A, B = model.vertices[i]
            u = F @ (model.C @ x)
            x = A @ x + B @ u
            if disturbance_sampler is not None:
                x = x + model.D @ disturbance_sampler(k, rng)
            xs.append(x)
            us.append(u)
            idx.append(i)
        states.append(xs)
        controls.append(us)
        realized.append(idx)
    return np.array(states), np.array(controls), np.array(realized)


def tanks_rk4_reference(R1, R2, x0, gains, setpoint, Ts=1.0, step=0.01,
                        gravity=10.0):
    """Nonlinear coupled tanks under held error feedback, RK4 on 2-vectors.

    The shifted control F(k) e2(k) is turned into physical flows and
    clipped (inflow >= 0, outflow <= 0).  Returns the sampled states in
    error coordinates, shape (len(gains) + 1, 2)."""
    L1 = np.sqrt(2.0 * gravity) / R1
    L2 = np.sqrt(2.0 * gravity) / R2
    setpoint = np.asarray(setpoint, dtype=float)
    shift = np.sqrt(setpoint[0] - setpoint[1])

    def deriv(x, u):
        root = np.sqrt(x[0] - x[1])
        return np.array([-L1 * root + u[0], L2 * root + u[1]])

    substeps = max(1, int(round(Ts / step)))
    h = Ts / substeps
    x = np.asarray(x0, dtype=float).copy()
    states = [x - setpoint]
    for F in gains:
        u_shift = (np.asarray(F, dtype=float).reshape(2, 1)
                   @ np.array([x[1] - setpoint[1]])).reshape(2)
        u = np.array([max(u_shift[0] + L1 * shift, 0.0),
                      min(u_shift[1] - L2 * shift, 0.0)])
        for _ in range(substeps):
            k1 = deriv(x, u)
            k2 = deriv(x + 0.5 * h * k1, u)
            k3 = deriv(x + 0.5 * h * k2, u)
            k4 = deriv(x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x - setpoint)
    return np.array(states)
