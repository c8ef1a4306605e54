"""Independent brute-force oracles shared by the test modules.

Everything here avoids the package's LP solver and vertex routines on
purpose: enumeration is done with plain linear algebra so the oracles
stay meaningful when the code under test is wrong.

The exceptions are the reference versions at the end (the names ending
in ``reference``, and ``DenseSimplexReference``): earlier, slower forms
of package routines (LP1 assembly, vertex enumeration, the simplex
pivot loop, the CSV writers) that keep the package's checks and exit
tests, so the faster forms can be held to bitwise-equal output.
"""

import csv
from itertools import combinations
from math import comb, inf, isfinite

import numpy as np

from tubesynth import lp, polytope


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


def _column_sums(M, x):
    """The rows of M x on Python floats, each summed in column order:
    (M[i][0] x[0] + M[i][1] x[1]) + ...; an empty sum is 0.0."""
    out = []
    for row in np.asarray(M, dtype=float).tolist():
        acc = row[0] * x[0] if row else 0.0
        for a, v in zip(row[1:], x[1:]):
            acc = acc + a * v
        out.append(acc)
    return out


def simulate_reference(model, gains, x0s, seed, disturbance=None):
    """Per-run closed loop on Python floats, drawing from one
    default_rng(seed) in the simulator's documented order: the (R, K)
    vertex indices first, then for each step k the R points of V(k), as
    Dirichlet(1, ..., 1) weights w over the vertices v_j of V(k) from
    enum_vertices, one run after the other, each point w_0 v_0 + w_1 v_1
    + ....  Steps x+ = (A x) + (B u) (+ D v) with u = F(k) (C x), every
    product a column-order sum.

    Returns stacked states (R, K+1, n), controls (R, K, m) and vertex
    indices (R, K)."""
    rng = np.random.default_rng(seed)
    R, K = len(x0s), len(gains)
    realized = rng.integers(len(model.vertices), size=(R, K))
    points = []                           # per step k, the R points of V(k)
    for V in disturbance or []:
        verts = np.array(enum_vertices(V.A, V.b))
        points.append([_column_sums(verts.T, rng.dirichlet(np.ones(len(verts))).tolist())
                       for _ in range(R)])
    states, controls = [], []
    for r, x0 in enumerate(x0s):
        x = np.asarray(x0, dtype=float).tolist()
        xs, us = [x], []
        for k, F in enumerate(gains):
            A, B = model.vertices[realized[r, k]]
            u = _column_sums(F, _column_sums(model.C, x))
            x = [ax + bu for ax, bu in zip(_column_sums(A, x), _column_sums(B, u))]
            if points:
                x = [xi + dv for xi, dv in zip(x, _column_sums(model.D, points[k][r]))]
            xs.append(x)
            us.append(u)
        states.append(xs)
        controls.append(us)
    return np.array(states), np.array(controls), realized


def verify_runs_reference(states, sets, tol):
    """Per-run membership audit on Python floats.  The amount of step k
    is the largest residual (A x - b)_i, each a column-order sum, or NaN
    when a residual is NaN; 0.0 is added to it, and a non-finite amount
    counts as +inf.  A step passes when its amount is at most ``tol``.

    Returns the (R, K+1) flags, the (R,) worst amounts and, per run, the
    first failing step as (k, row, amount) or None, where row is the
    first NaN residual's, else the first to attain the amount."""
    flags, worst, first = [], [], []
    for run in np.asarray(states, dtype=float):
        amounts, rows = [], []
        for x, S in zip(run.tolist(), sets):
            res = [p - b for p, b in zip(_column_sums(S.A, x), S.b.tolist())]
            nan = [i for i, v in enumerate(res) if v != v]
            amount = res[nan[0]] if nan else max(res)
            rows.append(nan[0] if nan else res.index(amount))
            amount = amount + 0.0
            amounts.append(amount if isfinite(amount) else inf)
        flags.append([a <= tol for a in amounts])
        worst.append(max(amounts))
        failing = [k for k, a in enumerate(amounts) if not a <= tol]
        first.append((failing[0], rows[failing[0]], amounts[failing[0]])
                     if failing else None)
    return np.array(flags, dtype=bool), np.array(worst), first


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


def lp1_kron_reference(model, Q_now, bound_now, Q_next, bound_next,
                       disturbance=None, control_rows=None):
    """synth.build_lp1 as per-vertex blocks of np.kron products, stacked
    with np.vstack."""
    Q_now = np.asarray(Q_now, dtype=float)
    Q_next = np.asarray(Q_next, dtype=float)
    bound_now = np.asarray(bound_now, dtype=float).reshape(-1)
    bound_next = np.asarray(bound_next, dtype=float).reshape(-1)
    n, m, r, s = model.n, model.m, model.r, model.s
    q0 = Q_now.shape[0]
    q1 = Q_next.shape[0]
    if disturbance is not None and model.D is not None and model.p > 0:
        W, gamma = disturbance
        W = np.asarray(W, dtype=float)
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        p = model.p
        qv = W.shape[0]
        D = model.D
    else:
        p, qv = 0, 0
        W = np.zeros((0, 0))
        gamma = np.zeros(0)
        D = np.zeros((n, 0))
    q0t = q0 + qv
    nF = m * r
    nG = q1 * q0t
    nvars = q1 + nF + s * nG
    Q_ext = np.zeros((q0t, n + p))
    Q_ext[:q0, :n] = Q_now
    if qv:
        Q_ext[q0:, n:] = W
    C_ext = np.hstack([model.C, np.zeros((r, p))])
    bound_ext = np.concatenate([bound_now, gamma])

    eq_rows, eq_rhs, in_rows, in_rhs = [], [], [], []
    g_cols = np.kron(np.eye(q1), Q_ext.T)
    for i, (A_i, B_i) in enumerate(model.vertices):
        block = np.zeros((q1 * (n + p), nvars))
        block[:, q1:q1 + nF] = -np.kron(Q_next @ B_i, C_ext.T)
        block[:, q1 + nF + i * nG:q1 + nF + (i + 1) * nG] = g_cols
        eq_rows.append(block)
        eq_rhs.append((Q_next @ np.hstack([A_i, D])).reshape(-1))
        bound_block = np.zeros((q1, nvars))
        bound_block[:, :q1] = -np.eye(q1)
        bound_block[:, q1 + nF + i * nG:q1 + nF + (i + 1) * nG] = \
            np.kron(np.eye(q1), bound_ext[None, :])
        in_rows.append(bound_block)
        in_rhs.append(bound_next)
    if control_rows is not None:
        U, theta, section_vertices = control_rows
        U = np.asarray(U, dtype=float)
        theta = np.asarray(theta, dtype=float).reshape(-1)
        for h in section_vertices:
            y = model.C @ np.asarray(h, dtype=float)
            block = np.zeros((U.shape[0], nvars))
            block[:, q1:q1 + nF] = np.kron(U, y[None, :])
            in_rows.append(block)
            in_rhs.append(theta)
    c = np.zeros(nvars)
    c[:q1] = 1.0
    free = np.zeros(nvars, dtype=bool)
    free[q1:q1 + nF] = True
    return lp.LpProblem(c=c, A_eq=np.vstack(eq_rows), b_eq=np.concatenate(eq_rhs),
                        A_in=np.vstack(in_rows), b_in=np.concatenate(in_rhs),
                        free=free, sense=lp.MINIMIZE)


def is_bounded_reference(P):
    """polytope.is_bounded as one support LP over P along each +-e_i:
    False at the first unbounded one; an empty P raises EmptySetError."""
    for i in range(P.dim):
        e = np.zeros(P.dim)
        for s in (1.0, -1.0):
            e[i] = s
            try:
                polytope.support_max(P, e)
            except polytope.UnboundedSetError:
                return False
        e[i] = 0.0
    return True


def vertices_loop_reference(P, max_dim=6, max_subsets=500000):
    """polytope.vertices with one np.linalg.solve per row subset: its
    caps and boundedness check, then enum_vertices."""
    n = P.dim
    q = P.nrows
    if n > max_dim:
        raise ValueError("dimension %d above the enumeration cap %d" % (n, max_dim))
    if q < n:
        raise polytope.UnboundedSetError("fewer rows than dimensions")
    if comb(q, n) > max_subsets:
        raise ValueError("row subsets %d exceed the cap %d" % (comb(q, n), max_subsets))
    if not polytope._rows_bound_every_set(P.A.shape, P.A.tobytes()):
        if polytope.is_empty(P):
            raise polytope.EmptySetError("set is empty")
        raise polytope.UnboundedSetError("vertex enumeration needs a bounded set")
    found = enum_vertices(P.A, P.b, feas_tol=polytope.VERTEX_DEDUP_TOL)
    if not found:
        raise polytope.EmptySetError("set is empty")
    return found


def trajectories_csv_reference(path, runs, inside):
    """cli.write_trajectories_csv with one %-template per row, formatted
    and written one run at a time."""
    K = runs.horizon
    n = runs.states.shape[2]
    m = runs.controls.shape[2]
    header = (["run_id", "k"] + ["x_%d" % (i + 1) for i in range(n)]
              + ["u_%d" % (i + 1) for i in range(m)] + ["realized", "membership_ok"])
    step_row = ",".join(["%d", "%d"] + ["%.17g"] * (n + m) + ["%d", "%d"]) + "\r\n"
    last_row = ",".join(["%d", "%d"] + ["%.17g"] * n + [""] * (m + 1) + ["%d"]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for rid in range(len(runs)):
            xs = runs.states[rid].tolist()
            us = runs.controls[rid].tolist()
            realized = runs.realized[rid].tolist()
            ok = inside[rid].tolist()
            fh.write("".join([step_row % (rid, k, *xs[k], *us[k], realized[k], ok[k])
                              for k in range(K)]
                             + [last_row % (rid, K, *xs[K], ok[K])]))


def envelope_csv_reference(path, spec, Ts, K, runs_by_r1, coord):
    """cli._write_envelope_csv through csv.writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        labels = sorted(runs_by_r1)
        w.writerow(["k", "lower", "upper"] + ["e%d_r1_%g" % (coord + 1, r) for r in labels])
        for k in range(K + 1):
            t = k * Ts
            row = [k, "%.17g" % spec.lower_envelope(t), "%.17g" % spec.upper_envelope(t)]
            for r in labels:
                row.append("%.17g" % runs_by_r1[r][k][coord])
            w.writerow(row)


def sets_csv_reference(path, tube_sets, traversed_sets):
    """cli._write_sets_csv through csv.writer, one enumeration per set."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "set", "vertex", "e1", "e2"])
        for k, (H, X) in enumerate(zip(tube_sets, traversed_sets)):
            for name, S in (("H", H), ("X", X)):
                for j, v in enumerate(polytope.vertices(S)):
                    w.writerow([k, name, j, "%.17g" % v[0], "%.17g" % v[1]])


class DenseSimplexReference(lp.DenseSimplexSolver):
    """The dense simplex with a list basis, Python loops for the tableau
    set-up and extraction, and np.outer in the pivot update."""

    def _pivot(self, T, basis, row, col):
        piv = T[row, col]
        if abs(piv) < lp.PIVOT_TOL:
            raise lp.LpNumericalError("pivot %g below tolerance" % piv)
        T[row] /= piv
        colvals = T[:, col].copy()
        colvals[row] = 0.0
        T -= np.outer(colvals, T[row])
        T[:, col] = 0.0
        T[row, col] = 1.0
        basis[row] = col

    def _iterate(self, T, basis, allowed, max_iter):
        m = T.shape[0] - 1
        it = 0
        while True:
            red = T[-1, :-1]
            candidates = np.nonzero(allowed & (red < -lp.REDUCED_COST_TOL))[0]
            if candidates.size == 0:
                return lp.OPTIMAL, it
            col = int(candidates[0])
            colvals = T[:m, col]
            rhs = T[:m, -1]
            eligible = colvals > lp.PIVOT_TOL
            if not np.any(eligible):
                return lp.UNBOUNDED, it
            ratios = np.full(m, np.inf)
            ratios[eligible] = np.maximum(rhs[eligible], 0.0) / colvals[eligible]
            rmin = ratios.min()
            tie = ratios <= rmin + 1e-12 * (1.0 + abs(rmin))
            rows = np.nonzero(tie)[0]
            row = int(rows[np.argmin(np.asarray(basis)[rows])])
            self._pivot(T, basis, row, col)
            it += 1
            if it > max_iter:
                raise lp.LpNumericalError("iteration limit %d exceeded" % max_iter)

    def solve(self, problem):
        n = problem.nvars
        free = problem.free
        nfree = int(free.sum())
        plus_col = np.arange(n) + np.concatenate([[0], np.cumsum(free[:-1])])
        minus_col = np.where(free, plus_col + 1, -1)
        nx = n + nfree

        def expand(A):
            if A.shape[0] == 0:
                return np.zeros((0, nx))
            out = np.zeros((A.shape[0], nx))
            out[:, plus_col] = A
            out[:, minus_col[free]] = -A[:, free]
            return out

        sense_sign = 1.0 if problem.sense == lp.MINIMIZE else -1.0
        c_int = np.zeros(nx)
        c_int[plus_col] = sense_sign * problem.c
        c_int[minus_col[free]] = -sense_sign * problem.c[free]
        me = problem.A_eq.shape[0]
        mi = problem.A_in.shape[0]
        m = me + mi
        A = np.vstack([expand(problem.A_eq), expand(problem.A_in)])
        b = np.concatenate([problem.b_eq, problem.b_in])
        slack_col = nx + np.arange(mi)
        A = np.hstack([A, np.zeros((m, mi))])
        for i in range(mi):
            A[me + i, slack_col[i]] = 1.0
        sigma = np.where(b < 0.0, -1.0, 1.0)
        A *= sigma[:, None]
        b = b * sigma
        ncols = nx + mi
        basis = [-1] * m
        needs_art = []
        for i in range(m):
            if i >= me and sigma[i] > 0.0:
                basis[i] = int(slack_col[i - me])
            else:
                needs_art.append(i)
        art_col = {}
        for i in needs_art:
            art_col[i] = ncols
            ncols += 1
        art_start = nx + mi
        T = np.zeros((m + 1, ncols + 1))
        T[:m, :nx + mi] = A
        T[:m, -1] = b
        for i, j in art_col.items():
            T[i, j] = 1.0
            basis[i] = j
        max_iter = 500 * (m + ncols + 10)
        if art_col:
            T[-1, :] = 0.0
            T[-1, list(art_col.values())] = 1.0
            for i in art_col:
                T[-1, :] -= T[i, :]
            allowed = np.ones(ncols, dtype=bool)
            status, it1 = self._iterate(T, basis, allowed, max_iter)
            if status != lp.OPTIMAL:
                raise lp.LpNumericalError("phase 1 cannot be unbounded")
            if -T[-1, -1] > lp.FEASIBILITY_TOL:
                return lp.LpSolution(status=lp.INFEASIBLE, iterations=it1)
            for i in range(m):
                if basis[i] >= art_start:
                    row_struct = np.abs(T[i, :art_start])
                    nz = np.nonzero(row_struct > 1e-9)[0]
                    if nz.size:
                        self._pivot(T, basis, i, int(nz[0]))
        else:
            it1 = 0
        T[-1, :] = 0.0
        T[-1, :nx] = c_int
        for i in range(m):
            cb = c_int[basis[i]] if basis[i] < nx else 0.0
            if cb != 0.0:
                T[-1, :] -= cb * T[i, :]
        allowed = np.ones(ncols, dtype=bool)
        allowed[art_start:] = False
        status, it2 = self._iterate(T, basis, allowed, max_iter)
        if status == lp.UNBOUNDED:
            return lp.LpSolution(status=lp.UNBOUNDED, iterations=it1 + it2)
        x_full = np.zeros(ncols)
        for i in range(m):
            # a negative basic value is round-off (-0.0 and NaN pass)
            x_full[basis[i]] = max(T[i, -1], 0.0)
        x = x_full[plus_col].copy()
        x[free] -= x_full[minus_col[free]]
        objective = float(problem.c @ x)
        y = np.zeros(m)
        for i in range(m):
            j0 = art_col[i] if i in art_col else slack_col[i - me]
            y[i] = -T[-1, j0]
        y_user = sigma * y
        if problem.sense == lp.MAXIMIZE:
            y_user = -y_user
        duals_eq = y_user[:me].copy()
        duals_in = y_user[me:].copy()
        self._verify(problem, x, objective, duals_eq, duals_in)
        return lp.LpSolution(status=lp.OPTIMAL, x=x, objective=objective,
                             duals_eq=duals_eq, duals_in=duals_in,
                             iterations=it1 + it2)
