"""Correctness checks that do not trust the code under test.

Everything here is plain NumPy matrix arithmetic: no tubesynth LP, no
tubesynth vertex enumeration.  The thresholds are those of the
package's certificate-soundness acceptance criterion.
"""

import numpy as np

SIGN_TOL = 1e-10       # G >= -SIGN_TOL
EQUALITY_TOL = 1e-8    # ||G A_src - A_tgt M||_inf
BOUND_TOL = 1e-8       # max(G b_src - b_tgt)


def certificate_ok(G, src, tgt, M):
    """Does the multiplier matrix G certify M * {A_src x <= b_src} inside
    {A_tgt x <= b_tgt}?  Sign, equality and bound residuals are checked."""
    G = np.asarray(G, dtype=float)
    A1, b1 = src
    A2, b2 = tgt
    return (G.min() >= -SIGN_TOL
            and np.max(np.abs(G @ A1 - A2 @ M)) <= EQUALITY_TOL
            and np.max(G @ b1 - b2) <= BOUND_TOL)


def synthesis_ok(vertex_pairs, C, result, tube_sets):
    """Check a SynthesisResult by matrix arithmetic alone.

    Every step must carry one certificate per vertex model that passes
    the residual thresholds for X(k) -> X(k+1) under F(k), and each
    traversed set X(k) must lie in the tube section H(k).  X(k) and H(k)
    share their row matrix, so offsets no larger than H(k)'s suffice.
    """
    K = len(result.gains)
    if not result.certified or len(result.sets) != K + 1:
        return False
    for k in range(K + 1):
        X, H = result.sets[k], tube_sets[k]
        if not np.array_equal(X.A, H.A) or np.any(X.b > H.b + BOUND_TOL):
            return False
    for k in range(K):
        certs = result.step_reports[k].certificates
        if certs is None or len(certs) != len(vertex_pairs):
            return False
        F = np.asarray(result.gains[k], dtype=float)
        src = (result.sets[k].A, result.sets[k].b)
        tgt = (result.sets[k + 1].A, result.sets[k + 1].b)
        for G, (A, B) in zip(certs, vertex_pairs):
            if not certificate_ok(G, src, tgt, A + B @ F @ C):
                return False
    return True
