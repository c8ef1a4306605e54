"""Time-varying polyhedral constraint tubes.

A tube is a finite sequence of polyhedral sets H(0), ..., H(K); the
last one is the terminal target.  Besides the generic constructor from
sampled envelopes there is a builder that turns classic step-response
requirements (rise time, settling time, overshoot, steady-state error)
into per-step output bounds.

Envelope shapes used by the step-spec builder:

* upper bound: the overshoot limit until the settling time, the
  steady-state tolerance afterwards (a one-step staircase);
* lower bound: piecewise linear through (0, initial value),
  (rise time, -rise tolerance), (settling time, -settling tolerance),
  constant afterwards.

These are the loosest envelopes that still imply the named specs; a
caller wanting a different shape can sample its own envelopes and use
``tube_from_envelopes`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .polytope import PolyhedralSet


@dataclass
class TargetTube:
    """Sets H(k) for k = 0..K, all in the same state space."""

    sets: List[PolyhedralSet]

    def __post_init__(self):
        if len(self.sets) < 1:
            raise ValueError("tube needs at least one set")
        n = self.sets[0].dim
        if any(s.dim != n for s in self.sets):
            raise ValueError("tube sets live in different dimensions")

    @property
    def horizon(self):
        return len(self.sets) - 1

    @property
    def dim(self):
        return self.sets[0].dim

    def __getitem__(self, k) -> PolyhedralSet:
        return self.sets[k]


def origin_interior_margin(t: TargetTube) -> float:
    """Smallest normalized slack of the origin over all rows and steps.

    Positive means the origin is strictly inside every H(k), the second
    prerequisite of the existence guarantee.
    """
    margin = np.inf
    for s in t.sets:
        norms = np.max(np.abs(s.A), axis=1)
        margin = min(margin, float(np.min(s.b / norms)))
    return margin


@dataclass
class StepSpec:
    """Step-response requirements for one output channel.

    setpoint      : value the output should reach and hold
    rise_time     : time by which the output is within rise_tol of it
    rise_tol      : tolerance at the rise time
    settle_time   : time by which the output is within settle_tol
    settle_tol    : steady-state tolerance
    overshoot     : largest excursion above the setpoint allowed
    initial_lower : lower envelope value at t = 0
    sample_time   : spacing of the envelope samples
    """

    setpoint: float
    rise_time: float
    rise_tol: float
    settle_time: float
    settle_tol: float
    overshoot: float
    initial_lower: float
    sample_time: float

    def __post_init__(self):
        if not (0.0 < self.rise_time <= self.settle_time):
            raise ValueError("need 0 < rise_time <= settle_time")
        if self.settle_tol > self.rise_tol:
            raise ValueError("settle_tol must not exceed rise_tol")
        if self.overshoot < self.settle_tol:
            raise ValueError("overshoot bound below the settling tolerance")
        if self.sample_time <= 0.0:
            raise ValueError("sample_time must be positive")

    def upper_envelope(self, t):
        return self.overshoot if t < self.settle_time else self.settle_tol

    def lower_envelope(self, t):
        if t >= self.settle_time:
            return -self.settle_tol
        if t >= self.rise_time:
            frac = (t - self.rise_time) / (self.settle_time - self.rise_time)
            return -self.rise_tol + frac * (self.rise_tol - self.settle_tol)
        frac = t / self.rise_time
        return self.initial_lower + frac * (-self.rise_tol - self.initial_lower)


def tube_from_envelopes(upper: Sequence[Sequence[float]],
                        lower: Sequence[Sequence[float]],
                        C, K: int) -> TargetTube:
    """Tube from sampled output envelopes.

    ``upper[i]`` and ``lower[i]`` are the K+1 samples bounding output
    row i of C; each step contributes the rows C_i x <= upper and
    -C_i x <= -lower.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    r = C.shape[0]
    if len(upper) != r or len(lower) != r:
        raise ValueError("need one envelope pair per output row")
    up = [np.asarray(u, dtype=float).reshape(-1) for u in upper]
    lo = [np.asarray(l, dtype=float).reshape(-1) for l in lower]
    for i in range(r):
        if up[i].size != K + 1 or lo[i].size != K + 1:
            raise ValueError("envelope %d does not have %d samples" % (i, K + 1))
        if np.any(lo[i] >= up[i]):
            k = int(np.argmax(lo[i] >= up[i]))
            raise ValueError("envelopes cross at output %d, step %d" % (i, k))
    sets = []
    for k in range(K + 1):
        A = np.vstack([np.vstack([C[i], -C[i]]) for i in range(r)])
        b = np.concatenate([[up[i][k], -lo[i][k]] for i in range(r)])
        sets.append(PolyhedralSet(A, b))
    return TargetTube(sets)


def tube_from_step_specs(specs: Sequence[StepSpec], C, K: int) -> TargetTube:
    """Tube encoding one StepSpec per output row of C.

    The bounds are the sampled envelopes shifted by the setpoint:
    lower(k Ts) <= C_i x - setpoint_i <= upper(k Ts).  The horizon must
    cover the settling time, so the terminal set is the steady-state
    box.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if len(specs) != C.shape[0]:
        raise ValueError("need one spec per output row")
    Ts = specs[0].sample_time
    if any(s.sample_time != Ts for s in specs):
        raise ValueError("specs disagree on the sample time")
    if K * Ts < max(s.settle_time for s in specs):
        raise ValueError("horizon %g s shorter than the settling time" % (K * Ts))
    upper = []
    lower = []
    for s in specs:
        ts = np.arange(K + 1) * Ts
        upper.append([s.upper_envelope(t) + s.setpoint for t in ts])
        lower.append([s.lower_envelope(t) + s.setpoint for t in ts])
    return tube_from_envelopes(upper, lower, C, K)
