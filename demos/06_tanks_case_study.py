#!/usr/bin/env python3
# The coupled-tanks case study end to end: three candidate models for
# the unknown tank-1 area, a step-response tube on both levels, gains
# from the backward recursion, then linear and nonlinear validation.
#
# The same study is available as `tubesynth demo-tanks --out DIR`, which
# also writes the plot-ready CSV files.

import numpy as np

from tubesynth import (RandomVertex, sample_states, simulate_closed_loop,
                       synthesize, tanks_nonlinear_simulate, verify_membership)
from tubesynth.cli import TANKS_SETPOINT, tanks_problem

problem, specs = tanks_problem(horizon=15)
model = problem.model

print("vertex models (tank-1 area unknown in {3, 4, 5} m^2):")
for (A, B), area in zip(model.vertices, (3, 4, 5)):
    print("  R1=%d: A_d =" % area, np.round(A, 4).tolist())

res = synthesize(problem)
print("\nsynthesis:", res.provenance)
print("traversed set at k=0:", res.sets[0].b.tolist())
print("every step certified by its LP multipliers:", res.certified)

# Linear validation: random vertex realizations from random starts in
# the first traversed set.
rng = np.random.default_rng(0)
ok = 0
for i, e0 in enumerate(sample_states(res.sets[0], 50, rng)):
    traj = simulate_closed_loop(model, res.gains, e0, RandomVertex(seed=i))
    ok += verify_membership(traj, res.sets, tol=1e-7).ok
print("\nlinear runs inside their traversed sets: %d/50" % ok)

# Nonlinear validation: integrate the true tank equations for each
# candidate area and audit against the tube sections.
print("\nnonlinear runs (RK4 on the tank equations):")
for j, R1 in enumerate((3.0, 4.0, 5.0)):
    e0 = sample_states(res.sets[0], 1, np.random.default_rng(7 + j))[0]
    x0 = np.asarray(TANKS_SETPOINT) + e0
    traj = tanks_nonlinear_simulate(R1, 5.0, x0, res.gains, TANKS_SETPOINT)
    rep = verify_membership(traj, list(problem.tube.sets), tol=1e-3)
    print("  R1=%g: start error %s, inside envelopes=%s, final error %s"
          % (R1, np.round(e0, 3).tolist(), rep.ok,
             np.round(traj.states[-1], 5).tolist()))
