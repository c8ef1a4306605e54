#!/usr/bin/env python3
# The coupled-tanks case study end to end: three candidate models for
# the unknown tank-1 area, a step-response tube on both levels, gains
# from the backward recursion, then linear and nonlinear validation.
#
# The same study is available as `tubesynth demo-tanks --out DIR`, which
# also writes the plot-ready CSV files.

import numpy as np

from tubesynth import (sample_states, simulate_runs, synthesize,
                       tanks_nonlinear_simulate, verify_runs)
from tubesynth.cli import TANKS_R1, TANKS_R2, TANKS_SETPOINT, tanks_problem

problem, specs = tanks_problem(horizon=15)
model = problem.model

print("vertex models (tank-1 area unknown in {%s} m^2):"
      % ", ".join("%g" % area for area in TANKS_R1))
for (A, B), area in zip(model.vertices, TANKS_R1):
    print("  R1=%d: A_d =" % area, np.round(A, 4).tolist())

res = synthesize(problem)
print("\nsynthesis:", res.provenance)
print("traversed set at k=0:", res.sets[0].b.tolist())
print("every step certified by its LP multipliers:", res.certified)

# Linear validation: random vertex realizations from random starts in
# the first traversed set, all drawn from one generator (starts first).
rng = np.random.default_rng(0)
e0s = sample_states(res.sets[0], 50, rng)
runs = simulate_runs(model, res.gains, e0s, rng)
_, report = verify_runs(runs.states, res.sets, tol=1e-7)
print("\nlinear runs inside their traversed sets: %d/50" % report.ok.sum())

# Nonlinear validation: integrate the true tank equations for each
# candidate area and audit against the tube sections; the starts come
# from the same generator, after the linear runs.
print("\nnonlinear runs (RK4 on the tank equations):")
starts = sample_states(res.sets[0], len(TANKS_R1), rng)
errors = [tanks_nonlinear_simulate(R1, TANKS_R2, np.asarray(TANKS_SETPOINT) + e0,
                                   res.gains, TANKS_SETPOINT)
          for R1, e0 in zip(TANKS_R1, starts)]
_, report = verify_runs(np.stack(errors), problem.tube.sets, tol=1e-3)
for R1, e0, e, ok in zip(TANKS_R1, starts, errors, report.ok):
    print("  R1=%g: start error %s, inside envelopes=%s, final error %s"
          % (R1, np.round(e0, 3).tolist(), ok,
             np.round(e[-1], 5).tolist()))
