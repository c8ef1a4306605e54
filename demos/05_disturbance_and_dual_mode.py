#!/usr/bin/env python3
# Synthesis under a bounded additive disturbance, then holding the state
# in the terminal box forever with a static gain whose invariant set
# covers it.

import numpy as np

from tubesynth import (PolytopicModel, SynthesisProblem, TargetTube, box,
                       check_robust_invariant, sample_states, simulate_runs,
                       synthesize, verify_runs)

plant = PolytopicModel(vertices=[(0.4 * np.eye(2), np.eye(2))],
                       C=np.eye(2), D=np.eye(2))
V = box([-0.005] * 2, [0.005] * 2)

widths = (1.0, 0.5, 0.25, 0.12, 0.06, 0.03, 0.01)
K = len(widths) - 1
tube = TargetTube([box([-w] * 2, [w] * 2) for w in widths])

problem = SynthesisProblem(model=plant, tube=tube,
                           disturbance=[V] * K,
                           disturbance_floor=True)
res = synthesize(problem)
print("disturbed synthesis over %d steps: certified=%s" % (K, res.certified))
print("first traversed set offsets:", res.sets[0].b.tolist())

# A static gain for k >= K.  Its closed loop contracts by 0.2 per step,
# so the 0.02 box is robust invariant for disturbances up to 0.005, and
# it contains the terminal box.
F_hold = -0.2 * np.eye(2)
S_hold = box([-0.02] * 2, [0.02] * 2)
hold = check_robust_invariant(plant, F_hold, S_hold, V)
print("\nstatic gain invariant set certified:", hold.contained,
      " margin:", -hold.worst_violation)

# Compose: horizon gains first, the static gain afterwards, disturbances
# sampled from V at every step.  One generator draws the initial states,
# then the vertex models, then the disturbances step by step.
gains = list(res.gains) + [F_hold] * K
terminal = tube[K]

rng = np.random.default_rng(1)
x0s = sample_states(res.sets[0], 10, rng)
runs = simulate_runs(plant, gains, x0s, rng, disturbance=[V] * len(gains))
_, report = verify_runs(runs.states[:, K:], [terminal] * (K + 1), tol=1e-7)
assert report.ok.all()
worst = report.worst.max()
print("\n10 disturbed runs: state inside the terminal box for k = %d..%d,"
      " worst slack %.4f" % (K, 2 * K, -worst))
