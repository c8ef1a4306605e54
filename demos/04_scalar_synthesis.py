#!/usr/bin/env python3
# The backward recursion on two scalar systems where every step can be
# checked by hand.

import numpy as np

from tubesynth import (PolytopicModel, SynthesisProblem, TargetTube, box,
                       synthesize)

tube = TargetTube([box([-1], [1]), box([-1], [1]), box([-0.1], [0.1])])

# Controllable: x+ = 0.5 x + u with full output.  The gain can cancel
# the dynamics, so both steps keep their tube sections unchanged.
ctrl = PolytopicModel(vertices=[(np.array([[0.5]]), np.array([[1.0]]))],
                      C=np.array([[1.0]]))
res = synthesize(SynthesisProblem(model=ctrl, tube=tube))
print("controllable case")
for k in range(res.horizon):
    print("  k=%d: %-9s F=%+.3f offsets=%s" % (k, res.provenance[k],
                                               res.gains[k][0, 0],
                                               res.sets[k].b.tolist()))
print("  terminal offsets:", res.sets[-1].b.tolist())
print("  every step certified by its LP multipliers:", res.certified)

# Autonomous and expanding: x+ = 2 x.  No gain can help, so the sets
# shrink by the growth factor each backward step: 0.1 -> 0.05 -> 0.025.
auto = PolytopicModel(vertices=[(np.array([[2.0]]), np.zeros((1, 1)))],
                      C=np.array([[1.0]]))
res = synthesize(SynthesisProblem(model=auto, tube=tube))
print("\nautonomous case")
for k in range(res.horizon):
    print("  k=%d: %-7s defect=%s offsets=%s" % (k, res.provenance[k],
                                                 res.residuals[k].tolist(),
                                                 res.sets[k].b.tolist()))
print("  every step certified by its LP multipliers:", res.certified)
print("\nany start inside +-%.3f stays in the tube and ends inside +-0.1"
      % res.sets[0].b[0])
