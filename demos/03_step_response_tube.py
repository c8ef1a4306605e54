#!/usr/bin/env python3
# Turning classic step-response requirements into a polyhedral tube.

import numpy as np

from tubesynth import StepSpec, tube_from_step_specs

# One output channel: reach the setpoint within 0.05 by t = 5 s, settle
# within 0.01 by t = 10 s, never overshoot past 0.01, starting anywhere
# above -0.5.
spec = StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.05,
                settle_time=10.0, settle_tol=0.01, overshoot=0.01,
                initial_lower=-0.5, sample_time=1.0)

K = 15
t = tube_from_step_specs([spec], np.array([[1.0]]), K)

print("sampled envelopes (output row 1):")
print("  k   lower     upper")
for k in range(K + 1):
    lo = -t[k].b[1]
    up = t[k].b[0]
    print("  %2d  %+ .4f  %+ .4f" % (k, lo, up))

print("\nterminal set offsets:", t[t.horizon].b)
print("rows per step:", t[0].nrows, "(two per constrained output)")

# The same builder handles several outputs with different tolerances;
# each contributes its own pair of rows.
specs = [spec,
         StepSpec(setpoint=0.0, rise_time=5.0, rise_tol=0.10,
                  settle_time=10.0, settle_tol=0.01, overshoot=0.01,
                  initial_lower=-0.3, sample_time=1.0)]
t2 = tube_from_step_specs(specs, np.eye(2), K)
print("\ntwo-output tube at k=0:", t2[0].b)
print("two-output tube at k=%d:" % K, t2[K].b)
