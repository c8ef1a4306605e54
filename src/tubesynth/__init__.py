"""Feedback synthesis for time-varying polyhedral constraint tubes.

Given a discrete-time linear difference inclusion whose system matrices
range over a matrix polytope, and a sequence of polyhedral sets the
state must occupy at each step, the package computes a time-varying
linear output feedback together with a shrunken sequence of traversed
sets certifying that every admissible trajectory started inside the
first set stays inside the tube.  Certification rests on nonnegative
row-multiplier matrices taken from the synthesis LPs (or, for one-shot
checks, from support-LP duals), so every claim the synthesizer makes
can be rechecked by matrix arithmetic.
"""

from .lp import (DenseSimplexSolver, LpError, LpNumericalError, LpProblem,
                 LpSolution, LpSolver, solve)
from .polytope import (EmptySetError, PolyhedralSet, UnboundedSetError, box,
                       contains_point, is_bounded, is_empty, support_lp,
                       support_max, vertices)
from .reach import (ContainmentReport, PolytopicModel, check_containment,
                    check_containment_disturbance, check_robust_invariant,
                    verify_certificates)
from .sim import (Runs, RunsReport, SimulationError, discretize_zoh,
                  sample_states, simulate_closed_loop, simulate_runs,
                  tanks_linearize, tanks_nonlinear_simulate, verify_membership,
                  verify_runs)
from .synth import (SHRUNK, TUBE_EXACT, SynthesisError, SynthesisProblem,
                    SynthesisResult, build_lp1, build_lp2, split_lp1_solution,
                    synthesize)
from .tube import (StepSpec, TargetTube, origin_interior_margin, tube_from_envelopes,
                   tube_from_step_specs)

__version__ = "0.1.0"

__all__ = [
    "DenseSimplexSolver", "LpError", "LpNumericalError", "LpProblem",
    "LpSolution", "LpSolver", "solve",
    "EmptySetError", "PolyhedralSet", "UnboundedSetError", "box",
    "contains_point", "is_bounded", "is_empty", "support_lp", "support_max",
    "vertices",
    "ContainmentReport", "PolytopicModel", "check_containment",
    "check_containment_disturbance", "check_robust_invariant",
    "verify_certificates",
    "Runs", "RunsReport", "SimulationError", "discretize_zoh",
    "sample_states", "simulate_closed_loop", "simulate_runs",
    "tanks_linearize", "tanks_nonlinear_simulate", "verify_membership",
    "verify_runs",
    "SHRUNK", "TUBE_EXACT", "SynthesisError", "SynthesisProblem",
    "SynthesisResult", "build_lp1", "build_lp2", "split_lp1_solution",
    "synthesize",
    "StepSpec", "TargetTube", "origin_interior_margin",
    "tube_from_envelopes", "tube_from_step_specs",
]
