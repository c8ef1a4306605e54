import numpy as np
import pytest

from tubesynth import tube
from tubesynth.polytope import contains_point, is_bounded


def reference_spec(**overrides):
    base = dict(setpoint=0.0, rise_time=5.0, rise_tol=0.05, settle_time=10.0,
                settle_tol=0.01, overshoot=0.01, initial_lower=-0.5,
                sample_time=1.0)
    base.update(overrides)
    return tube.StepSpec(**base)


def test_envelope_samples():
    s = reference_spec()
    # the overshoot equals the settling tolerance, so the upper envelope
    # is flat, and the lower one is piecewise linear through the spec points
    assert all(s.upper_envelope(k) == pytest.approx(0.01) for k in range(16))
    expected = {0: -0.5, 2: -0.32, 5: -0.05, 7: -0.034, 10: -0.01, 15: -0.01}
    for k, v in expected.items():
        assert s.lower_envelope(k) == pytest.approx(v, abs=1e-12)


def test_step_spec_validation():
    with pytest.raises(ValueError):
        reference_spec(settle_tol=0.2)           # settle above rise tolerance
    with pytest.raises(ValueError):
        reference_spec(rise_time=11.0)           # rise after settling
    with pytest.raises(ValueError):
        reference_spec(overshoot=0.001)          # tighter than steady state
    with pytest.raises(ValueError):
        reference_spec(sample_time=0.0)


def test_tube_from_step_specs_samples_and_terminal_box():
    t = tube.tube_from_step_specs([reference_spec()], np.array([[1.0]]), K=15)
    assert t.horizon == 15
    for k, v in {0: 0.5, 2: 0.32, 5: 0.05, 7: 0.034, 10: 0.01}.items():
        assert t[k].b[0] == pytest.approx(0.01)
        assert t[k].b[1] == pytest.approx(v, abs=1e-12)
    # terminal set is the steady-state box
    last = t[t.horizon]
    assert np.allclose(last.b, 0.01)
    assert contains_point(last, [0.0], tol=0.0)


def test_horizon_must_cover_settling_time():
    with pytest.raises(ValueError):
        tube.tube_from_step_specs([reference_spec()], np.array([[1.0]]), K=8)


def test_constant_envelopes_on_two_outputs():
    # y1 = x1 + x2 and y2 = x2 - x1, both within +-1 at every step
    C = np.array([[1.0, 1.0], [-1.0, 1.0]])
    t = tube.tube_from_envelopes([[1, 1], [1, 1]], [[-1, -1], [-1, -1]], C, K=1)
    assert t[0].A.tolist() == [[1, 1], [-1, -1], [-1, 1], [1, -1]]
    assert t[0].b.tolist() == [1, 1, 1, 1]
    assert np.array_equal(t[0].A, t[1].A)
    assert np.array_equal(t[0].b, t[1].b)


def test_two_step_scalar_tube():
    t = tube.tube_from_envelopes([[1.0, 0.5]], [[-1.0, -0.5]], np.array([[1.0]]), K=1)
    assert t[0].b.tolist() == [1.0, 1.0]
    assert t[1].b.tolist() == [0.5, 0.5]


def test_crossing_envelopes_rejected():
    with pytest.raises(ValueError):
        tube.tube_from_envelopes([[1, 1, 1, 1]], [[-1, -1, -1, 1]],
                                 np.array([[1.0]]), K=3)
    with pytest.raises(ValueError):
        tube.tube_from_envelopes([[1, 1]], [[-1]], np.array([[1.0]]), K=1)


def test_builder_tubes_are_monotone_and_origin_interior():
    specs = [reference_spec(), reference_spec(rise_tol=0.1, initial_lower=-0.3)]
    t = tube.tube_from_step_specs(specs, np.eye(2), K=15)
    # lower envelope rises, upper falls, so offsets shrink monotonically
    for k in range(15):
        assert np.all(t[k + 1].b <= t[k].b + 1e-12)
    # constraint count: two rows per constrained output
    assert all(t[k].nrows == 4 for k in range(16))
    assert tube.origin_interior_margin(t) >= 1e-9
    assert all(is_bounded(S) for S in t.sets)


def test_setpoint_shifts_bounds():
    s = reference_spec(setpoint=2.0)
    t = tube.tube_from_step_specs([s], np.array([[1.0]]), K=15)
    assert t[15].b[0] == pytest.approx(2.01)     # x <= setpoint + tol
    assert t[15].b[1] == pytest.approx(-1.99)    # -x <= -(setpoint - tol)
    assert contains_point(t[15], [2.0], tol=0.0)


def test_target_tube_validation():
    from tubesynth.polytope import box
    with pytest.raises(ValueError):
        tube.TargetTube([])
    with pytest.raises(ValueError):
        tube.TargetTube([box([-1], [1]), box([-1, -1], [1, 1])])


def test_spec_count_and_sample_time_mismatches():
    s = reference_spec()
    with pytest.raises(ValueError):
        tube.tube_from_step_specs([s], np.eye(2), K=15)
    other = reference_spec(sample_time=0.5)
    with pytest.raises(ValueError):
        tube.tube_from_step_specs([s, other], np.eye(2), K=30)
