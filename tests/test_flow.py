"""Integral-curve tracing against closed forms and an independent integrator."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from currentlab import (DEFAULT, CurrentLabError, Hypersurface,
                        SpacetimePoint, StepUnderflowError, Termination,
                        crossing_events, seed_congruence, trace_curve)
from currentlab.flow import trace_curves

from helpers import (SCENARIOS, TWO_PI, make_packet, point_at_refined,
                     resampled)


def reference_endpoint(packet, start, s_max, rtol=1e-12):
    sol = solve_ivp(lambda s, y: packet.current_at(y[0], y[1]),
                    (0.0, s_max), [start[0], start[1]],
                    rtol=rtol, atol=1e-13, dense_output=True)
    assert sol.success
    return sol.sol(s_max)


def test_constant_field_exact_endpoint():
    packet = make_packet([(2, 1.0 - 0.5j)], mass=0.7)
    j0, j1 = packet.current_at(0.0, 0.0)
    s_max = 7.5
    curve = trace_curve(packet, SpacetimePoint(0.2, 1.0), s_max)
    assert curve.terminated is Termination.RANGE_END
    assert curve.s[0] == 0.0 and curve.s[-1] == pytest.approx(s_max, rel=1e-15)
    assert curve.t[-1] == pytest.approx(0.2 + j0 * s_max, rel=1e-12)
    assert curve.x[-1] == pytest.approx(1.0 + j1 * s_max, rel=1e-12)
    assert np.all(np.diff(curve.s) > 0)


def test_endpoint_matches_independent_integrator():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    tight = DEFAULT.overridden(rk_tol=1e-10)
    for t0, x0 in [(0.0, 0.4), (-0.5, 3.0), (0.2, 5.5)]:
        curve = trace_curve(packet, (t0, x0), 2.0, tight)
        ref = reference_endpoint(packet, (t0, x0), 2.0)
        assert abs(curve.t[-1] - ref[0]) < 1e-7
        assert abs(curve.x[-1] - ref[1]) < 1e-7


def test_error_shrinks_with_tolerance():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    start = (0.0, 1.3)
    ref = reference_endpoint(packet, start, 3.0)

    def endpoint_error(rk_tol):
        c = trace_curve(packet, start, 3.0, DEFAULT.overridden(rk_tol=rk_tol))
        return math.hypot(c.t[-1] - ref[0], c.x[-1] - ref[1])

    loose = endpoint_error(1e-4)
    tight = endpoint_error(1e-12)
    assert tight < 1e-9
    assert tight <= loose


def test_stagnant_start_terminates_immediately():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    curve = trace_curve(packet, (0.3, math.pi / 2), 5.0)
    assert curve.terminated is Termination.STAGNATION
    assert curve.n_samples == 1
    assert curve.s.tolist() == [0.0]


def test_step_underflow_raises_when_strict():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    bad = DEFAULT.overridden(rk_tol=1e-15, rk_hmin_factor=0.5)
    with pytest.raises(StepUnderflowError):
        trace_curve(packet, (0.0, 1.0), 4.0, bad)
    curve = trace_curve(packet, (0.0, 1.0), 4.0, bad, strict=False)
    assert curve.terminated is Termination.STEP_UNDERFLOW


def test_two_sided_trace_centers_start():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    curve, = trace_curves(packet, [0.1], [2.0], 2.5, 1.5)
    assert curve.s[0] == pytest.approx(-1.5, rel=1e-12)
    assert curve.s[-1] == pytest.approx(2.5, rel=1e-12)
    assert np.all(np.diff(curve.s) > 0)
    i0 = int(np.searchsorted(curve.s, 0.0))
    assert curve.s[i0] == 0.0
    assert (curve.t[i0], curve.x[i0]) == (0.1, 2.0)
    j0, j1 = packet.current_at(0.1, 2.0)
    assert curve.j0[i0] == pytest.approx(j0, rel=1e-12)
    assert curve.j1[i0] == pytest.approx(j1, rel=1e-12)
    # the backward half is the forward flow of the reversed field, so the
    # whole polyline solves the same ODE: check against the reference both ways
    ref_b = reference_endpoint(packet, (0.1, 2.0), -1.5, rtol=1e-12)
    assert abs(curve.t[0] - ref_b[0]) < 1e-6
    assert abs(curve.x[0] - ref_b[1]) < 1e-6


def test_backward_then_forward_returns_home():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    tight = DEFAULT.overridden(rk_tol=1e-11)
    back, = trace_curves(packet, [0.0], [0.7], 0.0, 2.0, tight)
    fwd = trace_curve(packet, (back.t[0], back.x[0]), 2.0, tight)
    assert abs(fwd.t[-1] - 0.0) < 1e-7
    assert abs(fwd.x[-1] - 0.7) < 1e-7


def test_dense_output_and_refined_point():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    curve = trace_curve(packet, (0.0, 0.4), 3.0)
    for s_val in [0.37, 1.234, 2.71]:
        ref = reference_endpoint(packet, (0.0, 0.4), s_val)
        t_d, x_d = curve.point_at(s_val)
        assert math.hypot(t_d - ref[0], x_d - ref[1]) < 1e-5
        t_r, x_r = point_at_refined(curve, s_val, packet)
        assert math.hypot(t_r - ref[0], x_r - ref[1]) < 1e-8


def test_resampled_polyline_follows_curve():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    curve = trace_curve(packet, (0.0, 0.4), 2.0)
    ss, ts, xs = resampled(curve, 4)
    assert len(ss) == 4 * (curve.n_samples - 1) + 1
    assert np.all(np.diff(ss) > 0)
    keep = np.searchsorted(ss, curve.s)
    assert np.allclose(ts[keep], curve.t, atol=1e-12)
    assert np.allclose(xs[keep], curve.x, atol=1e-12)


def test_plane_wave_crosses_const_time_leaf_once():
    packet = make_packet([(1, 1.0)])
    surface = Hypersurface.t_const(0.5, TWO_PI, 64)
    curve = trace_curve(packet, (0.0, 1.0), 5.0)
    events = crossing_events(curve, surface)
    assert [ev.kind for ev in events] == ["crossing"]
    # j0 is constant so the crossing parameter is known in closed form
    j0 = packet.current_at(0.0, 0.0)[0]
    s_cross = 0.5 / j0
    assert curve.point_at(curve.s[events[0].curve_seg]
                          + events[0].u * np.diff(curve.s)[events[0].curve_seg]
                          )[0] == pytest.approx(0.5, abs=1e-6)
    assert s_cross < curve.s[-1]


def test_seed_congruence_places_curves_at_leaf_params():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    surface = Hypersurface.t_const(0.0, TWO_PI, 64)
    cong = seed_congruence(packet, surface, 8, 1.0)
    assert np.allclose(cong.seed_params, np.arange(8) / 8)
    for lam, curve in zip(cong.seed_params, cong.curves):
        assert curve.s[0] == 0.0
        assert curve.t[0] == pytest.approx(0.0, abs=1e-12)
        assert curve.x[0] == pytest.approx(lam * TWO_PI, abs=1e-12)


def test_seed_congruence_keeps_stagnant_curves():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    surface = Hypersurface.t_const(0.0, TWO_PI, 64)
    cong = seed_congruence(packet, surface, 4, 1.0)
    # seeds at x = 0, pi/2, pi, 3pi/2: two sit on stagnation lines
    kinds = [c.terminated for c in cong.curves]
    assert kinds[1] is Termination.STAGNATION
    assert kinds[3] is Termination.STAGNATION
    assert kinds[0] is Termination.RANGE_END
    assert kinds[2] is Termination.RANGE_END


def _lane_bytes(curve):
    return (curve.s.tobytes(), curve.t.tobytes(), curve.x.tobytes(),
            curve.j0.tobytes(), curve.j1.tobytes(), curve.terminated)


@pytest.mark.parametrize("s_back", [0.0, 0.5])
@pytest.mark.parametrize("name, rk_tol, rk_hmin_factor, kinds", [
    ("standing-wave", 1e-8, 1e-12, {Termination.STAGNATION}),
    ("skewed", 1e-14, 1e-2, {Termination.STEP_UNDERFLOW}),
])
def test_lane_bytes_do_not_depend_on_batch(name, rk_tol, rk_hmin_factor,
                                           kinds, s_back):
    modes, seed_t, _ = SCENARIOS[name]
    packet = make_packet(modes)
    tol = DEFAULT.overridden(rk_tol=rk_tol, rk_hmin_factor=rk_hmin_factor)
    surface = Hypersurface.t_const(seed_t, TWO_PI, 64)
    cong = seed_congruence(packet, surface, 16, 1.0, s_back=s_back,
                           tolerances=tol)
    # the batch mixes the termination under test with lanes that run on
    ends = {c.terminated for c in cong.curves}
    assert kinds | {Termination.RANGE_END} <= ends
    starts = [surface.point_at(lam) for lam in cong.seed_params]
    t0 = np.array([p.t for p in starts])
    x0 = np.array([p.x for p in starts])
    full = [_lane_bytes(c) for c in cong.curves]
    for i in range(16):
        alone, = trace_curves(packet, t0[i:i + 1], x0[i:i + 1], 1.0, s_back,
                              tol, strict=False)
        assert _lane_bytes(alone) == full[i]
    for lo in (0, 9):
        batch = trace_curves(packet, t0[lo:lo + 7], x0[lo:lo + 7], 1.0, s_back,
                             tol, strict=False)
        assert [_lane_bytes(c) for c in batch] == full[lo:lo + 7]


class _FailingField:
    """A packet whose current evaluation raises `exc`."""

    def __init__(self, packet, exc):
        self._exc = exc
        self.current_scale = packet.current_scale
        self.box_length = packet.box_length

    def current_grid(self, ts, xs):
        raise self._exc


@pytest.mark.parametrize("exc", [TypeError("bad operand"),
                                 CurrentLabError("no field here")])
def test_seed_congruence_propagates_field_errors(exc):
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    surface = Hypersurface.t_const(0.0, TWO_PI, 64)
    with pytest.raises(type(exc)):
        seed_congruence(_FailingField(packet, exc), surface, 8, 0.05,
                        s_back=0.05)
