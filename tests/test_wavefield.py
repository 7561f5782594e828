"""Mode-sum fields: closed forms vs independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from currentlab import (CausalClass, Mode, ScalarWavePacket, SpacetimePoint,
                        VectorWavePacket, ZeroNormError, classification_map,
                        classify_components)

from helpers import (TWO_PI, make_packet, mp_current, mp_field, mp_stream,
                     random_packet, random_pair_state,
                     random_transverse_photon)


def mode_sum_psi(packet, t, x):
    """Direct mode sum, written independently of the field engine."""
    total = 0.0j
    for mode in packet.modes:
        k = TWO_PI * mode.harmonic / packet.box_length
        w = math.hypot(k, packet.mass)
        total += mode.coeff * np.exp(-1j * (w * t - k * x))
    return total


def fd_gradient(packet, t, x, h=1e-5):
    dpsi_dt = (packet.psi_at(t + h, x) - packet.psi_at(t - h, x)) / (2 * h)
    dpsi_dx = (packet.psi_at(t, x + h) - packet.psi_at(t, x - h)) / (2 * h)
    return dpsi_dt, dpsi_dx


def fd_current_divergence(packet, t, x, h=1e-4):
    d0 = (packet.current_at(t + h, x)[0] - packet.current_at(t - h, x)[0])
    d1 = (packet.current_at(t, x + h)[1] - packet.current_at(t, x - h)[1])
    return (d0 + d1) / (2 * h)


def test_plane_wave_closed_form():
    c = 0.3 - 0.4j
    packet = make_packet([(2, c)], mass=1.5, unit_flux=False)
    k = 2.0
    w = math.hypot(k, 1.5)
    j0, j1 = packet.current_at(0.7, 1.1)
    assert j0 == pytest.approx(2 * abs(c) ** 2 * w, rel=1e-14)
    assert j1 == pytest.approx(2 * abs(c) ** 2 * k, rel=1e-14)
    # constant in spacetime up to phase-product roundoff
    j0b, j1b = packet.current_at(-3.2, 5.9)
    assert j0b == pytest.approx(j0, rel=1e-14)
    assert j1b == pytest.approx(j1, rel=1e-14)


def test_psi_matches_direct_mode_sum():
    rng = np.random.default_rng(11)
    for _ in range(10):
        packet = random_packet(rng, unit_flux=False)
        for _ in range(20):
            t = float(rng.uniform(-5, 5))
            x = float(rng.uniform(-1, 8))
            got = packet.psi_at(t, x)
            want = mode_sum_psi(packet, t, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_psi_periodic_in_x():
    packet = make_packet([(3, 1.0), (-2, 0.5j)], unit_flux=False)
    for t, x in [(0.0, 0.3), (1.7, 4.0)]:
        a = packet.psi_at(t, x)
        b = packet.psi_at(t, x + packet.box_length)
        assert a == pytest.approx(b, rel=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(20):
        packet = random_packet(rng, unit_flux=False)
        t = float(rng.uniform(-3, 3))
        x = float(rng.uniform(0, TWO_PI))
        gt, gx = packet.gradient_at(t, x)
        ft, fx = fd_gradient(packet, t, x)
        scale = max(1.0, abs(gt), abs(gx))
        assert abs(gt - ft) < 1e-6 * scale
        assert abs(gx - fx) < 1e-6 * scale


def test_current_is_bilinear_in_psi_and_gradient():
    rng = np.random.default_rng(31)
    for _ in range(20):
        packet = random_packet(rng, unit_flux=False)
        t = float(rng.uniform(-3, 3))
        x = float(rng.uniform(0, TWO_PI))
        psi = packet.psi_at(t, x)
        gt, gx = packet.gradient_at(t, x)
        # j^mu = i psi* dpsi^mu - i psi dpsi*^mu, index raised: d^t = d_t, d^x = -d_x
        want0 = (1j * (np.conj(psi) * gt - psi * np.conj(gt))).real
        want1 = (-1j * (np.conj(psi) * gx - psi * np.conj(gx))).real
        j0, j1 = packet.current_at(t, x)
        assert j0 == pytest.approx(want0, rel=1e-12, abs=1e-13)
        assert j1 == pytest.approx(want1, rel=1e-12, abs=1e-13)


def test_divergence_vanishes_closed_form_and_fd():
    rng = np.random.default_rng(41)
    for _ in range(10):
        packet = random_packet(rng, unit_flux=False)
        for _ in range(10):
            p = SpacetimePoint(float(rng.uniform(-4, 4)),
                               float(rng.uniform(-1, 7)))
            assert abs(packet.divergence_at(p.t, p.x)) < 1e-12 * packet.divergence_scale
            assert abs(fd_current_divergence(packet, p.t, p.x)) \
                < 1e-6 * packet.current_scale


def test_normalize_gives_unit_total_flux():
    packet = make_packet([(0, 2.0), (4, 1.0 - 1.0j)], unit_flux=False)
    assert packet.total_flux() != pytest.approx(1.0)
    unit = packet.normalized()
    assert unit.total_flux() == pytest.approx(1.0, abs=1e-14)


def _stream_test_fields(rng):
    return [random_packet(rng), random_packet(rng, mass=0.0),
            random_transverse_photon(rng),
            random_pair_state(rng).normalized().marginal_field(1)]


def test_stream_function_period_is_total_flux():
    rng = np.random.default_rng(31)
    for field in _stream_test_fields(rng):
        ts = rng.uniform(-3.0, 3.0, 20)
        xs = rng.uniform(-3.0, 3.0, 20)
        step = (field.stream_grid(ts, xs + field.box_length)
                - field.stream_grid(ts, xs))
        assert np.max(np.abs(step - field.total_flux())) < 1e-13


def test_stream_function_derivatives_at_30_digits():
    """d Phi/dx = j0 and -d Phi/dt = j1 in mpmath; the float Phi agrees."""
    rng = np.random.default_rng(32)
    with mpmath.workdps(30):
        for field in _stream_test_fields(rng):
            mpf = mp_field(field)
            scale = mpmath.mpf(field.current_scale)
            for _ in range(3):
                t, x = (mpmath.mpf(float(v)) for v in rng.uniform(-3, 3, 2))
                j0, j1 = mp_current(mpf, t, x)
                d_x = mpmath.diff(lambda v: mp_stream(mpf, t, v), x)
                d_t = mpmath.diff(lambda v: mp_stream(mpf, v, x), t)
                assert abs(d_x - j0) < mpmath.mpf("1e-25") * scale
                assert abs(-d_t - j1) < mpmath.mpf("1e-25") * scale
                phi = field.stream_grid([float(t)], [float(x)])[0]
                assert abs(phi - mp_stream(mpf, t, x)) < 1e-14 * (1 + scale)


def _density_along(field, t0, x0, dt, dx):
    def g(u):
        j0, j1 = field.current_grid(t0 + u * dt, x0 + u * dx)
        return j0 * dx - j1 * dt
    return g


def test_density_bounds_hold_and_are_attained():
    """|g'| <= M and |g''| <= M2 along random segments; for two modes g is
    one sinusoid in u and a segment over many of its periods attains both."""
    rng = np.random.default_rng(33)
    h = 1e-5
    for field in _stream_test_fields(rng):
        dts, dxs = rng.uniform(-1.0, 1.0, (2, 6))
        slope, bend = field.density_bounds(dts, dxs)
        for dt, dx, m1, m2 in zip(dts, dxs, slope, bend):
            g = _density_along(field, 0.3, 1.1, dt, dx)
            u = np.linspace(0.0, 1.0, 2001)
            d1 = (g(u + h) - g(u - h)) / (2 * h)
            d2 = (g(u + h) - 2 * g(u) + g(u - h)) / (h * h)
            assert np.max(np.abs(d1)) <= m1 * (1 + 1e-6) + 1e-9
            assert np.max(np.abs(d2)) <= m2 * (1 + 1e-3) + 1e-5
    pair = make_packet([(1, 1.0), (4, 0.5 - 0.3j)])
    slope, bend = pair.density_bounds([0.4], [30.0])
    g = _density_along(pair, 0.0, 0.0, 0.4, 30.0)
    u = np.linspace(0.0, 1.0, 200001)
    d1 = (g(u + h) - g(u - h)) / (2 * h)
    d2 = (g(u + h) - 2 * g(u) + g(u - h)) / (h * h)
    assert np.max(np.abs(d1)) == pytest.approx(slope[0], rel=1e-4)
    assert np.max(np.abs(d2)) == pytest.approx(bend[0], rel=1e-3)


def test_zero_packet_rejected():
    with pytest.raises(ZeroNormError):
        ScalarWavePacket(1.0, TWO_PI, [])
    with pytest.raises(ZeroNormError):
        ScalarWavePacket(1.0, TWO_PI, [Mode(1, 0.0)])


def test_underflowing_packet_rejected():
    # |c|^2 underflows, so the current and divergence scales would be zero
    for c in (2.36e-204j, 2.2250738585e-313j):
        with pytest.raises(ZeroNormError):
            ScalarWavePacket(1.0, TWO_PI, [Mode(0, c)])
        with pytest.raises(ZeroNormError):
            VectorWavePacket(TWO_PI, [Mode(1, c)], [(0, 0, 1, 0)])
    # |c|^2 = 1e-300 is still a normal float
    packet = ScalarWavePacket(1.0, TWO_PI, [Mode(0, 1e-150)])
    assert packet.normalized().total_flux() == pytest.approx(1.0, abs=1e-14)


def test_massless_zero_harmonic_rejected():
    with pytest.raises(ValueError):
        ScalarWavePacket(0.0, TWO_PI, [Mode(0, 1.0)])


def test_classify_component_table():
    cases = [
        ((1.0, 0.0), CausalClass.TIMELIKE_FUTURE),
        ((2.0, -1.0), CausalClass.TIMELIKE_FUTURE),
        ((-1.0, 0.5), CausalClass.TIMELIKE_PAST),
        ((1.0, 1.0), CausalClass.NULL),
        ((-0.5, 0.5), CausalClass.NULL),
        ((0.0, 1.0), CausalClass.SPACELIKE),
        ((0.3, -2.0), CausalClass.SPACELIKE),
        ((0.0, 0.0), CausalClass.ZERO),
        ((1e-15, -1e-15), CausalClass.ZERO),
    ]
    for (v0, v1), want in cases:
        assert classify_components(v0, v1) is want


def test_classify_tolerance_bands():
    # within the relative null band
    assert classify_components(1.0, 1.0 + 1e-11) is CausalClass.NULL
    # outside it
    assert classify_components(1.0, 1.05) is CausalClass.SPACELIKE
    assert classify_components(1.05, 1.0) is CausalClass.TIMELIKE_FUTURE


def test_classification_map_single_mode_all_future():
    packet = make_packet([(1, 1.0)])
    cmap = classification_map(packet, (0.0, 1.0), (0.0, TWO_PI), 8, 8)
    assert all(c is CausalClass.TIMELIKE_FUTURE for c in cmap.classes)


def test_classification_map_standing_wave_zero_lines():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    # 65 x-samples put x = pi/2 and 3 pi/2 exactly on the grid
    cmap = classification_map(packet, (0.0, 1.0), (0.0, TWO_PI), 5, 65)
    kinds = set(cmap.classes.tolist())
    assert CausalClass.ZERO in kinds
    zero_x = {round(x, 12) for x, c in zip(cmap.x, cmap.classes)
              if c is CausalClass.ZERO}
    assert zero_x == {round(math.pi / 2, 12), round(3 * math.pi / 2, 12)}


def test_photon_transverse_matches_massless_scalar():
    c = 0.8 + 0.2j
    photon = VectorWavePacket(TWO_PI, [Mode(1, c)], [(0, 0, 1, 0)])
    scalar = ScalarWavePacket(0.0, TWO_PI, [Mode(1, c)])
    for t, x in [(0.0, 0.0), (0.4, 1.3), (-2.0, 5.5)]:
        jp = photon.current_at(t, x)
        js = scalar.current_at(t, x)
        assert abs(jp[0] - js[0]) <= 1e-12 * scalar.current_scale
        assert abs(jp[1] - js[1]) <= 1e-12 * scalar.current_scale
    assert photon.normalized().total_flux() == pytest.approx(1.0, abs=1e-14)


def test_photon_nontransverse_polarization_warns():
    with pytest.warns(UserWarning):
        VectorWavePacket(TWO_PI, [Mode(1, 1.0)], [(1, 0, 0, 0)])


def test_vector_packet_must_be_massless():
    with pytest.raises(ValueError):
        VectorWavePacket(TWO_PI, [Mode(1, 1.0)], [(0, 0, 1, 0)], mass=1.0)


@st.composite
def packets(draw):
    n = draw(st.integers(1, 5))
    hs = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n,
                       unique=True))
    cs = [complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
          for _ in range(n)]
    if all(c == 0 for c in cs):
        cs[0] = 1.0 + 0.0j
    mass = draw(st.floats(0.2, 3.0))
    try:
        return make_packet(list(zip(hs, cs)), mass=mass, unit_flux=False)
    except ZeroNormError:
        reject()


@settings(max_examples=40, deadline=None)
@given(packets(), st.floats(-5, 5), st.floats(-2, 9))
def test_property_current_conserved_and_real(packet, t, x):
    j0, j1 = packet.current_at(t, x)
    assert math.isfinite(j0) and math.isfinite(j1)
    assert abs(packet.divergence_at(t, x)) < 1e-12 * packet.divergence_scale


@settings(max_examples=25, deadline=None)
@given(packets(), st.floats(-3, 3))
def test_property_total_flux_slice_independent(packet, t):
    xs, dx = np.linspace(0.0, packet.box_length, 4096, endpoint=False,
                         retstep=True)
    riemann = float(np.sum(packet.current_grid(np.full_like(xs, t), xs)[0])
                    * dx)
    assert riemann == pytest.approx(packet.total_flux(), rel=1e-10,
                                    abs=1e-10 * packet.current_scale)
