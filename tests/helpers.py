"""Shared builders for the test suite."""

import math

import numpy as np

from currentlab import DEFAULT, Mode, ScalarWavePacket, trace_curve
from currentlab.scenarios import SKEWED_SEED_T

TWO_PI = 2.0 * math.pi

# (modes, seed time, leaf spacing) per scenario; 8 leaves, 32 curves, 64 nodes
SCENARIOS = {
    "plane-wave": ([(1, 1.0)], 0.0, 1.0),
    "standing-wave": ([(1, 1.0), (-1, 1.0)], 0.0, 0.6),
    "skewed": ([(-5, 1.0), (0, 4.0), (5, 1.0)], SKEWED_SEED_T, 0.15),
}


def make_packet(harmonic_coeffs, mass=1.0, box_length=TWO_PI,
                unit_flux=True):
    packet = ScalarWavePacket(mass, box_length,
                              [Mode(h, c) for h, c in harmonic_coeffs])
    return packet.normalized() if unit_flux else packet


def random_packet(rng, max_modes=8, mass=None, unit_flux=True):
    n = int(rng.integers(1, max_modes + 1))
    hs = rng.choice(np.arange(-6, 7), size=n, replace=False)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    if mass is None:
        mass = float(rng.uniform(0.3, 2.0))
    return make_packet(list(zip(hs.tolist(), coeffs.tolist())), mass=mass,
                       unit_flux=unit_flux)


def random_pair_state(rng, max_modes=3):
    """Random symmetrized 2-particle packet over a small harmonic set."""
    from currentlab.manybody import symmetrize
    hs = rng.choice(np.arange(-3, 4), size=max_modes, replace=False).tolist()
    raw = []
    for g in hs:
        for h in hs:
            if rng.uniform() < 0.6:
                raw.append((complex(rng.normal(), rng.normal()), (g, h)))
    if not raw:
        raw.append((1.0 + 0.0j, (hs[0], hs[0])))
    return symmetrize(raw, 2, float(rng.uniform(0.5, 1.5)), TWO_PI)


def point_at_refined(curve, s_val, fld, tolerances=DEFAULT):
    """Oracle for dense output: re-integrate to s_val at rk_tol 1e-12.

    Dense output is only fourth-order accurate in the step size; this walks
    a short, tightly controlled integration from the last accepted sample at
    or before s_val.
    """
    i = curve._interval(s_val)
    span = s_val - curve.s[i]
    if span == 0.0:
        return (float(curve.t[i]), float(curve.x[i]))
    sub = trace_curve(fld, (curve.t[i], curve.x[i]), span,
                      tolerances.overridden(rk_tol=1e-12), strict=False)
    return (float(sub.t[-1]), float(sub.x[-1]))
