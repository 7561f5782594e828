"""Shared builders and independent oracles for the test suite."""

import math

import mpmath
import numpy as np
from scipy.optimize import brentq

from currentlab import (DEFAULT, Mode, ScalarWavePacket, VectorWavePacket,
                        quadrature, serialize, trace_curve)
from currentlab.foliation import segment_pieces
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


def random_transverse_photon(rng, max_modes=4):
    """Unit-flux vector packet with random transverse polarizations."""
    n = int(rng.integers(1, max_modes + 1))
    hs = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=n, replace=False)
    modes = [Mode(int(h), 1.0 + 0.0j) for h in hs]
    pols = [(0.0, 0.0, complex(*rng.normal(size=2)),
             complex(*rng.normal(size=2))) for _ in hs]
    return VectorWavePacket(TWO_PI, modes, pols).normalized()


# -- oracles for the stream function ----------------------------------------

def segment_density(packet, leaf, i):
    """Vectorized u -> j0 dx - j1 dt along segment i of the leaf."""
    _, dt, dx = leaf.segment(i)
    t0 = float(leaf._t_c[i])
    x0 = float(leaf._x_c[i])

    def g(u):
        j0, j1 = packet.current_grid(t0 + u * dt, x0 + u * dx)
        return j0 * dx - j1 * dt

    return g


def segment_flux_by_quadrature(packet, leaf, i, rel_tol=1e-13):
    """Flux through segment i by adaptive Gauss quadrature of the current."""
    _, dt, dx = leaf.segment(i)
    floor = 1e-16 * packet.current_scale * (abs(dx) + abs(dt))
    return quadrature.adaptive(segment_density(packet, leaf, i), 0.0, 1.0,
                               rel_tol, floor)


def probability_by_root_splitting(packet, leaf, lam_range, samples=400):
    """Leaf probability from the roots of the signed density.

    Each piece of the range is sampled at `samples` points; brentq polishes
    every sign change, and the stream-function differences between
    consecutive roots are summed in absolute value. Returns the probability
    and the number of roots found.
    """
    total = 0.0
    n_roots = 0
    for i, ua, ub in zip(*segment_pieces(leaf, lam_range)):
        g = segment_density(packet, leaf, i)
        us = np.linspace(ua, ub, samples)
        gs = g(us)
        cuts = [float(ua)]
        for k in np.flatnonzero(gs[:-1] * gs[1:] < 0.0):
            cuts.append(brentq(lambda u: float(g(np.array([u]))[0]),
                               us[k], us[k + 1], xtol=1e-15))
        cuts.append(float(ub))
        n_roots += len(cuts) - 2
        cuts = np.array(cuts)
        _, dt, dx = leaf.segment(i)
        phi = packet.stream_grid(leaf._t_c[i] + cuts * dt,
                                 leaf._x_c[i] + cuts * dx)
        total += float(np.sum(np.abs(np.diff(phi))))
    return total, n_roots


def mp_field(field):
    """The field's harmonics, coefficients and Gram matrix in mpmath."""
    k = [mpmath.mpf(2) * mpmath.pi * int(h) / mpmath.mpf(field.box_length)
         for h in field.harmonics]
    omega = [mpmath.sqrt(kj ** 2 + mpmath.mpf(field.mass) ** 2) for kj in k]
    coeffs = [mpmath.mpc(complex(c)) for c in field.coeffs]
    # the field keeps G only as w0 = G (omega_j + omega_l); the identities
    # checked with it hold for any G, so its float rounding does not matter
    om = [float(w) for w in field.omega]
    gram = [[mpmath.mpc(complex(field.w0[j, l])) / (om[j] + om[l])
             for l in range(len(k))] for j in range(len(k))]
    return k, omega, coeffs, gram


def mp_current(mpf, t, x):
    """(j0, j1) from the bilinear definition, in mpmath."""
    k, omega, coeffs, gram = mpf
    u = [c * mpmath.exp(-1j * (w * t - kj * x))
         for c, w, kj in zip(coeffs, omega, k)]
    j0 = j1 = mpmath.mpf(0)
    for a in range(len(k)):
        for b in range(len(k)):
            z = gram[a][b] * mpmath.conj(u[a]) * u[b]
            j0 += mpmath.re(z * (omega[a] + omega[b]))
            j1 += mpmath.re(z * (k[a] + k[b]))
    return j0, j1


def mp_stream(mpf, t, x):
    """Closed-form stream function: the diagonal drift plus the pair terms."""
    k, omega, coeffs, gram = mpf
    u = [c * mpmath.exp(-1j * (w * t - kj * x))
         for c, w, kj in zip(coeffs, omega, k)]
    phi = mpmath.mpf(0)
    for a in range(len(k)):
        weight = mpmath.re(gram[a][a]) * abs(coeffs[a]) ** 2
        phi += weight * (2 * omega[a] * x - 2 * k[a] * t)
        for b in range(len(k)):
            if a != b:
                phi += mpmath.re(1j * gram[a][b] * (omega[a] + omega[b])
                                 / (k[a] - k[b]) * mpmath.conj(u[a]) * u[b])
    return phi


def format_cell(v) -> str:
    """Oracle rendering of one CSV cell: a plain string as it is, an int in
    decimal, a float as `serialize.format_float` writes it."""
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            raise ValueError(f"CSV cell needs quoting, refusing: {v!r}")
        return v
    if isinstance(v, (bool, np.bool_)):
        raise ValueError("booleans have no CSV rendering here")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return serialize.format_float(v)
    raise TypeError(f"unsupported CSV cell type {type(v).__name__}")


def csv_bytes(header, rows) -> bytes:
    """Oracle bytes of a CSV table given row by row: LF after every line."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")
