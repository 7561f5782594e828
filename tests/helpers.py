"""Shared builders and independent oracles for the test suite."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from currentlab import (DEFAULT, ArityMismatchError, CausalClass,
                        Hypersurface, Mode, QuadratureOverflowError,
                        ScalarWavePacket, VectorWavePacket,
                        classify_components, quadrature, serialize,
                        trace_curve)
from currentlab.foliation import segment_pieces
from currentlab.geometry import leaf_crossings
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


def resampled(curve, factor):
    """Dense-output polyline of a curve, `factor` subsamples per accepted step.

    Returns (s, t, x) arrays; the accepted samples are among them.
    """
    if curve.n_samples == 1 or factor <= 1:
        return curve.s.copy(), curve.t.copy(), curve.x.copy()
    ss = [curve.s[0]]
    for i in range(curve.n_samples - 1):
        ss.extend(np.linspace(curve.s[i], curve.s[i + 1], factor + 1)[1:])
    ss = np.array(ss)
    pts = np.array([curve.point_at(v) for v in ss])
    pts[0] = (curve.t[0], curve.x[0])
    return ss, pts[:, 0], pts[:, 1]


def leaf_image_by_dop853(fld, start, leaf, s_max, samples=4000):
    """Oracle tube map: the leaf parameter where the integral curve from
    `start` first crosses `leaf`, from scipy's DOP853 at rtol 1e-12.

    The dense solution, sampled at `samples` points, finds the first leaf
    segment crossed with the exact predicates; brentq on the dense output
    then locates the crossing of that segment (or of a neighbour, when the
    sampled chord crossed next to a node). Uses neither the package's
    integrator nor its stream function.
    """
    def rhs(_, y):
        j0, j1 = fld.current_grid(y[:1], y[1:])
        return [j0[0], j1[0]]

    sol = solve_ivp(rhs, (0.0, s_max), [start.t, start.x], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    ss = np.linspace(0.0, sol.t[-1], samples)
    ev = leaf_crossings(*sol.sol(ss), leaf.leaf_geometry(DEFAULT.snap))[0]
    n = leaf.n_segments
    lo = ss[max(ev.curve_seg - 1, 0)]
    hi = ss[min(ev.curve_seg + 2, samples - 1)]
    for j in (ev.leaf_seg, ev.leaf_seg - 1, ev.leaf_seg + 1):
        period, r = divmod(j, n)
        ta = leaf._t_c[r]
        xa = leaf._x_c[r] + (ev.shift + period) * leaf.box_length
        dt, dx = leaf._dt[r], leaf._dx[r]

        def side(s):
            t, x = sol.sol(s)
            return (t - ta) * dx - (x - xa) * dt

        if side(lo) * side(hi) > 0.0:
            continue
        t, x = sol.sol(brentq(side, lo, hi, xtol=1e-16, rtol=1e-15))
        v = ((t - ta) * dt + (x - xa) * dx) / (dt * dt + dx * dx)
        if -1e-9 <= v <= 1.0 + 1e-9:
            lam = leaf._lam_c[r] + v * (leaf._lam_c[r + 1] - leaf._lam_c[r])
            return float(lam + period) % 1.0
    raise AssertionError("oracle found no crossing near the sampled one")


def random_transverse_photon(rng, max_modes=4):
    """Unit-flux vector packet with random transverse polarizations."""
    n = int(rng.integers(1, max_modes + 1))
    hs = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4], size=n, replace=False)
    modes = [Mode(int(h), 1.0 + 0.0j) for h in hs]
    pols = [(0.0, 0.0, complex(*rng.normal(size=2)),
             complex(*rng.normal(size=2))) for _ in hs]
    return VectorWavePacket(TWO_PI, modes, pols).normalized()


# -- pointwise surface elements and densities --------------------------------


def reparametrized(leaf, new_lam):
    """The leaf's geometric nodes carrying different lambda values."""
    return Hypersurface(np.asarray(new_lam, dtype=float), leaf.t.copy(),
                        leaf.x.copy(), leaf.box_length, leaf.stagnant_nodes)


@dataclass(frozen=True)
class SurfaceElement:
    """Covariant surface element of one leaf segment.

    n_tilde_cov is the element integrated over the segment, (dx, -dt);
    per unit lambda divide by dlam. The contravariant components follow by
    raising with diag(1, -1). seg_class classifies the segment tangent.
    """

    n_tilde_cov: tuple
    n_tilde_contra: tuple
    dlam: float
    seg_class: CausalClass

    def per_unit_lambda(self) -> tuple:
        return (self.n_tilde_cov[0] / self.dlam, self.n_tilde_cov[1] / self.dlam)


def surface_element(surface, i, tolerances=DEFAULT):
    """Surface element of segment i; finite on null segments by construction."""
    dlam, dt, dx = surface.segment(i)
    if dt == 0.0 and dx == 0.0:
        raise ValueError(f"segment {i} has zero displacement")
    seg_class = classify_components(dt, dx, scale=abs(dt) + abs(dx),
                                    tolerances=tolerances)
    return SurfaceElement((dx, -dt), (dx, dt), dlam, seg_class)


def beta_example(beta):
    """Closed forms for the straight leaf t = beta x, per unit leaf coordinate.

    Returns the induced volume factor sqrt(2|1-beta^2|)/(1+beta^2), the sign
    of the tangent's Minkowski norm, and the contravariant surface-element
    magnitudes sqrt(2)/(1+beta^2) * (1, |beta|). All three stay finite and
    continuous through the null slope beta = 1, where a unit normal would
    blow up.
    """
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    b2 = beta * beta
    g_det = math.sqrt(2.0 * abs(1.0 - b2)) / (1.0 + b2)
    norm_sign = (1.0 - b2 > 0.0) - (1.0 - b2 < 0.0)
    mag = math.sqrt(2.0) / (1.0 + b2)
    return {
        "n_tilde_mag": (mag, mag * abs(beta)),
        "norm_sign": int(norm_sign),
        "g_det": g_det,
    }


def signed_density(packet, surface, lam_val):
    """n~_mu j^mu per unit lambda at leaf parameter lam_val (sign kept)."""
    lam_val = lam_val % 1.0
    i = surface.segment_of(lam_val)
    dlam, dt, dx = surface.segment(i)
    p = surface.point_at(lam_val)
    j0, j1 = packet.current_at(p.t, p.x)
    return (j0 * dx - j1 * dt) / dlam


def probability_density(packet, surface, lam_val):
    """|n~_mu j^mu| per unit lambda; zero where j is tangent to the leaf."""
    return abs(signed_density(packet, surface, lam_val))


def probability_density_n(packet, leaves, lams):
    """|n~ ... n~ . j| per unit lambda^n at one point of each leaf."""
    if len(leaves) != packet.n or len(lams) != packet.n:
        raise ArityMismatchError(
            f"{len(leaves)} leaves / {len(lams)} parameters for n = {packet.n}")
    points = []
    elems = []
    for leaf, lam in zip(leaves, lams):
        lam = lam % 1.0
        i = leaf.segment_of(lam)
        dlam, dt, dx = leaf.segment(i)
        p = leaf.point_at(lam)
        points.append((p.t, p.x))
        elems.append(np.array([dx, -dt]) / dlam)
    j = packet.current_n(points)
    val = j
    for a in range(packet.n):
        val = np.tensordot(elems[a], val, axes=(0, 0))
    return abs(float(val))


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


# -- oracle for two-particle probability -------------------------------------

def _flat_adaptive_2d(f, a1, b1, a2, b2, rel_tol, abs_floor, max_panels):
    """2-d panel doubling on the flattened tensor grid: f receives the
    repeated first-axis and tiled second-axis nodes, one pair per point."""
    if b1 <= a1 or b2 <= a2:
        return 0.0

    def estimate(panels):
        u1, w1 = quadrature.panel_points(a1, b1, panels)
        u2, w2 = quadrature.panel_points(a2, b2, panels)
        ww = np.multiply.outer(w1, w2).ravel()
        return float(np.dot(ww, f(np.repeat(u1, u2.size),
                                  np.tile(u2, u1.size))))

    panels = 1
    best = estimate(panels)
    while panels < max_panels:
        panels *= 2
        nxt = estimate(panels)
        if abs(nxt - best) <= max(rel_tol * abs(nxt), abs_floor):
            return nxt
        best = nxt
    raise QuadratureOverflowError(
        f"no convergence on [{a1:.6g}, {b1:.6g}] x [{a2:.6g}, {b2:.6g}] "
        f"within {max_panels} panels per axis (last estimate {best:.6g})")


def probability_n_flat(packet, leaves, lam_ranges, tolerances=DEFAULT):
    """Two-particle probability from the rank-2 current at every grid point:
    |n_a . j . n_b| from `current_pair_grid`, one flat-grid quadrature per
    segment pair, with the floor and panel cap of `probability_n`."""
    leaf_a, leaf_b = leaves
    pieces_a = list(zip(*segment_pieces(leaf_a, lam_ranges[0])))
    pieces_b = list(zip(*segment_pieces(leaf_b, lam_ranges[1])))
    scale = packet.current_scale
    panels_per_axis = math.isqrt(tolerances.quad_max_panels)
    total = 0.0
    for ia, ua0, ua1 in pieces_a:
        _, dta, dxa = leaf_a.segment(ia)
        ta0, xa0 = float(leaf_a._t_c[ia]), float(leaf_a._x_c[ia])
        na = np.array([dxa, -dta])
        for ib, ub0, ub1 in pieces_b:
            _, dtb, dxb = leaf_b.segment(ib)
            tb0, xb0 = float(leaf_b._t_c[ib]), float(leaf_b._x_c[ib])
            nb = np.array([dxb, -dtb])

            def f(u1, u2):
                j = packet.current_pair_grid(ta0 + u1 * dta, xa0 + u1 * dxa,
                                             tb0 + u2 * dtb, xb0 + u2 * dxb)
                return np.abs(np.einsum("m,n,pmn->p", na, nb, j))

            floor = tolerances.quad_tol * scale \
                * (abs(dxa) + abs(dta)) * (abs(dxb) + abs(dtb))
            total += _flat_adaptive_2d(f, ua0, ua1, ub0, ub1,
                                       tolerances.quad_tol, floor,
                                       panels_per_axis)
    return total
