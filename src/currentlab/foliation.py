"""Hypersurface leaves, surface elements, fluxes, and adapted foliations.

A leaf is a closed polyline on the periodic box winding once in x: nodes
(lambda_i, t_i, x_i) with lambda strictly increasing in [0, 1) and an implied
closure node (1, t_0, x_0 + L). Leaves need not be spacelike; segments are
classified by the causal character of their tangent.

The covariant surface element of a segment with displacement (dt, dx) is
n~_mu = (dx, -dt): the Minkowski-orthogonal dual of the tangent. It stays
finite on null segments, where a unit normal and the induced volume factor
separately blow up, and contracts to zero with the tangent by construction.
The flux of the current through a leaf is then the ordinary line integral
of j0 dx - j1 dt, which for any closed once-winding leaf equals the conserved
total flux: the integrand is the exact differential of the stream function
Phi of the divergence-free current (`CurrentField.stream_grid`). Flux and
probability are therefore differences of Phi, with no quadrature.

Foliations are built by advecting a seed leaf along the current flow;
admissibility (each curve of a seed congruence crossing each leaf exactly
once) is then checked, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow
from .errors import (DegenerateSegmentError, GridError, NoIntersectionError,
                     QuadratureOverflowError)
from .geometry import CrossingEvent, LeafGeometry, leaf_crossings
from .tolerances import DEFAULT, Tolerances
from .wavefield import (CausalClass, SpacetimePoint, classify_array,
                        classify_components)


@dataclass(eq=False)
class Hypersurface:
    """Closed periodic leaf: nodes at strictly increasing lambda in [0, 1).

    x is stored unwrapped; the closure segment connects the last node to
    (t_0, x_0 + L). stagnant_nodes lists node indices pinned by current zeros
    during advection.
    """

    lam: np.ndarray
    t: np.ndarray
    x: np.ndarray
    box_length: float
    stagnant_nodes: tuple = ()

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if not (self.lam.shape == self.t.shape == self.x.shape):
            raise ValueError("lam, t, x must have equal lengths")
        if len(self.lam) < 2:
            raise ValueError("a leaf needs at least two nodes")
        if not (np.all(np.isfinite(self.lam)) and np.all(np.isfinite(self.t))
                and np.all(np.isfinite(self.x))):
            raise ValueError("leaf nodes must be finite")
        if self.lam[0] < 0.0 or self.lam[-1] >= 1.0 or np.any(np.diff(self.lam) <= 0.0):
            raise ValueError("lambda values must increase strictly within [0, 1)")
        if not (math.isfinite(self.box_length) and self.box_length > 0.0):
            raise ValueError("box_length must be finite and positive")
        # closed arrays including the winding closure node
        self._lam_c = np.append(self.lam, 1.0)
        self._t_c = np.append(self.t, self.t[0])
        self._x_c = np.append(self.x, self.x[0] + self.box_length)
        self._dt = np.diff(self._t_c)
        self._dx = np.diff(self._x_c)
        if np.any((self._dt == 0.0) & (self._dx == 0.0)):
            raise ValueError("consecutive leaf nodes must be distinct")
        self._geom_cache = {}

    # -- constructors --------------------------------------------------------

    @staticmethod
    def t_const(t0: float, box_length: float, n_nodes: int,
                x0: float = 0.0) -> "Hypersurface":
        """Constant-time slice with n_nodes equally spaced nodes."""
        lam = np.arange(n_nodes) / n_nodes
        return Hypersurface(lam, np.full(n_nodes, float(t0)),
                            x0 + lam * box_length, box_length)

    @staticmethod
    def from_graph(profile, box_length: float, n_nodes: int,
                   x0: float = 0.0) -> "Hypersurface":
        """Leaf t = profile(x) sampled at n_nodes equally spaced x values."""
        lam = np.arange(n_nodes) / n_nodes
        x = x0 + lam * box_length
        t = np.array([float(profile(v)) for v in x])
        return Hypersurface(lam, t, x, box_length)

    # -- geometry ------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.lam)

    def segment(self, i: int) -> tuple:
        """(dlam, dt, dx) of segment i (node i to node i+1, closure included)."""
        if not 0 <= i < self.n_segments:
            raise IndexError(f"segment index {i} out of range")
        return (float(self._lam_c[i + 1] - self._lam_c[i]),
                float(self._t_c[i + 1] - self._t_c[i]),
                float(self._x_c[i + 1] - self._x_c[i]))

    def segment_of(self, lam_val: float) -> int:
        lam_val = lam_val % 1.0
        i = int(np.searchsorted(self._lam_c, lam_val, side="right")) - 1
        return min(max(i, 0), self.n_segments - 1)

    def point_at(self, lam_val: float) -> SpacetimePoint:
        """Point on the leaf at leaf parameter lam_val (wrapped into [0, 1))."""
        if lam_val == 1.0:
            return SpacetimePoint(float(self._t_c[-1]), float(self._x_c[-1]))
        lam_val = lam_val % 1.0
        i = self.segment_of(lam_val)
        u = (lam_val - self._lam_c[i]) / (self._lam_c[i + 1] - self._lam_c[i])
        return SpacetimePoint(
            float(self._t_c[i] + u * (self._t_c[i + 1] - self._t_c[i])),
            float(self._x_c[i] + u * (self._x_c[i + 1] - self._x_c[i])))

    def leaf_geometry(self, snap: float) -> LeafGeometry:
        key = float(snap)
        if key not in self._geom_cache:
            self._geom_cache[key] = LeafGeometry(self.t, self.x,
                                                 self.box_length, key)
        return self._geom_cache[key]

    def translated(self, dt: float) -> "Hypersurface":
        """Same leaf rigidly shifted in time (used for non-advected stacks)."""
        return Hypersurface(self.lam.copy(), self.t + dt, self.x.copy(),
                            self.box_length, self.stagnant_nodes)

    def reparametrized(self, new_lam) -> "Hypersurface":
        """Same geometric nodes carrying different lambda values."""
        return Hypersurface(np.asarray(new_lam, dtype=float), self.t.copy(),
                            self.x.copy(), self.box_length, self.stagnant_nodes)


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


def surface_element(surface: Hypersurface, i: int,
                    tolerances: Tolerances = DEFAULT) -> SurfaceElement:
    """Surface element of segment i; finite on null segments by construction."""
    dlam, dt, dx = surface.segment(i)
    if dt == 0.0 and dx == 0.0:
        raise DegenerateSegmentError(f"segment {i} has zero displacement")
    seg_class = classify_components(dt, dx, scale=abs(dt) + abs(dx),
                                    tolerances=tolerances)
    return SurfaceElement((dx, -dt), (dx, dt), dlam, seg_class)


def beta_example(beta: float) -> dict:
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


# -- flux and probability ----------------------------------------------------


def flux(packet, surface: Hypersurface) -> float:
    """Signed flux of the current through the leaf: the sum over segments of
    the stream-function difference between their ends."""
    phi = packet.stream_grid(surface._t_c, surface._x_c)
    return float(np.sum(np.diff(phi)))


def signed_density(packet, surface: Hypersurface, lam_val: float) -> float:
    """n~_mu j^mu per unit lambda at leaf parameter lam_val (sign kept)."""
    lam_val = lam_val % 1.0
    i = surface.segment_of(lam_val)
    dlam, dt, dx = surface.segment(i)
    p = surface.point_at(lam_val)
    j0, j1 = packet.current_at(p.t, p.x)
    return (j0 * dx - j1 * dt) / dlam


def probability_density(packet, surface: Hypersurface, lam_val: float) -> float:
    """|n~_mu j^mu| per unit lambda; zero where j is tangent to the leaf."""
    return abs(signed_density(packet, surface, lam_val))


def segment_pieces(surface: Hypersurface, lam_range):
    """Segments that overlap lam_range = (a, b), clamped to [0, 1].

    Returns arrays (i, ua, ub): segment i is covered from ua to ub in its
    local parameter u, with 0 <= ua < ub <= 1.
    """
    la = min(max(float(lam_range[0]), 0.0), 1.0)
    lb = min(max(float(lam_range[1]), 0.0), 1.0)
    lam_c = surface._lam_c
    lo = np.maximum(la, lam_c[:-1])
    hi = np.minimum(lb, lam_c[1:])
    seg = np.flatnonzero(hi > lo)
    width = lam_c[seg + 1] - lam_c[seg]
    return seg, (lo[seg] - lam_c[seg]) / width, (hi[seg] - lam_c[seg]) / width


def probability(packet, surface: Hypersurface, lam_range,
                tolerances: Tolerances = DEFAULT) -> float:
    """Integral of the probability density over lam_range = (a, b), a <= b.

    Along a segment the signed density is g(u) = j0 dx - j1 dt, and its
    integral between two parameters is the difference of the stream function
    Phi. The probability is the sum of |Delta Phi| between the sign changes
    of g, which are located on every piece of the range at once:

    - an interval whose end values have one sign has no root if
      |g_a| + |g_b| > M h or min(|g_a|, |g_b|) > M2 h^2 / 8, where M and M2
      bound |g'| and |g''| and h is its length (the second test certifies
      the stretches next to a double zero, where g ~ (u - u0)^2);
    - any other interval is halved, so an interval whose ends differ in sign
      is bisected down to its root, where the piece is split (the last step
      is a secant);
    - halving stops once M h <= 8 quad_tol current_scale (|dx| + |dt|). A
      negative lobe hidden in such an interval has area at most M h^2 / 4,
      so the sum misses at most 4 quad_tol current_scale (|dx| + |dt|) h
      there, against |g| <= current_scale (|dx| + |dt|).

    More than quad_max_panels intervals on one segment (a segment that runs
    along a current line, where g vanishes but M does not) raise
    QuadratureOverflowError.
    """
    seg, ua, ub = segment_pieces(surface, lam_range)
    n = seg.size
    if n == 0:
        return 0.0
    dt = surface._dt[seg]
    dx = surface._dx[seg]
    t0 = surface._t_c[seg]
    x0 = surface._x_c[seg]
    slope, bend = packet.density_bounds(dt, dx)
    floor = (8.0 * tolerances.quad_tol * packet.current_scale
             * (np.abs(dx) + np.abs(dt)))

    def density(p, u):
        j0, j1 = packet.current_grid(t0[p] + u * dt[p], x0[p] + u * dx[p])
        return j0 * dx[p] - j1 * dt[p]

    # live intervals as parallel arrays: piece, ends, density at the ends
    p = np.arange(n)
    a, b = ua, ub
    g = density(np.concatenate([p, p]), np.concatenate([a, b]))
    ga, gb = g[:p.size], g[p.size:]
    counts = np.ones(n, dtype=np.int64)
    done = []
    while p.size:
        h = b - a
        reach = slope[p] * h
        mid = 0.5 * (a + b)
        sure = (ga * gb > 0.0) & (
            (np.abs(ga) + np.abs(gb) > reach)
            | (np.minimum(np.abs(ga), np.abs(gb)) > 0.125 * bend[p] * h * h))
        # an interval at floating-point resolution cannot be halved
        stop = sure | (reach <= floor[p]) | (mid <= a) | (mid >= b)
        done.append((p[stop], a[stop], b[stop], ga[stop], gb[stop]))
        split = ~stop
        p, a, b, mid, ga, gb = (p[split], a[split], b[split], mid[split],
                                ga[split], gb[split])
        counts += np.bincount(p, minlength=n)
        if counts.max() > tolerances.quad_max_panels:
            i = int(seg[np.argmax(counts)])
            raise QuadratureOverflowError(
                f"sign of the density on segment {i} not resolved within "
                f"{tolerances.quad_max_panels} intervals")
        gm = density(p, mid)
        p = np.concatenate([p, p])
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        ga, gb = np.concatenate([ga, gm]), np.concatenate([gm, gb])
    p, a, b, ga, gb = (np.concatenate(col) for col in zip(*done))
    cross = (ga * gb <= 0.0) & (ga != gb)
    roots = a[cross] + (b[cross] - a[cross]) * (
        ga[cross] / (ga[cross] - gb[cross]))
    # breakpoints of each piece in order: its ends and the roots inside it
    which = np.concatenate([np.arange(n), np.arange(n), p[cross]])
    u = np.concatenate([ua, ub, roots])
    order = np.lexsort((u, which))
    which, u = which[order], u[order]
    phi = packet.stream_grid(t0[which] + u * dt[which],
                             x0[which] + u * dx[which])
    same = which[1:] == which[:-1]
    return float(np.sum(np.abs(np.diff(phi))[same]))


def probability_wrapped(packet, surface: Hypersurface, la: float, lb: float,
                        tolerances: Tolerances = DEFAULT) -> float:
    """Probability over the forward lambda arc from la to lb (may wrap 1 -> 0)."""
    if lb >= la:
        return probability(packet, surface, (la, lb), tolerances)
    return (probability(packet, surface, (la, 1.0), tolerances)
            + probability(packet, surface, (0.0, lb), tolerances))


# -- advection and foliations ------------------------------------------------


def advect_leaf(packet, surface: Hypersurface, ds: float,
                tolerances: Tolerances = DEFAULT) -> Hypersurface:
    """Flow every node along its integral curve for affine parameter ds.

    All nodes are traced as one batch. Nodes sitting on current zeros are
    pinned in place and flagged in stagnant_nodes of the returned leaf; node
    count and lambda values are preserved. Step underflow propagates.
    """
    if ds < 0.0:
        raise ValueError("advection parameter must be nonnegative")
    if ds == 0.0:
        return Hypersurface(surface.lam.copy(), surface.t.copy(),
                            surface.x.copy(), surface.box_length,
                            surface.stagnant_nodes)
    curves = flow.trace_curves(packet, surface.t, surface.x, ds,
                               tolerances=tolerances)
    new_t = np.array([c.t[-1] for c in curves])
    new_x = np.array([c.x[-1] for c in curves])
    stagnant = set(surface.stagnant_nodes)
    stagnant.update(i for i, c in enumerate(curves)
                    if c.terminated is flow.Termination.STAGNATION)
    return Hypersurface(surface.lam.copy(), new_t, new_x, surface.box_length,
                        tuple(sorted(stagnant)))


def stack_leaves(seed: Hypersurface, n_leaves: int, dt: float) -> list:
    """Rigid time translates of one leaf (a non-adapted foliation candidate)."""
    if n_leaves < 2:
        raise GridError("a foliation needs at least two leaves")
    return [seed.translated(k * dt) for k in range(n_leaves)]


@dataclass(eq=False)
class Foliation:
    """A stack of leaves plus the congruence used to judge admissibility."""

    leaves: list
    congruence: flow.Congruence
    counts: np.ndarray
    touches: np.ndarray
    stagnant: np.ndarray
    admissible: bool

    def as_report(self) -> dict:
        return {
            "leaves": len(self.leaves),
            "curves": len(self.congruence.curves),
            "counts": self.counts.tolist(),
            "touches": self.touches.tolist(),
            "stagnant": self.stagnant.tolist(),
            "admissible": bool(self.admissible),
        }


def assess_foliation(leaves, congruence: flow.Congruence,
                     tolerances: Tolerances = DEFAULT) -> Foliation:
    """Fill the crossing-count report for every (curve, leaf) pair.

    A curve is stagnant when its trace ended in stagnation (or never moved);
    stagnant curves are excluded from the admissibility verdict but their
    counts stay in the report.
    """
    n_curves = len(congruence.curves)
    n_leaves = len(leaves)
    counts = np.zeros((n_curves, n_leaves), dtype=int)
    touches = np.zeros(n_curves, dtype=int)
    stagnant = np.zeros(n_curves, dtype=bool)
    for ci, curve in enumerate(congruence.curves):
        if (curve.terminated is flow.Termination.STAGNATION
                or curve.n_samples < 2):
            stagnant[ci] = True
        for li, leaf in enumerate(leaves):
            events = flow.crossing_events(curve, leaf, tolerances)
            counts[ci, li] = len(events)
            touches[ci] += sum(1 for ev in events if ev.kind == "touch")
    active = ~stagnant
    admissible = bool(np.all(counts[active] == 1)) if active.any() else False
    return Foliation(list(leaves), congruence, counts, touches, stagnant,
                     admissible)


def build_foliation(packet, seed: Hypersurface, n_leaves: int, ds: float,
                    congruence_size: int, tolerances: Tolerances = DEFAULT,
                    s_max: float | None = None) -> Foliation:
    """Advect the seed n_leaves - 1 times and check admissibility.

    Curves are traced a half step beyond the leaf stack on both sides so
    every expected crossing is interior to the traced range.
    """
    if n_leaves < 2:
        raise GridError("a foliation needs at least two leaves")
    if ds <= 0.0:
        raise ValueError("leaf spacing ds must be positive")
    leaves = [seed]
    for _ in range(n_leaves - 1):
        leaves.append(advect_leaf(packet, leaves[-1], ds, tolerances))
    s_forward = s_max if s_max is not None else (n_leaves - 1) * ds + 0.5 * ds
    congruence = flow.seed_congruence(packet, seed, congruence_size, s_forward,
                                      s_back=0.5 * ds, tolerances=tolerances)
    return assess_foliation(leaves, congruence, tolerances)


# -- flux tubes --------------------------------------------------------------


@dataclass(frozen=True)
class TubeReport:
    """Probabilities through two cross-sections of one flux tube."""

    p_a: float
    p_b: float
    range_b: tuple

    @property
    def residual(self) -> float:
        return abs(self.p_a - self.p_b)


def _leaf_param_of_event(surface: Hypersurface, event) -> float:
    lam_c = surface._lam_c
    i = event.leaf_seg
    return float(lam_c[i] + event.v * (lam_c[i + 1] - lam_c[i]))


def _map_to_leaf(packet, starts, target: Hypersurface,
                 tolerances: Tolerances, s_hint: float | None,
                 max_doublings: int) -> list:
    """Leaf parameters where the curves through `starts` first cross `target`.

    The curves run as one batch, in the bracketing pass and in the tight
    re-trace; a curve that has not reached the leaf runs again with twice
    its budget. The first curve, in the order of `starts`, that cannot reach
    the leaf raises NoIntersectionError.
    """
    n = len(starts)
    t0 = np.array([p.t for p in starts])
    x0 = np.array([p.x for p in starts])
    budget = np.full(n, s_hint if s_hint is not None else packet.box_length)
    curves = [None] * n
    events = [[] for _ in range(n)]
    failures = {}
    todo = list(range(n))
    for _ in range(max_doublings + 1):
        traced = flow.trace_curves(packet, t0[todo], x0[todo], budget[todo],
                                   tolerances=tolerances, strict=False)
        retry = []
        for i, curve in zip(todo, traced):
            curves[i] = curve
            events[i] = flow.crossing_events(curve, target, tolerances)
            if events[i]:
                continue
            if curve.terminated is not flow.Termination.RANGE_END:
                failures[i] = (f"terminated ({curve.terminated.value}) "
                               f"before reaching the leaf")
            else:
                retry.append(i)
        todo = retry
        if not todo:
            break
        budget[todo] *= 2.0
    for i in todo:
        failures[i] = (f"did not reach the leaf within affine budget "
                       f"{budget[i] / 2.0:.6g}")
    if failures:
        i = min(failures)
        raise NoIntersectionError(
            f"curve from (t={t0[i]:.6g}, x={x0[i]:.6g}) {failures[i]}")
    # refine: the coarse pass only brackets the crossing; re-integrate the
    # whole arc from the seed (exactly on the source leaf) at tight tolerance
    # so no accumulated drift survives, then intersect the dense resample
    firsts = [ev[0] for ev in events]
    spans = np.array([curve.s[min(ev.curve_seg + 2, curve.n_samples - 1)]
                      for curve, ev in zip(curves, firsts)])
    lams = [_leaf_param_of_event(target, ev) for ev in firsts]
    arcs = [i for i in range(n) if spans[i] > 0.0]
    tight = tolerances.overridden(rk_tol=1e-11)
    subs = flow.trace_curves(packet, t0[arcs], x0[arcs], spans[arcs],
                             tolerances=tight, strict=False)
    for i, sub in zip(arcs, subs):
        lams[i] = _refined_param(target, sub, firsts[i], tolerances)
    return lams


def _refined_param(target: Hypersurface, sub, ev,
                   tolerances: Tolerances) -> float:
    """Leaf parameter of the first crossing of the tightly traced arc `sub`.

    Falls back to the coarse event `ev` when the resampled arc misses the leaf.
    """
    ss, st, sx = sub.resampled(4)
    sub_events = leaf_crossings(st, sx, target.leaf_geometry(tolerances.snap))
    hits = [e for e in sub_events if e.kind == "crossing"] or sub_events
    if not hits:
        return _leaf_param_of_event(target, ev)
    sev = hits[0]
    # polish: bisect the crossed segment's side function along the dense
    # output, removing the chord sagitta of the resampled polyline
    i = sev.leaf_seg
    q0t = float(target._t_c[i])
    q0x = float(target._x_c[i]) + sev.shift * target.box_length
    dt_l = float(target._t_c[i + 1] - target._t_c[i])
    dx_l = float(target._x_c[i + 1] - target._x_c[i])

    def side(s_val: float) -> float:
        pt, px = sub.point_at(s_val)
        return (pt - q0t) * dx_l - (px - q0x) * dt_l

    lo, hi = float(ss[sev.curve_seg]), float(ss[sev.curve_seg + 1])
    f_lo, f_hi = side(lo), side(hi)
    if f_lo * f_hi < 0.0:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f_mid = side(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_lo * f_mid < 0.0:
                hi, f_hi = mid, f_mid
            else:
                lo, f_lo = mid, f_mid
        pt, px = sub.point_at(0.5 * (lo + hi))
        v = (((pt - q0t) * dt_l + (px - q0x) * dx_l)
             / (dt_l * dt_l + dx_l * dx_l))
        sev = CrossingEvent(sev.curve_seg, sev.u, i,
                            min(max(v, 0.0), 1.0), sev.shift, sev.kind)
    return _leaf_param_of_event(target, sev)


def tube_conservation(packet, leaf_a: Hypersurface, range_a,
                      leaf_b: Hypersurface,
                      tolerances: Tolerances = DEFAULT,
                      s_hint: float | None = None,
                      max_doublings: int = 6) -> TubeReport:
    """Probability through a sub-range of leaf_a and through its image on leaf_b.

    The two boundary integral curves of the tube are traced from the endpoints
    of range_a until they cross leaf_b; the wrapped forward arc between the
    two crossing parameters is the image range. For a conserved current the
    two probabilities agree (Gauss law on the tube, no side flux through the
    boundary curves).
    """
    la1, la2 = float(range_a[0]), float(range_a[1])
    if not (0.0 <= la1 <= 1.0 and 0.0 <= la2 <= 1.0 and la1 <= la2):
        raise ValueError("range_a must satisfy 0 <= a <= b <= 1")
    p_a = probability(packet, leaf_a, (la1, la2), tolerances)
    if la1 == la2:
        lb, = _map_to_leaf(packet, [leaf_a.point_at(la1)], leaf_b, tolerances,
                           s_hint, max_doublings)
        return TubeReport(0.0, 0.0, (lb, lb))
    lb1, lb2 = _map_to_leaf(packet,
                            [leaf_a.point_at(la1), leaf_a.point_at(la2)],
                            leaf_b, tolerances, s_hint, max_doublings)
    p_b = probability_wrapped(packet, leaf_b, lb1, lb2, tolerances)
    return TubeReport(p_a, p_b, (lb1, lb2))


# -- export ------------------------------------------------------------------


def leaf_rows(packet, leaves, tolerances: Tolerances = DEFAULT) -> list:
    """Per-node export table, returned as columns: one row per (leaf, node)
    with the node's outgoing segment.

    The columns are, in order, leaf id, lambda, t, x, the two components
    of ntilde per unit lambda, j0, j1, ptilde and the segment class.
    """
    dlam = np.concatenate([np.diff(leaf._lam_c) for leaf in leaves])
    lam, t, x, dt, dx = (np.concatenate([getattr(leaf, name)
                                         for leaf in leaves])
                         for name in ("lam", "t", "x", "_dt", "_dx"))
    j0, j1 = np.concatenate([packet.current_grid(leaf.t, leaf.x)
                             for leaf in leaves], axis=1)
    # the segment classes of surface_element, for all segments at once
    classes = classify_array(dt, dx, np.abs(dt) + np.abs(dx), tolerances)
    ids = np.repeat(np.arange(len(leaves)), [leaf.n_segments
                                             for leaf in leaves])
    return [ids, lam, t, x, dx / dlam, -dt / dlam, j0, j1,
            np.abs(j0 * dx - j1 * dt) / dlam, [c.value for c in classes]]
