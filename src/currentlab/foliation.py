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
from .errors import GridError, NoIntersectionError, QuadratureOverflowError
from .geometry import LeafGeometry
from .tolerances import DEFAULT, Tolerances
from .wavefield import SpacetimePoint, classify_array


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


# -- flux and probability ----------------------------------------------------


def flux(packet, surface: Hypersurface) -> float:
    """Signed flux of the current through the leaf: the sum over segments of
    the stream-function difference between their ends."""
    phi = packet.stream_grid(surface._t_c, surface._x_c)
    return float(np.sum(np.diff(phi)))


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


def _map_to_leaf(packet, starts, target: Hypersurface,
                 tolerances: Tolerances, s_hint: float | None,
                 max_doublings: int) -> list:
    """Leaf parameters where the curves through `starts` first cross `target`.

    The curves run as one batch only to pick the crossing, which
    `_level_roots` then solves; a curve that has not reached the leaf runs
    again with twice its budget. The first curve, in the order of
    `starts`, that cannot reach the leaf raises NoIntersectionError.
    """
    n = len(starts)
    t0 = np.array([p.t for p in starts])
    x0 = np.array([p.x for p in starts])
    budget = np.full(n, s_hint if s_hint is not None else packet.box_length)
    events = [[] for _ in range(n)]
    failures = {}
    todo = list(range(n))
    for _ in range(max_doublings + 1):
        traced = flow.trace_curves(packet, t0[todo], x0[todo], budget[todo],
                                   tolerances=tolerances, strict=False)
        retry = []
        for i, curve in zip(todo, traced):
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
    seg = np.array([ev[0].leaf_seg for ev in events])
    v = np.array([ev[0].v for ev in events])
    return _level_roots(packet, target, t0, x0, seg, v).tolist()


# a step in lambda this small is float resolution (a few ulp of 1)
_LAM_RESOLUTION = 4.0 * np.finfo(float).eps


def _level_roots(packet, target: Hypersurface, t0, x0, seg, v):
    """Leaf parameters on `target` where Phi returns to its value at (t0, x0).

    An integral curve keeps its level c of the stream function, so it
    crosses the leaf where Phi_B(lambda) = c + m Q (Q the total flux); m
    rounds (Phi_B - c) / Q at the coarse crossing, local parameter `v` of
    segment `seg`. Along the leaf x stays unwrapped, so each period adds Q
    to Phi and lambda wraps mod 1. The bracket is the crossed segment,
    widened by one segment on each side until its ends straddle the level
    (the coarse crossing lies on a chord of the integrator's steps, a
    segment or more from the root on a fine leaf); a widening that does not
    carry Phi further the way it runs on the crossed segment raises
    NoIntersectionError. On the straddling segment Newton steps on the
    signed density j0 dx - j1 dt run to float resolution, bisecting when a
    step leaves the bracket or the density is not positive.
    """
    n, q = target.n_segments, packet.total_flux()
    phi = packet.stream_grid(target.t, target.x)
    level = packet.stream_grid(t0, x0)
    coarse = packet.stream_grid(target._t_c[seg] + v * target._dt[seg],
                                target._x_c[seg] + v * target._dx[seg])
    level += np.rint((coarse - level) / q) * q

    def f(k):
        """Phi - level at node k of the leaf continued periodically."""
        period, r = np.divmod(k, n)
        return phi[r] + period * q - level

    lo, hi = seg, seg + 1
    rise = np.sign(f(hi) - f(lo))
    while (wide := f(lo) * f(hi) > 0.0).any():
        turned = wide & ~((rise * (f(lo) - f(lo - 1)) > 0.0)
                          & (rise * (f(hi + 1) - f(hi)) > 0.0))
        if turned.any():
            i = int(np.argmax(turned))
            raise NoIntersectionError(
                f"curve from (t={t0[i]:.6g}, x={x0[i]:.6g}) crosses leaf "
                f"segment {seg[i]}, but the stream function turns back on "
                f"segments {(lo[i] - 1) % n}..{hi[i] % n} before reaching "
                f"the curve's level")
        lo, hi = lo - wide, hi + wide
    # the straddling segment: the crossed one or the outer one on the side
    # of the level, solved for its local parameter u
    k = np.where(f(lo) * f(lo + 1) <= 0.0, lo, hi - 1)
    period, r = np.divmod(k, n)
    ta, dt = target._t_c[r], target._dt[r]
    xa, dx = target._x_c[r] + period * target.box_length, target._dx[r]
    lam0 = target._lam_c[r] + period
    dlam = target._lam_c[r + 1] - target._lam_c[r]
    neg = np.where(f(k + 1) > f(k), 0.0, 1.0)  # the end below the level
    pos = 1.0 - neg
    u = np.where(k == seg, v, np.where(k < seg, 1.0, 0.0))
    ids = np.arange(len(seg))
    while ids.size:
        uu = u[ids]
        pt, px = ta[ids] + uu * dt[ids], xa[ids] + uu * dx[ids]
        g = packet.stream_grid(pt, px) - level[ids]
        j0, j1 = packet.current_grid(pt, px)
        slope = j0 * dx[ids] - j1 * dt[ids]
        neg[ids] = np.where(g < 0.0, uu, neg[ids])
        pos[ids] = np.where(g > 0.0, uu, pos[ids])
        a, b = np.minimum(neg[ids], pos[ids]), np.maximum(neg[ids], pos[ids])
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = uu - g / slope
        nxt = np.where((slope > 0.0) & (a < nxt) & (nxt < b), nxt,
                       0.5 * (a + b))
        u[ids] = np.where(g == 0.0, uu, nxt)
        ids = ids[(g != 0.0) & (np.abs(nxt - uu) * dlam[ids] > _LAM_RESOLUTION)
                  & ((b - a) * dlam[ids] > _LAM_RESOLUTION)]
    lam = (lam0 + u * dlam) % 1.0
    return np.where(lam >= 1.0, lam - 1.0, lam)


def tube_conservation(packet, leaf_a: Hypersurface, range_a,
                      leaf_b: Hypersurface,
                      tolerances: Tolerances = DEFAULT,
                      s_hint: float | None = None,
                      max_doublings: int = 6) -> TubeReport:
    """Probability through a sub-range of leaf_a and through its image on leaf_b.

    The boundary integral curves of the tube start at the ends of range_a
    and are traced, as one batch, until they cross leaf_b (from an affine
    budget `s_hint`, doubled at most `max_doublings` times); the stream
    function then places each crossing exactly. The image range is the
    wrapped forward arc between the two. For a conserved current the two
    probabilities agree (Gauss law on the tube, no side flux through the
    boundary curves), to float resolution where the density is positive.
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
    # the causal class of every segment tangent at once
    classes = classify_array(dt, dx, np.abs(dt) + np.abs(dx), tolerances)
    ids = np.repeat(np.arange(len(leaves)), [leaf.n_segments
                                             for leaf in leaves])
    return [ids, lam, t, x, dx / dlam, -dt / dlam, j0, j1,
            np.abs(j0 * dx - j1 * dt) / dlam, [c.value for c in classes]]
