"""Deterministic polyline geometry on the periodic spacetime cylinder.

Crossing counts between integral curves and hypersurface leaves must be exact
integers, so all sign decisions here run on integer coordinates obtained by
snapping floats to a fixed grid (default 1e-12). A floating-point filter with
a conservative error bound resolves the common far-from-degenerate cases
cheaply; only near-ties fall back to exact integer arithmetic. The filter
operates on the snapped values themselves, so the fast and exact paths can
never disagree. Crossing tests and the membership ray cast run the filter
over numpy arrays of candidate segments; exact arithmetic and the scalar
bookkeeping see only the entries the filter flags or keeps.

Leaves live on the cylinder x ~ x + L. They are stored as one base period
(the closing segment connects the last node to the first node shifted by one
period) and are replicated by integer period shifts on demand, so a curve
whose unwrapped x coordinate winds several times around the box is compared
against the correct copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError

# float-filter share of pure rounding error; products of snapped ints below
# 2^53 convert exactly, each multiply then rounds at 2^-53
_FILTER_EPS = 5e-16
# bound on the entries of one block of curve/leaf segment overlap tests
_PAIR_BLOCK = 1 << 16


def snap_to_grid(values, snap: float):
    return np.rint(np.asarray(values, dtype=float) / snap).astype(np.int64)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def orient_exact(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the cross product (b-a) x (c-a), exact over Python integers."""
    d = (int(bx) - int(ax)) * (int(cy) - int(ay)) \
        - (int(by) - int(ay)) * (int(cx) - int(ax))
    return _sign(d)


def orient(ax, ay, bx, by, cx, cy) -> int:
    """Filtered orientation of one triple of snapped integer coordinates."""
    return int(_orient_signs(*(np.array([v], dtype=np.int64)
                               for v in (ax, ay, bx, by, cx, cy)))[0])


def _orient_signs(ax, ay, bx, by, cx, cy) -> np.ndarray:
    """Signs of (b-a) x (c-a) over int64 coordinate arrays (or scalars).

    A float filter decides every entry whose magnitude clears its
    rounding-error bound. Differences are taken in int64 and rounded once to
    float, each product and their difference round once more, so the
    computed value lies within 4 * 2^-53 * m of the exact one, inside the
    _FILTER_EPS * m margin. No int64 product is formed: snapped coordinates
    reach ~1e13, and their products would overflow. Entries the filter
    leaves undecided are settled exactly over Python integers.
    """
    ux = (bx - ax).astype(float)
    uy = (by - ay).astype(float)
    vx = (cx - ax).astype(float)
    vy = (cy - ay).astype(float)
    p = ux * vy
    q = uy * vx
    d = p - q
    m = np.abs(p) + np.abs(q)
    out = np.sign(d).astype(np.int64)
    points = (ax, ay, bx, by, cx, cy)
    for i in np.flatnonzero(~(np.abs(d) > _FILTER_EPS * m) & (m != 0.0)):
        out[i] = orient_exact(*(v[i] if np.ndim(v) else v for v in points))
    return out


def _within(lo, hi, v) -> bool:
    return min(lo, hi) <= v <= max(lo, hi)


@dataclass
class CrossingEvent:
    """One intersection of a curve polyline with a leaf.

    curve_seg/u locate the event along the curve, leaf_seg/v along the base
    leaf (v in [0, 1] within that segment), shift is the period copy of the
    leaf involved, and kind is "crossing" or "touch". Touches count as one
    crossing by convention but are reported separately so ambiguous geometry
    stays visible.
    """

    curve_seg: int
    u: float
    leaf_seg: int
    v: float
    shift: int
    kind: str


class LeafGeometry:
    """Snapped representation of a closed leaf used for exact predicates."""

    def __init__(self, t, x, box_length: float, snap: float):
        self.snap = float(snap)
        self.period = int(round(box_length / snap))
        ti = snap_to_grid(t, snap)
        xi = snap_to_grid(x, snap)
        # closed node list: one extra node at (t0, x0 + period)
        self.tc = np.append(ti, ti[0])
        self.xc = np.append(xi, xi[0] + self.period)
        if np.any((self.tc[:-1] == self.tc[1:]) & (self.xc[:-1] == self.xc[1:])):
            raise DegenerateGeometryError("leaf has a zero-length segment on the snap grid")
        self.n_segments = len(ti)
        self.xlo = np.minimum(self.xc[:-1], self.xc[1:])
        self.xhi = np.maximum(self.xc[:-1], self.xc[1:])
        self.tlo = np.minimum(self.tc[:-1], self.tc[1:])
        self.thi = np.maximum(self.tc[:-1], self.tc[1:])
        self.x_min = int(self.xlo.min())
        self.x_max = int(self.xhi.max())
        self.t_min = int(self.tlo.min())
        self.t_max = int(self.thi.max())

    # -- parity membership --------------------------------------------------

    def membership(self, pt: int, px: int) -> int:
        """Side of the lifted leaf a snapped point lies on.

        Returns 0 when the point is exactly on the leaf, +1 when a downward
        vertical ray crosses the leaf an odd number of times ("above"), else
        -1 ("below"). Well defined because the leaf winds the cylinder once.
        """
        pt = int(pt)
        px = int(px)
        n_lo = -((self.x_max - px) // self.period) - 1
        n_hi = (px - self.x_min) // self.period + 1
        crossings = 0
        for n in range(n_lo, n_hi + 1):
            qx = px - n * self.period
            if qx < self.x_min or qx > self.x_max:
                continue
            r = self._ray_hits_base(pt, qx)
            if r is None:
                return 0
            crossings += r
        return 1 if crossings % 2 == 1 else -1

    def _ray_hits_base(self, pt: int, qx: int):
        """Count base segments crossed by the downward ray from (pt, qx).

        Returns None when the point itself lies on the leaf. Uses the
        half-open rule [min(x1,x2), max(x1,x2)) so shared vertices are never
        counted twice and touches contribute an even count. Only segments
        whose closed x extent holds qx are tested, all at once.
        """
        near = np.flatnonzero((self.xlo <= qx) & (qx <= self.xhi))
        x1, t1 = self.xc[near], self.tc[near]
        x2, t2 = self.xc[near + 1], self.tc[near + 1]
        # sign of (x2-x1)(pt-t1) - (t2-t1)(qx-x1): the point's side of the
        # segment's line; zero means on the segment, since qx is within it
        side = _orient_signs(x1, t1, x2, t2, qx, pt)
        vertical = x1 == x2
        on_leaf = np.where(vertical,
                           (self.tlo[near] <= pt) & (pt <= self.thi[near]),
                           side == 0)
        if on_leaf.any():
            return None
        # the leaf lies below the point where the side agrees with the sign
        # of the segment's x direction
        below = ~vertical & (qx < self.xhi[near]) & (side == np.sign(x2 - x1))
        return int(np.count_nonzero(below))


def _interp_params(cx1, cy1, cx2, cy2, lx1, ly1, lx2, ly2):
    """Intersection parameters (u along curve seg, v along leaf seg) as floats."""
    rx = float(cx2) - float(cx1)
    ry = float(cy2) - float(cy1)
    sx = float(lx2) - float(lx1)
    sy = float(ly2) - float(ly1)
    qx = float(lx1) - float(cx1)
    qy = float(ly1) - float(cy1)
    den = rx * sy - ry * sx
    u = (qx * sy - qy * sx) / den
    v = (qx * ry - qy * rx) / den
    return min(max(u, 0.0), 1.0), min(max(v, 0.0), 1.0)


def _project_param(ax, ay, bx, by, px, py) -> float:
    """Parameter of the projection of p onto segment a-b, clamped to [0, 1]."""
    dx = float(bx) - float(ax)
    dy = float(by) - float(ay)
    den = dx * dx + dy * dy
    if den == 0.0:
        return 0.0
    v = ((float(px) - float(ax)) * dx + (float(py) - float(ay)) * dy) / den
    return min(max(v, 0.0), 1.0)


def _candidate_pairs(cti, cxi, leaf: LeafGeometry):
    """(curve segment, shift, leaf segment) triples whose boxes overlap.

    Ordered by curve segment, then shift, then leaf segment. Curve segments
    of zero length or outside the leaf's t-range are dropped first; the
    overlap tests run a block of curve segments at a time, so no array
    grows beyond about _PAIR_BLOCK entries.
    """
    c1t, c2t, c1x, c2x = cti[:-1], cti[1:], cxi[:-1], cxi[1:]
    btlo, bthi = np.minimum(c1t, c2t), np.maximum(c1t, c2t)
    blo, bhi = np.minimum(c1x, c2x), np.maximum(c1x, c2x)
    keep = np.flatnonzero(((c1t != c2t) | (c1x != c2x))
                          & (bthi >= leaf.t_min) & (btlo <= leaf.t_max))
    if keep.size == 0:
        return (keep,) * 3
    # the shifts n whose copy of the leaf's x extent meets the segment's
    period = leaf.period
    n_lo = -((leaf.x_max - blo[keep]) // period)
    n_hi = (bhi[keep] - leaf.x_min) // period
    block = max(1, _PAIR_BLOCK // leaf.n_segments)
    parts = []
    for n in range(int(n_lo.min()), int(n_hi.max()) + 1):
        segs = keep[(n_lo <= n) & (n <= n_hi)]
        off = n * period
        for b in range(0, segs.size, block):
            k = segs[b:b + block, None]
            hit = ((leaf.xlo + off <= bhi[k]) & (leaf.xhi + off >= blo[k])
                   & (leaf.tlo <= bthi[k]) & (leaf.thi >= btlo[k]))
            rows, cols = np.nonzero(hit)
            parts.append((segs[b + rows], np.full(rows.size, n), cols))
    ks, ns, ms = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((ms, ns, ks))
    return ks[order], ns[order], ms[order]


def leaf_crossings(curve_t, curve_x, leaf: LeafGeometry):
    """All crossing/touch events of a curve polyline against a leaf.

    curve_t/curve_x are float arrays in original units (x unwrapped). Events
    are ordered along the curve. Raises DegenerateGeometryError when the curve
    shares a segment of nonzero length with the leaf.
    """
    snap = leaf.snap
    cti = snap_to_grid(curve_t, snap)
    cxi = snap_to_grid(curve_x, snap)
    if len(cti) < 2:
        return []

    # the orientation tests of every candidate pair, filtered in bulk; a pair
    # survives when neither segment lies strictly on one side of the other's
    # line, and only survivors reach the scalar code below
    ks, ns, ms = _candidate_pairs(cti, cxi, leaf)
    off = ns * leaf.period
    l1 = (leaf.xc[ms] + off, leaf.tc[ms])
    l2 = (leaf.xc[ms + 1] + off, leaf.tc[ms + 1])
    c1 = (cxi[ks], cti[ks])
    c2 = (cxi[ks + 1], cti[ks + 1])
    o1s = _orient_signs(*l1, *l2, *c1)
    o2s = _orient_signs(*l1, *l2, *c2)
    near = np.flatnonzero((o1s == 0) | (o1s != o2s))
    l1, l2, c1, c2 = ((xs[near], ts[near]) for xs, ts in (l1, l2, c1, c2))
    o3s = _orient_signs(*c1, *c2, *l1)
    o4s = _orient_signs(*c1, *c2, *l2)
    hit = np.flatnonzero((o3s == 0) | (o3s != o4s))

    proper = []    # (pos, event)
    contacts = []  # (point key, pos, leaf_seg, v, shift, curve_seg, u)
    for j in hit:
        i = near[j]
        kseg, n, m = int(ks[i]), int(ns[i]), int(ms[i])
        o1, o2, o3, o4 = int(o1s[i]), int(o2s[i]), int(o3s[j]), int(o4s[j])
        (l1x, l1t), (l2x, l2t), (c1x, c1t), (c2x, c2t) = (
            (int(xs[j]), int(ts[j])) for xs, ts in (l1, l2, c1, c2))
        if o1 and o2 and o3 and o4:
            u, v = _interp_params(c1x, c1t, c2x, c2t, l1x, l1t, l2x, l2t)
            proper.append((kseg + u,
                           CrossingEvent(kseg, u, m, v, n, "crossing")))
            continue
        if o1 == 0 and o2 == 0:
            # both curve endpoints on the leaf line; any overlap of
            # positive length is degenerate
            inside1 = _within(l1x, l2x, c1x) and _within(l1t, l2t, c1t)
            inside2 = _within(l1x, l2x, c2x) and _within(l1t, l2t, c2t)
            span = (min(max(l1x, l2x), max(c1x, c2x))
                    - max(min(l1x, l2x), min(c1x, c2x))) \
                + (min(max(l1t, l2t), max(c1t, c2t))
                   - max(min(l1t, l2t), min(c1t, c2t)))
            if (inside1 or inside2 or
                    (_within(c1x, c2x, l1x) and _within(c1t, c2t, l1t))):
                if span > 0:
                    raise DegenerateGeometryError(
                        "curve and leaf share a collinear segment of "
                        "nonzero length")
        # endpoint / vertex contacts
        if o1 == 0 and _within(l1x, l2x, c1x) and _within(l1t, l2t, c1t):
            v = _project_param(l1x, l1t, l2x, l2t, c1x, c1t)
            contacts.append(((int(c1t), int(c1x)), float(kseg), m, v, n,
                             kseg, 0.0))
        if o2 == 0 and _within(l1x, l2x, c2x) and _within(l1t, l2t, c2t):
            v = _project_param(l1x, l1t, l2x, l2t, c2x, c2t)
            contacts.append(((int(c2t), int(c2x)), float(kseg + 1), m, v,
                             n, kseg, 1.0))
        if o3 == 0 and _within(c1x, c2x, l1x) and _within(c1t, c2t, l1t):
            u = _project_param(c1x, c1t, c2x, c2t, l1x, l1t)
            contacts.append(((int(l1t), int(l1x)), kseg + u, m, 0.0, n,
                             kseg, u))
        if o4 == 0 and _within(c1x, c2x, l2x) and _within(c1t, c2t, l2t):
            u = _project_param(c1x, c1t, c2x, c2t, l2x, l2t)
            contacts.append(((int(l2t), int(l2x)), kseg + u, m, 1.0, n,
                             kseg, u))

    events = [ev for _, ev in sorted(proper, key=lambda pe: pe[0])]
    if not contacts:
        return events

    # group contacts that hit the same snapped point (adjacent curve or leaf
    # segments report the same geometric contact more than once)
    groups = {}
    for key, pos, lseg, v, n, cseg, u in contacts:
        groups.setdefault(key, []).append((pos, lseg, v, n, cseg, u))

    side_cache = {}

    def vertex_side(i: int) -> int:
        if i not in side_cache:
            side_cache[i] = leaf.membership(cti[i], cxi[i])
        return side_cache[i]

    n_vertices = len(cti)
    grouped_events = []
    for key, members in groups.items():
        members.sort()
        pos_lo = members[0][0]
        pos_hi = members[-1][0]
        i = int(np.floor(pos_lo - 1e-9))
        while i >= 0 and vertex_side(i) == 0:
            i -= 1
        before = vertex_side(i) if i >= 0 else None
        i = int(np.ceil(pos_hi + 1e-9))
        while i < n_vertices and vertex_side(i) == 0:
            i += 1
        after = vertex_side(i) if i < n_vertices else None
        kind = "touch"
        if before is not None and after is not None and before * after < 0:
            kind = "crossing"
        _, lseg, v, n, cseg, u = members[0]
        grouped_events.append((pos_lo, CrossingEvent(cseg, u, lseg, v, n, kind)))

    merged = sorted([(pos, ev) for pos, ev in grouped_events]
                    + [(ev.curve_seg + ev.u, ev) for ev in events],
                    key=lambda pe: pe[0])
    return [ev for _, ev in merged]
