"""Exact polyline predicates on the periodic cylinder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from currentlab.errors import DegenerateGeometryError
from currentlab.geometry import (LeafGeometry, _candidate_pairs,
                                 _orient_signs, leaf_crossings,
                                 orient, orient_exact, snap_to_grid)

from helpers import TWO_PI

SNAP = 1e-12


def flat_leaf(level, n_nodes=8, box_length=TWO_PI):
    xs = np.linspace(0.0, box_length, n_nodes, endpoint=False)
    return LeafGeometry(np.full(n_nodes, level), xs, box_length, SNAP)


def sign_changes(values, level):
    """Strict sign changes of values - level; the flat-leaf crossing oracle."""
    s = np.sign(np.asarray(values) - level)
    assert np.all(s != 0), "oracle requires samples off the leaf"
    return int(np.sum(s[:-1] != s[1:]))


def test_orient_basic():
    assert orient(0, 0, 1, 0, 0, 1) == 1     # left turn
    assert orient(0, 0, 1, 0, 0, -1) == -1   # right turn
    assert orient(0, 0, 2, 2, 5, 5) == 0     # collinear
    assert orient_exact(0, 0, 1, 0, 2, 0) == 0


def test_orient_filter_falls_back_to_exact():
    # both products round in float but are equal exactly; the filtered path
    # must agree with the integer predicate
    bx, by = 123456789, 987654321
    cx, cy = 3 * bx, 3 * by
    p = float(bx) * float(cy)
    assert p != bx * cy or float(by) * float(cx) != by * cx or p > 2.0 ** 53
    assert orient(0, 0, bx, by, cx, cy) == 0
    assert orient_exact(0, 0, bx, by, cx, cy) == 0


def test_orient_agrees_with_exact_on_random_triples():
    rng = np.random.default_rng(7)
    big = 10 ** 9
    for _ in range(500):
        a = rng.integers(-big, big, size=2)
        b = rng.integers(-big, big, size=2)
        if rng.random() < 0.5:
            k = int(rng.integers(-5, 6))
            c = a + k * (b - a)  # exactly collinear
        else:
            c = rng.integers(-big, big, size=2)
        got = orient(a[0], a[1], b[0], b[1], c[0], c[1])
        want = orient_exact(int(a[0]), int(a[1]), int(b[0]), int(b[1]),
                            int(c[0]), int(c[1]))
        assert got == want


def test_orient_signs_agree_with_exact_on_large_triples():
    # coordinates near 2^45, so products of differences pass 2^63: random
    # triples, exactly collinear ones, and ones spanned by consecutive
    # Fibonacci vectors, whose cross product is +-1 while the products it is
    # the difference of are ~2^88, far inside the float filter's margin
    rng = np.random.default_rng(11)
    big = 1 << 45
    a = rng.integers(-big, big, size=(600, 2))
    b = rng.integers(-big, big, size=(600, 2))
    c = rng.integers(-big, big, size=(600, 2))
    k = rng.integers(-5, 6, size=(200, 1))
    c[200:400] = a[200:400] + k * (b[200:400] - a[200:400])
    fib = [0, 1]
    while len(fib) < 66:
        fib.append(fib[-1] + fib[-2])
    n = rng.integers(55, 64, size=200)
    sign = rng.choice([-1, 1], size=(200, 1))
    fib = np.array(fib, dtype=np.int64)
    b[400:] = a[400:] + sign * np.stack([fib[n], fib[n + 1]], axis=1)
    c[400:] = a[400:] + sign * np.stack([fib[n + 1], fib[n + 2]], axis=1)
    got = _orient_signs(a[:, 0], a[:, 1], b[:, 0], b[:, 1], c[:, 0], c[:, 1])
    want = [orient_exact(*map(int, (p[0], p[1], q[0], q[1], r[0], r[1])))
            for p, q, r in zip(a, b, c)]
    assert got.tolist() == want
    assert want[200:400] == [0] * 200 and 0 not in want[400:]


def test_candidate_pairs_match_scalar_search():
    rng = np.random.default_rng(5)
    n = 32
    xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
    leaf = LeafGeometry(0.4 * np.sin(2 * xs), xs, TWO_PI, SNAP)
    ct = rng.uniform(-0.6, 0.6, 40)
    cx = np.cumsum(rng.uniform(-0.5, 1.5, 40)) - 2 * TWO_PI
    cti, cxi = snap_to_grid(ct, SNAP), snap_to_grid(cx, SNAP)
    cti[7], cxi[7] = cti[6], cxi[6]   # a zero-length curve segment
    want = []
    for k in range(len(cti) - 1):
        if cti[k] == cti[k + 1] and cxi[k] == cxi[k + 1]:
            continue
        blo, bhi = sorted((cxi[k], cxi[k + 1]))
        btlo, bthi = sorted((cti[k], cti[k + 1]))
        for shift in range(-6, 7):
            off = shift * leaf.period
            for m in range(leaf.n_segments):
                if (leaf.xlo[m] + off <= bhi and leaf.xhi[m] + off >= blo
                        and leaf.tlo[m] <= bthi and leaf.thi[m] >= btlo):
                    want.append((k, shift, m))
    got = list(zip(*(v.tolist() for v in _candidate_pairs(cti, cxi, leaf))))
    assert got == want
    assert len({shift for _, shift, _ in want}) >= 3


def test_snap_to_grid_rounds_to_nearest():
    got = snap_to_grid([1.0, 1.0 + 0.4e-12, -2.6e-12], 1e-12)
    assert got.tolist() == [10 ** 12, 10 ** 12, -3]


def test_membership_sides_flat_leaf():
    leaf = flat_leaf(0.0)
    up = snap_to_grid([1.0], SNAP)[0]
    dn = snap_to_grid([-1.0], SNAP)[0]
    x = snap_to_grid([2.5], SNAP)[0]
    assert leaf.membership(up, x) == 1
    assert leaf.membership(dn, x) == -1
    assert leaf.membership(0, x) == 0
    # period copies see the same leaf
    far = snap_to_grid([2.5 + 7 * TWO_PI], SNAP)[0]
    assert leaf.membership(up, far) == 1
    assert leaf.membership(dn, far) == -1


def test_membership_sides_wavy_leaf():
    n = 16
    xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
    ts = 0.3 * np.sin(xs)
    leaf = LeafGeometry(ts, xs, TWO_PI, SNAP)
    ti = snap_to_grid(ts, SNAP)
    xi = snap_to_grid(xs, SNAP)
    hi = snap_to_grid([1.0], SNAP)[0]
    lo = snap_to_grid([-1.0], SNAP)[0]
    for j in range(n):
        assert leaf.membership(ti[j], xi[j]) == 0
        assert leaf.membership(hi, xi[j]) == 1
        assert leaf.membership(lo, xi[j]) == -1


def test_zero_length_leaf_segment_rejected():
    with pytest.raises(DegenerateGeometryError):
        LeafGeometry(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 3.0]),
                     TWO_PI, SNAP)


def test_vertical_curve_crosses_graph_leaf_once():
    xs = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    leaf = LeafGeometry(0.25 * np.cos(3 * xs), xs, TWO_PI, SNAP)
    for x0 in [0.13, 2.0, 5.11]:
        events = leaf_crossings(np.array([-2.0, 2.0]),
                                np.array([x0, x0]), leaf)
        assert len(events) == 1
        assert events[0].kind == "crossing"


def test_crossing_parameters_simple_vertical():
    xs = np.array([0.0, math.pi])
    leaf = LeafGeometry(np.zeros(2), xs, TWO_PI, SNAP)
    events = leaf_crossings(np.array([-1.0, 1.0]), np.array([1.0, 1.0]), leaf)
    assert len(events) == 1
    ev = events[0]
    assert ev.curve_seg == 0 and ev.leaf_seg == 0 and ev.shift == 0
    assert ev.u == pytest.approx(0.5, abs=1e-9)
    assert ev.v == pytest.approx(1.0 / math.pi, abs=1e-9)


def test_s_curve_crosses_three_times():
    s = np.linspace(-1.6, 1.7, 377)
    t = s ** 3 - s
    x = 2.0 + 0.3 * s
    leaf = flat_leaf(0.0)
    events = leaf_crossings(t, x, leaf)
    assert len(events) == 3
    assert all(ev.kind == "crossing" for ev in events)
    positions = [ev.curve_seg + ev.u for ev in events]
    assert positions == sorted(positions)
    assert all(0.0 <= ev.u <= 1.0 and 0.0 <= ev.v <= 1.0 for ev in events)


def test_vertex_touch_vs_vertex_crossing():
    leaf = flat_leaf(0.0)
    touch = leaf_crossings(np.array([0.5, 0.0, 0.5]),
                           np.array([0.1, 0.7, 1.3]), leaf)
    assert [ev.kind for ev in touch] == ["touch"]
    cross = leaf_crossings(np.array([0.5, 0.0, -0.5]),
                           np.array([0.1, 0.7, 1.3]), leaf)
    assert [ev.kind for ev in cross] == ["crossing"]


def test_endpoint_contact_is_touch():
    leaf = flat_leaf(0.0)
    events = leaf_crossings(np.array([0.0, 0.8]), np.array([0.3, 0.9]), leaf)
    assert len(events) == 1
    assert events[0].kind == "touch"
    assert events[0].curve_seg == 0 and events[0].u == 0.0


def test_collinear_overlap_raises():
    leaf = flat_leaf(0.0)
    with pytest.raises(DegenerateGeometryError):
        leaf_crossings(np.array([0.0, 0.0]), np.array([0.2, 0.9]), leaf)


def test_winding_curve_counts_each_pass_once():
    # three full windings at constant slope cross a flat leaf once: the
    # period copies must not duplicate the event
    t = np.linspace(-1.0, 1.0, 50)
    x = np.linspace(0.0, 3 * TWO_PI, 50)
    leaf = flat_leaf(0.0)
    assert len(leaf_crossings(t, x, leaf)) == 1
    # an oscillating time profile with winding x crosses once per sign change
    s = np.linspace(0.0, 1.0, 200)
    t = 0.5 * np.sin(5 * TWO_PI * s + 0.31)
    x = 3 * TWO_PI * s
    events = leaf_crossings(t, x, leaf)
    assert len(events) == sign_changes(t, 0.0) == 10


def test_random_polylines_match_sign_change_oracle():
    rng = np.random.default_rng(917)
    leaf = flat_leaf(0.2, n_nodes=12)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        t = rng.uniform(-1.0, 1.0, size=n)
        t[np.abs(t - 0.2) < 1e-6] += 1e-3  # keep samples off the leaf
        x = np.cumsum(rng.uniform(0.01, 0.9, size=n)) + rng.uniform(0, TWO_PI)
        events = leaf_crossings(t, x, leaf)
        assert len(events) == sign_changes(t, 0.2)
        assert all(ev.kind == "crossing" for ev in events)


def test_refinement_keeps_events_fixed():
    rng = np.random.default_rng(41)
    leaf = flat_leaf(-0.1, n_nodes=10)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        t = rng.uniform(-1.0, 1.0, size=n)
        t[np.abs(t + 0.1) < 1e-6] += 1e-3
        x = np.cumsum(rng.uniform(0.05, 0.7, size=n))
        base = leaf_crossings(t, x, leaf)
        t2 = np.empty(2 * n - 1)
        x2 = np.empty(2 * n - 1)
        t2[::2], x2[::2] = t, x
        t2[1::2] = 0.5 * (t[:-1] + t[1:])
        x2[1::2] = 0.5 * (x[:-1] + x[1:])
        fine = leaf_crossings(t2, x2, leaf)
        assert len(fine) == len(base)
        for a, b in zip(base, fine):
            pos_a = (a.curve_seg + a.u) / (n - 1)
            pos_b = (b.curve_seg + b.u) / (2 * n - 2)
            assert pos_a == pytest.approx(pos_b, abs=1e-9)
            assert a.leaf_seg == b.leaf_seg and a.shift == b.shift


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-6),
                min_size=2, max_size=12),
       st.lists(st.floats(0.05, 0.8), min_size=11, max_size=11),
       st.floats(0.0, TWO_PI))
def test_property_crossing_parity_matches_side_change(ts, steps, x0):
    ts = np.asarray(ts)
    xs = x0 + np.concatenate([[0.0], np.cumsum(steps[:len(ts) - 1])])
    leaf = flat_leaf(0.0)
    events = leaf_crossings(ts, xs, leaf)
    proper = sum(1 for ev in events if ev.kind == "crossing")
    side_changed = (ts[0] > 0) != (ts[-1] > 0)
    assert proper % 2 == (1 if side_changed else 0)
    assert all(ev.kind == "crossing" for ev in events)
    assert len(events) == sign_changes(ts, 0.0)


def _ray_hits_reference(leaf, pt, qx):
    """The scalar loop of the membership ray cast, over Python integers."""
    hits = 0
    for i in range(leaf.n_segments):
        x1, x2 = int(leaf.xc[i]), int(leaf.xc[i + 1])
        t1, t2 = int(leaf.tc[i]), int(leaf.tc[i + 1])
        if (min(x1, x2) <= qx <= max(x1, x2)
                and min(t1, t2) <= pt <= max(t1, t2)):
            if (x2 - x1) * (pt - t1) - (t2 - t1) * (qx - x1) == 0:
                return None
        if x1 == x2 or not (min(x1, x2) <= qx < max(x1, x2)):
            continue
        delta = (t1 - pt) * (x2 - x1) + (t2 - t1) * (qx - x1)
        if delta == 0:
            return None
        if (delta > 0) != (x2 > x1):
            hits += 1
    return hits


def _membership_reference(leaf, pt, px):
    crossings = 0
    for n in range(-((leaf.x_max - px) // leaf.period) - 1,
                   (px - leaf.x_min) // leaf.period + 2):
        qx = px - n * leaf.period
        if leaf.x_min <= qx <= leaf.x_max:
            r = _ray_hits_reference(leaf, pt, qx)
            if r is None:
                return 0
            crossings += r
    return 1 if crossings % 2 else -1


def _lattice_leaf(rng, n_nodes=48, unit=1 << 10):
    """A folded, once-winding leaf on a coarse lattice, with vertical segments.

    Snap 1 keeps the node values as given: coordinates up to ~2^41, so
    products of coordinate differences pass 2^63.
    """
    steps = rng.integers(-2, 5, size=n_nodes) * unit
    xs = np.concatenate([[0], np.cumsum(steps[:-1])])
    ts = rng.integers(-(1 << 31), 1 << 31, size=n_nodes) * unit
    period = int(steps.sum())
    assert period > 0
    return LeafGeometry(ts.astype(float), xs.astype(float), float(period), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_membership_matches_scalar_ray_cast(seed):
    rng = np.random.default_rng(seed)
    leaf = _lattice_leaf(rng)
    assert max(abs(int(v)) for v in leaf.tc) ** 2 > 2 ** 63
    points = []
    # random points over a little more than the leaf's box
    lo_t, hi_t = leaf.t_min, leaf.t_max
    for _ in range(200):
        points.append((int(rng.integers(lo_t - (1 << 30), hi_t + (1 << 30))),
                       int(rng.integers(leaf.x_min - leaf.period,
                                        leaf.x_max + leaf.period))))
    for i in range(leaf.n_segments):
        x1, x2 = int(leaf.xc[i]), int(leaf.xc[i + 1])
        t1, t2 = int(leaf.tc[i]), int(leaf.tc[i + 1])
        # nodes, lattice points on the segment, and rays through the vertex
        g = math.gcd(x2 - x1, t2 - t1)
        points += [(t1, x1), (t1 + (t2 - t1) // g, x1 + (x2 - x1) // g),
                   (t1 + 12345, x1), (t1 - 12345, x1),
                   (t1 + 1, x1 + leaf.period)]
    on_leaf = 0
    for pt, px in points:
        want = _membership_reference(leaf, pt, px)
        assert leaf.membership(pt, px) == want, (pt, px)
        on_leaf += want == 0
    assert on_leaf >= 2 * leaf.n_segments


def test_membership_matches_scalar_ray_cast_on_snapped_leaf():
    n = 64
    xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
    ts = 10.0 + 0.3 * np.sin(3 * xs)
    leaf = LeafGeometry(ts, xs, TWO_PI, SNAP)
    rng = np.random.default_rng(7)
    tq = snap_to_grid(rng.uniform(9.5, 10.5, 300), SNAP)
    xq = snap_to_grid(rng.uniform(-TWO_PI, 2 * TWO_PI, 300), SNAP)
    for pt, px in zip(tq.tolist() + leaf.tc.tolist(),
                      xq.tolist() + leaf.xc.tolist()):
        assert leaf.membership(pt, px) == _membership_reference(leaf, pt, px)
