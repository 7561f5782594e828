"""Integral curves of the conserved current and congruences seeded on leaves.

Curves solve dx^mu/ds = j^mu(x) for the affine parameter s. The right-hand
side is a closed-form mode sum, so the only numerics here is the integrator:
an embedded Dormand-Prince 4(5) pair with proportional step control, cubic
Hermite dense output between accepted steps, and two extra termination
channels beyond reaching the end of the parameter range: stagnation (the
current magnitude drops below a scale-relative cutoff) and step underflow
(the controller would need a step below hmin to meet tolerance).

Curves run as lanes of one batch: each lane keeps its own step size, span
and direction, and every stage evaluates the field once at the points of
all live lanes. The arithmetic is elementwise, so a curve's bytes never
depend on the batch it ran in.

x is stored unwrapped so winding around the periodic box stays visible;
crossing counts against leaves are computed on the cylinder by the geometry
module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import StepUnderflowError
from .tolerances import DEFAULT, Tolerances

# Dormand-Prince 4(5) tableau (FSAL: the 7th stage is f at the new point, and
# its row of A is the fifth-order solution). Rows hold (stage, coefficient)
# pairs without the zeros; every lane sums them in this order, one
# elementwise operation at a time, so no lane's arithmetic depends on the
# other lanes of its batch.
_A = [
    (),
    ((0, 1 / 5),),
    ((0, 3 / 40), (1, 9 / 40)),
    ((0, 44 / 45), (1, -56 / 15), (2, 32 / 9)),
    ((0, 19372 / 6561), (1, -25360 / 2187), (2, 64448 / 6561),
     (3, -212 / 729)),
    ((0, 9017 / 3168), (1, -355 / 33), (2, 46732 / 5247), (3, 49 / 176),
     (4, -5103 / 18656)),
    ((0, 35 / 384), (2, 500 / 1113), (3, 125 / 192), (4, -2187 / 6784),
     (5, 11 / 84)),
]
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_B5 = dict(_A[6])
_ERR = tuple((j, _B5.get(j, 0.0) - b4) for j, b4 in enumerate(_B4)
             if _B5.get(j, 0.0) != b4)


class Termination(enum.Enum):
    RANGE_END = "range_end"
    STAGNATION = "stagnation"
    STEP_UNDERFLOW = "step_underflow"


# lane termination codes of the integrator core, indices into _ENDS; a
# two-sided curve ends with the larger code of its halves
_RANGE_END, _STAGNATION, _STEP_UNDERFLOW = 0, 1, 2
_ENDS = (Termination.RANGE_END, Termination.STAGNATION,
         Termination.STEP_UNDERFLOW)


@dataclass(eq=False)
class IntegralCurve:
    """Accepted samples of one integral curve, ordered by strictly increasing s."""

    s: np.ndarray
    t: np.ndarray
    x: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    terminated: Termination
    box_length: float

    @property
    def n_samples(self) -> int:
        return len(self.s)

    def _interval(self, s_val: float) -> int:
        i = int(np.searchsorted(self.s, s_val, side="right")) - 1
        return min(max(i, 0), len(self.s) - 2)

    def point_at(self, s_val: float) -> tuple:
        """Dense output: cubic Hermite interpolation between accepted samples."""
        if len(self.s) == 1:
            return (float(self.t[0]), float(self.x[0]))
        i = self._interval(s_val)
        h = self.s[i + 1] - self.s[i]
        tau = (s_val - self.s[i]) / h
        h00 = (1 + 2 * tau) * (1 - tau) ** 2
        h10 = tau * (1 - tau) ** 2
        h01 = tau * tau * (3 - 2 * tau)
        h11 = tau * tau * (tau - 1)
        t = h00 * self.t[i] + h10 * h * self.j0[i] + h01 * self.t[i + 1] \
            + h11 * h * self.j0[i + 1]
        x = h00 * self.x[i] + h10 * h * self.j1[i] + h01 * self.x[i + 1] \
            + h11 * h * self.j1[i + 1]
        return (float(t), float(x))

    def resampled(self, factor: int) -> tuple:
        """Dense-output polyline with `factor` subsamples per accepted step.

        Returns (s, t, x) arrays; used for refinement-invariance checks.
        """
        if len(self.s) == 1 or factor <= 1:
            return self.s.copy(), self.t.copy(), self.x.copy()
        ss = [self.s[0]]
        for i in range(len(self.s) - 1):
            seg = np.linspace(self.s[i], self.s[i + 1], factor + 1)[1:]
            ss.extend(seg.tolist())
        ss = np.array(ss)
        pts = np.array([self.point_at(v) for v in ss])
        pts[0] = (self.t[0], self.x[0])
        return ss, pts[:, 0], pts[:, 1]


def _combine(row, k):
    """Sum of coefficient * stage over one tableau row, lane by lane."""
    (j, a), *rest = row
    acc = a * k[j]
    for j, a in rest:
        acc += a * k[j]
    return acc


def _rhs(fld, sign, y):
    """Signed current at the lane points y = (t, x), one field call."""
    j0, j1 = fld.current_grid(y[0], y[1])
    return np.array([sign * j0, sign * j1])


def _dp45(fld, t0, x0, s_max, sign, tol: Tolerances):
    """Lane-batched integration core.

    Lane i follows dy/ds = sign[i] * j(y) from (t0[i], x0[i]) over s in
    [0, s_max[i]] with its own step size; every stage evaluates the field
    once at the points of all live lanes. Lanes leave the batch when they
    reach s_max, stagnate or underflow, and the rest go on. All arithmetic
    is elementwise, so a lane's samples are bitwise the same whichever
    lanes share its batch.

    Returns the samples of all lanes, lane after lane, as an array s and
    arrays y = (t, x) and j = (j0, j1) of two rows, with j the unsigned
    current; the index one past each lane's last sample; and the lanes'
    termination codes.
    """
    n = t0.size
    eps_stag = tol.stagnation_rel * fld.current_scale
    y = np.array([t0, x0])
    f = _rhs(fld, sign, y)
    ends = np.full(n, _RANGE_END)
    lanes = np.arange(n)
    log = [(lanes, np.zeros(n), y, f)]

    stagnant = np.abs(f[0]) + np.abs(f[1]) < eps_stag
    ends[stagnant] = _STAGNATION
    ids = lanes[~stagnant & (s_max > 0.0)]
    y, f = y[:, ids], f[:, ids]
    s = np.zeros(ids.size)
    s_end, sg = s_max[ids], sign[ids]
    h_min = tol.rk_hmin_factor * s_end
    h = np.minimum(s_end, 0.1 * (1.0 + np.abs(y[0]) + np.abs(y[1]))
                   / (np.abs(f[0]) + np.abs(f[1])))
    k = np.empty((7, 2, ids.size))
    while ids.size:
        h = np.minimum(h, s_end - s)
        k[0] = f
        for i in range(1, 7):
            y5 = y + h * _combine(_A[i], k)
            k[i] = _rhs(fld, sg, y5)
        err = h * _combine(_ERR, k)
        sc = tol.rk_tol * np.maximum(1.0, np.maximum(np.abs(y), np.abs(y5)))
        ratio = np.abs(err) / sc
        en = np.maximum(ratio[0], ratio[1])
        ok = en <= 1.0
        s = np.where(ok, s + h, s)
        y = np.where(ok, y5, y)
        # a copy (FSAL): the next attempt overwrites k, and a rejected one
        # must restart from the derivative at the accepted point
        f = np.where(ok, k[6], f)
        log.append((ids[ok], s[ok], y[:, ok], f[:, ok]))
        with np.errstate(divide="ignore"):
            q = 0.9 * en ** -0.2
        # accepted steps grow by at most 5, rejected ones shrink by at most
        # 5; a NaN error norm is a rejection whose new step underflows, so
        # no lane can loop forever
        h = h * np.minimum(np.maximum(q, 0.2), np.where(ok, 5.0, 1.0))
        stop = np.full(ids.size, -1)
        stop[ok & ~(s < s_end * (1.0 - 1e-15))] = _RANGE_END
        stop[ok & (np.abs(f[0]) + np.abs(f[1]) < eps_stag)] = _STAGNATION
        stop[~ok & ~(h >= h_min)] = _STEP_UNDERFLOW
        going = stop < 0
        if not going.all():
            ends[ids[~going]] = stop[~going]
            ids, y, f, s, h = ids[going], y[:, going], f[:, going], \
                s[going], h[going]
            s_end, h_min, sg = s_end[going], h_min[going], sg[going]
            k = k[:, :, going]

    lane = np.concatenate([part[0] for part in log])
    order = np.argsort(lane, kind="stable")
    ss = np.concatenate([part[1] for part in log])[order]
    ys = np.concatenate([part[2] for part in log], axis=1)[:, order]
    js = np.concatenate([part[3] for part in log], axis=1)[:, order] \
        * sign[lane[order]]
    stops = np.cumsum(np.bincount(lane, minlength=n))
    return ss, ys, js, stops, ends


def _start_coords(start) -> tuple:
    if hasattr(start, "t"):
        return float(start.t), float(start.x)
    return float(start[0]), float(start[1])


def trace_curves(fld, t0, x0, s_forward, s_back: float = 0.0,
                 tolerances: Tolerances = DEFAULT,
                 strict: bool = True) -> list:
    """Trace the integral curves through the points (t0[i], x0[i]) together.

    Curve i covers s in [-s_back, s_forward[i]] with s = 0 at its start;
    s_forward is one span or one per curve, and the backward half of a
    two-sided curve is a lane of the same batch running with the sign of
    the field reversed. A curve's bytes never depend on the batch it was
    traced in. With strict=True the first curve whose step control
    underflowed raises StepUnderflowError; otherwise the underflow is
    recorded in its `terminated` and the partial curve is returned.
    """
    t0 = np.asarray(t0, dtype=float).ravel()
    x0 = np.asarray(x0, dtype=float).ravel()
    n = t0.size
    if n == 0:
        return []
    s_fwd = np.broadcast_to(np.asarray(s_forward, dtype=float), (n,))
    two_sided = s_back > 0.0
    lanes = 2 if two_sided else 1
    sign = np.repeat([1.0, -1.0][:lanes], n)
    ss, ys, js, stops, ends = _dp45(
        fld, np.tile(t0, lanes), np.tile(x0, lanes),
        np.concatenate([s_fwd, np.full(n if two_sided else 0, float(s_back))]),
        sign, tolerances)
    bounds = [0] + stops.tolist()

    def lane(i):
        a, b = bounds[i], bounds[i + 1]
        if strict and ends[i] == _STEP_UNDERFLOW:
            raise StepUnderflowError(
                f"step control underflowed near s={ss[b - 1] * sign[i]:.6g} "
                f"(t={ys[0, b - 1]:.6g}, x={ys[1, b - 1]:.6g})")
        return ss[a:b], ys[0, a:b], ys[1, a:b], js[0, a:b], js[1, a:b]

    curves = []
    for i in range(n):
        s, t, x, j0, j1 = lane(i)
        end = ends[i]
        if two_sided:
            bs, *back = lane(n + i)
            # the backward lane ran from s = 0 outwards: reverse it, drop
            # its copy of the start sample and count its s down from 0
            s, t, x, j0, j1 = (np.concatenate([b[:0:-1], f]) for b, f in
                               zip([-bs, *back], (s, t, x, j0, j1)))
            end = max(end, ends[n + i])
        curves.append(IntegralCurve(s, t, x, j0, j1, _ENDS[end],
                                    fld.box_length))
    return curves


def trace_curve(fld, start, s_max: float, tolerances: Tolerances = DEFAULT,
                strict: bool = True) -> IntegralCurve:
    """Trace one integral curve forward over s in [0, s_max].

    `start` is a SpacetimePoint or (t, x) pair. With strict=True a step
    underflow raises StepUnderflowError; otherwise it is recorded in
    `terminated` and the partial curve is returned.
    """
    t0, x0 = _start_coords(start)
    return trace_curves(fld, [t0], [x0], s_max, 0.0, tolerances, strict)[0]


@dataclass(eq=False)
class Congruence:
    """Curves seeded at equally spaced leaf parameters of one seed surface."""

    curves: list
    seed_surface: object
    seed_params: np.ndarray


def seed_congruence(fld, surface, count: int, s_max: float,
                    s_back: float = 0.0,
                    tolerances: Tolerances = DEFAULT) -> Congruence:
    """Seed `count` curves at lambda_i = i/count on `surface` and trace them.

    All curves, both halves, run as one batch. A curve whose step control
    underflowed is kept, with the underflow in its `terminated`; an
    exception raised by the field propagates.
    """
    if count < 1:
        raise ValueError("congruence needs at least one curve")
    params = np.arange(count) / count
    points = [surface.point_at(lam) for lam in params]
    t0 = np.array([p.t for p in points])
    x0 = np.array([p.x for p in points])
    return Congruence(trace_curves(fld, t0, x0, s_max, s_back, tolerances,
                                   strict=False),
                      surface, params)


def crossing_events(curve: IntegralCurve, surface,
                    tolerances: Tolerances = DEFAULT):
    """Ordered crossing/touch events of a curve against a leaf."""
    leaf = surface.leaf_geometry(tolerances.snap)
    return geometry.leaf_crossings(curve.t, curve.x, leaf)

