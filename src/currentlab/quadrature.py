"""Adaptive composite Gauss-Legendre quadrature.

Used for two-particle probability integrals over pairs of leaf segments
(one-particle flux and probability are differences of the stream function,
`CurrentField.stream_grid`). The 2-d rule works on the tensor grid of the
per-axis nodes: the integrand receives the two node axes as a column and a
row, so a density that is a short sum of separable products is built from
per-axis factors instead of being evaluated at every grid point. Panels
are doubled until the estimate changes by less than the requested relative
tolerance (with an absolute floor so integrals that are genuinely zero do not
trigger endless refinement), up to a hard panel cap per segment. An integral
that has not converged by the cap raises QuadratureOverflowError.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureOverflowError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(7)
# mapped onto [0, 1]
_U01 = 0.5 * (_NODES + 1.0)
_W01 = 0.5 * _WEIGHTS


def panel_points(a: float, b: float, panels: int):
    """Gauss nodes and weights for `panels` equal panels spanning [a, b]."""
    h = (b - a) / panels
    starts = a + h * np.arange(panels)
    u = (starts[:, None] + h * _U01[None, :]).ravel()
    w = np.broadcast_to(h * _W01, (panels, _U01.size)).ravel().copy()
    return u, w


def adaptive(f, a: float, b: float, rel_tol: float, abs_floor: float,
             max_panels: int = 16384) -> float:
    """Integrate the vectorized callable f over [a, b].

    f maps a 1-d array of abscissae to a 1-d array of values. Raises
    QuadratureOverflowError when doubling the panels up to max_panels never
    meets the tolerance (with max_panels 1 no comparison can be made).
    """
    if b <= a:
        return 0.0
    panels = 1
    u, w = panel_points(a, b, panels)
    best = float(np.dot(w, f(u)))
    while panels < max_panels:
        panels *= 2
        u, w = panel_points(a, b, panels)
        nxt = float(np.dot(w, f(u)))
        if abs(nxt - best) <= max(rel_tol * abs(nxt), abs_floor):
            return nxt
        best = nxt
    raise QuadratureOverflowError(
        f"no convergence on [{a:.6g}, {b:.6g}] within {max_panels} panels "
        f"(last estimate {best:.6g})")


def adaptive_2d(f, a1: float, b1: float, a2: float, b2: float,
                rel_tol: float, abs_floor: float, max_panels: int) -> float:
    """Tensor-product version of `adaptive` over the rectangle [a1,b1]x[a2,b2].

    f is called on broadcastable axes, f(u1[:, None], u2[None, :]), with the
    nodes of axis 1 as a column and those of axis 2 as a row; its result is
    broadcast to the (n1, n2) tensor grid and the estimate is w1 @ values @ w2.
    An elementwise integrand of (u1, u2) therefore works unchanged, and a
    separable one can be evaluated from per-axis factors. Both axes are
    refined together; max_panels caps the panel count per axis and
    QuadratureOverflowError is raised when the cap is reached unconverged.
    """
    if b1 <= a1 or b2 <= a2:
        return 0.0

    def estimate(panels):
        u1, w1 = panel_points(a1, b1, panels)
        u2, w2 = panel_points(a2, b2, panels)
        values = np.broadcast_to(f(u1[:, None], u2[None, :]),
                                 (u1.size, u2.size))
        return float(w1 @ values @ w2)

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
