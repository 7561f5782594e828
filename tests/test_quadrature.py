"""Adaptive quadrature: convergence and the panel cap."""

import math

import numpy as np
import pytest

from currentlab import QuadratureOverflowError
from currentlab.quadrature import adaptive, adaptive_2d


def test_smooth_integrals_converge():
    got = adaptive(np.sin, 0.0, math.pi, 1e-12, 0.0)
    assert got == pytest.approx(2.0, rel=1e-12)
    got = adaptive_2d(lambda u, v: u * np.exp(v), 0.0, 1.0, 0.0, 1.0, 1e-12,
                      0.0, 128)
    assert got == pytest.approx(0.5 * (math.e - 1.0), rel=1e-12)


def test_unconverged_integral_raises_at_the_cap():
    with pytest.raises(QuadratureOverflowError, match="8 panels"):
        adaptive(lambda x: np.sin(1 / x), 1e-6, 1.0, 1e-14, 0.0, max_panels=8)
    with pytest.raises(QuadratureOverflowError, match="4 panels per axis"):
        adaptive_2d(lambda u, v: np.sin(1 / (u * v)), 1e-6, 1.0, 1e-6, 1.0,
                    1e-14, 0.0, 4)


def test_cap_of_one_panel_never_converges():
    # with a single panel there is no second estimate to compare against
    with pytest.raises(QuadratureOverflowError):
        adaptive(np.ones_like, 0.0, 1.0, 1e-9, 1.0, max_panels=1)
    with pytest.raises(QuadratureOverflowError):
        adaptive_2d(lambda u, v: np.ones_like(u), 0.0, 1.0, 0.0, 1.0, 1e-9,
                    1.0, 1)
    assert adaptive(np.ones_like, 1.0, 1.0, 1e-9, 0.0, max_panels=1) == 0.0


def test_2d_integrand_receives_broadcastable_axes():
    shapes = []

    def f(u, v):
        shapes.append((u.shape, v.shape))
        return np.ones_like(u * v)

    adaptive_2d(f, 0.0, 1.0, 0.0, 2.0, 1e-12, 0.0, 4)
    # one panel, then two: 7 and 14 Gauss nodes per axis
    assert shapes == [((7, 1), (1, 7)), ((14, 1), (1, 14))]


def test_separable_2d_integral_is_product_of_1d_integrals():
    g, h = np.cos, lambda v: np.exp(-v * v)
    got = adaptive_2d(lambda u, v: g(u) * h(v), 0.0, 2.0, -1.0, 0.5, 1e-13,
                      0.0, 64)
    want = adaptive(g, 0.0, 2.0, 1e-13, 0.0) \
        * adaptive(h, -1.0, 0.5, 1e-13, 0.0)
    assert got == pytest.approx(want, rel=1e-13)


def test_2d_integrand_of_one_axis_broadcasts_to_the_grid():
    # np.ones_like(u) has shape (n, 1); it is broadcast over the second axis
    got = adaptive_2d(lambda u, v: np.ones_like(u), 0.0, 2.0, 0.0, 3.0,
                      1e-12, 0.0, 4)
    assert got == pytest.approx(6.0, rel=1e-14)
    got = adaptive_2d(lambda u, v: 2.0 * v, 0.0, 2.0, 0.0, 3.0, 1e-12, 0.0, 4)
    assert got == pytest.approx(18.0, rel=1e-14)
