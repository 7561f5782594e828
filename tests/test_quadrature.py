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
