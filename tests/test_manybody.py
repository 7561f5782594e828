"""Symmetrized n-particle currents, marginals, and joint probability."""

import itertools
import math

import numpy as np
import pytest

from currentlab import (DEFAULT, ArityMismatchError, Hypersurface, Mode,
                        QuadratureOverflowError, ScalarWavePacket,
                        ZeroNormError, probability, probability_n,
                        symmetrize)
from currentlab.manybody import ManyBodyPacket, joint_density_rows

from helpers import (TWO_PI, make_packet, probability_density_n,
                     probability_n_flat, random_pair_state)


def product_pair(coeffs, mass=1.0, box_length=TWO_PI):
    """Two identical particles in the state sum_h c_h |h>."""
    raw = [(cg * ch, (g, h)) for g, cg in coeffs for h, ch in coeffs]
    return symmetrize(raw, 2, mass, box_length)


# -- canonical form ----------------------------------------------------------

def test_symmetrize_is_idempotent():
    mb = symmetrize([(1.0 + 2.0j, (1, 3))], 2, 1.0, TWO_PI)
    again = symmetrize(mb.terms[::-1] if False else list(mb.terms), 2, 1.0,
                       TWO_PI)
    assert again.terms == mb.terms


def test_symmetrize_merges_permuted_inputs():
    a = symmetrize([(0.3 + 0.1j, (2, 5)), (0.7, (5, 2))], 2, 1.0, TWO_PI)
    b = symmetrize([(1.0 + 0.1j, (2, 5))], 2, 1.0, TWO_PI)
    assert a.terms == b.terms


def test_arrangements_share_bitwise_coefficients():
    mb = symmetrize([(0.37 + 0.21j, (1, 4)), (1.1j, (4, 4)),
                     (0.5, (-2, 1))], 2, 1.0, TWO_PI)
    cdict = {hs: c for c, hs in mb.terms}
    for hs in cdict:
        assert cdict[hs] == cdict[hs[::-1]]
    mb3 = symmetrize([(1.0, (1, 2, 5))], 3, 1.0, TWO_PI)
    c3 = {hs: c for c, hs in mb3.terms}
    assert len(c3) == 6
    vals = set(c3.values())
    assert len(vals) == 1


def test_mode_objects_fold_into_coefficients():
    a = symmetrize([(2.0, (Mode(1, 0.5j), Mode(3, 2.0)))], 2, 1.0, TWO_PI)
    b = symmetrize([(2.0 * 0.5j * 2.0, (1, 3))], 2, 1.0, TWO_PI)
    assert a.terms == b.terms


def test_cancelling_terms_leave_empty_state():
    with pytest.raises(ZeroNormError):
        symmetrize([(1.0, (1, 2)), (-1.0, (2, 1))], 2, 1.0, TWO_PI)
    with pytest.raises(ZeroNormError):
        symmetrize([], 1, 1.0, TWO_PI)


def test_arity_and_mass_validation():
    with pytest.raises(ArityMismatchError):
        symmetrize([(1.0, (1, 2, 3))], 2, 1.0, TWO_PI)
    with pytest.raises(ValueError):
        symmetrize([(1.0, (0, 1))], 2, 0.0, TWO_PI)  # massless zero harmonic
    with pytest.raises(ValueError):
        symmetrize([(1.0, (1,))], 0, 1.0, TWO_PI)


def test_normalized_unit_probability():
    mb = symmetrize([(0.3, (1, -1)), (0.2j, (2, 2))], 2, 1.0, TWO_PI)
    assert mb.total_probability() != pytest.approx(1.0)
    unit = mb.normalized()
    assert unit.total_probability() == pytest.approx(1.0, abs=1e-14)


# -- evaluation --------------------------------------------------------------

def test_psi_exchange_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(30):
        mb = random_pair_state(rng)
        p1 = (rng.uniform(-2, 2), rng.uniform(0, 6))
        p2 = (rng.uniform(-2, 2), rng.uniform(0, 6))
        a = mb.psi_at([p1, p2])
        b = mb.psi_at([p2, p1])
        assert b == pytest.approx(a, rel=5e-15, abs=1e-15)


def test_current_exchange_exact():
    rng = np.random.default_rng(13)
    for _ in range(30):
        mb = random_pair_state(rng)
        p1 = (rng.uniform(-2, 2), rng.uniform(0, 6))
        p2 = (rng.uniform(-2, 2), rng.uniform(0, 6))
        ja = mb.current_n([p1, p2])
        jb = mb.current_n([p2, p1])
        assert np.array_equal(ja, jb.T)


def test_pair_grid_matches_pointwise_current():
    rng = np.random.default_rng(23)
    mb = random_pair_state(rng)
    pts = [((rng.uniform(-1, 1), rng.uniform(0, 6)),
            (rng.uniform(-1, 1), rng.uniform(0, 6))) for _ in range(8)]
    grid = mb.current_pair_grid(
        [p[0][0] for p in pts], [p[0][1] for p in pts],
        [p[1][0] for p in pts], [p[1][1] for p in pts])
    for i, (p1, p2) in enumerate(pts):
        assert np.allclose(grid[i], mb.current_n([p1, p2]),
                           atol=1e-12 * mb.current_scale)


def test_product_state_current_factorizes():
    rng = np.random.default_rng(5)
    for _ in range(5):
        hs = rng.choice(np.arange(-4, 5), size=3, replace=False).tolist()
        coeffs = [(h, complex(rng.normal(), rng.normal())) for h in hs]
        mb = product_pair(coeffs)
        one = ScalarWavePacket(1.0, TWO_PI, [Mode(h, c) for h, c in coeffs])
        for _ in range(6):
            p1 = (rng.uniform(-1, 1), rng.uniform(0, 6))
            p2 = (rng.uniform(-1, 1), rng.uniform(0, 6))
            j2 = mb.current_n([p1, p2])
            ja = np.array(one.current_at(*p1))
            jb = np.array(one.current_at(*p2))
            assert np.max(np.abs(j2 - np.outer(ja, jb))) \
                < 1e-12 * mb.current_scale


def test_rank_two_current_conserved_in_each_slot():
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(5):
        mb = random_pair_state(rng)
        p1 = (rng.uniform(-1, 1), rng.uniform(0, 6))
        p2 = (rng.uniform(-1, 1), rng.uniform(0, 6))
        for nu in (0, 1):
            dt = (mb.current_n([(p1[0] + h, p1[1]), p2])[0, nu]
                  - mb.current_n([(p1[0] - h, p1[1]), p2])[0, nu]) / (2 * h)
            dx = (mb.current_n([(p1[0], p1[1] + h), p2])[1, nu]
                  - mb.current_n([(p1[0], p1[1] - h), p2])[1, nu]) / (2 * h)
            assert abs(dt + dx) < 1e-6 * mb.current_scale


# -- marginals ---------------------------------------------------------------

def test_marginal_field_matches_slice_quadrature():
    rng = np.random.default_rng(11)
    mb = random_pair_state(rng).normalized()
    mf = mb.marginal_field(0)
    for _ in range(6):
        t, x = rng.uniform(-1, 1), rng.uniform(0, TWO_PI)
        want = mb.marginal_current(0, (t, x), [0.37])
        got = mf.current_at(t, x)
        assert got[0] == pytest.approx(want[0], abs=1e-10 * mf.current_scale)
        assert got[1] == pytest.approx(want[1], abs=1e-10 * mf.current_scale)


def test_marginal_is_slice_time_independent():
    rng = np.random.default_rng(17)
    mb = random_pair_state(rng).normalized()
    for _ in range(4):
        t, x = rng.uniform(-1, 1), rng.uniform(0, TWO_PI)
        a = mb.marginal_current(0, (t, x), [-0.6])
        b = mb.marginal_current(0, (t, x), [1.9])
        assert a[0] == pytest.approx(b[0], abs=1e-10 * mb.current_scale)
        assert a[1] == pytest.approx(b[1], abs=1e-10 * mb.current_scale)


def test_marginal_flux_is_unit_for_normalized_state():
    prod = product_pair([(1, 1.0), (3, 0.5j)]).normalized()
    ent = symmetrize([(1.0, (1, -1))], 2, 1.0, TWO_PI).normalized()
    for mb in (prod, ent):
        for slot in (0, 1):
            assert mb.marginal_field(slot).total_flux() \
                == pytest.approx(1.0, abs=1e-12)


def test_entangled_degenerate_marginal_is_uniform():
    mb = symmetrize([(1.0, (1, -1))], 2, 1.0, TWO_PI).normalized()
    mf = mb.marginal_field(0)
    j0s = [mf.current_at(t, x)[0] for t, x in [(0, 0.3), (0.5, 2.0), (1, 5)]]
    j1s = [mf.current_at(t, x)[1] for t, x in [(0, 0.3), (0.5, 2.0), (1, 5)]]
    assert np.allclose(j0s, 1.0 / TWO_PI, atol=1e-12)
    assert np.allclose(j1s, 0.0, atol=1e-12)


def test_marginal_argument_validation():
    mb = symmetrize([(1.0, (1, 2))], 2, 1.0, TWO_PI)
    with pytest.raises(ValueError):
        mb.marginal_current(2, (0.0, 0.0), [0.0])
    with pytest.raises(ArityMismatchError):
        mb.marginal_current(0, (0.0, 0.0), [0.0, 0.0])
    with pytest.raises(ValueError):
        mb.marginal_field(5)


# -- probability -------------------------------------------------------------

def test_uniform_product_has_flat_joint_density():
    mb = product_pair([(1, 1.0)]).normalized()
    leaves = [Hypersurface.t_const(0.0, TWO_PI, 32),
              Hypersurface.t_const(0.37, TWO_PI, 32)]
    for l1, l2 in [(0.0, 0.0), (0.3, 0.8), (0.99, 0.01)]:
        assert probability_density_n(mb, leaves, (l1, l2)) \
            == pytest.approx(1.0, rel=1e-12)
    assert probability_n(mb, leaves, [(0.0, 1.0), (0.0, 1.0)]) \
        == pytest.approx(1.0, abs=1e-9)
    assert probability_n(mb, leaves, [(0.0, 0.5), (0.0, 1.0)]) \
        == pytest.approx(0.5, abs=1e-9)
    assert probability_n(mb, leaves, [(0.0, 0.5), (0.0, 0.5)]) \
        == pytest.approx(0.25, abs=1e-9)
    assert probability_n(mb, leaves, [(0.2, 0.2), (0.0, 1.0)]) == 0.0


def test_probability_one_particle_degeneration():
    mb = symmetrize([(0.8, (1,)), (0.6j, (-2,))], 1, 1.0, TWO_PI).normalized()
    leaf = Hypersurface.t_const(0.1, TWO_PI, 64)
    via_n = probability_n(mb, [leaf], [(0.0, 1.0)])
    one = mb.as_one_particle()
    direct = probability(one, leaf, (0.0, 1.0))
    assert via_n == direct
    assert one.total_flux() == pytest.approx(1.0, abs=1e-14)


def test_entangled_degenerate_pair_normalizes_on_product_leaves():
    mb = symmetrize([(1.0, (1, -1))], 2, 1.0, TWO_PI).normalized()
    leaves = [Hypersurface.t_const(0.0, TWO_PI, 32),
              Hypersurface.t_const(0.37, TWO_PI, 32)]
    p = probability_n(mb, leaves, [(0.0, 1.0), (0.0, 1.0)])
    assert p == pytest.approx(1.0, abs=1e-6)


def test_nondegenerate_pair_signed_one_but_absolute_exceeds_one():
    """Unequal-frequency entanglement: the joint density dips negative on
    product leaves, so the signed box integral is exactly the norm while the
    absolute integral exceeds it."""
    mb = symmetrize([(1.0, (1, 2))], 2, 1.0, TWO_PI).normalized()
    spread = 1  # per-axis harmonic spread of the density's trig content
    n_pts = 64
    xs = (np.arange(n_pts) + 0.5) * (TWO_PI / n_pts)
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    j = mb.current_pair_grid(np.zeros(x1.size), x1.ravel(),
                             np.full(x2.size, 0.37), x2.ravel())
    dens = j[:, 0, 0]
    rho = dens * (TWO_PI / n_pts) ** 2
    assert 2 * spread + 1 <= n_pts  # midpoint rule is alias-free
    assert float(rho.sum()) == pytest.approx(1.0, abs=1e-12)
    assert float(dens.min()) < -1e-3
    assert float(np.abs(rho).sum()) > 1.001


# the slot-factor kernel of probability_n against the rank-2 current on the
# flattened grid (`probability_n_flat`); a random state's |rho| has kinks
# where rho changes sign, which need many panels on a full range, so it is
# compared on partial and zero-length ranges
ORACLE_STATES = {
    "product-pair": lambda: symmetrize([(1.0, (1, 1))], 2, 1.0, TWO_PI),
    "entangled-pair": lambda: symmetrize([(1.0, (1, -1))], 2, 1.0, TWO_PI),
    "random": lambda: random_pair_state(np.random.default_rng(1)),
}
ORACLE_LEAVES = {
    "t-const": lambda: [Hypersurface.t_const(0.1, TWO_PI, 8),
                        Hypersurface.t_const(0.47, TWO_PI, 7)],
    "curved": lambda: [Hypersurface.t_const(0.1, TWO_PI, 8),
                       Hypersurface.from_graph(
                           lambda x: 0.37 + 0.3 * math.sin(x), TWO_PI, 7)],
}
ORACLE_RANGES = {
    "full": [(0.0, 1.0), (0.0, 1.0)],
    "partial": [(0.1, 0.3), (0.55, 0.7)],
    "zero": [(0.2, 0.2), (0.0, 1.0)],
}


@pytest.mark.parametrize("state, leaves, ranges", [
    (s, l, r) for s in ORACLE_STATES for l in ORACLE_LEAVES
    for r in ORACLE_RANGES if not (s == "random" and r == "full")])
def test_probability_n_matches_flat_rank_two_oracle(state, leaves, ranges):
    mb = ORACLE_STATES[state]().normalized()
    got = probability_n(mb, ORACLE_LEAVES[leaves](), ORACLE_RANGES[ranges])
    want = probability_n_flat(mb, ORACLE_LEAVES[leaves](),
                              ORACLE_RANGES[ranges])
    if ranges == "zero":
        assert got == want == 0.0
    else:
        assert got == pytest.approx(want, rel=1e-13)


def test_one_panel_cap_overflows_on_both_paths():
    mb = symmetrize([(1.0, (1, 1))], 2, 1.0, TWO_PI).normalized()
    leaves = ORACLE_LEAVES["t-const"]()
    one_panel = DEFAULT.overridden(quad_max_panels=1)
    full = ORACLE_RANGES["full"]
    with pytest.raises(QuadratureOverflowError,
                       match="within 1 panels per axis"):
        probability_n_flat(mb, leaves, full, one_panel)
    # the message names the failing segment pair by its lambda intervals
    with pytest.raises(QuadratureOverflowError, match=(
            r"lambda1 in \[0, 0\.125\] x lambda2 in \[0, 0\.142857\] "
            r"within 1 panels per axis")):
        probability_n(mb, leaves, full, one_panel)


def test_joint_density_rows_shape_and_symmetry():
    mb = symmetrize([(1.0, (1, -1))], 2, 1.0, TWO_PI).normalized()
    t0 = Hypersurface.t_const(0.0, TWO_PI, 16)
    columns = joint_density_rows(mb, [t0, t0], grid=9)
    assert [c.shape for c in columns] == [(81,)] * 3
    rows = list(zip(*(c.tolist() for c in columns)))
    dens = {(round(l1, 9), round(l2, 9)): v for l1, l2, v in rows}
    for (l1, l2), v in dens.items():
        assert dens[(l2, l1)] == pytest.approx(v, rel=1e-12, abs=1e-15)
        assert v >= 0.0


def test_joint_density_rows_match_pointwise_density():
    """The vectorized export equals probability_density_n point by point."""
    rng = np.random.default_rng(23)
    mb = random_pair_state(rng).normalized()
    leaves = [Hypersurface.t_const(0.2, TWO_PI, 16),
              Hypersurface.from_graph(lambda x: 0.37 + 0.3 * math.sin(x),
                                      TWO_PI, 11)]
    columns = joint_density_rows(mb, leaves, grid=13)
    assert [c.shape for c in columns] == [(169,)] * 3
    rows = list(zip(*(c.tolist() for c in columns)))
    for l1, l2, v in rows:
        want = probability_density_n(mb, leaves, (l1, l2))
        assert v == pytest.approx(want, rel=1e-13, abs=1e-14)


def test_probability_argument_validation():
    mb2 = symmetrize([(1.0, (1, 2))], 2, 1.0, TWO_PI)
    leaf = Hypersurface.t_const(0.0, TWO_PI, 8)
    with pytest.raises(ArityMismatchError):
        probability_n(mb2, [leaf], [(0.0, 1.0)])
    mb3 = symmetrize([(1.0, (1, 2, 3))], 3, 1.0, TWO_PI)
    with pytest.raises(ArityMismatchError):
        probability_n(mb3, [leaf] * 3, [(0.0, 1.0)] * 3)
    with pytest.raises(ArityMismatchError):
        probability_density_n(mb2, [leaf], (0.5,))
    with pytest.raises(ArityMismatchError):
        mb2.psi_at([(0.0, 0.0)])
    with pytest.raises(ArityMismatchError):
        mb2.current_n([(0.0, 0.0)] * 3)
    with pytest.raises(ArityMismatchError):
        mb2.as_one_particle()
    with pytest.raises(ArityMismatchError):
        mb3.current_pair_grid([0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ArityMismatchError):
        joint_density_rows(mb3, [leaf] * 3)


def test_direct_construction_validation():
    with pytest.raises(ZeroNormError):
        ManyBodyPacket(2, 1.0, TWO_PI, ())
    with pytest.raises(ArityMismatchError):
        ManyBodyPacket(2, 1.0, TWO_PI, ((1.0 + 0j, (1, 2, 3)),))
    with pytest.raises(ValueError):
        ManyBodyPacket(2, -1.0, TWO_PI, ((1.0 + 0j, (1, 2)),))
