"""Leaves, surface elements, fluxes, foliations, and flux tubes."""

import math

import numpy as np
import pytest

from currentlab import (CausalClass, GridError, Hypersurface,
                        NoIntersectionError, QuadratureOverflowError,
                        Termination, advect_leaf, assess_foliation,
                        beta_example, flux, probability, probability_density,
                        probability_wrapped, seed_congruence, signed_density,
                        stack_leaves, surface_element, tube_conservation)
from currentlab.foliation import leaf_rows

from helpers import (TWO_PI, make_packet, probability_by_root_splitting,
                     random_packet, random_pair_state,
                     random_transverse_photon, segment_flux_by_quadrature)


# -- leaf construction -------------------------------------------------------

def test_leaf_validation():
    with pytest.raises(ValueError):
        Hypersurface([0.0], [0.0], [0.0], TWO_PI)            # one node
    with pytest.raises(ValueError):
        Hypersurface([0.0, 0.0], [0.0, 1.0], [0.0, 1.0], TWO_PI)  # lam ties
    with pytest.raises(ValueError):
        Hypersurface([0.5, 0.2], [0.0, 1.0], [0.0, 1.0], TWO_PI)  # decreasing
    with pytest.raises(ValueError):
        Hypersurface([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], TWO_PI)  # lam hits 1
    with pytest.raises(ValueError):
        Hypersurface([0.0, 0.5], [0.0, np.nan], [0.0, 1.0], TWO_PI)
    with pytest.raises(ValueError):
        Hypersurface([0.0, 0.5], [1.0, 1.0], [0.0, 0.0], TWO_PI)  # same point
    with pytest.raises(ValueError):
        Hypersurface([0.0, 0.5], [0.0, 0.0], [0.0, 1.0], -1.0)


def test_t_const_nodes_and_points():
    leaf = Hypersurface.t_const(0.7, TWO_PI, 8)
    assert leaf.n_segments == 8
    assert np.allclose(leaf.t, 0.7)
    assert np.allclose(leaf.x, np.arange(8) / 8 * TWO_PI)
    p = leaf.point_at(0.5)
    assert (p.t, p.x) == (0.7, math.pi)
    # closure node winds once
    q = leaf.point_at(1.0)
    assert (q.t, q.x) == (0.7, TWO_PI)
    # wrapping
    a, b = leaf.point_at(1.25), leaf.point_at(0.25)
    assert (a.t, a.x) == (b.t, b.x)


def test_from_graph_and_translate_reparametrize():
    leaf = Hypersurface.from_graph(lambda x: 0.2 * math.sin(x), TWO_PI, 16)
    assert np.allclose(leaf.t, 0.2 * np.sin(leaf.x))
    moved = leaf.translated(1.5)
    assert np.allclose(moved.t, leaf.t + 1.5)
    assert np.allclose(moved.x, leaf.x)
    lam2 = (np.arange(16) / 16) ** 2
    re = leaf.reparametrized(lam2)
    assert np.allclose(re.lam, lam2)
    assert np.allclose(re.t, leaf.t)
    # geometry unchanged: same point at matching parameters
    assert re.point_at(lam2[3]).x == pytest.approx(leaf.point_at(3 / 16).x)


# -- surface elements --------------------------------------------------------

def test_surface_element_const_time_leaf():
    leaf = Hypersurface.t_const(0.0, TWO_PI, 8)
    elem = surface_element(leaf, 2)
    dx = TWO_PI / 8
    assert elem.n_tilde_cov == pytest.approx((dx, 0.0))
    assert elem.n_tilde_contra == pytest.approx((dx, 0.0))
    assert elem.seg_class is CausalClass.SPACELIKE
    assert elem.per_unit_lambda() == pytest.approx((TWO_PI, 0.0))


def test_surface_element_finite_on_null_segment():
    leaf = Hypersurface.from_graph(lambda x: x, TWO_PI, 16)
    elem = surface_element(leaf, 4)
    assert elem.seg_class is CausalClass.NULL
    dx = TWO_PI / 16
    assert elem.n_tilde_cov == pytest.approx((dx, -dx))
    assert all(math.isfinite(v) for v in elem.n_tilde_cov)


@pytest.mark.parametrize("beta", [0.0, 0.5, 0.9, 1.0, 1.5, 3.0])
def test_beta_example_matches_surface_element(beta):
    """The straight-leaf closed forms agree with the generic element after
    converting from per-unit-lambda to the example's leaf coordinate."""
    n = 16
    leaf = Hypersurface.from_graph(lambda x: beta * x, TWO_PI, n)
    elem = surface_element(leaf, 5)  # interior segment, slope exactly beta
    plu = elem.per_unit_lambda()
    ref = beta_example(beta)
    conv = math.sqrt(2.0) / ((1.0 + beta * beta) * TWO_PI)
    assert abs(plu[0]) * conv == pytest.approx(ref["n_tilde_mag"][0], rel=1e-12)
    assert abs(plu[1]) * conv == pytest.approx(ref["n_tilde_mag"][1], rel=1e-12,
                                               abs=1e-15)
    g_lam = math.sqrt(abs(1.0 - beta * beta)) * TWO_PI
    assert g_lam * conv == pytest.approx(ref["g_det"], rel=1e-12, abs=1e-15)
    want_class = {1: CausalClass.SPACELIKE, 0: CausalClass.NULL,
                  -1: CausalClass.TIMELIKE_FUTURE}[ref["norm_sign"]]
    assert elem.seg_class is want_class


def test_beta_example_continuous_through_null():
    eps = 1e-8
    lo = beta_example(1.0 - eps)
    on = beta_example(1.0)
    hi = beta_example(1.0 + eps)
    for key in ("g_det",):
        assert abs(lo[key] - on[key]) < 1e-3
        assert abs(hi[key] - on[key]) < 1e-3
    assert on["g_det"] == 0.0
    assert on["norm_sign"] == 0
    assert lo["n_tilde_mag"][0] == pytest.approx(on["n_tilde_mag"][0], abs=1e-7)
    assert hi["n_tilde_mag"][0] == pytest.approx(on["n_tilde_mag"][0], abs=1e-7)


# -- flux --------------------------------------------------------------------

def test_flux_equals_total_flux_on_any_winding_leaf():
    rng = np.random.default_rng(5)
    for _ in range(5):
        packet = random_packet(rng)
        for leaf in [
            Hypersurface.t_const(0.3, TWO_PI, 64),
            Hypersurface.from_graph(lambda x: 0.4 * math.sin(2 * x) + 0.1,
                                    TWO_PI, 64),
            Hypersurface.from_graph(lambda x: 0.3 * math.cos(x), TWO_PI, 31),
        ]:
            assert flux(packet, leaf) == pytest.approx(1.0, abs=1e-13)


def test_flux_invariant_under_reparametrization_and_refinement():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    leaf = Hypersurface.from_graph(lambda x: 0.2 * math.sin(x), TWO_PI, 64)
    base = flux(packet, leaf)
    re = leaf.reparametrized((np.arange(64) / 64) ** 2)
    assert flux(packet, re) == pytest.approx(base, abs=1e-12)
    fine = Hypersurface.from_graph(lambda x: 0.2 * math.sin(x), TWO_PI, 128)
    assert flux(packet, fine) == pytest.approx(base, abs=1e-13)


def _segment_stream_differences(packet, leaf):
    return np.diff(packet.stream_grid(leaf._t_c, leaf._x_c))


def test_stream_differences_match_segment_quadrature(scenario_foliations,
                                                     scenario_packets):
    """Per segment, Delta Phi is the quadrature of j0 dx - j1 dt."""
    cases = [(scenario_packets["skewed"], leaf)
             for leaf in scenario_foliations["skewed"].leaves[1:]]
    rng = np.random.default_rng(8)
    for field in (random_packet(rng), random_packet(rng),
                  random_transverse_photon(rng),
                  random_pair_state(rng).normalized().marginal_field(0)):
        cases.append((field, Hypersurface.from_graph(
            lambda x: 0.3 * math.sin(x + 1.0) - 0.2 * math.cos(2 * x),
            TWO_PI, 16)))
    worst = 0.0
    for field, leaf in cases:
        got = _segment_stream_differences(field, leaf)
        want = [segment_flux_by_quadrature(field, leaf, i)
                for i in range(leaf.n_segments)]
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-14


def test_leaf_rows_match_pointwise_current_and_elements(scenario_foliations,
                                                        scenario_packets):
    packet = scenario_packets["skewed"]
    leaves = scenario_foliations["skewed"].leaves[:2]
    columns = leaf_rows(packet, leaves)
    n_rows = sum(leaf.n_segments for leaf in leaves)
    assert [len(c) for c in columns] == [n_rows] * 10
    assert columns[0].dtype.kind == "i"
    assert all(c.dtype.kind == "f" for c in columns[1:9])
    assert all(type(v) is str for v in columns[9])
    rows = list(zip(*(c.tolist() for c in columns[:9]), columns[9]))
    k = 0
    for li, leaf in enumerate(leaves):
        for i in range(leaf.n_segments):
            row = rows[k]
            k += 1
            elem = surface_element(leaf, i)
            dlam = elem.dlam
            j0, j1 = packet.current_at(leaf.t[i], leaf.x[i])
            assert row[:4] == (li, leaf.lam[i], leaf.t[i], leaf.x[i])
            assert row[4:6] == (elem.n_tilde_cov[0] / dlam,
                                elem.n_tilde_cov[1] / dlam)
            assert row[6] == pytest.approx(j0, rel=1e-14, abs=1e-15)
            assert row[7] == pytest.approx(j1, rel=1e-14, abs=1e-15)
            assert row[9] == elem.seg_class.value


# -- probability -------------------------------------------------------------

@pytest.mark.parametrize("nodes", [7, 64])
def test_probability_matches_root_splitting_oracle(scenario_packets, nodes):
    """On a leaf where the skewed density changes sign, the sum of |Delta Phi|
    between sign changes matches brentq roots to 1e-12."""
    packet = scenario_packets["skewed"]
    leaf = Hypersurface.from_graph(lambda x: 0.75 + 0.3 * math.sin(x),
                                   TWO_PI, nodes)
    rng = np.random.default_rng(nodes)
    ranges = [(0.0, 1.0)] + [tuple(sorted(rng.uniform(0.0, 1.0, 2)))
                             for _ in range(4)]
    roots = 0
    for lam_range in ranges:
        want, n_roots = probability_by_root_splitting(packet, leaf, lam_range)
        roots += n_roots
        assert probability(packet, leaf, lam_range) == pytest.approx(
            want, abs=1e-12)
    assert roots >= 2
    assert probability(packet, leaf, (0.0, 1.0)) > flux(packet, leaf) + 0.05


def test_probability_across_a_double_zero(scenario_packets):
    """The standing-wave density on a t-const leaf touches 0 (at x = pi/2 and
    3 pi/2) without changing sign: the probability is the flux."""
    packet = scenario_packets["standing-wave"]
    for nodes in (64, 7):  # zeros on nodes, zeros inside segments
        leaf = Hypersurface.t_const(0.0, TWO_PI, nodes)
        assert probability(packet, leaf, (0.0, 1.0)) == pytest.approx(
            1.0, abs=1e-12)
        for cut in (0.25, 0.3, 0.75):
            parts = (probability(packet, leaf, (0.0, cut))
                     + probability(packet, leaf, (cut, 1.0)))
            assert parts == pytest.approx(1.0, abs=1e-12)


def test_probability_along_a_current_line_overflows():
    """On x = 0 a parity-symmetric packet has j1 = 0, so a vertical segment
    there carries no density while the slope bound does not vanish: the
    sign search cannot certify it and stops at quad_max_panels intervals."""
    packet = make_packet([(-2, 1.0), (-1, 0.5), (1, 0.5), (2, 1.0)])
    leaf = Hypersurface([0.0, 0.1, 0.5], [0.0, 1.0, 1.0],
                        [0.0, 0.0, math.pi], TWO_PI)
    with pytest.raises(QuadratureOverflowError, match="segment 0"):
        probability(packet, leaf, (0.0, 0.1))
    assert probability(packet, leaf, (0.1, 1.0)) > 0.0


def test_probability_additive_and_wrapped():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    leaf = Hypersurface.from_graph(lambda x: 0.15 * math.sin(x), TWO_PI, 64)
    full = probability(packet, leaf, (0.0, 1.0))
    split = probability(packet, leaf, (0.0, 0.37)) \
        + probability(packet, leaf, (0.37, 1.0))
    assert split == pytest.approx(full, abs=5e-9)
    wrapped = probability_wrapped(packet, leaf, 0.8, 0.2)
    direct = probability(packet, leaf, (0.8, 1.0)) \
        + probability(packet, leaf, (0.0, 0.2))
    assert wrapped == pytest.approx(direct, abs=1e-12)
    assert probability_wrapped(packet, leaf, 0.2, 0.8) + wrapped \
        == pytest.approx(full, abs=5e-9)
    # absolute density dominates the signed flux
    assert full >= flux(packet, leaf) - 1e-9


def test_probability_empty_range_and_clamping():
    packet = make_packet([(1, 1.0)])
    leaf = Hypersurface.t_const(0.0, TWO_PI, 16)
    assert probability(packet, leaf, (0.4, 0.4)) == 0.0
    assert probability(packet, leaf, (0.9, 0.1)) == 0.0
    assert probability(packet, leaf, (-3.0, 2.0)) \
        == pytest.approx(1.0, abs=1e-10)


def test_density_sign_and_magnitude():
    packet = make_packet([(-5, 1.0), (0, 4.0), (5, 1.0)])
    leaf = Hypersurface.t_const(0.1, TWO_PI, 64)
    for lam in np.linspace(0.0, 0.999, 23):
        s = signed_density(packet, leaf, lam)
        assert probability_density(packet, leaf, lam) == abs(s)
    # plane wave on a constant-time leaf: density is flat and positive
    plane = make_packet([(2, 1.0)])
    vals = [signed_density(plane, leaf, lam) for lam in (0.0, 0.31, 0.77)]
    assert np.allclose(vals, vals[0])
    assert vals[0] > 0


# -- advection and foliations ------------------------------------------------

def test_advect_pins_stagnant_nodes():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    seed = Hypersurface.t_const(0.0, TWO_PI, 8)
    moved = advect_leaf(packet, seed, 0.3)
    assert moved.stagnant_nodes == (2, 6)  # x = pi/2 and 3 pi/2
    assert np.allclose(moved.x, seed.x, atol=1e-9)  # standing flow is vertical
    for i in range(8):
        if i in (2, 6):
            assert moved.t[i] == 0.0
        else:
            assert moved.t[i] > 0.0
    again = advect_leaf(packet, moved, 0.3)
    assert again.stagnant_nodes == (2, 6)
    assert np.all(again.t[[2, 6]] == 0.0)


def test_advect_zero_step_copies_and_negative_rejected():
    packet = make_packet([(1, 1.0)])
    seed = Hypersurface.t_const(0.0, TWO_PI, 8)
    same = advect_leaf(packet, seed, 0.0)
    assert np.all(same.t == seed.t) and np.all(same.x == seed.x)
    assert same is not seed
    with pytest.raises(ValueError):
        advect_leaf(packet, seed, -0.1)


def test_stack_leaves_translates():
    seed = Hypersurface.t_const(0.0, TWO_PI, 8)
    leaves = stack_leaves(seed, 4, 0.25)
    assert len(leaves) == 4
    for k, leaf in enumerate(leaves):
        assert np.allclose(leaf.t, k * 0.25)
    with pytest.raises(GridError):
        stack_leaves(seed, 1, 0.25)


def test_scenario_foliations_admissible(scenario_foliations):
    for name, fol in scenario_foliations.items():
        assert fol.admissible, name
        active = ~fol.stagnant
        assert np.all(fol.counts[active] == 1), name
    standing = scenario_foliations["standing-wave"]
    assert int(standing.stagnant.sum()) == 2  # curves seeded on the zero lines
    assert not scenario_foliations["skewed"].stagnant.any()


def test_bad_stack_is_flagged():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    seed = Hypersurface.t_const(0.0, TWO_PI, 32)
    leaves = stack_leaves(seed, 3, -0.4)  # stack extends into the past
    cong = seed_congruence(packet, seed, 8, s_max=5.0)
    fol = assess_foliation(leaves, cong)
    assert not fol.admissible
    active = ~fol.stagnant
    assert np.all(fol.counts[active][:, 1:] == 0)  # past leaves never reached
    report = fol.as_report()
    assert report["admissible"] is False
    assert report["leaves"] == 3 and report["curves"] == 8


def test_foliation_report_shape(scenario_foliations):
    rep = scenario_foliations["skewed"].as_report()
    assert set(rep) == {"leaves", "curves", "counts", "touches", "stagnant",
                        "admissible"}
    assert rep["leaves"] == 8 and rep["curves"] == 32
    assert len(rep["counts"]) == 32 and len(rep["counts"][0]) == 8


# -- flux tubes --------------------------------------------------------------

def test_tube_zero_width():
    packet = make_packet([(1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 32)
    b = Hypersurface.t_const(0.5, TWO_PI, 32)
    report = tube_conservation(packet, a, (0.3, 0.3), b)
    assert report.p_a == 0.0 and report.p_b == 0.0 and report.residual == 0.0
    assert report.range_b[0] == report.range_b[1]


def test_tube_plane_wave_known_width():
    packet = make_packet([(1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 32)
    b = Hypersurface.t_const(0.4, TWO_PI, 32)
    report = tube_conservation(packet, a, (0.2, 0.45), b)
    assert report.p_a == pytest.approx(0.25, abs=1e-10)
    assert report.residual < 1e-9
    width = (report.range_b[1] - report.range_b[0]) % 1.0
    assert width == pytest.approx(0.25, abs=1e-8)


def test_tube_standing_wave_vertical_flow():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 64)
    b = Hypersurface.t_const(0.5, TWO_PI, 64)
    report = tube_conservation(packet, a, (0.05, 0.20), b)
    assert report.residual < 1e-9
    # x is frozen, so the leaf parameters map across unchanged
    assert report.range_b[0] == pytest.approx(0.05, abs=1e-8)
    assert report.range_b[1] == pytest.approx(0.20, abs=1e-8)


def test_tube_bad_range_rejected():
    packet = make_packet([(1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 16)
    b = Hypersurface.t_const(0.5, TWO_PI, 16)
    with pytest.raises(ValueError):
        tube_conservation(packet, a, (0.6, 0.4), b)
    with pytest.raises(ValueError):
        tube_conservation(packet, a, (-0.1, 0.4), b)


def test_unreachable_leaf_raises():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 64)
    below = Hypersurface.t_const(-0.5, TWO_PI, 64)
    with pytest.raises(NoIntersectionError):
        tube_conservation(packet, a, (0.05, 0.20), below,
                          s_hint=1.0, max_doublings=2)


def test_stagnant_tube_boundary_raises():
    packet = make_packet([(1, 1.0), (-1, 1.0)])
    a = Hypersurface.t_const(0.0, TWO_PI, 64)
    b = Hypersurface.t_const(0.5, TWO_PI, 64)
    with pytest.raises(NoIntersectionError):
        # lambda = 0.25 sits exactly on the x = pi/2 zero line
        tube_conservation(packet, a, (0.25, 0.25), b, s_hint=1.0)
