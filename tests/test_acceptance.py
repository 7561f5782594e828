"""Acceptance suite: one test per shipped guarantee.

Each test states its tolerance inline and prints the measured margin, so a
verbose run reads as a pass/fail line per guarantee. Budgeted tests also
assert their wall-clock limit.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from currentlab import (CausalClass, Hypersurface, Mode, ScalarWavePacket,
                        VectorWavePacket, build_foliation, classification_map,
                        flux, probability_n, symmetrize, tube_conservation)
from currentlab import scenarios

from helpers import (SCENARIOS, TWO_PI, beta_example, make_packet,
                     probability_density, random_packet, random_pair_state,
                     signed_density, surface_element)

# built lazily inside the first budgeted test so its cost is measured there
_FOLIATIONS = {}


def _foliations():
    if not _FOLIATIONS:
        for name, (modes, seed_t, ds) in SCENARIOS.items():
            packet = make_packet(modes)
            seed = Hypersurface.t_const(seed_t, TWO_PI, 64)
            _FOLIATIONS[name] = (packet, build_foliation(
                packet, seed, n_leaves=8, ds=ds, congruence_size=32))
    return _FOLIATIONS


def _segment_lambda_edges(leaf):
    dlams = np.array([leaf.segment(i)[0] for i in range(leaf.n_segments)])
    return np.concatenate([[0.0], np.cumsum(dlams)])


def test_criterion_01_conservation_identity():
    """Closed-form divergence vanishes to 1e-10 * scale at random points."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        packet = random_packet(rng, max_modes=8, unit_flux=False)
        ts = rng.uniform(-10.0, 10.0, size=1000)
        xs = rng.uniform(-10.0, 10.0, size=1000)
        div = packet.divergence_grid(ts, xs)
        worst = max(worst, float(np.max(np.abs(div))) / packet.divergence_scale)
    elapsed = time.monotonic() - t0
    print(f"criterion 1: worst |div|/scale = {worst:.3e} in {elapsed:.2f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_unit_flux_on_every_admissible_leaf():
    """Every leaf of every 8-leaf scenario foliation has flux 1 +- 1e-12."""
    t0 = time.monotonic()
    worst = 0.0
    for name, (packet, fol) in _foliations().items():
        for leaf in fol.leaves:
            worst = max(worst, abs(flux(packet, leaf) - 1.0))
    elapsed = time.monotonic() - t0
    print(f"criterion 2: worst |flux - 1| = {worst:.3e} in {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 30.0


def test_criterion_03_each_active_curve_crosses_each_leaf_once():
    """Foliations are admissible; the skewed one needs timelike leaf pieces."""
    for name, (packet, fol) in _foliations().items():
        active = ~fol.stagnant
        assert fol.admissible, name
        assert np.all(fol.counts[active] == 1), name
    packet, fol = _foliations()["skewed"]
    timelike = (CausalClass.TIMELIKE_FUTURE, CausalClass.TIMELIKE_PAST)
    leaves_with_timelike = 0
    timelike_segments = 0
    for leaf in fol.leaves:
        k = sum(surface_element(leaf, i).seg_class in timelike
                for i in range(leaf.n_segments))
        timelike_segments += k
        leaves_with_timelike += k > 0
    assert leaves_with_timelike >= 1
    cmap = classification_map(packet, (0.0, TWO_PI), (0.0, TWO_PI), 64, 64)
    past_cells = cmap.counts()["timelike_past"]
    assert past_cells >= 1
    print(f"criterion 3: admissible x3; skewed has {timelike_segments} "
          f"timelike segments on {leaves_with_timelike} leaves, "
          f"{past_cells} past-pointing grid cells")


def _timelike_intervals(leaf):
    edges = _segment_lambda_edges(leaf)
    timelike = (CausalClass.TIMELIKE_FUTURE, CausalClass.TIMELIKE_PAST)
    return [(edges[i], edges[i + 1]) for i in range(leaf.n_segments)
            if surface_element(leaf, i).seg_class in timelike]


def _overlaps_wrapped(lam_range, intervals):
    a, b = lam_range
    arcs = [(a, b)] if a <= b else [(a, 1.0), (0.0, b)]
    return any(max(lo, c) < min(hi, d)
               for c, d in arcs for lo, hi in intervals)


def test_criterion_04_flux_tube_conservation():
    """Probability through a tube is equal on both cross-sections to 1e-6."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    timelike_downstream = 0
    for name, (packet, fol) in _foliations().items():
        leaf_a, leaf_b = fol.leaves[1], fol.leaves[6]
        intervals = _timelike_intervals(leaf_b)
        for _ in range(10):
            a = float(rng.uniform(0.0, 0.8))
            b = a + float(rng.uniform(0.05, 0.2))
            report = tube_conservation(packet, leaf_a, (a, b), leaf_b)
            worst = max(worst, report.residual)
            timelike_downstream += _overlaps_wrapped(report.range_b, intervals)
    elapsed = time.monotonic() - t0
    print(f"criterion 4: worst tube residual = {worst:.3e}, "
          f"{timelike_downstream} tubes end on timelike segments, "
          f"in {elapsed:.2f}s")
    assert worst < 1e-6
    assert timelike_downstream >= 1  # downstream ranges on timelike pieces
    assert elapsed < 30.0


# straight-leaf closed forms, evaluated by hand: contravariant element
# magnitudes sqrt(2)/(1+b^2) * (1, |b|), normal-norm sign, volume factor
# sqrt(2|1-b^2|)/(1+b^2)
_BETA_TABLE = {
    0.0: ((1.4142135623730951, 0.0), 1, 1.4142135623730951),
    0.5: ((1.131370849898476, 0.565685424949238), 1, 0.9797958971132712),
    0.999: ((0.7078142415209477, 0.7071064272794267), 1, 0.03164650059642038),
    1.0: ((0.7071067811865476, 0.7071067811865476), 0, 0.0),
    1.001: ((0.706400027958575, 0.7071064279865336), -1, 0.03159906644189192),
    2.0: ((0.282842712474619, 0.565685424949238), -1, 0.4898979485566356),
}


def test_criterion_05_null_limit_regularity():
    """Closed forms hold to 1e-10 through the null slope, no blow-up at b=1."""
    betas = sorted(_BETA_TABLE)
    worst = 0.0
    for beta in betas:
        (m0, m1), sign, g_det = _BETA_TABLE[beta]
        got = beta_example(beta)
        assert got["norm_sign"] == sign
        worst = max(worst, abs(got["n_tilde_mag"][0] - m0),
                    abs(got["n_tilde_mag"][1] - m1), abs(got["g_det"] - g_det))
    assert worst < 1e-10
    # element magnitudes stay continuous across beta = 1
    jump = 0.0
    for lo, hi in [(0.999, 1.0), (1.0, 1.001)]:
        a, b = beta_example(lo)["n_tilde_mag"], beta_example(hi)["n_tilde_mag"]
        jump = max(jump, abs(a[0] - b[0]), abs(a[1] - b[1]))
    assert jump < 1e-2
    # generic surface element on a straight leaf reproduces the same numbers
    worst_elem = 0.0
    for beta in betas:
        leaf = Hypersurface.from_graph(lambda x: beta * x, TWO_PI, 16)
        plu = surface_element(leaf, 5).per_unit_lambda()
        conv = math.sqrt(2.0) / ((1.0 + beta * beta) * TWO_PI)
        (m0, m1), _, g_det = _BETA_TABLE[beta]
        g_lam = math.sqrt(abs(1.0 - beta * beta)) * TWO_PI
        worst_elem = max(worst_elem, abs(abs(plu[0]) * conv - m0),
                         abs(abs(plu[1]) * conv - m1),
                         abs(g_lam * conv - g_det))
    assert worst_elem < 1e-10
    print(f"criterion 5: closed-form gap {worst:.3e}, null-crossing jump "
          f"{jump:.3e}, element gap {worst_elem:.3e}")


def test_criterion_06_density_positivity():
    """p~ >= 0 at the Gauss nodes of every segment; advected signed density
    never drops below -1e-9."""
    nodes = 0.5 * (np.polynomial.legendre.leggauss(7)[0] + 1.0)
    min_signed = math.inf
    for name, (packet, fol) in _foliations().items():
        for li, leaf in enumerate(fol.leaves):
            edges = _segment_lambda_edges(leaf)
            for i in range(leaf.n_segments):
                for u in nodes:
                    lam = float(edges[i] + u * (edges[i + 1] - edges[i]))
                    assert probability_density(packet, leaf, lam) >= 0.0
                    if li > 0:  # advected leaves
                        min_signed = min(min_signed,
                                         signed_density(packet, leaf, lam))
    print(f"criterion 6: min advected signed density = {min_signed:.3e}")
    assert min_signed >= -1e-9


def test_criterion_07_gradient_and_divergence_oracles():
    """Closed forms beat central differences to 1e-6 at 100 seeded configs."""
    rng = np.random.default_rng(4242)
    worst_grad = worst_div = worst_pair = 0.0
    for _ in range(60):  # one-particle gradient and divergence
        packet = random_packet(rng, max_modes=6, unit_flux=False)
        t = float(rng.uniform(-3.0, 3.0))
        x = float(rng.uniform(-3.0, 3.0))
        gt, gx = packet.gradient_at(t, x)
        h = 1e-5
        fd_t = (packet.psi_at(t + h, x) - packet.psi_at(t - h, x)) / (2 * h)
        fd_x = (packet.psi_at(t, x + h) - packet.psi_at(t, x - h)) / (2 * h)
        scale = max(1.0, abs(gt), abs(gx))
        worst_grad = max(worst_grad, abs(gt - fd_t) / scale,
                         abs(gx - fd_x) / scale)
        h = 1e-4
        fd_div = ((packet.current_at(t + h, x)[0]
                   - packet.current_at(t - h, x)[0]
                   + packet.current_at(t, x + h)[1]
                   - packet.current_at(t, x - h)[1]) / (2 * h))
        worst_div = max(worst_div, abs(fd_div - packet.divergence_at(t, x))
                        / packet.current_scale)
    for _ in range(40):  # two-particle slot divergence
        state = random_pair_state(rng)
        p1 = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, TWO_PI)))
        p2 = (float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.0, TWO_PI)))
        h = 1e-4

        def shifted(dt, dx):
            return state.current_n([(p1[0] + dt, p1[1] + dx), p2])

        fd = (shifted(h, 0.0)[0] - shifted(-h, 0.0)[0]
              + shifted(0.0, h)[1] - shifted(0.0, -h)[1]) / (2 * h)
        worst_pair = max(worst_pair,
                         float(np.max(np.abs(fd))) / state.current_scale)
    print(f"criterion 7: gradient {worst_grad:.3e}, divergence "
          f"{worst_div:.3e}, slot divergence {worst_pair:.3e}")
    assert worst_grad < 1e-6
    assert worst_div < 1e-6
    assert worst_pair < 1e-6


def _library_pairs():
    product = symmetrize([(1.0 + 0.0j, (1, 1))], 2, 1.0, TWO_PI).normalized()
    entangled = symmetrize([(1.0 + 0.0j, (1, -1))], 2, 1.0,
                           TWO_PI).normalized()
    return product, entangled


def test_criterion_08_many_body_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    product, entangled = _library_pairs()

    # product states factorize into an outer product of one-particle currents
    worst_fact = 0.0
    coeffs = [0.9 + 0.3j, -0.5j, 1.2]
    harmonics = [-2, 0, 1]
    rich = symmetrize([(a * b, (g, h))
                       for a, g in zip(coeffs, harmonics)
                       for b, h in zip(coeffs, harmonics)], 2, 0.8, TWO_PI)
    factor = ScalarWavePacket(0.8, TWO_PI,
                              [Mode(h, c) for h, c in zip(harmonics, coeffs)])
    for state, one_body in [(product, ScalarWavePacket(
            1.0, TWO_PI, [Mode(1, 1.0)]).normalized()), (rich, factor)]:
        for _ in range(12):
            p1 = (float(rng.uniform(-1, 1)), float(rng.uniform(0, TWO_PI)))
            p2 = (float(rng.uniform(-1, 1)), float(rng.uniform(0, TWO_PI)))
            joint = state.current_n([p1, p2])
            outer = np.outer(one_body.current_at(*p1),
                             one_body.current_at(*p2))
            worst_fact = max(worst_fact, float(np.max(np.abs(joint - outer)))
                             / state.current_scale)
    assert worst_fact < 1e-10

    # exchange symmetry is exact, not just approximate
    for state in (product, entangled, random_pair_state(rng),
                  random_pair_state(rng)):
        for _ in range(10):
            p1 = (float(rng.uniform(-2, 2)), float(rng.uniform(0, TWO_PI)))
            p2 = (float(rng.uniform(-2, 2)), float(rng.uniform(0, TWO_PI)))
            ja = state.current_n([p1, p2])
            jb = state.current_n([p2, p1])
            assert np.array_equal(ja, jb.T)

    # marginals do not depend on where the other particle is sliced
    worst_slice = 0.0
    for state in (product, entangled):
        scale = state.marginal_field(0).current_scale
        for x in np.linspace(0.0, TWO_PI, 9)[:8]:
            ja = state.marginal_current(0, (0.1, float(x)), [0.0])
            jb = state.marginal_current(0, (0.1, float(x)), [1.7])
            worst_slice = max(worst_slice, abs(ja[0] - jb[0]) / scale,
                              abs(ja[1] - jb[1]) / scale)
    assert worst_slice < 1e-8

    # two-particle probability over full ranges is 1 for normalized states
    leaves = [Hypersurface.t_const(0.0, TWO_PI, 64),
              Hypersurface.t_const(0.37, TWO_PI, 64)]
    worst_norm = 0.0
    for state in (product, entangled):
        total = probability_n(state, leaves, [(0.0, 1.0), (0.0, 1.0)])
        worst_norm = max(worst_norm, abs(total - 1.0))
    assert worst_norm < 1e-6
    elapsed = time.monotonic() - t0
    print(f"criterion 8: factorization {worst_fact:.3e}, exchange exact, "
          f"slice drift {worst_slice:.3e}, |P - 1| {worst_norm:.3e}, "
          f"in {elapsed:.2f}s")
    assert elapsed < 60.0


def test_criterion_09_photon_matches_massless_scalar():
    """A transverse single-mode photon carries the scalar current."""
    coeff = 0.6 - 0.8j
    photon = VectorWavePacket(TWO_PI, [Mode(3, coeff)], [(0, 0, 1, 0)])
    scalar = ScalarWavePacket(0.0, TWO_PI, [Mode(3, coeff)])
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(-5.0, 5.0))
        jp = photon.current_at(t, x)
        js = scalar.current_at(t, x)
        worst = max(worst, abs(jp[0] - js[0]), abs(jp[1] - js[1]))
    worst /= scalar.current_scale
    flux_gap = abs(photon.normalized().total_flux() - 1.0)
    print(f"criterion 9: current gap {worst:.3e}, |flux - 1| {flux_gap:.3e}")
    assert worst <= 1e-12
    assert flux_gap <= 1e-12


def test_criterion_10_determinism_across_runs(tmp_path, package_env):
    """Two independent runs of the same config write the same bytes."""
    cfg_path = tmp_path / "skewed.json"
    cfg_path.write_text(json.dumps(scenarios.builtin("skewed"), indent=2),
                        encoding="utf-8")
    runs = []
    for run in ("first", "second"):
        out = tmp_path / run
        proc = subprocess.run(
            [sys.executable, "-m", "currentlab", "foliate",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, cwd=tmp_path, env=package_env)
        assert proc.returncode == 0, proc.stderr
        runs.append({p.name: p.read_bytes()
                     for p in sorted(out.iterdir()) if p.is_file()})
    first, second = runs
    assert first.keys() == second.keys()
    assert len(first) >= 3
    for name in first:
        assert first[name] == second[name], name
    print(f"criterion 10: {len(first)} files byte-identical across two "
          f"independent runs")
