"""n-particle wave functions, rank-n currents, marginals, and joint probability.

States are bosonic: finite sums of n-fold products of positive-frequency box
modes, symmetrized over particle slots. The canonical form stores every
ordered harmonic tuple explicitly with one complex coefficient; coefficients
of tuples related by a slot permutation are assigned from a single per-multiset
accumulator, so they are equal bitwise and exchange symmetry of the evaluated
current is exact, not approximate.

The rank-n current is the double sum over term pairs (S, T) of

    conj(c_S) c_T  prod_a  (omega_Sa + omega_Ta, k_Sa + k_Ta)_{mu_a}
                   e^{i (theta_Sa - theta_Ta)(p_a)}

with theta_h(t, x) = omega_h t - k_h x. Pairs are grouped into orbits of the
simultaneous slot permutation before summation; paired contributions are
bitwise-equal under point swap plus index transposition, and two-term sums
commute exactly in floating point, which is what makes the n = 2 exchange
test exact.

Marginal one-particle currents integrate the rank-n current over constant-time
slices of the other slots. The box integral of a trig polynomial is evaluated
with an aliasing-free midpoint rule, which is exact for the finite mode
content; cross terms with unequal wavenumbers vanish, so the result is
slice-time independent, and a closed-form companion field (a one-particle
mode bilinear with an effective Gram matrix) is provided for flow tracing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import foliation, quadrature
from .errors import ArityMismatchError, ZeroNormError
from .tolerances import DEFAULT, Tolerances
from .wavefield import CurrentField, Mode, ScalarWavePacket, _TWO_PI


def _pt(p) -> tuple:
    if hasattr(p, "t"):
        return (float(p.t), float(p.x))
    return (float(p[0]), float(p[1]))


def _fold_term(coeff, modes, n):
    """Fold per-mode amplitudes into the term coefficient; return (c, tuple)."""
    if len(modes) != n:
        raise ArityMismatchError(
            f"term has {len(modes)} slot modes, expected {n}")
    c = complex(coeff)
    hs = []
    for m in modes:
        if isinstance(m, Mode):
            c *= complex(m.coeff)
            hs.append(int(m.harmonic))
        else:
            hs.append(int(m))
    return c, tuple(hs)


def symmetrize(raw_terms, n: int, mass: float, box_length: float) -> "ManyBodyPacket":
    """Canonical bosonic symmetric form of a list of product terms.

    raw_terms: iterable of (coeff, modes) where modes is a length-n sequence
    of Mode objects or bare harmonic integers. The symmetrizer is the
    projection (1/n!) sum over slot permutations, so it is idempotent; all
    ordered arrangements of one harmonic multiset receive the same stored
    coefficient.
    """
    if n < 1:
        raise ValueError("particle number must be at least 1")
    by_multiset = {}
    order = []
    for coeff, modes in raw_terms:
        c, hs = _fold_term(coeff, modes, n)
        key = tuple(sorted(hs))
        if key not in by_multiset:
            by_multiset[key] = 0.0 + 0.0j
            order.append(key)
        by_multiset[key] += c
    fact_n = math.factorial(n)
    terms = []
    for key in order:
        total = by_multiset[key]
        mult = 1
        for _, group in itertools.groupby(key):
            mult *= math.factorial(sum(1 for _ in group))
        c_each = total * (mult / fact_n)
        if c_each == 0.0:
            continue
        arrangements = sorted(set(itertools.permutations(key)))
        for arr in arrangements:
            terms.append((c_each, arr))
    terms.sort(key=lambda ct: ct[1])
    return ManyBodyPacket(n, float(mass), float(box_length), tuple(terms))


@dataclass(eq=False)
class ManyBodyPacket:
    """Symmetrized n-particle state as a canonical ordered term list.

    terms: tuple of (coeff, harmonics) with harmonics an n-tuple; the list is
    closed under slot permutations with bitwise-equal coefficients. Build via
    symmetrize(); direct construction expects an already-canonical list.
    """

    n: int
    mass: float
    box_length: float
    terms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("particle number must be at least 1")
        if not (math.isfinite(self.mass) and self.mass >= 0.0):
            raise ValueError("mass must be finite and nonnegative")
        if not (math.isfinite(self.box_length) and self.box_length > 0.0):
            raise ValueError("box_length must be finite and positive")
        if not self.terms:
            raise ZeroNormError("state has no term with a nonzero coefficient")
        for c, hs in self.terms:
            if len(hs) != self.n:
                raise ArityMismatchError(
                    f"term {hs} has arity {len(hs)}, expected {self.n}")
            if self.mass == 0.0 and any(h == 0 for h in hs):
                raise ValueError(
                    "harmonic 0 is forbidden for massless packets")
        self._harmonics = np.array(sorted({h for _, hs in self.terms
                                           for h in hs}), dtype=int)
        self._index = {h: i for i, h in enumerate(self._harmonics)}
        self._k = _TWO_PI * self._harmonics / self.box_length
        self._omega = np.hypot(self._k, self.mass)
        self._coeffs = np.array([c for c, _ in self.terms], dtype=complex)
        self._tuples = [hs for _, hs in self.terms]
        self._slots = np.array([[self._index[h] for h in hs]
                                for hs in self._tuples], dtype=int)
        self._orbits = self._pair_orbits()

    # -- structure -----------------------------------------------------------

    def _pair_orbits(self):
        """Orbits of ordered term pairs under simultaneous slot permutation."""
        pos = {hs: i for i, hs in enumerate(self._tuples)}
        m = len(self._tuples)
        seen = set()
        orbits = []
        for si in range(m):
            for ti in range(m):
                if (si, ti) in seen:
                    continue
                orbit = set()
                for perm in itertools.permutations(range(self.n)):
                    ps = tuple(self._tuples[si][p] for p in perm)
                    pt = tuple(self._tuples[ti][p] for p in perm)
                    orbit.add((pos[ps], pos[pt]))
                orbit = sorted(orbit)
                seen.update(orbit)
                orbits.append(orbit)
        return orbits

    @property
    def current_scale(self) -> float:
        """Bound on |j| components, for tolerance scaling."""
        om = self._omega
        kk = self._k
        total = 0.0
        for cs, hs in self.terms:
            for ct, ht in self.terms:
                prod = abs(cs) * abs(ct)
                for a in range(self.n):
                    i, j = self._index[hs[a]], self._index[ht[a]]
                    prod *= (om[i] + om[j]) + abs(kk[i] + kk[j])
                total += prod
        return total

    def total_probability(self) -> float:
        """Closed-form norm: sum_T |c_T|^2 prod_a (2 omega_{T_a} L)."""
        om = self._omega
        total = 0.0
        for c, hs in self.terms:
            prod = abs(c) ** 2
            for h in hs:
                prod *= 2.0 * om[self._index[h]] * self.box_length
            total += prod
        return total

    def normalized(self) -> "ManyBodyPacket":
        p = self.total_probability()
        if p <= 0.0:
            raise ZeroNormError("total probability is not positive")
        root = math.sqrt(p)
        return ManyBodyPacket(self.n, self.mass, self.box_length,
                              tuple((c / root, hs) for c, hs in self.terms))

    def as_one_particle(self) -> ScalarWavePacket:
        """The n = 1 degeneration as a plain wave packet (same mode content)."""
        if self.n != 1:
            raise ArityMismatchError("only n = 1 packets degenerate to one particle")
        return ScalarWavePacket(self.mass, self.box_length,
                                [Mode(hs[0], c) for c, hs in self.terms])

    # -- evaluation ----------------------------------------------------------

    def _mode_phases(self, points):
        """E[i, a] = e^{-i theta_{h_i}(p_a)} for every known harmonic and slot."""
        pts = [_pt(p) for p in points]
        ts = np.array([p[0] for p in pts])
        xs = np.array([p[1] for p in pts])
        theta = self._omega[:, None] * ts[None, :] - self._k[:, None] * xs[None, :]
        return np.exp(-1j * theta)

    def psi_at(self, points) -> complex:
        if len(points) != self.n:
            raise ArityMismatchError(
                f"{len(points)} points supplied for {self.n} particles")
        e = self._mode_phases(points)
        slot_idx = np.arange(self.n)
        return complex(np.sum(self._coeffs * np.prod(e[self._slots, slot_idx],
                                                     axis=1)))

    def current_n(self, points) -> np.ndarray:
        """Contravariant rank-n current at n spacetime points; real array (2,)*n."""
        if len(points) != self.n:
            raise ArityMismatchError(
                f"{len(points)} points supplied for {self.n} particles")
        e = self._mode_phases(points)
        om, kk = self._omega, self._k
        out = np.zeros((2,) * self.n, dtype=complex)
        for orbit in self._orbits:
            sub = np.zeros((2,) * self.n, dtype=complex)
            for si, ti in orbit:
                s_idx = self._slots[si]
                t_idx = self._slots[ti]
                w = np.conj(self._coeffs[si]) * self._coeffs[ti]
                # scalar phase factor first, then a pure-real outer product:
                # keeps paired orbit members bitwise-equal under slot swap
                g = 1.0 + 0.0j
                for a in range(self.n):
                    g = g * (np.conj(e[s_idx[a], a]) * e[t_idx[a], a])
                tensor = np.array([1.0])
                for a in range(self.n):
                    pa = np.array([om[s_idx[a]] + om[t_idx[a]],
                                   kk[s_idx[a]] + kk[t_idx[a]]])
                    tensor = np.multiply.outer(tensor, pa)
                sub = sub + (w * g) * tensor[0]
            out = out + sub
        if __debug__:
            scale = self.current_scale
            assert np.max(np.abs(out.imag)) < 1e-12 * (scale + 1.0)
        return np.ascontiguousarray(out.real)

    def current_pair_grid(self, t1, x1, t2, x2) -> np.ndarray:
        """Vectorized n = 2 current on point arrays; returns shape (N, 2, 2)."""
        if self.n != 2:
            raise ArityMismatchError("pair grid evaluation requires n = 2")
        t1 = np.atleast_1d(np.asarray(t1, dtype=float))
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        t2 = np.atleast_1d(np.asarray(t2, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        e1 = np.exp(-1j * (self._omega[:, None] * t1[None, :]
                           - self._k[:, None] * x1[None, :]))
        e2 = np.exp(-1j * (self._omega[:, None] * t2[None, :]
                           - self._k[:, None] * x2[None, :]))
        om, kk = self._omega, self._k
        out = np.zeros((len(t1), 2, 2), dtype=complex)
        for si in range(len(self._tuples)):
            for ti in range(len(self._tuples)):
                a1, a2 = self._slots[si]
                b1, b2 = self._slots[ti]
                w = np.conj(self._coeffs[si]) * self._coeffs[ti]
                g = (np.conj(e1[a1]) * e1[b1]) * (np.conj(e2[a2]) * e2[b2])
                p1 = np.array([om[a1] + om[b1], kk[a1] + kk[b1]])
                p2 = np.array([om[a2] + om[b2], kk[a2] + kk[b2]])
                out += (w * g)[:, None, None] * np.multiply.outer(p1, p2)[None]
        return out.real

    # -- marginals -----------------------------------------------------------

    def _alias_free_grid(self):
        spread = int(self._harmonics.max() - self._harmonics.min()) if \
            len(self._harmonics) > 1 else 0
        n_pts = 2 * spread + 1
        return (np.arange(n_pts) + 0.5) * (self.box_length / n_pts), \
            self.box_length / n_pts

    def marginal_current(self, slot: int, point, slice_times,
                         tolerances: Tolerances = DEFAULT) -> tuple:
        """One-particle current of slot a: box-integrate the other slots.

        slice_times supplies the constant-time slice for each non-slot
        particle (length n - 1); the result is independent of those times
        because unequal-wavenumber cross terms integrate to zero over the box.
        """
        if self.n < 1:
            raise ValueError("empty packet")
        if not 0 <= slot < self.n:
            raise ValueError(f"slot {slot} out of range for n = {self.n}")
        if len(slice_times) != self.n - 1:
            raise ArityMismatchError(
                f"{len(slice_times)} slice times supplied, need {self.n - 1}")
        xs, wgt = self._alias_free_grid()
        others = [a for a in range(self.n) if a != slot]
        total = np.zeros(2)
        t_p, x_p = _pt(point)
        for combo in itertools.product(range(len(xs)), repeat=self.n - 1):
            points = [None] * self.n
            points[slot] = (t_p, x_p)
            for b, a in enumerate(others):
                points[a] = (float(slice_times[b]), float(xs[combo[b]]))
            j = self.current_n(points)
            # contract every non-slot index with the slice element (dx, 0):
            # keep component 0 of each integrated slot
            idx = [slice(None)] * self.n
            for a in others:
                idx[a] = 0
            total = total + (wgt ** (self.n - 1)) * j[tuple(idx)]
        return (float(total[0]), float(total[1]))

    def marginal_field(self, slot: int = 0) -> "MarginalCurrentField":
        """Closed-form marginal as an evaluatable one-particle field."""
        if not 0 <= slot < self.n:
            raise ValueError(f"slot {slot} out of range for n = {self.n}")
        pos = {hs: i for i, hs in enumerate(self._tuples)}
        h_list = self._harmonics
        m = len(h_list)
        gram = np.zeros((m, m), dtype=complex)
        om = self._omega
        for gi in range(m):
            for hi in range(m):
                acc = 0.0 + 0.0j
                for c_t, hs in self.terms:
                    if self._index[hs[slot]] != hi:
                        continue
                    rest = hs[:slot] + hs[slot + 1:]
                    partner = rest[:slot] + (int(h_list[gi]),) + rest[slot:]
                    pi = pos.get(partner)
                    if pi is None:
                        continue
                    weight = 1.0
                    for h in rest:
                        weight *= 2.0 * om[self._index[h]] * self.box_length
                    acc += np.conj(self._coeffs[pi]) * c_t * weight
                gram[gi, hi] = acc
        return MarginalCurrentField(self.mass, self.box_length,
                                    h_list.copy(), gram)


class MarginalCurrentField(CurrentField):
    """Marginal one-particle current as a Gram-weighted mode bilinear.

    The coefficients are 1 and the effective Gram matrix carries the state;
    there is no underlying single-particle psi.
    """

    def __init__(self, mass, box_length, harmonics, gram):
        super().__init__(mass, box_length, harmonics,
                         np.ones(len(harmonics), dtype=complex), gram)


# -- joint density and probability -------------------------------------------


def probability_density_n(packet: ManyBodyPacket, leaves, lams) -> float:
    """|n~ ... n~ . j| per unit lambda^n at one point of each leaf."""
    if len(leaves) != packet.n or len(lams) != packet.n:
        raise ArityMismatchError(
            f"{len(leaves)} leaves / {len(lams)} parameters for n = {packet.n}")
    points = []
    elems = []
    for leaf, lam in zip(leaves, lams):
        lam = lam % 1.0
        i = leaf.segment_of(lam)
        dlam, dt, dx = leaf.segment(i)
        p = leaf.point_at(lam)
        points.append((p.t, p.x))
        elems.append(np.array([dx, -dt]) / dlam)
    j = packet.current_n(points)
    val = j
    for a in range(packet.n):
        val = np.tensordot(elems[a], val, axes=(0, 0))
    return abs(float(val))


def probability_n(packet: ManyBodyPacket, leaves, lam_ranges,
                  tolerances: Tolerances = DEFAULT) -> float:
    """Iterated quadrature of the joint density over per-leaf lambda ranges.

    Supports n = 1 (plain leaf probability) and n = 2 (tensor-product
    adaptive quadrature per segment pair).
    """
    if len(leaves) != packet.n or len(lam_ranges) != packet.n:
        raise ArityMismatchError(
            f"{len(leaves)} leaves / {len(lam_ranges)} ranges for n = {packet.n}")
    if packet.n == 1:
        return foliation.probability(packet.as_one_particle(), leaves[0],
                                     lam_ranges[0], tolerances)
    if packet.n != 2:
        raise ArityMismatchError(
            "probability quadrature is implemented for n <= 2")
    leaf_a, leaf_b = leaves
    pieces_a = list(zip(*foliation.segment_pieces(leaf_a, lam_ranges[0])))
    pieces_b = list(zip(*foliation.segment_pieces(leaf_b, lam_ranges[1])))
    scale = packet.current_scale
    # the panel cap holds for the whole square, as it does for a segment
    panels_per_axis = math.isqrt(tolerances.quad_max_panels)
    total = 0.0
    for ia, ua0, ua1 in pieces_a:
        _, dta, dxa = leaf_a.segment(ia)
        ta0 = float(leaf_a._t_c[ia]); xa0 = float(leaf_a._x_c[ia])
        na = np.array([dxa, -dta])
        for ib, ub0, ub1 in pieces_b:
            _, dtb, dxb = leaf_b.segment(ib)
            tb0 = float(leaf_b._t_c[ib]); xb0 = float(leaf_b._x_c[ib])
            nb = np.array([dxb, -dtb])

            def f(u1, u2):
                j = packet.current_pair_grid(ta0 + u1 * dta, xa0 + u1 * dxa,
                                             tb0 + u2 * dtb, xb0 + u2 * dxb)
                return np.abs(np.einsum("m,n,pmn->p", na, nb, j))

            floor = tolerances.quad_tol * scale \
                * (abs(dxa) + abs(dta)) * (abs(dxb) + abs(dtb))
            total += quadrature.adaptive_2d(f, ua0, ua1, ub0, ub1,
                                            tolerances.quad_tol, floor,
                                            panels_per_axis)
    return total


def _leaf_samples(leaf, lams):
    """Points and per-unit-lambda surface elements at the leaf parameters
    `lams`, placed as probability_density_n places a single one."""
    lam = np.asarray(lams, dtype=float) % 1.0
    lam_c = leaf._lam_c
    i = np.clip(np.searchsorted(lam_c, lam, side="right") - 1, 0,
                leaf.n_segments - 1)
    dlam = lam_c[i + 1] - lam_c[i]
    u = (lam - lam_c[i]) / dlam
    t = leaf._t_c[i] + u * leaf._dt[i]
    x = leaf._x_c[i] + u * leaf._dx[i]
    return t, x, np.stack([leaf._dx[i], -leaf._dt[i]], axis=1) / dlam[:, None]


def joint_density_rows(packet: ManyBodyPacket, leaves, grid: int = 33):
    """Uniform lambda x lambda sampling of the joint density for export,
    returned as the columns lambda1, lambda2 and ptilde."""
    if packet.n != 2:
        raise ArityMismatchError("joint-density export requires n = 2")
    lams = np.linspace(0.0, 1.0, grid)
    ta, xa, na = _leaf_samples(leaves[0], lams)
    tb, xb, nb = _leaf_samples(leaves[1], lams)
    first = np.repeat(np.arange(grid), grid)
    second = np.tile(np.arange(grid), grid)
    j = packet.current_pair_grid(ta[first], xa[first], tb[second], xb[second])
    density = np.abs(np.einsum("pm,pn,pmn->p", na[first], nb[second], j))
    return [lams[first], lams[second], density]
