"""Positive-frequency wave packets on a periodic box and their conserved currents.

Conventions, shared by every module in this package: natural units, metric
signature (+,-) in 1+1 dimensions, index 0 = time, index 1 = space. Space is a
periodic box of length L, so admissible wavenumbers are k = 2*pi*m/L for an
integer harmonic m, and each mode carries the frequency

    omega = +sqrt(k**2 + mass**2) > 0.

Frequencies are always recomputed from (harmonic, L, mass) and never stored,
which rules out negative-frequency contamination by construction.

The conserved current of a scalar packet is the antisymmetrized bilinear

    j_mu = i (psi* d_mu psi - psi d_mu psi*),

and for the massless vector variant the same expression with an overall sign
flip and a (+,-,-,-) Lorentz contraction over the four polarization
components. Because every packet is a finite mode sum, psi, its gradient, the
current and its divergence all have closed forms that are evaluated exactly up
to floating-point roundoff: no finite differences anywhere in this module.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ZeroNormError
from .tolerances import DEFAULT, Tolerances

_TWO_PI = 2.0 * math.pi


class CausalClass(enum.Enum):
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"
    NULL = "null"
    SPACELIKE = "spacelike"
    ZERO = "zero"


@dataclass(frozen=True)
class SpacetimePoint:
    """A point (t, x) of the periodic spacetime strip; x is interpreted mod L."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError("spacetime point coordinates must be finite")


def classify_components(v0: float, v1: float, scale: float = 1.0,
                        tolerances: Tolerances = DEFAULT) -> CausalClass:
    """Causal class of a contravariant 2-vector given a reference scale.

    Zero wins over Null: a vector smaller than zero_rel*scale in the 1-norm is
    reported Zero regardless of its Minkowski square.
    """
    return classify_array([v0], [v1], scale, tolerances)[0]


def classify_array(j0, j1, scale: float, tolerances: Tolerances = DEFAULT):
    """Vectorized causal classification; returns an object array of CausalClass."""
    j0 = np.asarray(j0, dtype=float)
    j1 = np.asarray(j1, dtype=float)
    q = j0 * j0 - j1 * j1
    out = np.full(j0.shape, CausalClass.SPACELIKE, dtype=object)
    zero = (np.abs(j0) + np.abs(j1)) < tolerances.zero_rel * scale
    null = ~zero & (np.abs(q) < tolerances.class_rel * (j0 * j0 + j1 * j1))
    timelike = ~zero & ~null & (q > 0.0)
    out[zero] = CausalClass.ZERO
    out[null] = CausalClass.NULL
    out[timelike & (j0 > 0.0)] = CausalClass.TIMELIKE_FUTURE
    out[timelike & (j0 <= 0.0)] = CausalClass.TIMELIKE_PAST
    return out


@dataclass(frozen=True)
class Mode:
    """One positive-frequency plane-wave mode exp(-i(omega t - k x))."""

    harmonic: int
    coeff: complex

    def __post_init__(self):
        if not isinstance(self.harmonic, (int, np.integer)):
            raise ValueError("harmonic must be an integer")
        c = complex(self.coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("mode coefficient must be finite")

    def wavenumber(self, box_length: float) -> float:
        return _TWO_PI * self.harmonic / box_length

    def frequency(self, mass: float, box_length: float) -> float:
        return math.hypot(self.wavenumber(box_length), mass)


class CurrentField:
    """Conserved current of a positive-frequency mode sum on the periodic box.

    Everything a current needs is a Gram-weighted bilinear in the per-mode
    amplitudes u_j(t,x) = c_j exp(-i(omega_j t - k_j x)):

        j^mu = Re sum_{j,l} G[j,l] conj(u_j) u_l (omega_j+omega_l, k_j+k_l)^mu

    with G = 1 for a scalar packet and G[j,l] = -(eps_j* . eps_l) for the
    vector variant. Marginal currents of many-body packets reduce to the same
    form with an effective Gram matrix. A field whose current or divergence
    scale is below the smallest normal float raises ZeroNormError.
    """

    def __init__(self, mass, box_length, harmonics, coeffs, gram):
        self.mass = float(mass)
        self.box_length = float(box_length)
        self.harmonics = np.asarray(harmonics, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.k = _TWO_PI * self.harmonics / self.box_length
        self.omega = np.hypot(self.k, self.mass)
        gram = np.asarray(gram)
        self.w0 = gram * np.add.outer(self.omega, self.omega)
        self.w1 = gram * np.add.outer(self.k, self.k)
        om2 = self.omega * self.omega
        k2 = self.k * self.k
        # mass-shell bracket (omega_j^2-omega_l^2)-(k_j^2-k_l^2); zero up to roundoff
        self.wdiv = 1j * gram * (np.subtract.outer(om2, om2) - np.subtract.outer(k2, k2))
        amp = np.abs(self.coeffs)
        g = np.abs(gram)
        pair = np.add.outer(self.omega, self.omega) + np.abs(np.add.outer(self.k, self.k))
        self.current_scale = float(amp @ (g * pair) @ amp)
        size = np.add.outer(om2 + k2, om2 + k2)
        self.divergence_scale = float(amp @ (g * size) @ amp)
        # below the smallest normal float a relative tolerance such as
        # 1e-12 * scale underflows as well, and the flux cannot be normalized
        if min(self.current_scale, self.divergence_scale) < sys.float_info.min:
            raise ZeroNormError(
                f"current scale {self.current_scale:.3g} or divergence scale "
                f"{self.divergence_scale:.3g} is below the smallest normal float")
        # stream function Phi with j0 = dPhi/dx, j1 = -dPhi/dt: the diagonal
        # drifts linearly, and an off-diagonal pair term is the bilinear times
        # i G (omega_j+omega_l)/(k_j-k_l); the harmonics are distinct, so
        # k_j != k_l off the diagonal
        dk = np.subtract.outer(self.k, self.k)
        np.fill_diagonal(dk, 1.0)
        self.wphi = 1j * self.w0 / dk
        np.fill_diagonal(self.wphi, 0.0)
        weight = np.abs(self.coeffs) ** 2
        self.phi_dx = float(np.real(np.diagonal(self.w0)) @ weight)
        self.phi_dt = -float(np.real(np.diagonal(self.w1)) @ weight)
        for name in ("harmonics", "coeffs", "k", "omega", "w0", "w1", "wdiv",
                     "wphi"):
            getattr(self, name).setflags(write=False)

    def u_at(self, t: float, x: float):
        return self.coeffs * np.exp(-1j * (self.omega * t - self.k * x))

    def current_at(self, t: float, x: float) -> tuple:
        u = self.u_at(t, x)
        z0 = np.vdot(u, self.w0 @ u)
        z1 = np.vdot(u, self.w1 @ u)
        if __debug__:
            lim = 1e-12 * (self.current_scale + 1.0)
            assert abs(z0.imag) < lim and abs(z1.imag) < lim
        return (z0.real, z1.real)

    def divergence_at(self, t: float, x: float) -> float:
        u = self.u_at(t, x)
        z = np.vdot(u, self.wdiv @ u)
        return z.real

    def u_grid(self, ts, xs):
        ts = np.asarray(ts, dtype=float).ravel()
        xs = np.asarray(xs, dtype=float).ravel()
        phase = np.outer(ts, self.omega) - np.outer(xs, self.k)
        return self.coeffs[None, :] * np.exp(-1j * phase)

    def current_grid(self, ts, xs) -> tuple:
        u = self.u_grid(ts, xs)
        j0 = np.einsum("pj,jl,pl->p", u.conj(), self.w0, u).real
        j1 = np.einsum("pj,jl,pl->p", u.conj(), self.w1, u).real
        return j0, j1

    def divergence_grid(self, ts, xs):
        u = self.u_grid(ts, xs)
        return np.einsum("pj,jl,pl->p", u.conj(), self.wdiv, u).real

    def stream_grid(self, ts, xs):
        """Stream function at (ts, xs): j0 = dPhi/dx, j1 = -dPhi/dt.

        The flux of the current through a path is the difference of Phi
        between its ends. Phi(t, x + L) - Phi(t, x) is the total flux.
        """
        ts = np.asarray(ts, dtype=float).ravel()
        xs = np.asarray(xs, dtype=float).ravel()
        u = self.u_grid(ts, xs)
        wave = np.einsum("pj,jl,pl->p", u.conj(), self.wphi, u).real
        return self.phi_dx * xs + self.phi_dt * ts + wave

    def density_bounds(self, dts, dxs) -> tuple:
        """Bounds on |g'| and |g''| for g(u) = j0 dx - j1 dt along segments.

        Segment s runs from some point by (dts[s], dxs[s]) over u in [0, 1].
        A pair term of the bilinear has amplitude |c_j| |c_l| |w0 dx - w1 dt|
        and its phase turns at the rate |(omega_j-omega_l) dt - (k_j-k_l) dx|;
        each derivative multiplies it by that rate.
        """
        dts = np.asarray(dts, dtype=float)[:, None, None]
        dxs = np.asarray(dxs, dtype=float)[:, None, None]
        amp = np.abs(self.coeffs)
        size = np.abs(self.w0 * dxs - self.w1 * dts)
        rate = np.abs(np.subtract.outer(self.omega, self.omega) * dts
                      - np.subtract.outer(self.k, self.k) * dxs)
        slope = np.einsum("j,sjl,l->s", amp, size * rate, amp)
        bend = np.einsum("j,sjl,l->s", amp, size * rate * rate, amp)
        return slope, bend

    def total_flux(self) -> float:
        """Integral of j^0 over one box period (conserved, slice independent)."""
        # cross terms integrate to zero over the box, so only the diagonal survives
        return self.box_length * self.phi_dx

    def _unit_flux_factor(self) -> float:
        """The factor that scales the amplitudes to unit total flux."""
        flux = self.total_flux()
        if not flux > 0.0:
            raise ZeroNormError(f"total flux {flux} is not positive")
        return 1.0 / math.sqrt(flux)


def _canonical_modes(modes):
    """Sort by harmonic and merge duplicates by summing coefficients."""
    merged = {}
    for mode in modes:
        if not isinstance(mode, Mode):
            mode = Mode(int(mode[0]), complex(mode[1]))
        merged[mode.harmonic] = merged.get(mode.harmonic, 0j) + complex(mode.coeff)
    out = tuple(Mode(h, merged[h]) for h in sorted(merged) if merged[h] != 0j)
    return out


class ScalarWavePacket(CurrentField):
    """Finite sum of positive-frequency scalar modes on the periodic box."""

    def __init__(self, mass: float, box_length: float, modes):
        if not (math.isfinite(mass) and mass >= 0.0):
            raise ValueError("mass must be finite and non-negative")
        if not (math.isfinite(box_length) and box_length > 0.0):
            raise ValueError("box_length must be finite and positive")
        canon = _canonical_modes(modes)
        if not canon:
            raise ZeroNormError("packet has no mode with a nonzero coefficient")
        if mass == 0.0 and any(m.harmonic == 0 for m in canon):
            raise ValueError("harmonic 0 is forbidden for a massless packet "
                             "(its frequency would vanish)")
        self.modes = canon
        super().__init__(mass, box_length, [m.harmonic for m in canon],
                         [m.coeff for m in canon],
                         np.ones((len(canon), len(canon))))

    def psi_at(self, t: float, x: float) -> complex:
        return complex(np.sum(self.u_at(t, x)))

    def gradient_at(self, t: float, x: float) -> tuple:
        """Covariant gradient (d_t psi, d_x psi)."""
        u = self.u_at(t, x)
        return (complex(np.sum(-1j * self.omega * u)), complex(np.sum(1j * self.k * u)))

    def normalized(self) -> "ScalarWavePacket":
        s = self._unit_flux_factor()
        return ScalarWavePacket(self.mass, self.box_length,
                                tuple(Mode(m.harmonic, m.coeff * s) for m in self.modes))


_ETA4 = np.array([1.0, -1.0, -1.0, -1.0])


def _minkowski4(a, b) -> complex:
    """(+,-,-,-) contraction conj(a)_alpha b^alpha of two complex 4-vectors."""
    return complex(np.sum(_ETA4 * np.conj(a) * b))


class VectorWavePacket(CurrentField):
    """Massless vector packet; each mode carries a complex 4-polarization.

    The density is only guaranteed sign-definite for polarizations with
    negative Minkowski norm (transverse-like); any other choice is accepted
    but triggers a warning, and such packets are excluded from the positivity
    guarantees of the probability machinery.
    """

    def __init__(self, box_length: float, modes, polarizations,
                 mass: float = 0.0):
        if mass != 0.0:
            raise ValueError("vector packets are massless; mass must be 0")
        if not (math.isfinite(box_length) and box_length > 0.0):
            raise ValueError("box_length must be finite and positive")
        if len(modes) != len(polarizations):
            raise ValueError("one polarization 4-vector is required per mode")
        # fold coefficients into per-mode amplitude 4-vectors, then merge duplicates
        merged = {}
        for mode, pol in zip(modes, polarizations):
            if not isinstance(mode, Mode):
                mode = Mode(int(mode[0]), complex(mode[1]))
            a = complex(mode.coeff) * np.asarray(pol, dtype=complex)
            if a.shape != (4,) or not np.all(np.isfinite(a.view(float))):
                raise ValueError("polarization must be a finite complex 4-vector")
            if mode.harmonic in merged:
                merged[mode.harmonic] = merged[mode.harmonic] + a
            else:
                merged[mode.harmonic] = a
        harmonics = sorted(h for h, a in merged.items() if np.any(a != 0))
        if not harmonics:
            raise ZeroNormError("packet has no mode with a nonzero amplitude")
        if any(h == 0 for h in harmonics):
            raise ValueError("harmonic 0 is forbidden for a massless packet")
        amps = [merged[h] for h in harmonics]
        self.modes = tuple(Mode(h, 1.0 + 0j) for h in harmonics)
        self.polarizations = tuple(tuple(a) for a in amps)
        gram = np.empty((len(amps), len(amps)), dtype=complex)
        for i, ai in enumerate(amps):
            for j, aj in enumerate(amps):
                gram[i, j] = -_minkowski4(ai, aj)
        # built before the norm check, so an underflowing packet raises
        # ZeroNormError instead of warning about its underflowed norm first
        super().__init__(0.0, box_length, harmonics,
                         np.ones(len(amps), dtype=complex), gram)
        for h, a in zip(harmonics, amps):
            norm = _minkowski4(a, a).real
            if norm >= 0.0:
                warnings.warn(
                    f"mode harmonic {h}: polarization has non-negative Minkowski "
                    f"norm {norm:.3g}; the density may be sign-indefinite",
                    stacklevel=2)

    def psi_at(self, t: float, x: float):
        """The four complex field components psi^alpha at (t, x)."""
        return self.u_at(t, x) @ np.asarray(self.polarizations, dtype=complex)

    def gradient_at(self, t: float, x: float):
        """Covariant gradients (d_t psi^alpha, d_x psi^alpha), two 4-vectors."""
        u = self.u_at(t, x)
        amps = np.asarray(self.polarizations, dtype=complex)
        return ((-1j * self.omega * u) @ amps, (1j * self.k * u) @ amps)

    def normalized(self) -> "VectorWavePacket":
        s = self._unit_flux_factor()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return VectorWavePacket(
                self.box_length, self.modes,
                tuple(tuple(s * complex(c) for c in pol) for pol in self.polarizations))


@dataclass(frozen=True, eq=False)
class ClassificationMap:
    """Row-major grid of current samples with their causal classes.

    Sample i*n_x + j sits at (t_i, x_j); t varies slowest.
    """

    t: np.ndarray
    x: np.ndarray
    j0: np.ndarray
    j1: np.ndarray
    classes: np.ndarray
    n_t: int
    n_x: int

    def counts(self) -> dict:
        out = {c.value: 0 for c in CausalClass}
        for c in self.classes:
            out[c.value] += 1
        return out


def classification_map(packet, t_range, x_range, n_t: int, n_x: int,
                       tolerances: Tolerances = DEFAULT) -> ClassificationMap:
    t0, t1 = float(t_range[0]), float(t_range[1])
    x0, x1 = float(x_range[0]), float(x_range[1])
    if not (n_t >= 2 and n_x >= 2):
        raise GridError(f"grid needs at least 2 points per axis, got {n_t}x{n_x}")
    if not (t1 > t0 and x1 > x0):
        raise GridError("grid ranges must be non-empty (upper bound above lower)")
    ts = np.linspace(t0, t1, n_t)
    xs = np.linspace(x0, x1, n_x)
    tt = np.repeat(ts, n_x)
    xx = np.tile(xs, n_t)
    j0, j1 = packet.current_grid(tt, xx)
    classes = classify_array(j0, j1, packet.current_scale, tolerances)
    return ClassificationMap(tt, xx, j0, j1, classes, n_t, n_x)
