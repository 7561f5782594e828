"""Numerical tolerances shared across the package.

Every operation that makes a floating-point decision takes a Tolerances
instance (defaulting to DEFAULT) so a whole run can be tightened or loosened
from one place, including from the CLI config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    zero_rel: float = 1e-12        # causal Zero cutoff, relative to the field scale
    class_rel: float = 1e-9        # causal Null cutoff, relative to |v0|^2+|v1|^2
    rk_tol: float = 1e-8           # per-step relative error of the curve integrator
    rk_hmin_factor: float = 1e-12  # minimum step as a fraction of the traced span
    stagnation_rel: float = 1e-8   # |j0|+|j1| cutoff, relative to the current scale
    quad_tol: float = 1e-9         # relative tolerance of two-particle
                                   # quadrature; floor of the one-particle
                                   # density sign search
    quad_max_panels: int = 16384   # cap on the intervals of one segment in
                                   # the sign search, its isqrt on the panels
                                   # per axis of a two-particle quadrature
    snap: float = 1e-12            # grid spacing of the exact geometric predicates

    def overridden(self, **kwargs) -> "Tolerances":
        """Return a copy with the given fields replaced.

        Unknown names raise TypeError; callers translating user input should
        catch that and rethrow a ConfigError naming the field.
        """
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


DEFAULT = Tolerances()
