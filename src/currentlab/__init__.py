"""Numerical laboratory for the conserved Klein-Gordon current.

Finite positive-frequency mode sums on a periodic 1+1 box, their conserved
currents with causal classification, integral-curve congruences, hypersurface
foliations with finite surface elements on null and timelike segments,
flux and probability as differences of the closed-form stream function with
flux-tube conservation checks, and symmetrized n-particle currents with
marginals and two-particle probability quadrature. The `lab` command drives
scenario pipelines that write deterministic CSV/JSON artifacts.
"""

from .errors import (ArityMismatchError, ConfigError, CurrentLabError,
                     DegenerateGeometryError, DegenerateSegmentError,
                     GridError, NoIntersectionError, QuadratureOverflowError,
                     StepUnderflowError, ZeroNormError)
from .flow import (Congruence, IntegralCurve, Termination, crossing_count,
                   crossing_events, seed_congruence, touch_count, trace_curve,
                   trace_curve_two_sided)
from .foliation import (Foliation, Hypersurface, SurfaceElement, TubeReport,
                        advect_leaf, assess_foliation, beta_example,
                        build_foliation, flux, probability,
                        probability_density, probability_wrapped,
                        signed_density, stack_leaves, surface_element,
                        tube_conservation)
from .manybody import (ManyBodyPacket, MarginalCurrentField,
                       probability_density_n, probability_n, symmetrize)
from .tolerances import DEFAULT, Tolerances
from .wavefield import (CausalClass, ClassificationMap, CurrentField, Mode,
                        ScalarWavePacket, SpacetimePoint, VectorWavePacket,
                        classification_map, classify_components)

__version__ = "0.1.0"

__all__ = [
    "ArityMismatchError", "CausalClass", "ClassificationMap", "ConfigError",
    "Congruence", "CurrentField", "CurrentLabError", "DEFAULT",
    "DegenerateGeometryError", "DegenerateSegmentError", "Foliation",
    "GridError", "Hypersurface", "IntegralCurve", "ManyBodyPacket",
    "MarginalCurrentField", "Mode", "NoIntersectionError",
    "QuadratureOverflowError", "ScalarWavePacket", "SpacetimePoint",
    "StepUnderflowError", "SurfaceElement", "Termination", "Tolerances",
    "TubeReport", "VectorWavePacket", "ZeroNormError",
    "advect_leaf", "assess_foliation", "beta_example", "build_foliation",
    "classification_map", "classify_components", "crossing_count",
    "crossing_events", "flux", "probability", "probability_density",
    "probability_density_n", "probability_n", "probability_wrapped",
    "seed_congruence", "signed_density", "stack_leaves", "surface_element",
    "symmetrize", "touch_count", "trace_curve", "trace_curve_two_sided",
    "tube_conservation",
]
