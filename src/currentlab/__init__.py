"""Numerical laboratory for the conserved Klein-Gordon current.

Finite positive-frequency mode sums on a periodic 1+1 box, their conserved
currents with causal classification, integral-curve congruences, hypersurface
foliations with finite surface elements on null and timelike segments,
flux and probability as differences of the closed-form stream function with
flux-tube conservation checks, and symmetrized n-particle currents with
marginals and two-particle probability quadrature. The `lab` command drives
scenario pipelines that write deterministic CSV/JSON artifacts.

`import currentlab` loads only `errors`. Every other public name, and every
submodule (`currentlab.flow`, ...), loads its module on first access, and
`lab <command>` imports only the pipeline modules that command runs.
"""

from importlib import import_module

from .errors import (ArityMismatchError, ConfigError, CurrentLabError,
                     DegenerateGeometryError, GridError, NoIntersectionError,
                     QuadratureOverflowError, StepUnderflowError,
                     ZeroNormError)

__version__ = "0.1.0"

# name -> the submodule that defines it; a submodule maps to itself
_HOME = {
    **{name: name for name in ("cli", "config", "flow", "foliation",
                               "geometry", "manybody", "quadrature",
                               "scenarios", "serialize", "tolerances",
                               "wavefield")},
    **dict.fromkeys(("Congruence", "IntegralCurve", "Termination",
                     "crossing_events", "seed_congruence", "trace_curve"),
                    "flow"),
    **dict.fromkeys(("Foliation", "Hypersurface", "TubeReport", "advect_leaf",
                     "assess_foliation", "build_foliation", "flux",
                     "probability", "probability_wrapped", "stack_leaves",
                     "tube_conservation"), "foliation"),
    **dict.fromkeys(("ManyBodyPacket", "MarginalCurrentField",
                     "probability_n", "symmetrize"), "manybody"),
    **dict.fromkeys(("DEFAULT", "Tolerances"), "tolerances"),
    **dict.fromkeys(("CausalClass", "ClassificationMap", "CurrentField",
                     "Mode", "ScalarWavePacket", "SpacetimePoint",
                     "VectorWavePacket", "classification_map",
                     "classify_components"), "wavefield"),
}

__all__ = [
    "ArityMismatchError", "CausalClass", "ClassificationMap", "ConfigError",
    "Congruence", "CurrentField", "CurrentLabError", "DEFAULT",
    "DegenerateGeometryError", "Foliation", "GridError", "Hypersurface",
    "IntegralCurve", "ManyBodyPacket", "MarginalCurrentField", "Mode",
    "NoIntersectionError",
    "QuadratureOverflowError", "ScalarWavePacket", "SpacetimePoint",
    "StepUnderflowError", "Termination", "Tolerances", "TubeReport",
    "VectorWavePacket", "ZeroNormError",
    "advect_leaf", "assess_foliation", "build_foliation",
    "classification_map", "classify_components", "crossing_events", "flux",
    "probability", "probability_n", "probability_wrapped", "seed_congruence",
    "stack_leaves", "symmetrize", "trace_curve", "tube_conservation",
]


def __getattr__(name):
    """Import the home module of `name` on first access and cache the value."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
