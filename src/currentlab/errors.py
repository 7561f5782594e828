"""Exception types shared across the package."""


class CurrentLabError(Exception):
    """Base class for all library errors."""


class ConfigError(CurrentLabError):
    """A run configuration failed validation.

    The message starts with the dotted path of the offending field so the
    caller can fix the config without reading the source.
    """


class ZeroNormError(CurrentLabError):
    """Total flux is not positive, so the packet cannot carry unit probability.

    Also raised when the flux or a field's current or divergence scale
    underflows below the smallest normal float (``sys.float_info.min``):
    relative tolerances on such a field underflow to zero as well.
    """


class GridError(CurrentLabError):
    """Malformed sampling grid: empty range or fewer than two points per axis."""


class StepUnderflowError(CurrentLabError):
    """Adaptive step control hit the minimum step without meeting tolerance."""


class QuadratureOverflowError(CurrentLabError):
    """Adaptive quadrature reached its panel cap without converging."""


class DegenerateGeometryError(CurrentLabError):
    """Curve and hypersurface share a segment of nonzero length."""


class NoIntersectionError(CurrentLabError):
    """A boundary curve failed to cross the target hypersurface."""


class ArityMismatchError(CurrentLabError):
    """A many-body term does not carry exactly one mode per particle slot."""
