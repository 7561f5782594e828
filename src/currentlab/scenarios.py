"""Built-in scenario library.

Five reference configurations spanning the interesting regimes: a constant
current (plane-wave), a current with stagnation lines (standing-wave), a
packet whose adapted foliation is forced off spacelike slices (skewed), and
two-particle product and entangled states. Each entry is a complete config
dictionary accepted by config.load_dict, embedded so pipelines and tests run
without external data files.
"""

from __future__ import annotations

import copy
import math

__all__ = ["BUILTIN", "SKEWED_SEED_T", "builtin", "names"]

_TWO_PI = 2.0 * math.pi

# Time at which the cross-harmonic beat of the skewed packet vanishes, so the
# constant-time slice there is crossed the same way by every flow line. The
# beat factor is cos((1 - sqrt(26)) t); this is its first zero below t = 0.
SKEWED_SEED_T = -math.pi / (2.0 * (math.sqrt(26.0) - 1.0))

_GRID = {"t0": 0.0, "t1": _TWO_PI, "nT": 64, "nX": 64}


def _foliation(delta_s: float, seed_t: float = 0.0) -> dict:
    return {
        "seed": "t-const",
        "seedT": seed_t,
        "nLeaves": 8,
        "deltaS": delta_s,
        "congruenceSize": 32,
        "nodesPerLeaf": 64,
    }


BUILTIN = {
    # single right-moving mode: constant everywhere-timelike current
    "plane-wave": {
        "name": "plane-wave",
        "mass": 1.0,
        "boxLength": _TWO_PI,
        "modes": [{"harmonic": 1, "re": 1.0, "im": 0.0}],
        "grid": dict(_GRID),
        "foliation": _foliation(1.0),
        "outputDir": "runs/plane-wave",
    },
    # equal counter-propagating modes: j vanishes on two world lines, the
    # congruence has stagnant members and the leaves develop pinned nodes
    "standing-wave": {
        "name": "standing-wave",
        "mass": 1.0,
        "boxLength": _TWO_PI,
        "modes": [
            {"harmonic": 1, "re": 1.0, "im": 0.0},
            {"harmonic": -1, "re": 1.0, "im": 0.0},
        ],
        "grid": dict(_GRID),
        "foliation": _foliation(0.6),
        "outputDir": "runs/standing-wave",
    },
    # strong zero mode beating against +-5: the charge density goes negative
    # in pockets, so many t = const slices are inadmissible and the adapted
    # leaves develop timelike segments. Flat slices keep j0 > 0 in two
    # windows per beat period of 1.533, 53% of it, with edges at t ~ 0.179,
    # 0.587, 0.946 and 1.353 (mod the period); the seed, at the beat zero,
    # lies in the middle of the second.
    "skewed": {
        "name": "skewed",
        "mass": 1.0,
        "boxLength": _TWO_PI,
        "modes": [
            {"harmonic": -5, "re": 1.0, "im": 0.0},
            {"harmonic": 0, "re": 4.0, "im": 0.0},
            {"harmonic": 5, "re": 1.0, "im": 0.0},
        ],
        "grid": dict(_GRID),
        "foliation": _foliation(0.15, SKEWED_SEED_T),
        "outputDir": "runs/skewed",
    },
    # both particles in the same mode: factorized state, uniform joint density
    "product-pair": {
        "name": "product-pair",
        "mass": 1.0,
        "boxLength": _TWO_PI,
        "grid": dict(_GRID),
        "manybody": {
            "n": 2,
            "terms": [{"re": 1.0, "im": 0.0, "harmonics": [1, 1]}],
        },
        "outputDir": "runs/product-pair",
    },
    # symmetrized counter-propagating pair: momentum-entangled, equal
    # frequencies, so the joint density on flat product slices stays
    # nonnegative and the marginal current is constant
    "entangled-pair": {
        "name": "entangled-pair",
        "mass": 1.0,
        "boxLength": _TWO_PI,
        "grid": dict(_GRID),
        "manybody": {
            "n": 2,
            "terms": [{"re": 1.0, "im": 0.0, "harmonics": [1, -1]}],
        },
        "outputDir": "runs/entangled-pair",
    },
}


def names() -> list:
    return sorted(BUILTIN)


def builtin(name: str) -> dict:
    """Deep copy of a built-in config dictionary."""
    if name not in BUILTIN:
        raise KeyError(name)
    return copy.deepcopy(BUILTIN[name])
