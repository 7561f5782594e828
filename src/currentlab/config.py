"""Scenario configuration: schema, validation, and normalization.

A run is described by one JSON object. Parsing is strict: every field is
type-checked, unknown fields are rejected, and error messages carry the
dotted path of the offending field so a bad config is diagnosable from the
message alone. `normalized_dict` materializes defaults; feeding its output
back through `load_dict` reproduces an equal ScenarioConfig.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ConfigError
from .tolerances import DEFAULT, Tolerances

__all__ = ["FoliationSpec", "GridSpec", "ConserveSpec", "ManyBodySpec",
           "ScenarioConfig", "load_dict", "load_file", "normalized_dict"]


# -- typed field extraction --------------------------------------------------


def _as_dict(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ConfigError(f"{path}: expected an object")
    return dict(v)


def _as_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected an array")
    return v


def _as_str(v, path: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{path}: expected a non-empty string")
    return v


def _as_bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{path}: expected true or false")
    return v


def _as_int(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer")
    return v


def _as_real(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: expected a finite number")
    return v


def _reject_unknown(d: dict, path: str) -> None:
    if d:
        key = sorted(d)[0]
        raise ConfigError(f"{path}.{key}: unknown field")


# -- config blocks -----------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    t0: float
    t1: float
    n_t: int
    n_x: int


@dataclass(frozen=True)
class FoliationSpec:
    seed: object            # "t-const" or tuple of (lam, t, x) node triples
    seed_t: float
    n_leaves: int
    delta_s: float
    congruence_size: int
    nodes_per_leaf: int
    advect: bool
    s_max: float | None


@dataclass(frozen=True)
class ConserveSpec:
    leaf_a: int | None
    leaf_b: int | None
    n_ranges: int | None


@dataclass(frozen=True)
class ManyBodySpec:
    n: int
    terms: tuple            # of (re, im, harmonics-tuple)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    mass: float
    box_length: float
    modes: tuple | None     # of (harmonic, re, im)
    grid: GridSpec | None
    foliation: FoliationSpec | None
    conserve: ConserveSpec | None
    manybody: ManyBodySpec | None
    tolerances: Tolerances
    output_dir: str


def _parse_modes(raw, path: str) -> tuple:
    items = _as_list(raw, path)
    if not items:
        raise ConfigError(f"{path}: at least one mode is required")
    modes = []
    for i, item in enumerate(items):
        d = _as_dict(item, f"{path}[{i}]")
        h = _as_int(d.pop("harmonic", None), f"{path}[{i}].harmonic")
        re = _as_real(d.pop("re", None), f"{path}[{i}].re")
        im = _as_real(d.pop("im", 0.0), f"{path}[{i}].im")
        _reject_unknown(d, f"{path}[{i}]")
        modes.append((h, re, im))
    return tuple(modes)


def _parse_grid(raw, path: str) -> GridSpec:
    d = _as_dict(raw, path)
    t0 = _as_real(d.pop("t0", None), f"{path}.t0")
    t1 = _as_real(d.pop("t1", None), f"{path}.t1")
    n_t = _as_int(d.pop("nT", None), f"{path}.nT")
    n_x = _as_int(d.pop("nX", None), f"{path}.nX")
    _reject_unknown(d, path)
    if t1 <= t0:
        raise ConfigError(f"{path}.t1: must exceed t0")
    if n_t < 2 or n_x < 2:
        raise ConfigError(f"{path}.nT: grid needs at least 2 points per axis")
    return GridSpec(t0, t1, n_t, n_x)


def _parse_seed_nodes(raw, path: str) -> tuple:
    nodes = []
    for i, item in enumerate(_as_list(raw, path)):
        triple = _as_list(item, f"{path}[{i}]")
        if len(triple) != 3:
            raise ConfigError(f"{path}[{i}]: expected [lambda, t, x]")
        nodes.append(tuple(_as_real(v, f"{path}[{i}][{k}]")
                           for k, v in enumerate(triple)))
    if len(nodes) < 2:
        raise ConfigError(f"{path}: a seed leaf needs at least 2 nodes")
    return tuple(nodes)


def _parse_foliation(raw, path: str) -> FoliationSpec:
    d = _as_dict(raw, path)
    seed_raw = d.pop("seed", "t-const")
    if isinstance(seed_raw, str):
        if seed_raw != "t-const":
            raise ConfigError(f'{path}.seed: expected "t-const" or a node list')
        seed = "t-const"
    else:
        seed = _parse_seed_nodes(seed_raw, f"{path}.seed")
    seed_t = d.pop("seedT", None)
    if seed_t is not None and seed != "t-const":
        raise ConfigError(f'{path}.seedT: only valid with seed = "t-const"')
    seed_t = 0.0 if seed_t is None else _as_real(seed_t, f"{path}.seedT")
    n_leaves = _as_int(d.pop("nLeaves", None), f"{path}.nLeaves")
    delta_s = _as_real(d.pop("deltaS", None), f"{path}.deltaS")
    congruence = _as_int(d.pop("congruenceSize", None),
                         f"{path}.congruenceSize")
    nodes = _as_int(d.pop("nodesPerLeaf", 64), f"{path}.nodesPerLeaf")
    advect = _as_bool(d.pop("advect", True), f"{path}.advect")
    s_max = d.pop("sMax", None)
    if s_max is not None:
        s_max = _as_real(s_max, f"{path}.sMax")
        if s_max <= 0.0:
            raise ConfigError(f"{path}.sMax: must be positive")
    _reject_unknown(d, path)
    if n_leaves < 2:
        raise ConfigError(f"{path}.nLeaves: a foliation needs at least 2 leaves")
    # rigid stacks may step backward in time; advection cannot
    if delta_s == 0.0:
        raise ConfigError(f"{path}.deltaS: must be nonzero")
    if advect and delta_s < 0.0:
        raise ConfigError(f"{path}.deltaS: must be positive when advect is true")
    if congruence < 1:
        raise ConfigError(f"{path}.congruenceSize: must be at least 1")
    if nodes < 2:
        raise ConfigError(f"{path}.nodesPerLeaf: must be at least 2")
    return FoliationSpec(seed, seed_t, n_leaves, delta_s, congruence, nodes,
                         advect, s_max)


def _parse_conserve(raw, path: str) -> ConserveSpec:
    d = _as_dict(raw, path)
    leaf_a = d.pop("leafA", None)
    leaf_b = d.pop("leafB", None)
    n_ranges = d.pop("nRanges", None)
    _reject_unknown(d, path)
    if leaf_a is not None:
        leaf_a = _as_int(leaf_a, f"{path}.leafA")
    if leaf_b is not None:
        leaf_b = _as_int(leaf_b, f"{path}.leafB")
    if n_ranges is not None:
        n_ranges = _as_int(n_ranges, f"{path}.nRanges")
        if n_ranges < 1:
            raise ConfigError(f"{path}.nRanges: must be at least 1")
    return ConserveSpec(leaf_a, leaf_b, n_ranges)


def _parse_manybody(raw, path: str) -> ManyBodySpec:
    d = _as_dict(raw, path)
    n = _as_int(d.pop("n", None), f"{path}.n")
    if n < 1:
        raise ConfigError(f"{path}.n: particle number must be at least 1")
    terms_raw = _as_list(d.pop("terms", None), f"{path}.terms")
    _reject_unknown(d, path)
    if not terms_raw:
        raise ConfigError(f"{path}.terms: at least one term is required")
    terms = []
    for i, item in enumerate(terms_raw):
        td = _as_dict(item, f"{path}.terms[{i}]")
        re = _as_real(td.pop("re", None), f"{path}.terms[{i}].re")
        im = _as_real(td.pop("im", 0.0), f"{path}.terms[{i}].im")
        hs = _as_list(td.pop("harmonics", None), f"{path}.terms[{i}].harmonics")
        _reject_unknown(td, f"{path}.terms[{i}]")
        if len(hs) != n:
            raise ConfigError(
                f"{path}.terms[{i}].harmonics: expected {n} entries, "
                f"got {len(hs)}")
        hs = tuple(_as_int(h, f"{path}.terms[{i}].harmonics[{k}]")
                   for k, h in enumerate(hs))
        terms.append((re, im, hs))
    return ManyBodySpec(n, tuple(terms))


def _parse_tolerances(raw, path: str) -> Tolerances:
    d = _as_dict(raw, path)
    overrides = {}
    for key in list(d):
        val = d.pop(key)
        if key == "quad_max_panels":
            overrides[key] = _as_int(val, f"{path}.{key}")
            if overrides[key] < 1:
                raise ConfigError(f"{path}.{key}: must be at least 1")
        else:
            overrides[key] = _as_real(val, f"{path}.{key}")
    try:
        return DEFAULT.overridden(**overrides)
    except TypeError:
        bad = sorted(set(overrides) - set(DEFAULT.as_dict()))[0]
        raise ConfigError(f"{path}.{bad}: unknown tolerance") from None


# -- entry points ------------------------------------------------------------


def load_dict(raw: dict) -> ScenarioConfig:
    d = _as_dict(raw, "config")
    name = _as_str(d.pop("name", None), "name")
    mass = _as_real(d.pop("mass", None), "mass")
    if mass < 0.0:
        raise ConfigError("mass: must be nonnegative")
    box = _as_real(d.pop("boxLength", None), "boxLength")
    if box <= 0.0:
        raise ConfigError("boxLength: must be positive")
    modes = d.pop("modes", None)
    if modes is not None:
        modes = _parse_modes(modes, "modes")
    grid = d.pop("grid", None)
    if grid is not None:
        grid = _parse_grid(grid, "grid")
    fol = d.pop("foliation", None)
    if fol is not None:
        fol = _parse_foliation(fol, "foliation")
    conserve = d.pop("conserve", None)
    if conserve is not None:
        conserve = _parse_conserve(conserve, "conserve")
    mb = d.pop("manybody", None)
    if mb is not None:
        mb = _parse_manybody(mb, "manybody")
    tol = d.pop("tolerances", None)
    tol = DEFAULT if tol is None else _parse_tolerances(tol, "tolerances")
    out = d.pop("outputDir", None)
    out = f"runs/{name}" if out is None else _as_str(out, "outputDir")
    _reject_unknown(d, "config")
    return ScenarioConfig(name, mass, box, modes, grid, fol, conserve, mb,
                          tol, out)


def load_file(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return load_dict(raw)


def normalized_dict(cfg: ScenarioConfig) -> dict:
    """Config as a plain dictionary with defaults materialized.

    load_dict(normalized_dict(c)) == c; the manifest embeds this form.
    """
    out = {
        "name": cfg.name,
        "mass": cfg.mass,
        "boxLength": cfg.box_length,
        "outputDir": cfg.output_dir,
        "tolerances": cfg.tolerances.as_dict(),
    }
    if cfg.modes is not None:
        out["modes"] = [{"harmonic": h, "re": re, "im": im}
                        for h, re, im in cfg.modes]
    if cfg.grid is not None:
        out["grid"] = {"t0": cfg.grid.t0, "t1": cfg.grid.t1,
                       "nT": cfg.grid.n_t, "nX": cfg.grid.n_x}
    if cfg.foliation is not None:
        f = cfg.foliation
        block = {
            "seed": ("t-const" if f.seed == "t-const"
                     else [list(node) for node in f.seed]),
            "nLeaves": f.n_leaves,
            "deltaS": f.delta_s,
            "congruenceSize": f.congruence_size,
            "nodesPerLeaf": f.nodes_per_leaf,
            "advect": f.advect,
        }
        if f.seed == "t-const":
            block["seedT"] = f.seed_t
        if f.s_max is not None:
            block["sMax"] = f.s_max
        out["foliation"] = block
    if cfg.conserve is not None:
        c = cfg.conserve
        block = {}
        if c.leaf_a is not None:
            block["leafA"] = c.leaf_a
        if c.leaf_b is not None:
            block["leafB"] = c.leaf_b
        if c.n_ranges is not None:
            block["nRanges"] = c.n_ranges
        out["conserve"] = block
    if cfg.manybody is not None:
        out["manybody"] = {
            "n": cfg.manybody.n,
            "terms": [{"re": re, "im": im, "harmonics": list(hs)}
                      for re, im, hs in cfg.manybody.terms],
        }
    return out
