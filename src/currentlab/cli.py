"""Command-line driver: scenario pipelines with deterministic artifacts.

Each subcommand loads one scenario config (a JSON file path or the name of a
built-in scenario), runs the corresponding pipeline, and writes CSV/JSON
files plus a manifest.json listing every produced file with its sha256
digest. Outputs are byte-reproducible: nothing time-dependent is written,
and the manifest echoes the normalized config rather than
command-line overrides.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 geometric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__, config, scenarios, serialize
from .errors import (ArityMismatchError, ConfigError, CurrentLabError,
                     DegenerateGeometryError, NoIntersectionError,
                     ZeroNormError)

# The pipeline modules (wavefield, flow, foliation, manybody) are imported
# inside the functions that use them, so a command loads only its own, and
# a function rebound on its module is the one a command calls.

__all__ = ["main"]


# -- run directory -----------------------------------------------------------


class RunWriter:
    """Collects output files and their digests; writes the manifest last."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.files: dict = {}

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def csv(self, name: str, header, columns) -> None:
        self.files[name] = serialize.write_csv(self._path(name), header,
                                               columns)

    def json(self, name: str, obj) -> None:
        self.files[name] = serialize.write_json(self._path(name), obj)

    def manifest(self, cfg: config.ScenarioConfig, command: str,
                 seed: int) -> None:
        serialize.write_json(self._path("manifest.json"), {
            "command": command,
            "config": config.normalized_dict(cfg),
            "files": dict(self.files),
            "seed": seed,
            "tolerances": cfg.tolerances.as_dict(),
            "version": __version__,
        })


# -- shared construction -----------------------------------------------------


def _require(cfg: config.ScenarioConfig, block: str, command: str):
    value = getattr(cfg, block)
    if value is None:
        raise ConfigError(f"{block}: required by the {command} command")
    return value


def _build_packet(cfg: config.ScenarioConfig):
    from .wavefield import Mode, ScalarWavePacket
    if cfg.modes is None:
        raise ConfigError("modes: required by this command")
    try:
        return ScalarWavePacket(
            cfg.mass, cfg.box_length,
            [Mode(h, complex(re, im)) for h, re, im in cfg.modes]).normalized()
    except (ValueError, ZeroNormError) as exc:
        raise ConfigError(f"modes: {exc}") from None


def _seed_surface(cfg: config.ScenarioConfig):
    from .foliation import Hypersurface
    f = cfg.foliation
    try:
        if f.seed == "t-const":
            return Hypersurface.t_const(f.seed_t, cfg.box_length,
                                        f.nodes_per_leaf)
        nodes = np.asarray(f.seed, dtype=float)
        return Hypersurface(nodes[:, 0], nodes[:, 1], nodes[:, 2],
                            cfg.box_length)
    except ValueError as exc:
        raise ConfigError(f"foliation.seed: {exc}") from None


def _default_span(f: config.FoliationSpec, box_length: float) -> float:
    if f.s_max is not None:
        return f.s_max
    if f.advect:
        return (f.n_leaves - 1) * f.delta_s + 0.5 * f.delta_s
    # stacked leaves: deltaS is a time offset, not an affine span, so the
    # affine budget has to be guessed generously
    return 2.0 * box_length


def _build_leaf_stack(packet, cfg: config.ScenarioConfig):
    from .flow import seed_congruence
    from .foliation import assess_foliation, build_foliation, stack_leaves
    f = cfg.foliation
    seed = _seed_surface(cfg)
    if f.advect:
        return build_foliation(packet, seed, f.n_leaves, f.delta_s,
                               f.congruence_size, cfg.tolerances,
                               s_max=f.s_max)
    leaves = stack_leaves(seed, f.n_leaves, f.delta_s)
    congruence = seed_congruence(packet, seed, f.congruence_size,
                                 _default_span(f, cfg.box_length),
                                 s_back=0.5 * abs(f.delta_s),
                                 tolerances=cfg.tolerances)
    return assess_foliation(leaves, congruence, cfg.tolerances)


_CURVE_HEADER = ["curve_id", "s", "t", "x_unwrapped", "x_mod_L", "j0", "j1",
                 "class"]


def _curve_columns(packet, congruence, cfg: config.ScenarioConfig):
    from .wavefield import classify_array
    curves = congruence.curves
    s, t, x, j0, j1 = (np.concatenate([getattr(c, name) for c in curves])
                       for name in ("s", "t", "x", "j0", "j1"))
    ids = np.repeat(np.arange(len(curves)), [c.n_samples for c in curves])
    classes = classify_array(j0, j1, packet.current_scale, cfg.tolerances)
    return [ids, s, t, x, x % cfg.box_length, j0, j1,
            [c.value for c in classes]]


def _congruence_summary(congruence) -> dict:
    per_curve = []
    for ci, curve in enumerate(congruence.curves):
        per_curve.append({
            "id": ci,
            "nSamples": curve.n_samples,
            "sMin": float(curve.s[0]),
            "sMax": float(curve.s[-1]),
            "termination": curve.terminated.value,
        })
    return {"curves": per_curve}


# -- subcommands -------------------------------------------------------------


def cmd_classify(cfg: config.ScenarioConfig, writer: RunWriter,
                 seed: int) -> None:
    from .wavefield import classification_map
    packet = _build_packet(cfg)
    g = _require(cfg, "grid", "classify")
    cmap = classification_map(packet, (g.t0, g.t1), (0.0, cfg.box_length),
                              g.n_t, g.n_x, cfg.tolerances)
    writer.csv("classification.csv", ["t", "x", "j0", "j1", "class"],
               [cmap.t, cmap.x, cmap.j0, cmap.j1,
                [c.value for c in cmap.classes]])
    writer.json("summary.json", {
        "cells": cmap.counts(),
        "nT": g.n_t,
        "nX": g.n_x,
        "scale": packet.current_scale,
    })


def cmd_trace(cfg: config.ScenarioConfig, writer: RunWriter,
              seed: int) -> None:
    from .flow import seed_congruence
    packet = _build_packet(cfg)
    f = _require(cfg, "foliation", "trace")
    surface = _seed_surface(cfg)
    congruence = seed_congruence(packet, surface, f.congruence_size,
                                 _default_span(f, cfg.box_length),
                                 s_back=0.5 * abs(f.delta_s),
                                 tolerances=cfg.tolerances)
    writer.csv("curves.csv", _CURVE_HEADER,
               _curve_columns(packet, congruence, cfg))
    writer.json("trace_summary.json", _congruence_summary(congruence))


def cmd_foliate(cfg: config.ScenarioConfig, writer: RunWriter,
                seed: int) -> None:
    from .foliation import flux, leaf_rows
    packet = _build_packet(cfg)
    _require(cfg, "foliation", "foliate")
    fol = _build_leaf_stack(packet, cfg)
    writer.csv("leaves.csv",
               ["leaf_id", "lambda", "t", "x", "ntilde0", "ntilde1", "j0",
                "j1", "ptilde", "seg_class"],
               leaf_rows(packet, fol.leaves, cfg.tolerances))
    writer.csv("curves.csv", _CURVE_HEADER,
               _curve_columns(packet, fol.congruence, cfg))
    report = fol.as_report()
    report["flux"] = [flux(packet, leaf) for leaf in fol.leaves]
    writer.json("admissibility.json", report)


def cmd_conserve(cfg: config.ScenarioConfig, writer: RunWriter,
                 seed: int) -> None:
    from .foliation import tube_conservation
    packet = _build_packet(cfg)
    f = _require(cfg, "foliation", "conserve")
    fol = _build_leaf_stack(packet, cfg)
    spec = cfg.conserve or config.ConserveSpec(None, None, None)
    leaf_a = 1 if spec.leaf_a is None else spec.leaf_a
    leaf_b = f.n_leaves - 2 if spec.leaf_b is None else spec.leaf_b
    n_ranges = 10 if spec.n_ranges is None else spec.n_ranges
    for label, idx in (("leafA", leaf_a), ("leafB", leaf_b)):
        if not 0 <= idx < f.n_leaves:
            raise ConfigError(
                f"conserve.{label}: leaf {idx} outside 0..{f.n_leaves - 1}")
    if leaf_a == leaf_b:
        raise ConfigError("conserve.leafB: must differ from leafA")
    rng = np.random.default_rng(seed)
    tubes = []
    worst = 0.0
    for _ in range(n_ranges):
        a = float(rng.uniform(0.0, 0.8))
        b = a + float(rng.uniform(0.05, 0.2))
        report = tube_conservation(packet, fol.leaves[leaf_a], (a, b),
                                   fol.leaves[leaf_b], cfg.tolerances)
        worst = max(worst, report.residual)
        tubes.append({
            "Pa": report.p_a,
            "Pb": report.p_b,
            "rangeA": [a, b],
            "rangeB": list(report.range_b),
            "residual": report.residual,
        })
    writer.json("tube.json", {
        "admissible": bool(fol.admissible),
        "leafA": leaf_a,
        "leafB": leaf_b,
        "maxResidual": worst,
        "tubes": tubes,
    })


def _factorization_residual(packet, mass: float, box_length: float):
    """Largest deviation of the pair current from an outer product, or None.

    Detects product states by the rank of the coefficient matrix; for rank
    one, the two factors come from the leading singular triple.
    """
    from .wavefield import Mode, ScalarWavePacket
    if packet.n != 2:
        return None
    harmonics = sorted({h for _, hs in packet.terms for h in hs})
    index = {h: i for i, h in enumerate(harmonics)}
    cmat = np.zeros((len(harmonics), len(harmonics)), dtype=complex)
    for coeff, (g, h) in packet.terms:
        cmat[index[g], index[h]] = coeff
    u_mat, sig, vh = np.linalg.svd(cmat)
    if sig[0] == 0.0 or (len(sig) > 1 and sig[1] > 1e-10 * sig[0]):
        return None
    root = np.sqrt(sig[0])
    factor_a = ScalarWavePacket(mass, box_length, [
        Mode(h, root * u_mat[index[h], 0]) for h in harmonics])
    factor_b = ScalarWavePacket(mass, box_length, [
        Mode(h, root * np.conj(vh[0, index[h]])) for h in harmonics])
    ts = np.array([0.0, 0.31])
    xs = np.linspace(0.0, box_length, 5)[:4]
    pts = [(t1, x1, t2, x2) for t1 in ts for x1 in xs
           for t2 in ts for x2 in xs]
    worst = 0.0
    for t1, x1, t2, x2 in pts:
        pair = packet.current_pair_grid(np.array([t1]), np.array([x1]),
                                        np.array([t2]), np.array([x2]))[0]
        ja = np.array(factor_a.current_at(t1, x1))
        jb = np.array(factor_b.current_at(t2, x2))
        worst = max(worst, float(np.abs(pair - np.outer(ja, jb)).max()))
    return worst / packet.current_scale


def _slice_independence_residual(packet, t_a: float, t_b: float,
                                 tolerances) -> float:
    """Marginal-current drift between two choices of the other-slot slice."""
    xs = np.linspace(0.0, packet.box_length, 9)[:8]
    others_a = [t_a] * (packet.n - 1)
    others_b = [t_b] * (packet.n - 1)
    worst = 0.0
    for x in xs:
        ja = packet.marginal_current(0, (0.1, float(x)), others_a, tolerances)
        jb = packet.marginal_current(0, (0.1, float(x)), others_b, tolerances)
        worst = max(worst, abs(ja[0] - jb[0]), abs(ja[1] - jb[1]))
    return worst / packet.marginal_field(0).current_scale


def cmd_manybody(cfg: config.ScenarioConfig, writer: RunWriter,
                 seed: int) -> None:
    from .foliation import Hypersurface
    from .manybody import joint_density_rows, probability_n, symmetrize
    mb = _require(cfg, "manybody", "manybody")
    try:
        packet = symmetrize(
            [(complex(re, im), hs) for re, im, hs in mb.terms],
            mb.n, cfg.mass, cfg.box_length).normalized()
    except (ValueError, ZeroNormError, ArityMismatchError) as exc:
        raise ConfigError(f"manybody.terms: {exc}") from None
    t_slice = cfg.grid.t0 if cfg.grid is not None else 0.0
    n_x = cfg.grid.n_x if cfg.grid is not None else 64
    nodes = (cfg.foliation.nodes_per_leaf if cfg.foliation is not None
             else 64)

    ts = np.full(n_x, t_slice)
    xs = np.arange(n_x) * (cfg.box_length / n_x)
    fields = ([packet.as_one_particle()] if packet.n == 1
              else [packet.marginal_field(slot) for slot in range(packet.n)])
    j0, j1 = np.concatenate([f.current_grid(ts, xs) for f in fields], axis=1)
    writer.csv("marginals.csv", ["slot", "t", "x", "j0", "j1"],
               [np.repeat(np.arange(packet.n), n_x), np.tile(ts, packet.n),
                np.tile(xs, packet.n), j0, j1])

    summary = {
        "n": packet.n,
        "closedFormNorm": packet.total_probability(),
        "factorizationResidual": _factorization_residual(
            packet, cfg.mass, cfg.box_length),
        "sliceIndependenceResidual": None,
    }
    if packet.n == 1:
        leaf = Hypersurface.t_const(t_slice, cfg.box_length, nodes)
        summary["totalProbability"] = probability_n(
            packet, [leaf], [(0.0, 1.0)], cfg.tolerances)
    elif packet.n == 2:
        t_other = t_slice + 0.37
        leaves = [Hypersurface.t_const(t_slice, cfg.box_length, nodes),
                  Hypersurface.t_const(t_other, cfg.box_length, nodes)]
        writer.csv("joint_density.csv", ["lambda1", "lambda2", "ptilde"],
                   joint_density_rows(packet, leaves))
        summary["jointLeafTimes"] = [t_slice, t_other]
        summary["totalProbability"] = probability_n(
            packet, leaves, [(0.0, 1.0), (0.0, 1.0)], cfg.tolerances)
        summary["sliceIndependenceResidual"] = _slice_independence_residual(
            packet, t_slice, t_other, cfg.tolerances)
    else:
        raise ConfigError(
            "manybody.n: pipelines are implemented for n <= 2")
    writer.json("manybody_summary.json", summary)


_COMMANDS = {
    "classify": cmd_classify,
    "trace": cmd_trace,
    "foliate": cmd_foliate,
    "conserve": cmd_conserve,
    "manybody": cmd_manybody,
}


# -- entry point -------------------------------------------------------------


def _resolve_config(spec: str) -> config.ScenarioConfig:
    if os.path.exists(spec):
        return config.load_file(spec)
    if spec in scenarios.BUILTIN:
        return config.load_dict(scenarios.builtin(spec))
    raise ConfigError(
        f"{spec}: no such file and not a built-in scenario "
        f"(available: {', '.join(scenarios.names())})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="current-flow laboratory: classification, curve tracing, "
                    "foliations, flux tubes, and two-particle pipelines")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="path to a scenario JSON file, or the name of a "
                             "built-in scenario")
    common.add_argument("--out", default=None,
                        help="output directory (default: outputDir from the "
                             "config)")
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for randomized sub-range selection")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("classify", "sample the current on a grid and classify it"),
            ("trace", "trace a congruence of integral curves"),
            ("foliate", "build a leaf stack and check admissibility"),
            ("conserve", "check probability transport through flux tubes"),
            ("manybody", "two-particle current, marginals, joint density")]:
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError("seed: must fit in an unsigned 64-bit integer")
        cfg = _resolve_config(args.config)
        writer = RunWriter(args.out if args.out is not None
                           else cfg.output_dir)
        _COMMANDS[args.command](cfg, writer, args.seed)
        writer.manifest(cfg, args.command, args.seed)
    except ConfigError as exc:
        print(f"lab: config error: {exc}", file=sys.stderr)
        return 2
    except (NoIntersectionError, DegenerateGeometryError) as exc:
        print(f"lab: geometric failure: {exc}", file=sys.stderr)
        return 4
    except CurrentLabError as exc:
        print(f"lab: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0
