"""The benchmark's workloads: each operation is one `lab` pipeline run.

An operation names a builtin scenario and the edits that scale it; the
benchmark writes the edited config as JSON and hands its path to
`currentlab.cli.main`, exactly as a user of `lab --config FILE` would. QUICK
holds the same operations at tiny sizes for the self-check.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Op:
    label: str          # unique within its workload
    command: str        # lab subcommand
    scenario: str       # builtin scenario the config starts from
    edits: dict = field(default_factory=dict)  # block -> fields merged in
    seeded: bool = False  # pass the benchmark seed as `lab --seed`


# Why each workload exists is recorded in BENCHMARK.json and README.md.
FULL = {
    "foliate-skewed-1024": [
        Op("skewed", "foliate", "skewed",
           {"foliation": {"nodesPerLeaf": 1024, "congruenceSize": 256}}),
    ],
    # standing-wave is left out: a tube end drawn within about 1e-5 of its
    # stagnation line makes `lab conserve` exit 4, so whether it fails
    # depends on the seed
    "conserve-tubes": [
        Op(name, "conserve", name, {"conserve": {"nRanges": 40}}, seeded=True)
        for name in ("plane-wave", "skewed")
    ],
    "manybody-pairs": [
        Op(name, "manybody", name) for name in ("product-pair",
                                                "entangled-pair")
    ],
    "classify-grid": [
        Op(name, "classify", name, {"grid": {"nT": 512, "nX": 512}})
        for name in ("skewed", "standing-wave")
    ],
}

_TINY_LEAVES = {"nLeaves": 2, "deltaS": 1.0, "congruenceSize": 1,
                "nodesPerLeaf": 8}

QUICK = {
    # the builtin size is the smallest with timelike leaf segments
    "foliate-skewed-1024": [Op("skewed", "foliate", "skewed")],
    "conserve-tubes": [
        Op(name, "conserve", name, {"conserve": {"nRanges": 2}}, seeded=True)
        for name in ("plane-wave", "skewed")
    ],
    "manybody-pairs": [
        Op(name, "manybody", name,
           {"foliation": dict(_TINY_LEAVES), "grid": {"nX": 8}})
        for name in ("product-pair", "entangled-pair")
    ],
    "classify-grid": [
        Op(name, "classify", name, {"grid": {"nT": 16, "nX": 16}})
        for name in ("skewed", "standing-wave")
    ],
}


def scenario_config(scenarios, op: Op) -> dict:
    """The builtin config of `op.scenario` with `op.edits` merged in."""
    cfg = scenarios.builtin(op.scenario)
    for block, values in op.edits.items():
        cfg.setdefault(block, {}).update(values)
    return cfg


def write_configs(scenarios, ops, config_dir: str) -> list:
    """Write one config file per operation; returns (path, config) pairs."""
    os.makedirs(config_dir, exist_ok=True)
    out = []
    for op in ops:
        cfg = scenario_config(scenarios, op)
        path = os.path.join(config_dir, f"{op.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        out.append((path, cfg))
    return out


def lab_argv(op: Op, config_path: str, out_dir: str, seed: int) -> list:
    argv = [op.command, "--config", config_path, "--out", out_dir]
    if op.seeded:
        argv += ["--seed", str(seed)]
    return argv
