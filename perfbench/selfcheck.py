#!/usr/bin/env python3
"""Quick self-check of the benchmark, run from the repository root.

    python3 perfbench/selfcheck.py

Runs every workload once at tiny sizes (workloads.QUICK) and requires its
checks to pass. Then it corrupts one artifact at a time, in a way that one
particular checker must catch, and fails unless that checker rejects it.
Takes a few seconds; writes under perfbench/out/selfcheck.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import numpy as np

import checks
import run
import tracing
import workloads

SEED = 1


def _problems(command: str, out_dir: str, cfg: dict) -> list:
    found, deferred = checks.check(command, out_dir, cfg,
                                   np.random.default_rng(SEED))
    return found + checks.check_deferred(command, cfg, deferred)


def _redigest(out_dir: str, name: str) -> None:
    """Make manifest.json agree with the edited artifact again."""
    path = os.path.join(out_dir, "manifest.json")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(out_dir, name), "rb") as fh:
        manifest["files"][name] = hashlib.sha256(fh.read()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def edit_json(name: str, change):
    def corrupt(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        change(obj)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        _redigest(out_dir, name)
    return corrupt


def edit_csv(name: str, column: str, change, rows=None):
    """Apply change(value, row index) to a column, on `rows` or every row."""
    def corrupt(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        col = lines[0].split(",").index(column)
        for r in range(1, len(lines)) if rows is None else rows:
            cells = lines[r].split(",")
            cells[col] = change(cells[col], r)
            lines[r] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        _redigest(out_dir, name)
    return corrupt


def _shift(delta):
    return lambda v, r: format(float(v) + delta, ".17g")


def _seed_t(out_dir):
    """Every leaf node moved to the seed leaf's time: no timelike segment."""
    with open(os.path.join(out_dir, "leaves.csv"), encoding="utf-8") as fh:
        t0 = fh.read().splitlines()[1].split(",")[2]
    edit_csv("leaves.csv", "t", lambda v, r: t0)(out_dir)


def _flip_byte(out_dir):
    path = os.path.join(out_dir, "tube.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[-3] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)


def _bump(key, index, delta):
    def change(obj):
        obj[key][index] += delta
    return change


def _bump_tube(key, delta):
    def change(obj):
        obj["tubes"][0][key] += delta
    return change


# (workload, op label, corruption, text the rejection must contain)
CORRUPTIONS = [
    ("conserve-tubes", "plane-wave", _flip_byte, "digest mismatch"),
    ("foliate-skewed-1024", "skewed",
     edit_json("admissibility.json", _bump("flux", 1, 1e-3)),
     "reported flux"),
    ("foliate-skewed-1024", "skewed",
     edit_json("admissibility.json",
               lambda obj: obj["counts"][0].__setitem__(1, 2)),
     "crosses leaf 1 2 times"),
    ("foliate-skewed-1024", "skewed",
     edit_csv("curves.csv", "t", _shift(100.0)), "independent count"),
    ("foliate-skewed-1024", "skewed", _seed_t, "timelike"),
    ("foliate-skewed-1024", "skewed",
     edit_csv("leaves.csv", "t", lambda v, r: format(
         float(v) + (1e-5 if r > 64 else 0.0), ".17g")), "DOP853"),
    ("conserve-tubes", "plane-wave",
     edit_json("tube.json", _bump_tube("Pb", 1e-8)), "closed form"),
    ("conserve-tubes", "skewed",
     edit_json("tube.json", _bump_tube("Pb", 1e-5)), "differ"),
    ("manybody-pairs", "product-pair",
     edit_json("manybody_summary.json",
               lambda obj: obj.__setitem__("totalProbability", 1.01)),
     "totalProbability"),
    ("manybody-pairs", "entangled-pair",
     edit_csv("joint_density.csv", "ptilde", _shift(1e-8), rows=[5]),
     "joint density"),
    ("manybody-pairs", "product-pair",
     edit_csv("marginals.csv", "j1", _shift(1e-8), rows=[3]), "marginal"),
    ("classify-grid", "skewed",
     edit_csv("classification.csv", "class",
              lambda v, r: "spacelike" if v != "spacelike" else "null",
              rows=[7]),
     "labels disagree"),
    ("classify-grid", "standing-wave",
     edit_csv("classification.csv", "j0", _shift(1e-3), rows=[20]),
     "row integral"),
    ("classify-grid", "skewed",
     edit_csv("classification.csv", "j1", _shift(1e-6)),
     "sampled current"),
    ("classify-grid", "skewed",
     edit_json("summary.json", lambda obj: obj.__setitem__("scale", 1.0)),
     "scale"),
]


def _traced_names(runs) -> bool:
    """A traced pass names exactly the per-layer metrics of BENCHMARK.json,
    and a target that does not exist is reported absent, not fatal."""
    from currentlab import cli

    gone = ("x.gone", "currentlab.wavefield", "NoSuchField.current_at", True,
            None)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS + [gone])
    try:
        for (name, label), (command, out_dir, cfg) in runs.items():
            op = next(o for o in workloads.QUICK[name] if o.label == label)
            path = os.path.join(os.path.dirname(out_dir), "configs",
                                f"{label}.json")
            cli.main(workloads.lab_argv(op, path, out_dir + ".traced", SEED))
    finally:
        tracer.uninstall()
    names = set(tracing.layer_metrics(tracer, 1)) | {"trace.overhead_s"}
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"] for m in bench["per_layer"]}
    units = {m["name"]: m["unit"] for m in bench["per_layer"]
             + bench["end_to_end"]}
    ok = (names == declared
          and all(run.unit(n) == u for n, u in units.items())
          and tracer.absent == ["currentlab.wavefield.NoSuchField.current_at"]
          and tracer.stats["wavefield.current_at"].calls > 0)
    print(f"{'ok  ' if ok else 'FAIL'} traced pass: {len(names)} per-layer "
          f"metrics as declared, absent {tracer.absent}")
    return ok


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from currentlab import cli, scenarios

    base = os.path.join(root, "perfbench", "out", "selfcheck")
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    runs = {}
    for name, ops in workloads.QUICK.items():
        configs = workloads.write_configs(
            scenarios, ops, os.path.join(base, name, "configs"))
        for op, (path, cfg) in zip(ops, configs):
            out_dir = os.path.join(base, name, op.label)
            code = cli.main(workloads.lab_argv(op, path, out_dir, SEED))
            problems = ([f"exit {code}"] if code else
                        _problems(op.command, out_dir, cfg))
            runs[name, op.label] = (op.command, out_dir, cfg)
            ok &= not problems
            print(f"{'ok  ' if not problems else 'FAIL'} {name} {op.label} "
                  f"passes its checks {problems or ''}")

    for name, label, corrupt, expected in CORRUPTIONS:
        command, out_dir, cfg = runs[name, label]
        work = out_dir + ".corrupt"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(out_dir, work)
        corrupt(work)
        problems = _problems(command, work, cfg)
        caught = [p for p in problems if expected in p]
        ok &= bool(caught)
        print(f"{'ok  ' if caught else 'FAIL'} {name} {label} rejects a "
              f"corrupted artifact: {(caught or problems or ['nothing'])[0]}")
        shutil.rmtree(work)
    ok &= _traced_names(runs)
    print("selfcheck passed" if ok else "selfcheck FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
