#!/usr/bin/env python3
"""Benchmark of the `lab` pipelines, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports `currentlab` from ./src, writes the workload's configs, then
repeats passes (every operation of the workload once, each a
`currentlab.cli.main` call) until S seconds of passes have been timed.
Set-up (a fresh import of `currentlab`, loading the configs and building
their packets) is timed in rounds before every pass and after the last. The
outputs of each pass are checked after its timing ends. With --trace 0 the
last line of standard output is a JSON object with the end-to-end metrics;
with --trace 1 the first two passes run untraced, the layer wrappers are
then installed, and the JSON holds the per-layer metrics of the traced
passes.
Everything is written under perfbench/out/NAME.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

# set-up rounds before the first pass and after each pass: the machine's
# speed drifts over seconds, so the rounds are spread over the whole run
SETUP_ROUNDS = 2


def _cpu_s() -> float:
    """User plus system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _build_packet(lab, raw: dict):
    """The packet a config describes, built through the public API."""
    if "modes" in raw:
        modes = [lab.Mode(m["harmonic"], complex(m["re"], m.get("im", 0.0)))
                 for m in raw["modes"]]
        return lab.ScalarWavePacket(raw["mass"], raw["boxLength"],
                                    modes).normalized()
    mb = raw["manybody"]
    terms = [(complex(t["re"], t.get("im", 0.0)), t["harmonics"])
             for t in mb["terms"]]
    return lab.symmetrize(terms, mb["n"], raw["mass"],
                          raw["boxLength"]).normalized()


def _fresh_setup(configs) -> float:
    """Import currentlab anew, load and validate the configs, build packets.

    The fresh modules are dropped afterwards and the ones in use restored,
    so the passes keep running on one set of modules.
    """
    in_use = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.partition(".")[0] == "currentlab"}
    try:
        t0 = perf_counter()
        lab = importlib.import_module("currentlab")
        importlib.import_module("currentlab.cli")
        config = importlib.import_module("currentlab.config")
        for path, raw in configs:
            config.load_file(path)
            _build_packet(lab, raw)
        return perf_counter() - t0
    finally:
        for name in [n for n in sys.modules
                     if n.partition(".")[0] == "currentlab"]:
            del sys.modules[name]
        sys.modules.update(in_use)


def _run_lab(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts as a failed operation
        traceback.print_exc()
        return -1


class Run:
    """Passes over one workload, their timings and their check results."""

    def __init__(self, cli, ops, configs, out_root: str, seed: int):
        self.cli = cli
        self.ops = ops
        self.configs = configs
        self.out_root = out_root
        self.seed = seed
        self.walls = []
        self.cpus = []
        self.attempted = 0
        self.failed = set()       # (pass, op index)
        self.wrong = False
        self.deferred = []        # (pass, op index, data)

    def one_pass(self) -> None:
        k = len(self.walls)
        out_dir = os.path.join(self.out_root, f"pass{k}")
        argvs = [workloads.lab_argv(op, path, os.path.join(out_dir, op.label),
                                    self.seed)
                 for op, (path, _) in zip(self.ops, self.configs)]
        cpu0 = _cpu_s()
        t0 = perf_counter()
        codes = [_run_lab(self.cli, argv) for argv in argvs]
        self.walls.append(perf_counter() - t0)
        self.cpus.append(_cpu_s() - cpu0)

        self.attempted += len(self.ops)
        for i, (op, code) in enumerate(zip(self.ops, codes)):
            if code != 0:
                self._fail(k, i, [f"lab {op.command} exited {code}"],
                           wrong=False)
                continue
            rng = np.random.default_rng([self.seed, k, i])
            problems, data = checks.check(
                op.command, os.path.join(out_dir, op.label),
                self.configs[i][1], rng)
            self._fail(k, i, problems)
            if data:
                self.deferred.append((k, i, data))
        if k and not any(key[0] == k - 1 for key in self.failed):
            shutil.rmtree(os.path.join(self.out_root, f"pass{k - 1}"),
                          ignore_errors=True)

    def deferred_checks(self) -> None:
        for k, i, data in self.deferred:
            op = self.ops[i]
            self._fail(k, i, checks.check_deferred(op.command,
                                                   self.configs[i][1], data))

    def _fail(self, k: int, i: int, problems, wrong: bool = True) -> None:
        """Count operation i of pass k failed; a wrong output also makes
        the run incorrect, a non-zero exit does not."""
        if not problems:
            return
        self.failed.add((k, i))
        self.wrong |= wrong
        for problem in problems:
            print(f"perfbench: pass {k} {self.ops[i].label}: {problem}",
                  file=sys.stderr)


def unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("share"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "currentlab", "__init__.py")):
        print("perfbench: ./src/currentlab not found; run from the root of "
              "a currentlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    scenarios = importlib.import_module("currentlab.scenarios")
    if not os.path.abspath(scenarios.__file__).startswith(src + os.sep):
        print(f"perfbench: imported {scenarios.__file__}, not ./src",
              file=sys.stderr)
        return 2

    ops = workloads.FULL[args.workload]
    out_root = os.path.join(root, "perfbench", "out", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    configs = workloads.write_configs(scenarios, ops,
                                      os.path.join(out_root, "configs"))
    cli = importlib.import_module("currentlab.cli")
    setups = []
    run = Run(cli, ops, configs, out_root, args.seed)

    def measure() -> None:
        setups.extend(_fresh_setup(configs) for _ in range(SETUP_ROUNDS))
        run.one_pass()

    measure()
    tracer = None
    if args.trace:
        # the first pass also pays for warming up; the overhead is taken
        # against a second untraced one
        measure()
        tracer = tracing.Tracer()
        tracer.install()
        origin = perf_counter()
        measure()
    # whole passes only: stop before the next one would end past --seconds
    while sum(run.walls) + run.walls[-1] <= args.seconds:
        measure()
    setups.extend(_fresh_setup(configs) for _ in range(SETUP_ROUNDS))
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(os.path.join(out_root, "spans.jsonl"), origin)
    peak_rss_mb = _peak_rss_mb()
    run.deferred_checks()

    if args.trace:
        traced = run.walls[2:]
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - run.walls[1]
        for name in tracer.absent:
            print(f"perfbench: traced function absent: {name}",
                  file=sys.stderr)
    else:
        metrics = {
            "wall_s": statistics.median(run.walls),
            "cpu_s": statistics.median(run.cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit(name)}")
    print(f"{args.workload}: {len(run.walls)} passes, {run.attempted} "
          f"operations, {len(run.failed)} failed")
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
