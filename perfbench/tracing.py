"""Per-layer spans and counters for the traced run.

The wrappers are installed from outside the program: each one replaces a
public function or method of a layer, and a module-level function is
rebound in every `currentlab` module that holds it by name (`cli` imports
`flux` and `tube_conservation`, `foliation` imports `leaf_crossings`).
A target that no longer exists is reported absent and its metrics read 0.

A span's self time is its duration minus the time of the traced spans it
encloses. Spans stay in memory and are written out at the end, except those
of the hot targets (`current_at`, `current_grid`, `orient`, ...), called up
to millions of times per pass, which are only aggregated.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (span name, module, attribute path, hot, hook name)
TARGETS = [
    ("wavefield.current_at", "currentlab.wavefield",
     "ScalarWavePacket.current_at", True, "rhs"),
    ("wavefield.current_grid", "currentlab.wavefield",
     "ScalarWavePacket.current_grid", True, "points"),
    ("wavefield.current_grid", "currentlab.manybody",
     "MarginalCurrentField.current_grid", True, "points"),
    ("wavefield.classify_array", "currentlab.wavefield", "classify_array",
     False, None),
    ("flow.trace_curve", "currentlab.flow", "trace_curve", False, "steps"),
    ("flow.point_at", "currentlab.flow", "IntegralCurve.point_at", True,
     None),
    ("geometry.leaf_crossings", "currentlab.geometry", "leaf_crossings",
     False, None),
    ("geometry.orient", "currentlab.geometry", "orient", True, None),
    ("geometry.orient_exact", "currentlab.geometry", "orient_exact", True,
     None),
    ("geometry.membership", "currentlab.geometry", "LeafGeometry.membership",
     False, None),
    ("quadrature.adaptive", "currentlab.quadrature", "adaptive", False,
     "quad"),
    ("quadrature.adaptive_2d", "currentlab.quadrature", "adaptive_2d", False,
     "quad"),
    ("foliation.advect_leaf", "currentlab.foliation", "advect_leaf", False,
     None),
    ("foliation.assess_foliation", "currentlab.foliation",
     "assess_foliation", False, None),
    ("foliation.flux", "currentlab.foliation", "flux", False, None),
    ("foliation.probability", "currentlab.foliation", "probability", False,
     None),
    ("foliation.tube_conservation", "currentlab.foliation",
     "tube_conservation", False, None),
    ("foliation.leaf_rows", "currentlab.foliation", "leaf_rows", False, None),
    ("manybody.probability_n", "currentlab.manybody", "probability_n", False,
     None),
    ("manybody.current_pair_grid", "currentlab.manybody",
     "ManyBodyPacket.current_pair_grid", True, "points"),
    ("manybody.current_n", "currentlab.manybody", "ManyBodyPacket.current_n",
     True, None),
    ("manybody.joint_density_rows", "currentlab.manybody",
     "joint_density_rows", False, None),
    ("serialize.write_csv", "currentlab.serialize", "write_csv", False,
     "bytes"),
    ("serialize.write_json", "currentlab.serialize", "write_json", False,
     "bytes"),
    ("config.load", "currentlab.config", "load_file", False, None),
    ("config.load", "currentlab.config", "load_dict", False, None),
]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0   # outermost spans of this name only


class Tracer:
    """Span stack, per-name statistics and the spans kept for the record."""

    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = Counter()
        self.spans = []          # (id, parent id, name, start, end)
        self.absent = []
        self._stack = []         # frames: [child time, span id]
        self._active = Counter()
        self._next_id = 0
        self._undo = []

    # -- hooks: counts derived from arguments and results ----------------

    def _hook_rhs(self, name, args, result, evals):
        if self._active["flow.trace_curve"]:
            self.counts["flow.rhs_evals"] += 1

    def _hook_points(self, name, args, result, evals):
        # args[0] is the packet; args[1] the time coordinates of the points
        self.counts[name + ".points"] += np.size(args[1])

    def _hook_steps(self, name, args, result, evals):
        self.counts["flow.steps_accepted"] += len(result.s) - 1

    def _hook_bytes(self, name, args, result, evals):
        self.counts["serialize.bytes"] += os.path.getsize(args[0])

    def _hook_quad(self, name, args, result, evals):
        sizes, max_panels = evals
        self.counts[name + ".nodes"] += sum(sizes)
        # the first estimate uses one panel; a call that ended on the cap
        # used max_panels per axis in its last one
        if sizes and sizes[0]:
            ratio = sizes[-1] / sizes[0]
            panels = ratio if name.endswith("adaptive") else ratio ** 0.5
            if panels >= max_panels:
                self.counts[name + ".cap_hits"] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, hot, hook):
        stack, active, stats = self._stack, self._active, self.stats
        after = getattr(self, f"_hook_{hook}") if hook else None
        quad = hook == "quad"
        signature = inspect.signature(fn) if quad else None
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            evals = None
            if quad:
                args, kwargs, evals = _count_evaluations(signature, args,
                                                         kwargs)
            if hot:
                span_id = None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                took = t1 - t0
                if stack:
                    stack[-1][0] += took
                stat = stats[name]
                stat.calls += 1
                stat.self_s += took - frame[0]
                if not active[name]:
                    stat.incl_s += took
                if span_id is not None:
                    spans.append((span_id, parent, name, t0, t1))
            if after is not None:
                after(name, args, result, evals)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        for name, module, path, hot, hook in targets:
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module}.{path}")
                continue
            traced = self._wrap(name, fn, hot, hook)
            if outer:
                self._rebind(owner, attr, fn, traced)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").partition(".")[0] != \
                        "currentlab":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, traced)

    def _rebind(self, owner, attr, fn, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def write_spans(self, path: str, origin: float) -> None:
        """Kept spans as JSON lines, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": t0 - origin,
                                     "end": t1 - origin}) + "\n")


def _count_evaluations(signature, args, kwargs):
    """Rebind the integrand of a quadrature call so its nodes are counted."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    integrand = bound.arguments["f"]
    sizes = []

    def counted(*xs):
        sizes.append(len(xs[0]))
        return integrand(*xs)

    bound.arguments["f"] = counted
    return bound.args, bound.kwargs, (sizes, bound.arguments["max_panels"])


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer figures per traced pass, keyed as in BENCHMARK.json."""
    st = tracer.stats
    n = tracer.counts

    def per(v):
        return v / passes

    def ratio(a, b):
        return a / b if b else 0.0

    rhs = n["flow.rhs_evals"]
    curves = st["flow.trace_curve"].calls
    accepted = n["flow.steps_accepted"]
    attempts = ratio(rhs - curves, 6)   # one start evaluation, 6 per attempt
    written = st["serialize.write_csv"].incl_s + st["serialize.write_json"].incl_s
    m = {
        "wavefield.current_at.calls": per(st["wavefield.current_at"].calls),
        "wavefield.current_at.self_s": per(st["wavefield.current_at"].self_s),
        "wavefield.current_grid.points": per(n["wavefield.current_grid.points"]),
        "wavefield.current_grid.self_s": per(st["wavefield.current_grid"].self_s),
        "wavefield.current_grid.points_per_s": ratio(
            n["wavefield.current_grid.points"],
            st["wavefield.current_grid"].self_s),
        "wavefield.classify_array.self_s": per(st["wavefield.classify_array"].self_s),
        "flow.curves": per(curves),
        "flow.trace_curve.self_s": per(st["flow.trace_curve"].self_s),
        "flow.rhs_evals": per(rhs),
        "flow.rhs_evals_per_curve": ratio(rhs, curves),
        "flow.steps_accepted": per(accepted),
        "flow.steps_rejected": per(attempts - accepted) if curves else 0.0,
        "flow.point_at.calls": per(st["flow.point_at"].calls),
        "geometry.leaf_crossings.calls": per(st["geometry.leaf_crossings"].calls),
        "geometry.leaf_crossings.self_s": per(st["geometry.leaf_crossings"].self_s),
        "geometry.pairs_per_s": ratio(st["geometry.leaf_crossings"].calls,
                                      st["geometry.leaf_crossings"].incl_s),
        "geometry.orient.calls": per(st["geometry.orient"].calls),
        "geometry.orient_exact.calls": per(st["geometry.orient_exact"].calls),
        "geometry.orient_exact.share": ratio(st["geometry.orient_exact"].calls,
                                             st["geometry.orient"].calls),
        "geometry.membership.calls": per(st["geometry.membership"].calls),
        "geometry.membership.self_s": per(st["geometry.membership"].self_s),
    }
    for q in ("quadrature.adaptive", "quadrature.adaptive_2d"):
        m[q + ".calls"] = per(st[q].calls)
        m[q + ".self_s"] = per(st[q].self_s)
        m[q + ".nodes"] = per(n[q + ".nodes"])
        m[q + ".cap_hits"] = per(n[q + ".cap_hits"])
    for f in ("advect_leaf", "assess_foliation", "flux", "probability",
              "tube_conservation", "leaf_rows"):
        m[f"foliation.{f}.s"] = per(st[f"foliation.{f}"].incl_s)
    m["foliation.tube_conservation.calls"] = per(
        st["foliation.tube_conservation"].calls)
    m.update({
        "manybody.probability_n.s": per(st["manybody.probability_n"].incl_s),
        "manybody.current_pair_grid.points": per(
            n["manybody.current_pair_grid.points"]),
        "manybody.current_pair_grid.self_s": per(
            st["manybody.current_pair_grid"].self_s),
        "manybody.current_n.calls": per(st["manybody.current_n"].calls),
        "manybody.joint_density_rows.s": per(
            st["manybody.joint_density_rows"].incl_s),
        "serialize.bytes": per(n["serialize.bytes"]),
        "serialize.write_csv.self_s": per(st["serialize.write_csv"].self_s),
        "serialize.write_json.self_s": per(st["serialize.write_json"].self_s),
        "serialize.bytes_per_s": ratio(n["serialize.bytes"], written),
        "config.load.s": per(st["config.load"].incl_s),
    })
    return m
