"""Output checks for every workload, run outside the timed section.

`check` returns the problems found in one operation's artifacts (an empty
list when they are right) plus data for `check_deferred`, which runs after
the last timed pass because it imports scipy. The references are closed
forms, the benchmark's own evaluation of the current from the config's
modes, scipy's DOP853 integrator and properties the method must have;
nothing is compared with stored output of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

ARTIFACTS = {
    "foliate": ("leaves.csv", "curves.csv", "admissibility.json"),
    "conserve": ("tube.json",),
    "manybody": ("marginals.csv", "joint_density.csv",
                 "manybody_summary.json"),
    "classify": ("classification.csv", "summary.json"),
}

FLUX_TOL = 1e-6          # unit flux through every leaf
FLOW_TOL = 1e-6          # advected node against scipy DOP853
CLOSED_FORM_TOL = 1e-9   # plane-wave tube probabilities
TUBE_TOL = 1e-6          # |Pa - Pb| on the skewed packet
DENSITY_TOL = 1e-10      # joint density and marginal currents
FIELD_REL_TOL = 1e-10    # classify samples against our own j, times scale
CROSSING_SAMPLES = 16    # (curve, leaf) pairs recounted independently
FLOW_SAMPLES = 8         # advected nodes re-integrated with scipy
ROW_SAMPLES = 256        # classification rows compared with our own j


class ModeSum:
    """Current of a normalized positive-frequency mode sum, from its definition.

    psi = sum_m c_m exp(-i(omega_m t - k_m x)) and
    j_mu = i(psi* d_mu psi - psi d_mu psi*), raised with diag(1, -1). The
    coefficients are scaled so that j^0 integrates to 1 over the box.
    """

    def __init__(self, cfg: dict):
        self.box_length = float(cfg["boxLength"])
        harmonics = np.array([m["harmonic"] for m in cfg["modes"]], float)
        coeffs = np.array([complex(m["re"], m.get("im", 0.0))
                           for m in cfg["modes"]])
        self.k = 2.0 * math.pi * harmonics / self.box_length
        self.omega = np.hypot(self.k, float(cfg["mass"]))
        # cross terms of unequal wavenumber integrate to zero over the box
        flux = self.box_length * float(np.sum(2.0 * self.omega
                                              * np.abs(coeffs) ** 2))
        self.coeffs = coeffs / math.sqrt(flux)

    @property
    def scale(self) -> float:
        """The bound sum_jl |c_j||c_l| (omega_j + omega_l + |k_j + k_l|)."""
        amp = np.abs(self.coeffs)
        pair = (np.add.outer(self.omega, self.omega)
                + np.abs(np.add.outer(self.k, self.k)))
        return float(amp @ pair @ amp)

    def current(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        phase = np.multiply.outer(t, self.omega) - np.multiply.outer(x, self.k)
        u = self.coeffs * np.exp(-1j * phase)
        psi = u.sum(axis=-1)
        d_t = (-1j * self.omega * u).sum(axis=-1)
        d_x = (1j * self.k * u).sum(axis=-1)
        j_t = (1j * (np.conj(psi) * d_t - psi * np.conj(d_t))).real
        j_x = (1j * (np.conj(psi) * d_x - psi * np.conj(d_x))).real
        return j_t, -j_x


# -- artifact readers ---------------------------------------------------------


def _json(out_dir: str, name: str):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _table(path: str, text_cols=()) -> dict:
    """Columns of a CSV artifact: float arrays, or str arrays for text_cols."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    numeric = [i for i, name in enumerate(header) if name not in text_cols]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric,
                      ndmin=2)
    cols = {header[i]: data[:, k] for k, i in enumerate(numeric)}
    for name in text_cols:
        cols[name] = np.loadtxt(path, delimiter=",", skiprows=1, dtype=str,
                                usecols=header.index(name), ndmin=1)
    return cols


def check_manifest(out_dir: str, command: str) -> list:
    """Every expected artifact is listed and every digest matches its bytes."""
    try:
        manifest = _json(out_dir, "manifest.json")
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = []
    if manifest.get("command") != command:
        problems.append(f"manifest command {manifest.get('command')!r}")
    files = manifest.get("files", {})
    for name in ARTIFACTS[command]:
        if name not in files:
            problems.append(f"manifest lacks {name}")
    for name, digest in sorted(files.items()):
        try:
            with open(os.path.join(out_dir, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            problems.append(f"{name}: {exc}")
            continue
        if actual != digest:
            problems.append(f"{name}: digest mismatch")
    return problems


# -- foliate ------------------------------------------------------------------


def _closed(t, x, box_length):
    """Leaf nodes with the winding closure node (t_0, x_0 + L) appended."""
    return np.append(t, t[0]), np.append(x, x[0] + box_length)


def _orient(ax, ay, bx, by, cx, cy):
    return np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def count_crossings(ct, cx, lt, lx, box_length: float, block: int = 64):
    """Proper crossings of a curve polyline with a leaf on the cylinder.

    The leaf is unrolled over every period the curve can reach, so adjacent
    copies share their seam node bit for bit, and every pair of segments gets
    a floating-point orientation test. Returns None when the curve touches
    the leaf (a zero orientation), where this plain count cannot decide.
    """
    lo = math.floor((cx.min() - lx.max()) / box_length)
    hi = math.ceil((cx.max() - lx.min()) / box_length)
    shifts = np.arange(lo, hi + 1) * box_length
    ux = np.append((lx[None, :] + shifts[:, None]).ravel(),
                   lx[0] + (hi + 1) * box_length)
    ut = np.append(np.tile(lt, len(shifts)), lt[0])
    a_t, a_x, b_t, b_x = ut[:-1], ux[:-1], ut[1:], ux[1:]
    hits = 0
    for k in range(0, len(ct) - 1, block):
        p_t = ct[k:k + block + 1]
        p_x = cx[k:k + block + 1]
        c0x, c0t = p_x[:-1, None], p_t[:-1, None]
        c1x, c1t = p_x[1:, None], p_t[1:, None]
        d1 = _orient(a_x, a_t, b_x, b_t, c0x, c0t)
        d2 = _orient(a_x, a_t, b_x, b_t, c1x, c1t)
        d3 = _orient(c0x, c0t, c1x, c1t, a_x, a_t)
        d4 = _orient(c0x, c0t, c1x, c1t, b_x, b_t)
        straddle = (d1 * d2 <= 0) & (d3 * d4 <= 0)
        if np.any(straddle & ((d1 == 0) | (d2 == 0) | (d3 == 0)
                              | (d4 == 0))):
            return None
        hits += int(np.count_nonzero(straddle))
    return hits


def _split_leaves(leaves: dict, n_leaves: int):
    ids = leaves["leaf_id"].astype(int)
    return [(leaves["t"][ids == li], leaves["x"][ids == li])
            for li in range(n_leaves)]


def check_foliate(out_dir: str, cfg: dict, rng):
    problems = []
    box = float(cfg["boxLength"])
    fol = cfg["foliation"]
    n_leaves = fol["nLeaves"]
    report = _json(out_dir, "admissibility.json")

    fluxes = report["flux"]
    if len(fluxes) != n_leaves:
        problems.append(f"{len(fluxes)} leaf fluxes for {n_leaves} leaves")
    for li, value in enumerate(fluxes):
        if not abs(value - 1.0) <= FLUX_TOL:
            problems.append(f"leaf {li}: reported flux {value!r} is not 1")

    leaves = _split_leaves(_table(os.path.join(out_dir, "leaves.csv"),
                                  ("seg_class",)), n_leaves)
    timelike = False
    for li, (t, x) in enumerate(leaves):
        if len(t) != fol["nodesPerLeaf"]:
            problems.append(f"leaf {li}: {len(t)} nodes")
            continue
        tc, xc = _closed(t, x, box)
        dt, dx = np.diff(tc), np.diff(xc)
        timelike |= bool(np.any(dt * dt - dx * dx > 1e-9 * (dt * dt + dx * dx)))
    if not timelike:
        problems.append("no leaf segment is timelike")

    counts = np.array(report["counts"], dtype=int)
    stagnant = np.array(report["stagnant"], dtype=bool)
    if counts.shape != (fol["congruenceSize"], n_leaves):
        problems.append(f"crossing counts have shape {counts.shape}")
        return problems, []
    active = np.flatnonzero(~stagnant)
    if active.size == 0:
        problems.append("every curve stagnates")
    for ci, li in zip(*np.nonzero(counts[active] != 1)):
        problems.append(f"curve {active[ci]} crosses leaf {li} "
                        f"{counts[active[ci], li]} times")

    # recount a seeded sample of (curve, advected leaf) pairs independently
    curves = _table(os.path.join(out_dir, "curves.csv"), ("class",))
    curve_ids = curves["curve_id"].astype(int)
    if active.size and n_leaves > 1:
        for _ in range(CROSSING_SAMPLES):
            ci = int(rng.choice(active))
            li = int(rng.integers(1, n_leaves))
            on = curve_ids == ci
            got = count_crossings(curves["t"][on], curves["x_unwrapped"][on],
                                  *leaves[li], box)
            if got is not None and got != 1:
                problems.append(f"curve {ci} crosses leaf {li} {got} times "
                                "by an independent count")

    # advected nodes to re-integrate with scipy after the timed passes
    samples = []
    n_nodes = len(leaves[0][0])
    for _ in range(FLOW_SAMPLES if n_leaves > 1 else 0):
        li = int(rng.integers(1, n_leaves))
        node = int(rng.integers(0, n_nodes))
        samples.append((li, node, float(leaves[0][0][node]),
                        float(leaves[0][1][node]), li * fol["deltaS"],
                        float(leaves[li][0][node]),
                        float(leaves[li][1][node])))
    return problems, samples


def check_flow_samples(cfg: dict, samples) -> list:
    """Advected nodes against scipy's DOP853 on our own current."""
    from scipy.integrate import solve_ivp

    field = ModeSum(cfg)

    def rhs(_s, y):
        j0, j1 = field.current(y[0], y[1])
        return [float(j0), float(j1)]

    problems = []
    for li, node, t0, x0, span, t1, x1 in samples:
        sol = solve_ivp(rhs, (0.0, span), [t0, x0], method="DOP853",
                        rtol=1e-12, atol=1e-12)
        err = max(abs(sol.y[0, -1] - t1), abs(sol.y[1, -1] - x1))
        if not (sol.success and err <= FLOW_TOL):
            problems.append(f"leaf {li} node {node} is {err:.3g} from the "
                            "DOP853 solution")
    return problems


# -- conserve -----------------------------------------------------------------


def check_conserve(out_dir: str, cfg: dict, rng):
    problems = []
    tubes = _json(out_dir, "tube.json")["tubes"]
    if len(tubes) != cfg["conserve"]["nRanges"]:
        problems.append(f"{len(tubes)} tubes")
    for i, tube in enumerate(tubes):
        a, b = tube["rangeA"]
        p_a, p_b = tube["Pa"], tube["Pb"]
        if not 0.0 <= a < b <= 1.0:
            problems.append(f"tube {i}: range {a!r}..{b!r}")
            continue
        if cfg["name"] == "plane-wave":
            # uniform density: P = b - a on every leaf
            if not (abs(p_a - (b - a)) <= CLOSED_FORM_TOL
                    and abs(p_b - (b - a)) <= CLOSED_FORM_TOL):
                problems.append(f"tube {i}: Pa {p_a!r}, Pb {p_b!r}, closed "
                                f"form {b - a!r}")
        elif not (abs(p_a - p_b) <= TUBE_TOL and p_a > 0.0):
            problems.append(f"tube {i}: Pa {p_a!r} and Pb {p_b!r} differ")
    return problems, []


# -- manybody -----------------------------------------------------------------


def check_manybody(out_dir: str, cfg: dict, rng):
    problems = []
    name = cfg["name"]
    box = float(cfg["boxLength"])
    summary = _json(out_dir, "manybody_summary.json")
    for key in ("closedFormNorm", "totalProbability"):
        if not abs(summary[key] - 1.0) <= FLUX_TOL:
            problems.append(f"{key} {summary[key]!r} is not 1")

    joint = _table(os.path.join(out_dir, "joint_density.csv"))
    if name == "product-pair":
        expected = np.ones_like(joint["ptilde"])
    else:
        expected = 2.0 * np.cos(2 * math.pi * (joint["lambda1"]
                                               - joint["lambda2"])) ** 2
    worst = float(np.max(np.abs(joint["ptilde"] - expected)))
    if not worst <= DENSITY_TOL:
        problems.append(f"joint density off its closed form by {worst:.3g}")

    marg = _table(os.path.join(out_dir, "marginals.csv"))
    if name == "product-pair":
        harmonic = cfg["manybody"]["terms"][0]["harmonics"][0]
        k = 2 * math.pi * harmonic / box
        j1 = k / (math.hypot(k, float(cfg["mass"])) * box)
    else:
        j1 = 0.0
    worst = float(max(np.max(np.abs(marg["j0"] - 1.0 / box)),
                      np.max(np.abs(marg["j1"] - j1))))
    if not worst <= DENSITY_TOL:
        problems.append(f"marginal current off its closed form by {worst:.3g}")
    return problems, []


# -- classify -----------------------------------------------------------------


def causal_labels(j0, j1, scale: float, tol: dict):
    """Causal class of each sample: Zero below zero_rel * scale in the
    1-norm, else Null when |j.j| < class_rel |j|^2, else by the signs of
    j.j and j0."""
    q = j0 * j0 - j1 * j1
    zero = np.abs(j0) + np.abs(j1) < tol["zero_rel"] * scale
    null = ~zero & (np.abs(q) < tol["class_rel"] * (j0 * j0 + j1 * j1))
    return np.select(
        [zero, null, q > 0.0],
        ["zero", "null", np.where(j0 > 0.0, "timelike_future",
                                  "timelike_past")],
        "spacelike")


def check_classify(out_dir: str, cfg: dict, rng):
    problems = []
    grid = cfg["grid"]
    n_t, n_x = grid["nT"], grid["nX"]
    box = float(cfg["boxLength"])
    field = ModeSum(cfg)
    scale = field.scale
    summary = _json(out_dir, "summary.json")
    tol = _json(out_dir, "manifest.json")["tolerances"]
    if not abs(summary["scale"] - scale) <= 1e-12 * scale:
        problems.append(f"scale {summary['scale']!r}, expected {scale!r}")

    table = _table(os.path.join(out_dir, "classification.csv"), ("class",))
    if len(table["t"]) != n_t * n_x:
        return problems + [f"{len(table['t'])} rows for {n_t}x{n_x}"], []
    ts = np.repeat(np.linspace(grid["t0"], grid["t1"], n_t), n_x)
    xs = np.tile(np.linspace(0.0, box, n_x), n_t)
    if not (np.allclose(table["t"], ts, rtol=0, atol=1e-12)
            and np.allclose(table["x"], xs, rtol=0, atol=1e-12)):
        problems.append("sample points are not the configured grid")

    rows = rng.choice(n_t * n_x, size=min(ROW_SAMPLES, n_t * n_x),
                      replace=False)
    j0, j1 = field.current(table["t"][rows], table["x"][rows])
    worst = float(max(np.max(np.abs(j0 - table["j0"][rows])),
                      np.max(np.abs(j1 - table["j1"][rows]))))
    if not worst <= FIELD_REL_TOL * scale:
        problems.append(f"sampled current off by {worst:.3g}")

    labels = causal_labels(table["j0"], table["j1"], scale, tol)
    wrong = np.flatnonzero(labels != table["class"])
    if wrong.size:
        problems.append(f"{wrong.size} labels disagree, first at row "
                        f"{wrong[0] + 1}")
    names, counts = np.unique(table["class"], return_counts=True)
    cells = {name: 0 for name in summary["cells"]}
    cells.update(zip(names.tolist(), counts.tolist()))
    if cells != summary["cells"]:
        problems.append(f"summary cells {summary['cells']} != {cells}")

    integrals = np.trapezoid(table["j0"].reshape(n_t, n_x),
                             dx=box / (n_x - 1), axis=1)
    worst = float(np.max(np.abs(integrals - 1.0)))
    if not worst <= FLUX_TOL:
        problems.append(f"a row integral of j0 is off 1 by {worst:.3g}")
    if cfg["name"] == "skewed" and cells.get("timelike_past", 0) == 0:
        problems.append("skewed has no timelike_past cells")
    return problems, []


_CHECKERS = {
    "foliate": check_foliate,
    "conserve": check_conserve,
    "manybody": check_manybody,
    "classify": check_classify,
}


def check(command: str, out_dir: str, cfg: dict, rng):
    """Problems in one operation's artifacts, and data for check_deferred."""
    problems = check_manifest(out_dir, command)
    if problems:
        return problems, []
    try:
        found, deferred = _CHECKERS[command](out_dir, cfg, rng)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"], []
    return problems + found, deferred


def check_deferred(command: str, cfg: dict, deferred) -> list:
    if command == "foliate" and deferred:
        return check_flow_samples(cfg, deferred)
    return []
