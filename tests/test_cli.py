"""End-to-end command runs: artifacts, digests, determinism, exit codes."""

import hashlib
import json
import math
import os

import pytest

from currentlab.cli import main
from currentlab import scenarios

TWO_PI = 2.0 * math.pi


def run(tmp_path, command, cfg_spec, *extra):
    out = tmp_path / f"{command}-out"
    code = main([command, "--config", str(cfg_spec), "--out", str(out),
                 *extra])
    return code, out


def write_config(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return p


def read_manifest(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def check_digests(out):
    """Manifest lists every artifact with its correct content digest."""
    manifest = read_manifest(out)
    on_disk = {f for f in os.listdir(out) if f != "manifest.json"}
    assert set(manifest["files"]) == on_disk
    for fname, digest in manifest["files"].items():
        data = (out / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, fname
    return manifest


# -- pipelines ---------------------------------------------------------------

def test_classify_plane_wave(tmp_path):
    code, out = run(tmp_path, "classify", "plane-wave")
    assert code == 0
    manifest = check_digests(out)
    assert manifest["command"] == "classify"
    assert manifest["seed"] == 0
    assert manifest["config"]["name"] == "plane-wave"
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["cells"]["timelike_future"] == 64 * 64
    assert sum(summary["cells"].values()) == 64 * 64
    header = (out / "classification.csv").read_text().splitlines()[0]
    assert header == "t,x,j0,j1,class"


def test_classify_standing_wave_sees_zeros(tmp_path):
    cfg = scenarios.builtin("standing-wave")
    cfg["grid"]["nX"] = 65  # put the stagnation lines exactly on the grid
    code, out = run(tmp_path, "classify", write_config(tmp_path, cfg))
    assert code == 0
    with open(out / "summary.json") as fh:
        cells = json.load(fh)["cells"]
    assert cells["zero"] == 2 * 64
    assert cells["timelike_future"] == 64 * 65 - 2 * 64


def test_trace_writes_curves(tmp_path):
    code, out = run(tmp_path, "trace", "plane-wave")
    assert code == 0
    check_digests(out)
    lines = (out / "curves.csv").read_text().splitlines()
    assert lines[0] == "curve_id,s,t,x_unwrapped,x_mod_L,j0,j1,class"
    assert len(lines) > 32  # 32 curves, at least one sample each
    with open(out / "trace_summary.json") as fh:
        summary = json.load(fh)
    assert len(summary["curves"]) == 32
    assert list(summary) == ["curves"]
    assert all(sorted(c) == ["id", "nSamples", "sMax", "sMin", "termination"]
               for c in summary["curves"])
    assert all(c["termination"] == "range_end" for c in summary["curves"])


def test_foliate_standing_wave(tmp_path):
    code, out = run(tmp_path, "foliate", "standing-wave")
    assert code == 0
    check_digests(out)
    with open(out / "admissibility.json") as fh:
        report = json.load(fh)
    assert report["admissible"] is True
    assert report["leaves"] == 8 and report["curves"] == 32
    assert len(report["flux"]) == 8
    assert all(abs(f - 1.0) < 1e-8 for f in report["flux"])
    assert sum(report["stagnant"]) == 2
    lines = (out / "leaves.csv").read_text().splitlines()
    assert lines[0] == "leaf_id,lambda,t,x,ntilde0,ntilde1,j0,j1,ptilde,seg_class"
    assert len(lines) == 1 + 8 * 64


def test_conserve_plane_wave(tmp_path):
    code, out = run(tmp_path, "conserve", "plane-wave")
    assert code == 0
    check_digests(out)
    with open(out / "tube.json") as fh:
        tube = json.load(fh)
    assert tube["admissible"] is True
    assert tube["leafA"] == 1 and tube["leafB"] == 6
    assert len(tube["tubes"]) == 10
    assert tube["maxResidual"] < 1e-6
    for t in tube["tubes"]:
        assert abs(t["Pa"] - t["Pb"]) == pytest.approx(t["residual"])
        assert 0.0 <= t["rangeA"][0] < t["rangeA"][1] <= 1.0


def test_manybody_product_pair(tmp_path):
    code, out = run(tmp_path, "manybody", "product-pair")
    assert code == 0
    check_digests(out)
    with open(out / "manybody_summary.json") as fh:
        summary = json.load(fh)
    assert summary["n"] == 2
    assert summary["closedFormNorm"] == pytest.approx(1.0, abs=1e-12)
    assert summary["factorizationResidual"] < 1e-10
    assert summary["sliceIndependenceResidual"] < 1e-8
    assert summary["totalProbability"] == pytest.approx(1.0, abs=1e-6)
    rows = (out / "marginals.csv").read_text().splitlines()
    assert rows[0] == "slot,t,x,j0,j1"
    assert len(rows) == 1 + 2 * 64
    joint = (out / "joint_density.csv").read_text().splitlines()
    assert joint[0] == "lambda1,lambda2,ptilde"
    assert len(joint) == 1 + 33 * 33


def test_manybody_entangled_pair(tmp_path):
    code, out = run(tmp_path, "manybody", "entangled-pair")
    assert code == 0
    with open(out / "manybody_summary.json") as fh:
        summary = json.load(fh)
    assert summary["factorizationResidual"] is None  # genuinely entangled
    assert summary["sliceIndependenceResidual"] < 1e-8
    assert summary["totalProbability"] == pytest.approx(1.0, abs=1e-6)


def test_manybody_single_particle(tmp_path):
    cfg = {
        "name": "one",
        "mass": 1.0,
        "boxLength": TWO_PI,
        "manybody": {"n": 1, "terms": [
            {"re": 1.0, "im": 0.0, "harmonics": [1]},
            {"re": 0.5, "im": 0.0, "harmonics": [-2]}]},
    }
    code, out = run(tmp_path, "manybody", write_config(tmp_path, cfg))
    assert code == 0
    with open(out / "manybody_summary.json") as fh:
        summary = json.load(fh)
    assert summary["n"] == 1
    assert summary["totalProbability"] == pytest.approx(1.0, abs=1e-8)
    assert not (out / "joint_density.csv").exists()


# -- determinism -------------------------------------------------------------

def test_same_seed_same_tubes_different_seed_differs(tmp_path):
    _, out1 = run(tmp_path, "conserve", "plane-wave", "--seed", "7")
    out2 = tmp_path / "again"
    main(["conserve", "--config", "plane-wave", "--out", str(out2),
          "--seed", "7"])
    assert (out1 / "tube.json").read_bytes() \
        == (out2 / "tube.json").read_bytes()
    out3 = tmp_path / "reseeded"
    main(["conserve", "--config", "plane-wave", "--out", str(out3),
          "--seed", "8"])
    assert (out1 / "tube.json").read_bytes() \
        != (out3 / "tube.json").read_bytes()
    assert read_manifest(out3)["seed"] == 8


def test_default_output_dir_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["classify", "--config", "plane-wave"])
    assert code == 0
    assert (tmp_path / "runs" / "plane-wave" / "manifest.json").exists()


# -- failure modes -----------------------------------------------------------

def test_unknown_config_spec_lists_builtins(tmp_path, capsys):
    code = main(["classify", "--config", "no-such-thing"])
    assert code == 2
    err = capsys.readouterr().err
    assert "lab: config error" in err
    for name in scenarios.names():
        assert name in err


def test_bad_json_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x",}')
    code = main(["classify", "--config", str(p)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_block_is_config_error(tmp_path, capsys):
    cfg = scenarios.builtin("plane-wave")
    del cfg["grid"]
    code, _ = run(tmp_path, "classify", write_config(tmp_path, cfg))
    assert code == 2
    assert "grid: required by the classify command" in capsys.readouterr().err
    code, _ = run(tmp_path, "manybody", "plane-wave")
    assert code == 2
    assert "manybody: required by the manybody" in capsys.readouterr().err


def test_zero_norm_modes_rejected(tmp_path, capsys):
    cfg = scenarios.builtin("plane-wave")
    cfg["modes"] = [{"harmonic": 1, "re": 0.0, "im": 0.0}]
    code, _ = run(tmp_path, "classify", write_config(tmp_path, cfg))
    assert code == 2
    assert "modes:" in capsys.readouterr().err


def test_conserve_leaf_validation(tmp_path, capsys):
    cfg = scenarios.builtin("plane-wave")
    cfg["conserve"] = {"leafA": 3, "leafB": 3}
    code, _ = run(tmp_path, "conserve", write_config(tmp_path, cfg))
    assert code == 2
    assert "conserve.leafB: must differ" in capsys.readouterr().err
    cfg["conserve"] = {"leafA": 99}
    code, _ = run(tmp_path, "conserve", write_config(tmp_path, cfg, "c2.json"))
    assert code == 2
    assert "conserve.leafA: leaf 99 outside 0..7" in capsys.readouterr().err


def test_bad_cli_numbers(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", "plane-wave", "--threads", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 0" in capsys.readouterr().err
    code = main(["classify", "--config", "plane-wave", "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_step_underflow_exits_three(tmp_path, capsys):
    cfg = scenarios.builtin("skewed")
    cfg["foliation"]["nLeaves"] = 3
    cfg["tolerances"] = {"rk_tol": 1e-15, "rk_hmin_factor": 0.5}
    code, _ = run(tmp_path, "foliate", write_config(tmp_path, cfg))
    assert code == 3
    assert "lab: numerical failure" in capsys.readouterr().err


def test_quadrature_overflow_exits_three(tmp_path, capsys):
    # flux needs no quadrature; two-particle probability still does
    cfg = scenarios.builtin("product-pair")
    cfg["tolerances"] = {"quad_max_panels": 1}
    code, _ = run(tmp_path, "manybody", write_config(tmp_path, cfg))
    assert code == 3
    err = capsys.readouterr().err
    assert "lab: numerical failure" in err
    assert "within 1 panels per axis" in err


def test_unreachable_leaf_exits_four(tmp_path, capsys):
    cfg = {
        "name": "down-stack",
        "mass": 1.0,
        "boxLength": TWO_PI,
        "modes": [{"harmonic": 1, "re": 1.0}],
        "foliation": {"nLeaves": 3, "deltaS": -0.4, "congruenceSize": 4,
                      "nodesPerLeaf": 32, "advect": False},
        "conserve": {"leafA": 0, "leafB": 2, "nRanges": 1},
    }
    code, _ = run(tmp_path, "conserve", write_config(tmp_path, cfg))
    assert code == 4
    assert "lab: geometric failure" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP defect 2: a tube end drawn next to a stagnation line stops the "
    "integrator's bracketing pass before the leaf (exit 4); Direction 4 maps "
    "it by the stream function alone"))
def test_conserve_next_to_stagnation_line_exits_zero(tmp_path):
    cfg = scenarios.builtin("standing-wave")
    cfg["conserve"] = {"nRanges": 40}
    code, _ = run(tmp_path, "conserve", write_config(tmp_path, cfg),
                  "--seed", "202")
    assert code == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP defect 3: the joint density of this pair changes sign on the "
    "leaf pair, so |rho| has kinks the quadrature cannot resolve (exit 3); "
    "Directions 11 and 5 report the pair as inadmissible instead"))
def test_manybody_on_sign_changing_pair_exits_zero(tmp_path):
    cfg = scenarios.builtin("entangled-pair")
    cfg["manybody"]["terms"] = [
        {"re": 1.0, "im": 0.0, "harmonics": [0, 0]},
        {"re": 0.6, "im": 0.0, "harmonics": [5, -5]}]
    cfg["grid"]["t0"] = -0.185
    code, _ = run(tmp_path, "manybody", write_config(tmp_path, cfg))
    assert code == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP defect 4: probability_n integrates |rho|, so a joint density "
    "that changes sign adds its negative mass twice (1.00426); Directions "
    "11, 5 and 13 give the signed integral and the admissibility verdict"))
def test_manybody_probability_of_three_term_pair_is_at_most_one(tmp_path):
    cfg = scenarios.builtin("entangled-pair")
    cfg["manybody"]["terms"] = [
        {"re": 1.0, "im": 0.0, "harmonics": [1, -1]},
        {"re": 0.5, "im": 0.0, "harmonics": [2, 0]},
        {"re": 0.0, "im": 0.3, "harmonics": [0, -2]}]
    code, out = run(tmp_path, "manybody", write_config(tmp_path, cfg))
    assert code == 0
    with open(out / "manybody_summary.json") as fh:
        summary = json.load(fh)
    assert summary["totalProbability"] <= 1.0 + 1e-9


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
