"""Config schema, canonical serialization, and the built-in scenario library."""

import hashlib
import json
import math

import numpy as np
import pytest

from currentlab import ConfigError, Tolerances
from currentlab import config, scenarios, serialize


MINIMAL = {
    "name": "tiny",
    "mass": 1.0,
    "boxLength": 6.283185307179586,
    "modes": [{"harmonic": 1, "re": 1.0}],
}


def load(extra=None, **overrides):
    raw = {**{k: (dict(v) if isinstance(v, dict) else v)
              for k, v in MINIMAL.items()}, **overrides}
    if extra:
        raw.update(extra)
    return config.load_dict(raw)


# -- happy path --------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = load()
    assert cfg.name == "tiny"
    assert cfg.modes == ((1, 1.0, 0.0),)
    assert cfg.output_dir == "runs/tiny"
    assert cfg.tolerances == Tolerances()
    assert cfg.grid is None and cfg.foliation is None
    assert cfg.conserve is None and cfg.manybody is None


def test_full_blocks_parse():
    cfg = load(extra={
        "grid": {"t0": -1.0, "t1": 2.0, "nT": 16, "nX": 32},
        "foliation": {"seed": "t-const", "seedT": 0.25, "nLeaves": 4,
                      "deltaS": 0.3, "congruenceSize": 12,
                      "nodesPerLeaf": 48, "sMax": 9.0},
        "conserve": {"leafA": 0, "leafB": 3, "nRanges": 5},
        "tolerances": {"rk_tol": 1e-10, "quad_max_panels": 4096},
        "outputDir": "elsewhere",
    })
    assert cfg.grid == config.GridSpec(-1.0, 2.0, 16, 32)
    f = cfg.foliation
    assert (f.seed, f.seed_t, f.n_leaves) == ("t-const", 0.25, 4)
    assert (f.delta_s, f.congruence_size, f.nodes_per_leaf) == (0.3, 12, 48)
    assert f.advect is True and f.s_max == 9.0
    assert cfg.conserve == config.ConserveSpec(0, 3, 5)
    assert cfg.tolerances.rk_tol == 1e-10
    assert cfg.tolerances.quad_max_panels == 4096
    assert cfg.tolerances.quad_tol == Tolerances().quad_tol
    assert cfg.output_dir == "elsewhere"


def test_node_seed_and_manybody_parse():
    cfg = load(extra={
        "foliation": {"seed": [[0.0, 0.1, 0.0], [0.5, -0.1, 3.0]],
                      "nLeaves": 2, "deltaS": 0.2, "congruenceSize": 4},
        "manybody": {"n": 2, "terms": [
            {"re": 1.0, "im": -0.5, "harmonics": [1, -1]}]},
    })
    assert cfg.foliation.seed == ((0.0, 0.1, 0.0), (0.5, -0.1, 3.0))
    assert cfg.manybody.n == 2
    assert cfg.manybody.terms == ((1.0, -0.5, (1, -1)),)


def test_signed_delta_s_for_rigid_stacks():
    cfg = load(extra={"foliation": {"nLeaves": 3, "deltaS": -0.4,
                                    "congruenceSize": 4, "advect": False}})
    assert cfg.foliation.delta_s == -0.4
    assert cfg.foliation.advect is False


# -- error paths name the offending field ------------------------------------

@pytest.mark.parametrize("mutate,needle", [
    (lambda d: d.pop("name"), "name:"),
    (lambda d: d.update(name=""), "name:"),
    (lambda d: d.pop("mass"), "mass:"),
    (lambda d: d.update(mass=-1.0), "mass: must be nonnegative"),
    (lambda d: d.update(mass=float("inf")), "mass: expected a finite"),
    (lambda d: d.update(boxLength=0.0), "boxLength: must be positive"),
    (lambda d: d.update(modes=[]), "modes: at least one mode"),
    (lambda d: d.update(modes=[{"re": 1.0}]), "modes[0].harmonic:"),
    (lambda d: d.update(modes=[{"harmonic": 1.5, "re": 1.0}]),
     "modes[0].harmonic: expected an integer"),
    (lambda d: d.update(modes=[{"harmonic": 1, "re": 1.0, "bogus": 2}]),
     "modes[0].bogus: unknown field"),
    (lambda d: d.update(surprise=1), "config.surprise: unknown field"),
    (lambda d: d.update(grid={"t0": 0, "t1": 0, "nT": 4, "nX": 4}),
     "grid.t1: must exceed t0"),
    (lambda d: d.update(grid={"t0": 0, "t1": 1, "nT": 1, "nX": 4}),
     "grid.nT: grid needs at least 2"),
    (lambda d: d.update(grid={"t0": 0, "t1": 1, "nT": True, "nX": 4}),
     "grid.nT: expected an integer"),
    (lambda d: d.update(foliation={"nLeaves": 1, "deltaS": 0.1,
                                   "congruenceSize": 4}),
     "foliation.nLeaves:"),
    (lambda d: d.update(foliation={"nLeaves": 3, "deltaS": 0.0,
                                   "congruenceSize": 4}),
     "foliation.deltaS: must be nonzero"),
    (lambda d: d.update(foliation={"nLeaves": 3, "deltaS": -0.1,
                                   "congruenceSize": 4}),
     "foliation.deltaS: must be positive when advect"),
    (lambda d: d.update(foliation={"nLeaves": 3, "deltaS": 0.1,
                                   "congruenceSize": 0}),
     "foliation.congruenceSize:"),
    (lambda d: d.update(foliation={"seed": "diagonal", "nLeaves": 3,
                                   "deltaS": 0.1, "congruenceSize": 4}),
     "foliation.seed:"),
    (lambda d: d.update(foliation={"seed": [[0.0, 0.0, 0.0]], "nLeaves": 3,
                                   "deltaS": 0.1, "congruenceSize": 4}),
     "foliation.seed: a seed leaf needs at least 2"),
    (lambda d: d.update(foliation={"seed": [[0.0, 0.0], [0.5, 1.0, 2.0]],
                                   "nLeaves": 3, "deltaS": 0.1,
                                   "congruenceSize": 4}),
     "foliation.seed[0]: expected [lambda, t, x]"),
    (lambda d: d.update(foliation={"seed": [[0.0, 0.0, 0.0], [0.5, 0.0, 3.0]],
                                   "seedT": 1.0, "nLeaves": 3, "deltaS": 0.1,
                                   "congruenceSize": 4}),
     'foliation.seedT: only valid with seed = "t-const"'),
    (lambda d: d.update(foliation={"nLeaves": 3, "deltaS": 0.1,
                                   "congruenceSize": 4, "sMax": -1.0}),
     "foliation.sMax: must be positive"),
    (lambda d: d.update(conserve={"nRanges": 0}),
     "conserve.nRanges: must be at least 1"),
    (lambda d: d.update(conserve={"leafC": 1}),
     "conserve.leafC: unknown field"),
    (lambda d: d.update(manybody={"n": 2, "terms": [
        {"re": 1.0, "harmonics": [1]}]}),
     "manybody.terms[0].harmonics: expected 2 entries"),
    (lambda d: d.update(manybody={"n": 0, "terms": []}),
     "manybody.n:"),
    (lambda d: d.update(tolerances={"bogus": 1.0}),
     "tolerances.bogus: unknown tolerance"),
    (lambda d: d.update(tolerances={"tube_tol": 1e-6}),
     "tolerances.tube_tol: unknown tolerance"),
    (lambda d: d.update(tolerances={"quad_max_panels": 2.5}),
     "tolerances.quad_max_panels: expected an integer"),
    (lambda d: d.update(tolerances={"quad_max_panels": 0}),
     "tolerances.quad_max_panels: must be at least 1"),
    (lambda d: d.update(tolerances={"rk_tol": "tight"}),
     "tolerances.rk_tol: expected a number"),
])
def test_error_messages_carry_field_path(mutate, needle):
    raw = {k: (dict(v) if isinstance(v, dict) else
               [dict(m) for m in v] if isinstance(v, list) else v)
           for k, v in MINIMAL.items()}
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        config.load_dict(raw)
    assert needle in str(err.value)


def test_load_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError) as err:
        config.load_file(missing)
    assert "nope.json" in str(err.value)
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x",}')
    with pytest.raises(ConfigError) as err:
        config.load_file(bad)
    assert "line 1" in str(err.value)


def test_load_file_round_trips(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(scenarios.builtin("skewed")))
    cfg = config.load_file(p)
    assert cfg.name == "skewed"
    assert cfg.foliation.seed_t == scenarios.SKEWED_SEED_T


@pytest.mark.parametrize("name", scenarios.names())
def test_normalized_dict_round_trip(name):
    cfg = config.load_dict(scenarios.builtin(name))
    norm = config.normalized_dict(cfg)
    assert config.load_dict(norm) == cfg
    # normalization is a fixed point
    assert config.normalized_dict(config.load_dict(norm)) == norm


# -- scenario library --------------------------------------------------------

def test_builtin_names_and_isolation():
    assert scenarios.names() == sorted(scenarios.BUILTIN)
    assert set(scenarios.names()) == {"entangled-pair", "plane-wave",
                                      "product-pair", "skewed",
                                      "standing-wave"}
    copy1 = scenarios.builtin("plane-wave")
    copy1["modes"][0]["re"] = 99.0
    assert scenarios.builtin("plane-wave")["modes"][0]["re"] == 1.0
    with pytest.raises(KeyError):
        scenarios.builtin("missing")


def test_skewed_seed_time_value():
    assert scenarios.SKEWED_SEED_T \
        == -math.pi / (2.0 * (math.sqrt(26.0) - 1.0))


# -- serialization -----------------------------------------------------------

def test_format_float():
    assert serialize.format_float(1.0) == "1"
    assert serialize.format_float(0.1) == "0.10000000000000001"
    assert float(serialize.format_float(math.pi)) == math.pi
    with pytest.raises(ValueError):
        serialize.format_float(float("nan"))
    with pytest.raises(ValueError):
        serialize.format_float(float("inf"))


def test_canonical_json_layout():
    s = serialize.canonical_json({"b": [1, 2.5, "x"], "a": {"z": None,
                                                            "y": True}})
    assert s == ('{\n  "a": {\n    "y": true,\n    "z": null\n  },\n'
                 '  "b": [1, 2.5, "x"]\n}')
    assert json.loads(s) == {"a": {"y": True, "z": None},
                             "b": [1, 2.5, "x"]}
    assert serialize.canonical_json({}) == "{}"
    assert serialize.canonical_json([]) == "[]"
    assert serialize.canonical_json(np.float64(0.5)) == "0.5"
    assert serialize.canonical_json(np.array([1, 2])) == "[1, 2]"


def test_canonical_json_rejects_bad_values():
    with pytest.raises(ValueError):
        serialize.canonical_json({"v": float("nan")})
    with pytest.raises(TypeError):
        serialize.canonical_json({1: "non-string key"})
    with pytest.raises(TypeError):
        serialize.canonical_json(object())


def test_write_json_digest_matches_bytes(tmp_path):
    p = tmp_path / "out.json"
    digest = serialize.write_json(p, {"x": 1.5})
    data = p.read_bytes()
    assert data == b'{\n  "x": 1.5\n}\n'
    assert hashlib.sha256(data).hexdigest() == digest


def test_write_csv_layout_and_digest(tmp_path):
    p = tmp_path / "out.csv"
    digest = serialize.write_csv(p, ["i", "v", "tag"],
                                 [(1, 0.1, "a"), (2, -3.0, "b")])
    data = p.read_bytes()
    assert data == (b"i,v,tag\n"
                    b"1,0.10000000000000001,a\n"
                    b"2,-3,b\n")
    assert b"\r" not in data
    assert hashlib.sha256(data).hexdigest() == digest


def test_write_csv_columns_match_rows(tmp_path):
    rng = np.random.default_rng(3)
    floats = np.concatenate([
        rng.standard_normal(200) * 10.0 ** rng.integers(-320, 300, 200),
        [0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1e16, 1e-5]])
    ints = rng.integers(-1000, 1000, floats.size)
    tags = [("null", "spacelike", "zero")[i % 3] for i in range(floats.size)]
    header = ["v", "i", "tag", "w"]
    columns = [floats, ints, tags, list(floats)]
    by_rows = serialize.write_csv(tmp_path / "rows.csv", header,
                                  zip(*columns))
    by_columns = serialize.write_csv(tmp_path / "cols.csv", header,
                                     columns=columns)
    assert by_columns == by_rows
    assert ((tmp_path / "cols.csv").read_bytes()
            == (tmp_path / "rows.csv").read_bytes())


def test_write_csv_rejects_bad_columns(tmp_path):
    p = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a"], columns=[np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a", "b"], columns=[np.zeros(2)])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a", "b"], columns=[np.zeros(2), ["x"]])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a"], columns=[["ok", "has,comma"]])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a"], columns=[[1.0, float("inf")]])
    with pytest.raises(TypeError):
        serialize.write_csv(p, ["a"], [(1.0,)], columns=[np.zeros(1)])


def test_write_csv_rejects_bad_rows(tmp_path):
    p = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a", "b"], [(1,)])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a"], [("has,comma",)])
    with pytest.raises(ValueError):
        serialize.write_csv(p, ["a"], [(True,)])
    with pytest.raises(TypeError):
        serialize.write_csv(p, ["a"], [(object(),)])
