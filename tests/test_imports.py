"""Import contract: the package and `lab` load a module only when it is used.

The load checks run in fresh interpreters, so what they see in sys.modules
is what the code under test imported and nothing the suite loaded before.
"""

import json
import subprocess
import sys

import pytest

import currentlab
from currentlab import foliation
from currentlab.cli import main

PIPELINE = ["wavefield", "flow", "geometry", "foliation", "manybody",
            "quadrature"]


def python(package_env, code):
    """Run `code` in a fresh interpreter; return its stdout parsed as JSON."""
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          capture_output=True, text=True, env=package_env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(package_env, code):
    """The currentlab submodules a fresh interpreter holds after `code`."""
    return python(package_env, code + """
print(json.dumps(sorted(m.partition(".")[2] for m in sys.modules
                        if m.startswith("currentlab."))))""")


def test_import_currentlab_loads_errors_only(package_env):
    assert loaded_after(package_env, "import currentlab") == ["errors"]


def test_import_cli_loads_no_pipeline_module(package_env):
    loaded = loaded_after(package_env, "import currentlab.cli")
    assert "cli" in loaded
    assert not set(PIPELINE) & set(loaded)


def test_classify_loads_wavefield_only(package_env, tmp_path):
    loaded = loaded_after(package_env, f"""from currentlab.cli import main
assert main(["classify", "--config", "plane-wave",
             "--out", {str(tmp_path / "out")!r}]) == 0""")
    assert [m for m in PIPELINE if m in loaded] == ["wavefield"]


def test_public_names_are_their_home_module_objects(package_env):
    """Each name resolves, in a fresh process, to the object its defining
    module holds (`__module__` of a function, class or instance)."""
    mismatched = python(package_env, """import currentlab
bad = []
for name in currentlab.__all__:
    value = getattr(currentlab, name)
    home = sys.modules[value.__module__]
    if not home.__name__.startswith("currentlab.") or \\
            getattr(home, name) is not value:
        bad.append(name)
print(json.dumps(bad))""")
    assert mismatched == []


def test_star_import_binds_exactly_all(package_env):
    bound = python(package_env, """ns = {}
exec("from currentlab import *", ns)
print(json.dumps(sorted(set(ns) - {"__builtins__"})))""")
    assert bound == sorted(currentlab.__all__)
    assert dir(currentlab) == list(currentlab.__all__)


def test_submodule_attribute_resolves(package_env):
    assert python(package_env, """import currentlab
print(json.dumps(currentlab.flow is sys.modules["currentlab.flow"]))""")


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(currentlab, "no_such_name")


# -- rebinding on the home module reaches the commands -----------------------


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command, name", [("foliate", "flux"),
                                           ("conserve", "tube_conservation")])
def test_commands_call_the_function_bound_on_its_module(tmp_path, monkeypatch,
                                                        command, name):
    """A wrapper set on `currentlab.foliation` is what the command calls,
    and it leaves the artifacts as they were."""
    argv = [command, "--config", "plane-wave", "--seed", "7", "--out"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    calls = []
    original = getattr(foliation, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, name, counted)
    assert main(argv + [str(tmp_path / "wrapped")]) == 0
    assert calls
    assert _artifacts(tmp_path / "wrapped") == _artifacts(tmp_path / "plain")
