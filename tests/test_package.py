"""The package imports its modules lazily: `import tcpkit` loads none of
them, and each CLI command loads only the modules it runs."""

import importlib
import json
import subprocess
import sys

import pytest

import tcpkit

HEAVY = ("_polysys", "_grid", "solver", "compcones", "stability", "classify")


def loaded_after(code: str) -> set:
    """The tcpkit modules a fresh interpreter holds after running code."""
    code += "\nimport sys, json; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return {m.split(".", 1)[1] for m in json.loads(out.splitlines()[-1])
            if m.startswith("tcpkit.")}


def test_package_import_loads_no_module():
    assert loaded_after("import tcpkit") == set()


def test_cli_import_loads_no_heavy_module():
    assert not loaded_after("import tcpkit.cli") & set(HEAVY)


@pytest.mark.parametrize("argv, expected", [
    (["fixtures", "--name", "E2"], {"_rng", "cli", "cones", "fixtures", "tensor"}),
    (["fixtures"], {"_rng", "cli", "cones", "fixtures", "tensor"}),
    (["distance", "--cone1", "orthant2", "--cone2", "ice2", "--samples", "50"],
     {"_rng", "cli", "cones", "fixtures", "tensor"}),
    (["classify", "--fixture", "E1"],
     {"_forms", "_rng", "_simplex", "classify", "cli", "cones", "fixtures", "tensor"}),
])
def test_command_loads_only_what_it_runs(argv, expected):
    code = ("import contextlib, io\nfrom tcpkit.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert loaded_after(code) == expected


def test_every_export_resolves_to_its_module_object():
    assert len(tcpkit.__all__) == len(set(tcpkit.__all__)) == 63
    for name in tcpkit.__all__:
        mod = importlib.import_module(f"tcpkit.{tcpkit._MODULE_OF[name]}")
        assert getattr(tcpkit, name) is getattr(mod, name)
        assert name in mod.__all__
        assert name in dir(tcpkit)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tcpkit.no_such_name  # noqa: B018
    assert not hasattr(tcpkit, "cli_main")
