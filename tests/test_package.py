"""The package imports its modules lazily: `import tcpkit` loads none of
them, and each CLI command loads only the modules it runs."""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import tcpkit

HEAVY = ("_polysys", "solver", "compcones", "stability", "classify")
CLASSIFY = {"_forms", "_rng", "_simplex", "classify", "cli", "cones", "fixtures", "tensor"}
ALL = CLASSIFY | {"_polysys", "compcones", "solver", "stability"}  # all 12 modules


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
    (["classify", "--fixture", "E1"], CLASSIFY),
    (["solve", "--fixture", "E1", "--q=-1,-1"], CLASSIFY - {"classify"} | {"_polysys", "solver"}),
    (["membership", "--fixture", "E1", "--q=1,-1"], CLASSIFY | {"_polysys", "compcones"}),
    (["perturb", "uniqueness", "--fixture", "identity32", "--q=-1,-1", "--xbar=1,1"], ALL),
    (["perturb", "existence", "--fixture", "identity32", "--q=-1,-1", "--trials", "2"], ALL),
])
def test_command_loads_only_what_it_runs(argv, expected):
    code = ("import contextlib, io\nfrom tcpkit.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert main({argv!r}) == 0")
    assert loaded_after(code) == expected


def test_every_export_resolves_to_its_module_object():
    assert len(tcpkit.__all__) == len(set(tcpkit.__all__)) == 62
    for name in tcpkit.__all__:
        mod = importlib.import_module(f"tcpkit.{tcpkit._MODULE_OF[name]}")
        assert getattr(tcpkit, name) is getattr(mod, name)
        assert name in mod.__all__
        assert name in dir(tcpkit)


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these functions by name; deleting or
    # renaming one must fail here, not only in a traced benchmark run
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    try:
        from tracing import LAYERS
    finally:
        sys.path.pop(0)
    assert LAYERS
    for module, names in LAYERS.values():
        mod = importlib.import_module(module)
        for name in names:
            owner, _, attr = name.rpartition(".")
            assert callable(getattr(getattr(mod, owner) if owner else mod, attr)), \
                f"{module}.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tcpkit.no_such_name  # noqa: B018
    assert not hasattr(tcpkit, "cli_main")


def numpy_random_names(source: str):
    """The uses of numpy.random in source's code: np.random or
    numpy.random attributes, and imports from numpy.random."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and getattr(node.value, "id", None) in ("np", "numpy")):
            yield ast.unparse(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom)
                        else alias.name)
                if name.startswith("numpy.random"):
                    yield name


def test_no_module_names_numpy_random():
    # every draw comes from _rng's splitmix64, whose stream no numpy version
    # changes; numpy promises no Generator stream across versions
    assert list(numpy_random_names("import numpy as np\nU = np.random.default_rng(0)")) == \
        ["np.random"]
    for path in pathlib.Path(tcpkit.__file__).parent.glob("*.py"):
        assert not list(numpy_random_names(path.read_text())), path.name
