"""The package namespace: lazy exports, and which imports load numpy."""

import importlib
import subprocess
import sys

import pytest

import stackvol
from stackvol import jsonio
from stackvol.morita import random_morita_triple, random_morita_weights


def test_every_export_is_its_home_modules_object():
    listed = dir(stackvol)
    for name in stackvol.__all__:
        value = getattr(stackvol, name)
        home = f"stackvol.{stackvol._HOME[name]}"
        assert name in listed
        assert value is getattr(importlib.import_module(home), name)
        # a re-import in another module would give the wrong home
        assert getattr(value, "__module__", home) == home, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from stackvol import *", namespace)
    assert set(stackvol.__all__) <= set(namespace)


def test_other_names_fall_through_to_submodules():
    with pytest.raises(AttributeError, match="no_such_name"):
        stackvol.no_such_name
    from stackvol import catalog, smooth, su2

    assert smooth.stack_volume is stackvol.stack_volume
    assert catalog.__name__ == "stackvol.catalog" and su2.__name__ == "stackvol.su2"


@pytest.mark.parametrize("module, loads_numpy", [
    ("stackvol", False),
    ("stackvol.cli", False),
    ("stackvol.finite", False),
    ("stackvol.morita", False),
    ("stackvol.smooth", False),
    ("stackvol.catalog", False),
    ("stackvol.su2", True),
])
def test_only_su2_imports_numpy(module, loads_numpy):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(loads_numpy)


def _morita_files(tmp_path):
    """A triple and corresponding weights as the five ``morita check`` inputs."""
    paths = {k: str(tmp_path / f"{k}.json") for k in ("left", "right", "bib", "w1", "w2")}
    g1, g2, bib = random_morita_triple(3)
    jsonio.dump_groupoid(g1, paths["left"])
    jsonio.dump_groupoid(g2, paths["right"])
    jsonio.dump_bibundle(g1, g2, bib, paths["bib"])
    w1, w2 = random_morita_weights(*(jsonio.load_groupoid(paths[k]) for k in ("left", "right")),
                                   jsonio.load_bibundle(paths["bib"]), 0)
    jsonio.dump_weights(w1, paths["w1"])
    jsonio.dump_weights(w2, paths["w2"])
    return paths


@pytest.mark.parametrize("argv", [
    ["finite", "volume", "--groupoid", "{left}", "--weights", "{w1}"],
    ["series", "finite-sets"],
    ["morita", "check", "--left", "{left}", "--right", "{right}", "--bibundle", "{bib}",
     "--left-weights", "{w1}", "--right-weights", "{w2}"],
])
def test_exact_commands_load_no_dataclasses_or_inspect(tmp_path, argv):
    paths = _morita_files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stackvol import cli; code = cli.main(sys.argv[1:]); "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules)); "
         "sys.exit(code)",
         *(arg.format(**paths) for arg in argv)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_smooth_example_loads_no_numpy():
    # the chart rule and the Haar rule are plain Python; numpy is for su2 and Monte Carlo
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stackvol import cli; code = cli.main(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('stackvol', 'numpy'))); "
         "sys.exit(code)",
         "smooth", "example", "plane-so2", "R=2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ["stackvol"] + [f"stackvol.{m}" for m in
                             ("catalog", "cli", "errors", "families", "quadrature", "smooth")]
    assert proc.stdout.splitlines()[-1] == str(loaded)
