"""The package namespace: lazy exports, and which imports load numpy."""

import importlib
import subprocess
import sys

import pytest

import stackvol


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
