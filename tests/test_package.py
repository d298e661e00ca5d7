"""The package namespace: it holds no aliases, every public name has a caller
outside the tests, and which imports and commands load what."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stackvol
from stackvol import jsonio
from stackvol.morita import random_morita_triple, random_morita_weights


def test_the_package_holds_no_aliases():
    # each public name is imported from its module; submodules still import by name
    with pytest.raises(AttributeError, match="stack_volume"):
        stackvol.stack_volume
    assert not hasattr(stackvol, "__all__")
    from stackvol import finite, smooth, su2

    assert smooth.stack_volume.__module__ == "stackvol.smooth"
    assert (finite.__name__, su2.__name__) == ("stackvol.finite", "stackvol.su2")


ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_outside_the_tests():
    # the package, the acceptance gate, README and the benchmark, whose tracer
    # names the functions it wraps in strings
    package = sorted((ROOT / "src" / "stackvol").glob("*.py"))
    texts = {path: path.read_text() for path in [
        *package, ROOT / "tests" / "test_acceptance.py", ROOT / "README.md",
        *sorted((ROOT / "perfbench").glob("*.py"))]}
    unused = []
    for path in package:
        lines = texts[path].splitlines()
        for node in ast.parse(texts[path]).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs = [(node.name, node, rf"\b{node.name}\b")]
            if isinstance(node, ast.ClassDef):  # a method is used as an attribute
                defs += [(f"{node.name}.{item.name}", item, rf"\.{item.name}\b")
                         for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
            for name, item, pattern in defs:
                start = min(d.lineno for d in [item, *item.decorator_list]) - 1
                rest = "\n".join(lines[:start] + lines[item.end_lineno:])
                if not any(re.search(pattern, text) for text in
                           [rest, *(t for p, t in texts.items() if p != path)]):
                    unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that only tests use: {', '.join(unused)}"


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


def _modules_after(argv):
    """The modules a fresh interpreter holds after ``stackvol argv`` exits 0."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stackvol import cli; code = cli.main(sys.argv[1:]); "
         "print(*sorted(sys.modules)); sys.exit(code)",
         *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("argv", [
    ["finite", "volume", "--groupoid", "{left}", "--weights", "{w1}"],
    ["series", "finite-sets"],
    ["morita", "check", "--left", "{left}", "--right", "{right}", "--bibundle", "{bib}",
     "--left-weights", "{w1}", "--right-weights", "{w2}"],
])
def test_exact_commands_load_no_dataclasses_or_inspect(tmp_path, argv):
    paths = _morita_files(tmp_path)
    loaded = _modules_after([arg.format(**paths) for arg in argv])
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


def test_weyl_check_loads_no_dataclasses():
    assert "dataclasses" not in _modules_after(
        ["smooth", "weyl-check", "--samples", "20000", "--tol", "1"])


def test_series_loads_no_groupoid_code():
    loaded = _modules_after(["series", "finite-sets"])
    assert [m for m in loaded if m.split(".")[0] == "stackvol"] == [
        "stackvol", "stackvol.cli", "stackvol.errors", "stackvol.groups"]


def test_smooth_example_loads_no_numpy():
    # the chart rule and the Haar rule are plain Python; numpy is for su2 and Monte Carlo
    loaded = _modules_after(["smooth", "example", "plane-so2", "R=2"])
    expected = ["stackvol"] + [f"stackvol.{m}" for m in
                               ("catalog", "cli", "errors", "quadrature", "smooth")]
    assert [m for m in loaded if m.split(".")[0] in ("stackvol", "numpy")] == expected
