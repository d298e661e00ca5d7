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


def _uses(tree, skip=None, strings=False):
    """The names a syntax tree reads and the attributes it accesses, outside ``skip``.

    With ``strings``, each string literal counts as a name read.
    """
    names, attrs, stack = set(), set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def test_every_public_name_is_used_outside_the_tests():
    # a use is a reference in the code of the package, the acceptance gate,
    # README's python blocks or the benchmark, whose tracer alone may name a
    # function in a string.  A method is used only through an attribute access;
    # names are matched, not types, so a method named like an attribute of
    # another class, as ``identity`` is by FiniteGroup.identity, passes unseen
    package = {path: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "stackvol").glob("*.py"))}
    readme = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    others = [_uses(ast.parse(source)) for source in
              [(ROOT / "tests" / "test_acceptance.py").read_text(), *readme]]
    others += [_uses(ast.parse(path.read_text()), strings=True)
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    module_uses = {path: _uses(tree) for path, tree in package.items()}
    unused = []
    for path, tree in package.items():
        uses = others + [u for p, u in module_uses.items() if p != path]
        names, attrs = set().union(*(n for n, _ in uses)), set().union(*(a for _, a in uses))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            defs = [(node.name, node, False)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item, True) for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name[0] != "_"]
            for name, item, method in defs:
                own_names, own_attrs = _uses(tree, skip=item)
                if item.name not in (attrs | own_attrs if method
                                     else names | attrs | own_names | own_attrs):
                    unused.append(f"{path.stem}.{name}")
    assert not unused, f"public names that only tests use: {', '.join(unused)}"


@pytest.mark.parametrize("module, loads_numpy", [
    ("stackvol", False),
    ("stackvol.cli", False),
    ("stackvol.finite", False),
    ("stackvol.morita", False),
    ("stackvol.smooth", False),
    ("stackvol.catalog", False),
    ("stackvol.su2", False),
    # every module the benchmark's workloads import, together
    pytest.param("stackvol.catalog, stackvol.cli, stackvol.finite, stackvol.jsonio, "
                 "stackvol.morita, stackvol.quadrature, stackvol.smooth, stackvol.su2", False,
                 id="workload-modules-False"),
    # numpy loads at the first SU(2) computation
    pytest.param("stackvol.su2; stackvol.su2.gaussian_test_function()", True,
                 id="gaussian_test_function-True"),
    pytest.param("stackvol.su2; stackvol.su2.su2_cartan()", True, id="su2_cartan-True"),
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
