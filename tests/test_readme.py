"""The README's command examples print exactly the output shown under them,
its Python examples run, and its module map names every module."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def readme_commands():
    """(argv, expected stdout or None) per ``stackvol`` line of the sh blocks, in order.

    The ``# ...`` lines right after a command are its output.  The morita
    block is skipped: no README command writes the g1, g2, b, w1 and w2
    files it reads.
    """
    blocks, block, in_sh = [], [], False
    pending = ""
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            if not in_sh and block:
                blocks.append(block)
            block = []
            continue
        if not in_sh:
            continue
        if pending or line.startswith("stackvol "):
            pending += line.rstrip("\\")
            if not line.endswith("\\"):
                block.append([shlex.split(pending, comments=True), None])
                pending = ""
        elif line.startswith("#") and block:
            out = block[-1][1] or ""
            block[-1][1] = out + line[2:] + "\n"
    return [(argv, out) for block in blocks
            if not any(argv[1] == "morita" for argv, _ in block)
            for argv, out in block]


def test_readme_commands_print_what_the_readme_shows(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    commands = readme_commands()
    assert any(out is not None for _, out in commands)
    mismatches = []
    for argv, expected in commands:
        proc = subprocess.run([sys.executable, "-m", "stackvol.cli", *argv[1:]],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, f"{shlex.join(argv)}: {proc.stderr}"
        if expected is not None and proc.stdout != expected:
            mismatches.append(f"{shlex.join(argv)}\n  README: {expected!r}\n  prints: {proc.stdout!r}")
    assert not mismatches, "\n".join(mismatches)


def readme_python_blocks():
    """The source of each README block marked ``python``, in order."""
    blocks, block = [], None
    for line in (ROOT / "README.md").read_text().splitlines():
        if block is None:
            if line == "```python":
                block = []
        elif line.startswith("```"):
            blocks.append("\n".join(block) + "\n")
            block = None
        else:
            block.append(line)
    return blocks


def test_readme_python_blocks_run():
    blocks = readme_python_blocks()
    assert blocks
    for i, source in enumerate(blocks, 1):
        # each block in a fresh namespace, as if run on its own
        exec(compile(source, f"<README python block {i}>", "exec"), {"__name__": "__main__"})


def test_module_map_names_exactly_the_modules():
    text = (ROOT / "README.md").read_text()
    paragraph = text[text.index("Module map:"):].split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)`\s+\(", paragraph))
    modules = {p.stem for p in (ROOT / "src" / "stackvol").glob("*.py")} - {"__init__"}
    assert named == modules
