"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the package's default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "finite-corpus": {"finite.weightings_per_s"},
    "morita-files": {"morita.triples_per_s"},
    "numeric": {"smooth.volume_p50_s", "su2.weyl_p50_s"},
    "cli": {f"cli.{k}_p50_s" for k in ("finite", "morita", "smooth", "series", "weyl")},
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# the contract


def test_benchmark_json_lists_what_the_runner_emits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert set(layers.TRACED) <= {m["name"] for m in BENCH["per_layer"]}
    e2e = {m["name"]: m for m in BENCH["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_prints_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH[section]}
    named = json.loads(next(l for l in lines if l.startswith("named "))[len("named "):])
    assert set(named) == NAMED[name] | {"setup_s", "failed_frac"}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_without_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "finite-corpus", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_a_wrong_output_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(workloads.FINITE_DIGEST, (3, "tiny"), "0" * 64)
    code = run.main(["--workload", "finite-corpus", "--seed", "3", "--seconds", "0.2",
                     "--size", "tiny"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


# ---------------------------------------------------------------------------
# inputs come from the seed


def fingerprint(wl):
    if isinstance(wl, workloads.FiniteCorpus):
        return [(g.arrow_count, sorted(map(str, w.a.values())), sorted(map(str, w.b.values())), b)
                for g, w, b in wl.items]
    if isinstance(wl, workloads.MoritaFiles):
        return [(expected, [Path(p).read_text() for p in paths.values()])
                for paths, expected in wl.cases]
    if isinstance(wl, workloads.Numeric):
        return wl.mc_seeds, [exact for _am, exact in wl.actions]
    argv = [a for args, _ref in wl.commands.values() for a in args]
    files = [Path(a).read_text() for a in argv if a.endswith(".json")]
    return files, [ref for _args, ref in wl.commands.values()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = fingerprint(cls(11, str(dirs[0]), "tiny"))
    again = fingerprint(cls(11, str(dirs[1]), "tiny"))
    other = fingerprint(cls(12, str(dirs[2]), "tiny"))
    assert json.dumps(first, default=str).replace(str(dirs[0]), "") == \
        json.dumps(again, default=str).replace(str(dirs[1]), "")
    assert json.dumps(first, default=str).replace(str(dirs[0]), "") != \
        json.dumps(other, default=str).replace(str(dirs[2]), "")


def test_stratified_sampling_fills_every_bin_or_fails():
    import random

    drawn = []

    def make(seed):
        drawn.append(seed)
        return seed % 100

    items = workloads.stratified(random.Random(1), make, lambda x: x, (10, 50), (2, 3, 4), 60)
    assert sorted(sum(1 for x in items if lo <= x < hi)
                  for lo, hi in ((0, 10), (10, 50), (50, 100))) == [2, 3, 4]
    # set-up work is fixed: exactly ``draws`` items even when the bins fill sooner
    assert len(drawn) == 60
    # ... and sampling goes on past ``draws`` while a bin is short
    assert len(workloads.stratified(random.Random(1), make, lambda x: x, (10, 50),
                                    (2, 3, 4), 1)) == 9
    with pytest.raises(RuntimeError):
        workloads.stratified(random.Random(1), lambda s: 5, lambda x: x, (10,), (1, 1), 1)


def test_setup_clock_counts_work_inside_it():
    import time

    with run.SetupClock(run.Reference(())) as clock:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    assert 0.05 < clock.seconds < 5


def test_tail_has_ten_samples_beyond_it():
    assert layers.tail(list(range(100))) == (89, 100)
    assert layers.tail([3.0, 1.0]) == (1.0, 2)


# ---------------------------------------------------------------------------
# every output check bites on a wrong reference


def outcomes(wl):
    return [run.run_op(op, []) for _kind, op in wl.passes()]


def test_finite_checks(tmp_path):
    wl = workloads.FiniteCorpus(5, str(tmp_path), "tiny")
    assert all(outcomes(wl)) and wl.check_pass()
    wl.reference_digest = wl.digest()
    assert wl.check_pass()
    wl.reference_digest = "0" * 64
    assert not wl.check_pass()
    # a rescaled weighting must reproduce its base volume
    wl.volumes[0] += 1
    assert not wl.passes()[1][1]()
    # fiber and orbit volumes must agree: break the section's invariance
    i, x = next((i, min(orb.objects, key=repr))
                for i, (g, _w, _b) in enumerate(wl.items)
                for orb in workloads.finite.orbits(g) if len(orb.objects) > 1)
    wl.items[i][1].b[x] += 1
    assert not run.run_op(wl.passes()[i][1], [])


def test_morita_checks(tmp_path):
    wl = workloads.MoritaFiles(5, str(tmp_path), "tiny")
    assert all(outcomes(wl))
    paths, expected = wl.cases[0]
    wl.cases[0] = (paths, expected + Fraction(1, 7))
    assert not wl.passes()[0][1]()


def test_numeric_checks(tmp_path):
    wl = workloads.Numeric(5, str(tmp_path), "tiny")
    assert all(outcomes(wl))
    wl.volume_reference = 2.001
    am, exact = wl.actions[3]
    wl.actions[3] = (am, exact * (1 + Fraction(1, 10**9)))
    wl.weyl_reference *= 1.5
    assert not any(outcomes(wl)[:3])


def test_weyl_check_needs_matching_rhs():
    report = type("R", (), {"passed": True, "lhs": 3.0, "rhs": 3.1})()
    assert workloads.weyl_ok(report, 3.1, 0.05)
    assert not workloads.weyl_ok(report, 3.1 * (1 + 1e-5), 0.05)


def test_cli_checks(tmp_path):
    wl = workloads.Cli(5, str(tmp_path), "tiny")
    assert all(outcomes(wl))
    wrong = {
        "finite": {"fiber": "0"},
        "morita": {"left": "-1"},
        "smooth": {"value": 2.5},
        "series": {"value": "1"},
        "weyl": {"reference": 9.0},
    }
    for kind, ref in wrong.items():
        argv, reference = wl.commands[kind]
        wl.commands[kind] = (argv, {**reference, **ref})
    wl._ops = [(kind, wl._op(kind)) for kind in wl.kinds]
    assert not any(outcomes(wl))
