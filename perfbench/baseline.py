"""Run every workload untraced and traced, print every metric, write a record.

Usage (from the repository root):

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--out FILE]

Prints the named end-to-end metrics of each workload (the eleven of
perfbench/README.md), the generic ones the benchmark gates on, and the
per-layer metrics of the traced runs, each with its unit.  Exits 1 if
any run failed an output check.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload}: no result (exit {proc.returncode}): {proc.stderr[-800:]}")
    named = next(json.loads(l[len("named "):]) for l in lines if l.startswith("named "))
    return proc.returncode, named, json.loads(lines[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", help="write the record as JSON here")
    args = p.parse_args(argv)

    record = {"seed": args.seed, "seconds": args.seconds,
              "python": platform.python_version(), "machine": platform.machine(),
              "workloads": {}}
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        entry = {}
        for trace in (0, 1):
            code, named, result = run(name, args.seed, args.seconds, trace)
            status = status or code
            key = "per_layer" if trace else "end_to_end"
            entry[key] = result["metrics"]
            entry[f"{key}_attempted"] = result["attempted"]
            entry[f"{key}_failed"] = result["failed"]
            if not trace:
                entry["named"] = named
        record["workloads"][name] = entry
        print(f"== {name}")
        for section in ("named", "end_to_end", "per_layer"):
            for metric, v in entry[section].items():
                if v["value"]:
                    print(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
