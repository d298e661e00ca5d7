"""stackvol benchmark: one workload, one closed loop, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up, measures operations for S seconds
with tracing off and prints every end-to-end metric of BENCHMARK.json.
With ``--trace 1`` it does the same untraced loop, then one traced pass,
and prints every per-layer metric.  Before the result line it prints the
workload's named metrics (``named {...}``) and one line per metric.  The
exit code is 1 when any operation failed or gave a wrong output, 2 when
the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3  # this process plus two fresh ones
MAX_TRACEBACKS = 3
CALIBRATE_EVERY_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# the loop


class Reference:
    """Fixed computations, timed next to the operations, that track machine speed.

    The VM this benchmark was defined on (2 vCPUs, shared host) changed
    speed by +-25% from one second to the next, and different kinds of
    work slowed by different amounts.  Each op kind therefore names a
    reference of its own character:

    - ``table``: Fraction sums over random lookups in a 200,000-entry
      dict, for the exact fiber sums;
    - ``float``: a Python loop of float arithmetic and calls, for
      validation and the Morita path, set-up (see ``SetupClock``), the
      adaptive quadrature and the finite-action volumes;
    - ``numpy``: a 1M-element vector stream, for the Monte Carlo check;
    - ``process``: a ``python -c "import numpy"`` child, for ``stackvol``
      processes: loading extension modules and byte code, like their
      start-up, which no in-process loop tracked.

    ``SCALE_S`` is about what each reference took on that VM, so scaled
    times read as seconds there.
    """

    SCALE_S = {"table": 1e-3, "float": 1e-3, "numpy": 2e-3, "process": 0.16}

    def __init__(self, kinds):
        rng = random.Random(0)
        if "table" in kinds:
            table = {(rng.getrandbits(30), i): Fraction(rng.randint(1, 9), rng.randint(1, 7))
                     for i in range(200_000)}
            keys = list(table)
            self._table = table
            self._probe = [keys[rng.randrange(len(keys))] for _ in range(500)]
        if "numpy" in kinds:
            import numpy

            self._vector = numpy.random.default_rng(0).uniform(size=1_000_000)
        self.latest = {}  # kind -> (time measured, seconds)

    def _once(self, kind):
        start = time.perf_counter()
        if kind == "table":
            total = Fraction(0)
            for key in self._probe:
                total += self._table[key]
        elif kind == "float":
            total = 0.0
            for i in range(5000):
                total += _wave(i * 1e-3) * 1e-3
        elif kind == "process":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
        else:
            float((self._vector * self._vector + 1.0).sum())
        return time.perf_counter() - start

    def factor(self, kind, now):
        """Multiplier taking an op time measured now to the reference speed."""
        when, seconds = self.latest.get(kind, (-math.inf, None))
        if now - when >= CALIBRATE_EVERY_S:
            # one child takes about a fifth of a command; more would crowd out ops
            runs = 1 if kind == "process" else 3
            seconds = statistics.median(self._once(kind) for _ in range(runs))
            self.latest[kind] = (now, seconds)
        return self.SCALE_S[kind] / seconds


def _wave(x):
    return 1.5 + 0.5 * math.sin(x)


class SetupClock:
    """Set-up time at reference speed, for ``with SetupClock(reference): ...``.

    Set-up is one block of imports, input generation, file writing and
    cold caches, so it cannot be timed piece by piece like the ops.  A
    timer signal every ``CALIBRATE_EVERY_S`` times the ``float``
    reference there and then; each stretch of set-up between two
    calibrations is scaled by the mean of their factors.  Calibration
    time is left out.  On the VM of ``Reference``, this cut the spread
    of one set-up over ten seeds from 24% to 6% (``finite-corpus``) and
    from 40% to 11% (``morita-files``).
    """

    KIND = "float"

    def __init__(self, reference):
        self.reference = reference
        self.seconds = 0.0

    def _factor(self):
        return self.reference.SCALE_S[self.KIND] / statistics.median(
            self.reference._once(self.KIND) for _ in range(3))

    def _lap(self, *_signal):
        elapsed = time.perf_counter() - self._mark
        factor = self._factor()
        self.seconds += elapsed * (self._last + factor) / 2
        self._last = factor
        self._mark = time.perf_counter()

    def __enter__(self):
        self._last = self._factor()
        self._previous = signal.signal(signal.SIGALRM, self._lap)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._lap()


def run_op(op, failures):
    try:
        return bool(op())
    except Exception:  # an operation that raises counts as failed; keep measuring
        if len(failures) < MAX_TRACEBACKS:
            failures.append(traceback.format_exc())
        return False


def measure(workload, seconds, failures):
    """Closed loop over passes for ``seconds``; the first pass always completes.

    Returns samples ``(kind, position in the pass, seconds, ok, factor)`` in
    the order run, where ``factor`` scales the time to the reference speed.
    """
    reference = Reference(set(workload.reference.values()))
    samples = []
    start = time.perf_counter()
    first = True
    while True:
        for pos, (kind, op) in enumerate(workload.passes()):
            now = time.perf_counter()
            if not first and now - start >= seconds:
                return samples
            factor = reference.factor(workload.reference[kind], now)
            t0 = time.perf_counter()
            ok = run_op(op, failures)
            samples.append((kind, pos, time.perf_counter() - t0, ok, factor))
        if first:
            first = False
            if not workload.check_pass():
                failures.append(f"{workload.name}: first-pass check failed")
                samples = [(k, p, s, False, r) for k, p, s, _ok, r in samples]


def traced_pass(workload, tracer, failures):
    """One pass with every op inside a span of its own; returns samples and op kinds."""
    samples, kinds = [], []
    workload.tracer = tracer
    tracer.install()
    try:
        for pos, (kind, op) in enumerate(workload.passes()):
            tracer.op = len(kinds)
            kinds.append(kind)
            idx = tracer.open("op", "bench")
            t0 = time.perf_counter()
            try:
                ok = run_op(op, failures)
            finally:
                tracer.close(idx)
            samples.append((kind, pos, time.perf_counter() - t0, ok, None))
    finally:
        tracer.uninstall()
        workload.tracer = None
    return samples, kinds


# ---------------------------------------------------------------------------
# metrics


def by_kind(samples):
    out = {}
    for kind, _pos, seconds, *_ in samples:
        out.setdefault(kind, []).append(seconds)
    return out


def end_to_end(workload, samples, setups):
    """The gated metrics every workload reports, and the workload's named ones.

    ``pass_norm_s`` sums, over the positions of a pass, the median time of
    the op at that position after scaling to the reference speed.  Named
    metrics carry their units, since BENCHMARK.json does not list them;
    they are raw wall times, except ``setup_s``.
    """
    scaled = {}
    for _kind, pos, seconds, _ok, factor in samples:
        scaled.setdefault(pos, []).append(seconds * factor)
    setup = statistics.median(setups)
    metrics = {
        "setup_s": setup,
        "pass_norm_s": sum(statistics.median(v) for v in scaled.values()),
    }
    failed = sum(1 for _k, _p, _s, ok, _r in samples if not ok)
    named = {"setup_s": (setup, "s"), "failed_frac": (failed / len(samples), "ratio")}
    if workload.named_rate:
        # whole rotations through the op kinds, so the mix is fixed
        whole = len(samples) // len(workload.kinds) * len(workload.kinds)
        busy = sum(s for _k, _p, s, _ok, _r in samples[:whole])
        named[workload.named_rate] = (whole / busy, "1/s")
    medians = {k: statistics.median(v) for k, v in by_kind(samples).items()}
    for name, kind in workload.named_p50.items():
        named[name] = (medians[kind], "s")
    return metrics, named


def per_layer(workload, untraced, traced, op_kinds, tracer):
    import layers

    metrics = layers.traced_metrics(tracer.spans, tracer.counts, op_kinds)
    cold = list(workload.cold_cartan)
    metrics["su2.cartan_s"] = statistics.median(cold) if cold else 0.0
    times = by_kind(untraced)
    for prefix in ("cli.tail", "smooth.volume_tail", "su2.weyl_tail"):
        kinds = workload.tails.get(prefix, ())
        values = [s for k, _p, s, *_ in untraced if kinds is None or k in kinds]
        value, n = layers.tail(values)
        metrics[f"{prefix}_s"] = value
        metrics[f"{prefix}_samples"] = n
    bare, imp = workload.startup_probes() if hasattr(workload, "startup_probes") else (0.0, 0.0)
    metrics["cli.bare_python_s"] = bare
    metrics["cli.import_s"] = imp
    metrics["cli.startup_share"] = 0.0
    if imp:
        p50 = statistics.median(statistics.median(v) for v in times.values())
        metrics["cli.startup_share"] = imp / p50
    metrics["trace.overhead_pct"] = layers.overhead_pct(untraced, traced)
    return metrics


# ---------------------------------------------------------------------------
# set-up


def setup_in_child(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def declared(kind):
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(correct, attempted, failed, metrics, units):
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stackvol" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    sys.path.insert(0, str(SRC))
    with SetupClock(Reference(())) as clock:
        import workloads  # imports stackvol: part of set-up

        cls = workloads.WORKLOADS.get(args.workload)
        if cls is None:
            print(f"error: unknown workload {args.workload!r}; "
                  f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = cls(args.seed, workdir, args.size)
    setup = clock.seconds
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    failures = []
    samples = measure(workload, args.seconds, failures)
    setups = [setup] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    metrics, named = end_to_end(workload, samples, setups)
    units = declared("end_to_end")
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced, op_kinds = traced_pass(workload, tracer, failures)
        metrics = per_layer(workload, samples, traced, op_kinds, tracer)
        samples = samples + traced
        units = declared("per_layer")
        spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_out, "w") as fh:
            json.dump({"ops": op_kinds, "spans": tracer.spans}, fh)

    for text in failures:
        print(text, file=sys.stderr)
    failed = sum(1 for _k, _p, _s, ok, _r in samples if not ok)
    print("named " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
    emit(failed == 0, len(samples), failed, metrics, units)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
