"""The four benchmark workloads.

Each workload builds all of its inputs from the seed in its constructor
(that is set-up), then hands out passes: lists of ``(kind, op)`` pairs
where ``op()`` runs one operation and returns whether its output passed
the workload's checks.  Operations run one at a time in one process;
the ``cli`` workload starts one ``stackvol`` child process per operation.
The package is driven only through public functions and the
``stackvol.cli`` entry point.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from stackvol import catalog, finite, jsonio, morita, smooth, su2
from stackvol.groups import FiniteGroup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1

# sha256 over the volumes of the first pass of ``finite-corpus`` at the
# default seed and full size, one ``str(Fraction)`` per line
FINITE_DIGEST = {
    (DEFAULT_SEED, "full"): "a2d3f39ed66f6b66a4f2afa606eb1b9110ab737503eb3d04bfee9f0f74eceea3",
}


def stratified(rng, make, key, edges, slots, draws):
    """Draw ``make(seed)`` ``draws`` times and keep the first items of each key bin.

    Bin i takes keys in ``[edges[i-1], edges[i])`` and keeps its first
    ``slots[i]`` items.  Fixing how many items fall in each bin keeps the
    work per pass nearly the same for every seed, while the items
    themselves still come from the seed.  Drawing a fixed number of
    items, kept or not, does the same for set-up; only when ``draws``
    leaves a bin short does sampling go on until every bin is full.
    """
    bins = [[] for _ in slots]
    drawn = 0
    while drawn < draws or any(len(b) < n for b, n in zip(bins, slots)):
        drawn += 1
        if drawn > 20 * sum(slots) + draws:
            raise RuntimeError(f"stratified sampling did not fill {slots} in {drawn} draws")
        item = make(rng.getrandbits(63))
        i = bisect.bisect_right(edges, key(item))
        if len(bins[i]) < slots[i]:
            bins[i].append(item)
    items = [x for b in bins for x in b]
    rng.shuffle(items)
    return items


class Workload:
    name = ""
    kinds = ()
    named_rate = None  # name of the ops-per-second metric this workload reports
    named_p50 = {}     # name of a median-time metric -> op kind
    tails = {}         # tail metric prefix -> op kinds it covers (None: all)
    reference = {}     # op kind -> reference computation for scaling (run.Reference)
    tracer = None      # set by the runner for the traced pass
    cold_cartan = ()   # first su2_cartan call of each process, in seconds

    _ops = ()

    def passes(self):
        """The ops of one pass, in order; every pass repeats the same ops."""
        return self._ops

    def check_pass(self) -> bool:
        """Checks that need a whole pass; called once after the first pass."""
        return True


# ---------------------------------------------------------------------------
# finite-corpus


# Quantiles (0.1 ... 0.9, 0.92, 0.94, 0.96, 0.98, 0.99) of the arrow count
# of random_groupoid(seed, max_objects=40, max_group_order=8) over 40,000
# seeds; mean 1,534 arrows, heavy upper tail.
FINITE_EDGES = (228, 420, 596, 777, 968, 1188, 1512, 2048, 3347, 3872, 4732, 6144, 8214, 10108)
FINITE_SLOTS = (10,) * 9 + (2,) * 4 + (1, 1)
# these slots fill within 400 draws for about 96% of seeds (mean 226)
FINITE_DRAWS = 400


class FiniteCorpus(Workload):
    """Exact fiber and orbit volumes over a corpus of random groupoids."""

    name = "finite-corpus"
    kinds = ("finite",)
    reference = {"finite": "table"}
    named_rate = "finite.weightings_per_s"
    WEIGHTINGS = 3  # each followed by one positive rescaling of it

    def __init__(self, seed, workdir, size="full"):
        rng = random.Random(seed)
        if size == "full":
            groupoids = stratified(
                rng,
                lambda s: finite.random_groupoid(s, max_objects=40, max_group_order=8),
                lambda g: g.arrow_count, FINITE_EDGES, FINITE_SLOTS, FINITE_DRAWS)
        else:
            groupoids = [finite.random_groupoid(rng.getrandbits(63), max_objects=6,
                                                max_group_order=4) for _ in range(3)]
        self.items = []  # (groupoid, weights, index of the unrescaled item or None)
        for g in groupoids:
            for _ in range(self.WEIGHTINGS):
                w = finite.random_invariant_weights(g, rng.getrandbits(63))
                base = len(self.items)
                self.items.append((g, w, None))
                theta = finite.random_positive_rescaling(g, rng.getrandbits(63))
                self.items.append((g, w.rescaled(theta), base))
        self.volumes = [None] * len(self.items)
        self.reference_digest = FINITE_DIGEST.get((seed, size))
        self._ops = [("finite", self._op(i)) for i in range(len(self.items))]

    def _op(self, i):
        g, w, base = self.items[i]

        def op():
            vf = finite.fiber_volume(g, w)
            vo = finite.orbit_volume(g, w)
            self.volumes[i] = vf
            return vf == vo and (base is None or vf == self.volumes[base])

        return op

    def digest(self):
        text = "\n".join(str(v) for v in self.volumes)
        return hashlib.sha256(text.encode()).hexdigest()

    def check_pass(self):
        return self.reference_digest is None or self.digest() == self.reference_digest


# ---------------------------------------------------------------------------
# morita-files


# Edges on the linking groupoid's arrow count |G1| + |G2| + 2|bibundle| of
# random_morita_triple(seed) with default sizes; the slots follow the
# measured share of each bin over 6,000 seeds.
MORITA_EDGES = (16, 28, 36, 50, 64, 75, 96, 111, 144, 169, 200)
MORITA_SLOTS = (3, 9, 3, 8, 5, 7, 6, 6, 5, 4, 2, 1)
# these slots filled within 96-173 draws on ten seeds
MORITA_DRAWS = 200


def _link_arrows(triple):
    g1, g2, bib = triple
    return g1.arrow_count + g2.arrow_count + 2 * len(bib.elements)


def write_morita_files(triple, seed, prefix):
    """Write a triple and corresponding weights as the five CLI input files.

    The weights are drawn on the groupoids as loaded back from JSON, so
    their keys are the wire ids.  Returns (paths, expected volume).
    """
    g1, g2, bib = triple
    paths = {k: f"{prefix}{k}.json" for k in ("left", "right", "bibundle", "lw", "rw")}
    jsonio.dump_groupoid(g1, paths["left"])
    jsonio.dump_groupoid(g2, paths["right"])
    jsonio.dump_bibundle(g1, g2, bib, paths["bibundle"])
    h1 = jsonio.load_groupoid(paths["left"])
    h2 = jsonio.load_groupoid(paths["right"])
    hb = jsonio.load_bibundle(paths["bibundle"])
    w1, w2 = morita.random_morita_weights(h1, h2, hb, seed)
    jsonio.dump_weights(w1, paths["lw"])
    jsonio.dump_weights(w2, paths["rw"])
    return paths, finite.fiber_volume(h1, w1)


def recovers_factor(link, g, tag, ids):
    part = finite.restrict_to_objects(link, ids(g))
    return finite.check_strict_isomorphism(
        g, part, {x: (tag, x) for x in g.objects}, {a: (tag, a) for a in g.arrow_ids})


class MoritaFiles(Workload):
    """The ``morita check`` then ``morita link`` path on triples read from JSON."""

    name = "morita-files"
    kinds = ("morita",)
    reference = {"morita": "float"}
    named_rate = "morita.triples_per_s"

    def __init__(self, seed, workdir, size="full"):
        rng = random.Random(seed)
        if size == "full":
            triples = stratified(rng, morita.random_morita_triple, _link_arrows,
                                 MORITA_EDGES, MORITA_SLOTS, MORITA_DRAWS)
        else:
            triples = [morita.random_morita_triple(rng.getrandbits(63)) for _ in range(3)]
        self.cases = []  # (paths, expected volume)
        for i, triple in enumerate(triples):
            self.cases.append(write_morita_files(triple, rng.getrandbits(63),
                                                 os.path.join(workdir, f"t{i}_")))
        self._ops = [("morita", self._op(i)) for i in range(len(self.cases))]

    def _op(self, i):
        def op():
            paths, expected = self.cases[i]
            g1 = jsonio.load_groupoid(paths["left"])
            g2 = jsonio.load_groupoid(paths["right"])
            w1 = jsonio.load_weights(paths["lw"])
            w2 = jsonio.load_weights(paths["rw"])
            bib = jsonio.load_bibundle(paths["bibundle"])
            if not (finite.validate(g1).ok and finite.validate(g2).ok):
                return False
            report = morita.morita_volume_check(g1, g2, bib, w1, w2)
            link = morita.linking_groupoid(g1, g2, bib)
            return (report.equal and report.volume_left == expected
                    and finite.validate(link).ok
                    and recovers_factor(link, g1, morita.LEFT, morita.left_object_ids)
                    and recovers_factor(link, g2, morita.RIGHT, morita.right_object_ids))

        return op


# ---------------------------------------------------------------------------
# numeric


def twenty_actions():
    """The finite group actions of acceptance criterion 11."""
    s3 = FiniteGroup.symmetric(3)
    s4 = FiniteGroup.symmetric(4)
    d3 = FiniteGroup.dihedral(3)
    d4 = FiniteGroup.dihedral(4)
    c2 = FiniteGroup.cyclic(2)
    z2xz2 = FiniteGroup.direct_product(c2, c2)
    z2xz4 = FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4))
    z2xz3 = FiniteGroup.direct_product(c2, FiniteGroup.cyclic(3))

    def rotation(n):
        return (FiniteGroup.cyclic(n), range(n), lambda h, x, n=n: (x + h) % n)

    def regular(group):
        return (group, group.elements, lambda h, x, g=group: g.mult(h, x))

    def swap_with_fixed(h, x):
        if x == 2:
            return 2
        return x if h == 0 else 1 - x

    return [
        rotation(2), rotation(3), rotation(4), rotation(5), rotation(6),
        (s3, range(3), lambda p, x: p[x]),
        (s4, range(4), lambda p, x: p[x]),
        (d4, range(4), lambda h, x: (h[0] + (x if h[1] == 0 else -x)) % 4),
        (d3, range(3), lambda h, x: (h[0] + (x if h[1] == 0 else -x)) % 3),
        regular(FiniteGroup.cyclic(4)),
        regular(z2xz2),
        regular(s3),
        regular(d4),
        regular(z2xz4),
        (FiniteGroup.cyclic(4), range(3), lambda h, x: x),
        (FiniteGroup.cyclic(6), range(3), lambda h, x: (x + h) % 3),
        (z2xz3, range(2), lambda h, x: (x + h[0]) % 2),
        (FiniteGroup.cyclic(5), range(10), lambda h, x: (x + 2 * h) % 10),
        (FiniteGroup.cyclic(2), range(3), swap_with_fixed),
        (FiniteGroup.cyclic(4), range(2), lambda h, x: (x + h) % 2),
    ]


def weyl_closed_form(width):
    """Right side of the Weyl check in closed form, for the SU(2) basis used.

    The orbit density is (4 pi s)^2 (root value 2 times period 2 pi), and
    the chamber integral of s^2 exp(-s^2 / 2w^2) runs over [0, 5w].
    """
    sigma = 4.0 * math.pi
    bracket = math.sqrt(math.pi / 2.0) * math.erf(5.0 / math.sqrt(2.0)) - 5.0 * math.exp(-12.5)
    return sigma * sigma * width ** 3 * bracket


def weyl_ok(report, reference, tol):
    return (report.passed
            and abs(report.rhs - reference) <= 1e-6 * reference
            and abs(report.lhs - reference) <= tol * reference)


class Numeric(Workload):
    """Quadrature, finite-action and Monte Carlo volumes, in turn."""

    name = "numeric"
    kinds = ("volume", "actions", "weyl")
    reference = {"volume": "float", "actions": "float", "weyl": "numpy"}
    named_p50 = {"smooth.volume_p50_s": "volume", "su2.weyl_p50_s": "weyl"}
    tails = {"smooth.volume_tail": ("volume",), "su2.weyl_tail": ("weyl",)}
    VOLUME_TOL = 1e-6
    WEYL_TOL = 0.02
    MC_SEEDS = 3

    def __init__(self, seed, workdir, size="full"):
        rng = random.Random(seed)
        self.volume_reference = 2.0
        self.density_calls = 0  # a and b evaluations of the counting model
        # a varies along each orbit, as in tests/test_smooth.py; the
        # volume stays 2 because a and b are rescaled together
        self.model = self._theta_model(counting=False)
        self.counting_model = self._theta_model(counting=True)

        self.actions = []  # (action model, exact volume)
        for group, points, act in twenty_actions():
            g = finite.action_groupoid(group, points, act)
            a = {x: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for x in g.objects}
            b = {}
            for orb in finite.orbits(g):
                section = Fraction(rng.randint(1, 7), rng.randint(1, 4))
                for x in orb.objects:
                    b[x] = a[x] * section
            exact = finite.fiber_volume(g, finite.WeightData(a, b))
            self.actions.append((smooth.finite_action_model(group, points, act, a, b), exact))

        self.samples = 1_000_000 if size == "full" else 20_000
        self.weyl_tol = self.WEYL_TOL if size == "full" else 0.2
        self.phi = su2.gaussian_test_function()
        self.weyl_reference = weyl_closed_form(self.phi.width)
        self.mc_seeds = [rng.getrandbits(32) for _ in range(self.MC_SEEDS)]
        start = time.perf_counter()
        su2.su2_cartan()
        self.cold_cartan = (time.perf_counter() - start,)
        self._ops = []
        for mc_seed in self.mc_seeds:
            self._ops += [("volume", self._volume), ("actions", self._actions),
                          ("weyl", self._weyl(mc_seed))]

    def _theta_model(self, counting):
        def theta(p):
            if counting:
                self.density_calls += 1
            r, phi = p
            return 1.5 + 0.5 * math.sin(phi) + 0.1 * r

        return dataclasses.replace(
            catalog.plane_so2(R=2.0),
            a_density=theta,
            b_density=lambda p: theta(p) * p[0],
            a_constant=False,
        )

    def _volume(self):
        if self.tracer is None:
            res = smooth.stack_volume(self.model, tol=self.VOLUME_TOL)
        else:
            before = self.density_calls
            res = smooth.stack_volume(self.counting_model, tol=self.VOLUME_TOL)
            self.tracer.count("density_calls", self.density_calls - before)
            self.tracer.count("reported_evals", res.evaluations)
        return abs(res.value - self.volume_reference) <= self.VOLUME_TOL

    def _actions(self):
        ok = True
        for am, exact in self.actions:
            value = smooth.stack_volume(am).value
            ok = ok and abs(value - float(exact)) <= 1e-12 * abs(float(exact))
        return ok

    def _weyl(self, mc_seed):
        def op():
            report = su2.weyl_integration_check(self.phi, mc_samples=self.samples,
                                                seed=mc_seed, tol=self.weyl_tol)
            return weyl_ok(report, self.weyl_reference, self.weyl_tol)

        return op


# ---------------------------------------------------------------------------
# cli


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Cli(Workload):
    """One ``stackvol`` process per operation, one command per group in turn."""

    name = "cli"
    kinds = ("finite", "morita", "smooth", "series", "weyl")
    reference = dict.fromkeys(kinds, "process")
    named_p50 = {f"cli.{kind}_p50_s": kind for kind in kinds}
    tails = {"cli.tail": None}
    CUTOFF = 13
    TIMEOUT_S = 120

    def __init__(self, seed, workdir, size="full"):
        rng = random.Random(seed)
        self.env = child_env()
        self.cold_cartan = []

        g = finite.random_groupoid(rng.getrandbits(63), max_objects=6, max_group_order=4)
        gpath = os.path.join(workdir, "groupoid.json")
        wpath = os.path.join(workdir, "weights.json")
        jsonio.dump_groupoid(g, gpath)
        loaded = jsonio.load_groupoid(gpath)
        w = finite.random_invariant_weights(loaded, rng.getrandbits(63))
        jsonio.dump_weights(w, wpath)
        vol = str(finite.fiber_volume(loaded, w))

        paths, mvol = write_morita_files(morita.random_morita_triple(rng.getrandbits(63)),
                                         rng.getrandbits(63), os.path.join(workdir, "m_"))
        series = sum((Fraction(1, math.factorial(n)) for n in range(self.CUTOFF + 1)),
                     Fraction(0))
        weyl_ref = weyl_closed_form(0.25)

        self.commands = {
            "finite": (["finite", "volume", "--groupoid", gpath, "--weights", wpath],
                       {"fiber": vol, "orbit": vol, "equal": True}),
            "morita": (["morita", "check", "--left", paths["left"], "--right", paths["right"],
                        "--bibundle", paths["bibundle"], "--left-weights", paths["lw"],
                        "--right-weights", paths["rw"]],
                       {"left": str(mvol), "right": str(mvol), "equal": True}),
            "smooth": (["smooth", "example", "plane-so2", "R=2"], {"value": 2.0}),
            "series": (["series", "finite-sets", "--cutoff", str(self.CUTOFF)],
                       {"value": str(series)}),
            "weyl": (["smooth", "weyl-check"], {"reference": weyl_ref}),
        }
        self._ops = [(kind, self._op(kind)) for kind in self.kinds]
        self._spans_file = os.path.join(workdir, "spans.json")

    @staticmethod
    def output_ok(kind, payload, reference):
        if kind == "smooth":
            return abs(payload["value"] - reference["value"]) <= 1e-6
        if kind == "weyl":
            ref = reference["reference"]
            return (payload["passed"] is True
                    and abs(payload["rhs"] - ref) <= 1e-6 * ref
                    and abs(payload["lhs"] - ref) <= payload["params"]["tol"] * ref)
        return all(payload[k] == v for k, v in reference.items())

    def _op(self, kind):
        argv, reference = self.commands[kind]

        def op():
            args = argv + ["--json"]
            if self.tracer is None:
                cmd = [sys.executable, "-m", "stackvol.cli", *args]
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), self._spans_file, *args]
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=self.TIMEOUT_S)
            if self.tracer is not None and os.path.exists(self._spans_file):
                with open(self._spans_file) as fh:
                    child = json.load(fh)
                os.remove(self._spans_file)
                self.tracer.adopt(child["spans"], child["counts"], self.tracer.current())
                self.cold_cartan += [end - start for name, _l, start, end, *_ in child["spans"]
                                     if name == "su2_cartan"][:1]
            if proc.returncode != 0:
                sys.stderr.write(f"cli {kind}: exit {proc.returncode}: {proc.stderr[-500:]}\n")
                return False
            return self.output_ok(kind, json.loads(proc.stdout), reference)

        return op

    def startup_probes(self, repeats=3):
        """Median wall time of a bare interpreter, and of one that only imports stackvol.cli."""

        def wall(code):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True,
                           capture_output=True, timeout=self.TIMEOUT_S)
            return time.perf_counter() - start

        bare = statistics.median(wall("pass") for _ in range(repeats))
        imported = statistics.median(wall("import stackvol.cli") for _ in range(repeats))
        return bare, imported


WORKLOADS = {w.name: w for w in (FiniteCorpus, MoritaFiles, Numeric, Cli)}
