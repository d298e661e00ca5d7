"""Span tracing from outside the package.

A :class:`Tracer` rebinds chosen public functions of ``stackvol`` to
timing wrappers, in every ``stackvol`` module namespace that holds them,
so calls between modules are caught as well as the benchmark's own.
Each call records a span ``(name, layer, start, end, parent, op)``;
spans stay in memory until the run ends.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict

# (module, function, layer): the public functions the workloads reach.  A
# function's self time goes to its layer; time in unwrapped helpers counts
# as self time of the nearest wrapped caller.  ``catalog``, ``families``,
# ``groups`` and ``errors`` only build models or define types, so they get
# no spans.
WRAPPED = (
    ("finite", "validate", "finite"),
    ("finite", "orbits", "finite"),
    ("finite", "fiber_volume", "finite"),
    ("finite", "orbit_volume", "finite"),
    ("finite", "invariant_section", "finite"),
    ("finite", "restrict_to_objects", "finite"),
    ("finite", "check_strict_isomorphism", "finite"),
    ("jsonio", "load_groupoid", "jsonio"),
    ("jsonio", "load_weights", "jsonio"),
    ("jsonio", "load_bibundle", "jsonio"),
    ("morita", "validate_bibundle", "morita"),
    ("morita", "linking_groupoid", "morita"),
    ("morita", "transfer_section", "morita"),
    ("morita", "morita_volume_check", "morita"),
    ("morita", "extend_invariant_section", "morita"),
    ("smooth", "stack_volume", "smooth"),
    ("smooth", "fiber_integral", "smooth"),
    ("quadrature", "integrate_1d", "quadrature"),
    ("quadrature", "integrate_box", "quadrature"),
    ("quadrature", "integrate_mc", "quadrature"),
    ("su2", "su2_cartan", "su2"),
    ("su2", "weyl_integration_check", "su2"),
    ("su2", "chamber_parameters", "su2"),
    ("su2", "adjoint_orbit_density", "su2"),
    ("cli", "main", "cli"),
)

LAYERS = ("finite", "jsonio", "morita", "smooth", "quadrature", "su2", "cli", "bench")


def _count_fiber_terms(tracer, args, kwargs):
    # the fiber sum adds one term per arrow: every arrow lies in one r-fiber
    tracer.count("fiber_terms", args[0].arrow_count)


def _count_validated_arrows(tracer, args, kwargs):
    tracer.count("validated_arrows", args[0].arrow_count)


def _count_bytes_read(tracer, args, kwargs):
    tracer.count("bytes_read", os.path.getsize(args[0]))


def _count_mc_samples(tracer, args, kwargs):
    tracer.count("mc_samples", len(args[0]))


COUNTERS = {
    "fiber_volume": _count_fiber_terms,
    "validate": _count_validated_arrows,
    "load_groupoid": _count_bytes_read,
    "load_weights": _count_bytes_read,
    "load_bibundle": _count_bytes_read,
    "chamber_parameters": _count_mc_samples,
}


class Tracer:
    """In-memory span recorder; :meth:`install` rebinds, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op, outermost]
        self.counts = defaultdict(Counter)  # op -> counter
        self.op = None
        self._stack = []
        self._depth = Counter()
        self._restore = []

    # -- recording ----------------------------------------------------

    def count(self, key, amount=1):
        self.counts[self.op][key] += amount

    def open(self, name, layer):
        parent = self.current()
        idx = len(self.spans)
        outermost = self._depth[name] == 0
        self._depth[name] += 1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op, outermost])
        self._stack.append(idx)
        return idx

    def current(self):
        """Index of the innermost open span, or -1."""
        return self._stack[-1] if self._stack else -1

    def close(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        self._stack.pop()
        self._depth[span[0]] -= 1

    def wrap(self, name, layer, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, args, kwargs)
            idx = self.open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def adopt(self, spans, counts, parent):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for name, layer, start, end, p, _op, outermost in spans:
            self.spans.append([name, layer, start, end, parent if p < 0 else base + p,
                               self.op, outermost])
        self.counts[self.op].update(counts)

    # -- rebinding ----------------------------------------------------

    def install(self):
        """Rebind every function in WRAPPED wherever a stackvol module holds it."""
        import stackvol  # noqa: F401  (loads every engine module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stackvol" or n.startswith("stackvol."))]
        for mod_name, fn_name, layer in WRAPPED:
            owner = sys.modules.get(f"stackvol.{mod_name}")
            if owner is None:
                continue
            original = getattr(owner, fn_name)
            wrapper = self.wrap(fn_name, layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def export(self):
        """Spans and counts of the current process, for a parent to adopt."""
        return {"spans": self.spans, "counts": dict(self.counts[self.op])}


def self_times(spans):
    """Per-span self time: duration minus the time covered by direct children."""
    covered = [0.0] * len(spans)
    for name, layer, start, end, parent, op, outermost in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[3] - s[2]) - covered[i] for i, s in enumerate(spans)]
