"""Per-layer metrics computed from one traced pass.

Times are seconds per operation and counts are per operation, averaged
over the operations of the kinds a metric names (all operations when it
names none).  Inclusive times (``*_s`` of a function) count only the
outermost call of that function; ``<layer>.self_s`` sums span durations
minus their children, so the self times of all layers add up to the
traced operation time.  Which end-to-end metric each one should move is
recorded in perfbench/README.md.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from tracing import LAYERS, self_times

VOLUME_KINDS = ("volume", "smooth")


def _incl(*names, kinds=None):
    return ("incl", names, kinds)


def _calls(name, kinds=None):
    return ("calls", (name,), kinds)


def _count(key, kinds=None):
    return ("count", (key,), kinds)


# metric -> source; units and directions are in BENCHMARK.json.  The
# runner fills in the other per-layer metrics there from outside the
# traced pass.
TRACED = {
    "finite.fiber_volume_s": _incl("fiber_volume"),
    "finite.orbit_volume_s": _incl("orbit_volume"),
    "finite.orbits_s": _incl("orbits"),
    "finite.fiber_terms": _count("fiber_terms"),
    "finite.validate_s": _incl("validate"),
    "finite.validate_calls": _calls("validate"),
    "finite.validated_arrows": _count("validated_arrows"),
    "jsonio.load_s": _incl("load_groupoid", "load_weights", "load_bibundle"),
    "jsonio.bytes_read": _count("bytes_read"),
    "morita.volume_check_s": _incl("morita_volume_check"),
    "morita.linking_groupoid_s": _incl("linking_groupoid"),
    "morita.transfer_section_s": _incl("transfer_section"),
    "morita.validate_bibundle_s": _incl("validate_bibundle"),
    "morita.validate_bibundle_calls": _calls("validate_bibundle", kinds=("morita",)),
    "smooth.stack_volume_s": _incl("stack_volume", kinds=VOLUME_KINDS),
    "smooth.finite_actions_s": _incl("stack_volume", kinds=("actions",)),
    "quadrature.integrate_mc_s": _incl("integrate_mc", kinds=("weyl",)),
    "smooth.reported_evals": _count("reported_evals", kinds=("volume",)),
    "smooth.density_calls": _count("density_calls", kinds=("volume",)),
    "su2.chamber_s": _incl("chamber_parameters", kinds=("weyl",)),
    "su2.mc_samples": _count("mc_samples", kinds=("weyl",)),
}


def tail(values):
    """Highest percentile with at least ten samples above it, and the sample count.

    With fewer than eleven samples no such percentile exists and the
    maximum is reported; the count shows which case applies.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0
    return ordered[max(0, len(ordered) - 11)], len(ordered)


def traced_metrics(spans, counts, op_kinds):
    """Every TRACED metric plus layer self times from one pass of spans."""
    incl = defaultdict(Counter)
    calls = defaultdict(Counter)
    layer_self = defaultdict(Counter)
    for span, own in zip(spans, self_times(spans)):
        name, layer, start, end, _parent, op, outermost = span
        calls[op][name] += 1
        if outermost:
            incl[op][name] += end - start
        layer_self[op][layer] += own

    def per_op(table, keys, kinds):
        ops = [i for i, k in enumerate(op_kinds) if kinds is None or k in kinds]
        if not ops:
            return 0.0
        return sum(table[i][key] for i in ops for key in keys) / len(ops)

    sources = {"incl": incl, "calls": calls, "count": counts}
    out = {}
    for name, (source, keys, kinds) in TRACED.items():
        out[name] = per_op(sources[source], keys, kinds)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_op(layer_self, (layer,), None)
    evals = out["smooth.reported_evals"]
    out["smooth.density_calls_per_eval"] = out["smooth.density_calls"] / evals if evals else 0.0
    out["trace.spans_per_op"] = len(spans) / len(op_kinds) if op_kinds else 0.0
    return out


def overhead_pct(untraced, traced):
    """Traced time over the untraced time expected for the same op kinds, in percent."""
    by_kind = defaultdict(list)
    for kind, _pos, seconds, *_ in untraced:
        by_kind[kind].append(seconds)
    mean = {k: statistics.fmean(v) for k, v in by_kind.items()}
    expected = sum(mean[kind] for kind, *_ in traced if kind in mean)
    actual = sum(s for kind, _p, s, *_ in traced if kind in mean)
    return 100.0 * (actual - expected) / expected if expected else 0.0
