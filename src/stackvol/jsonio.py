"""JSON interchange for groupoids, weights, and bibundles.

Wire format keeps every id a string.  Loading is strict: missing or
ill-typed fields raise SchemaError with the offending location, while
axiom-level problems are left to the validators so that the command
line can distinguish malformed files (exit 3) from invalid mathematics
(exit 1).  Dumps are deterministic, one line of JSON with sorted keys:
ids are emitted in sorted order, a groupoid with any non-string id has
all its objects and arrows renamed o0, o1, ... / a0, a1, ... by sorted
repr, and bibundle elements are renamed b0, b1, ... likewise.  Compose
rows are emitted in name order as they are made, never sorted as a list.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .errors import SchemaError, bounded_exponent
from .finite import FiniteGroupoid, WeightData

_COMPOSE_DUMP_CAP = 2_000_000


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise SchemaError(f"{where}: {message}")


def _as_str_id(value, where: str) -> str:
    _require(isinstance(value, str), where, f"expected a string id, got {value!r}")
    return value


def _all_str(values) -> bool:
    """Whether every value is a str, at C speed.  Input failing this screen
    is walked entry by entry, so its error names the first bad entry."""
    return set(map(type, values)) <= {str}


def _str_ids(raw: list, where: str) -> list:
    return list(raw) if _all_str(raw) else [_as_str_id(x, where) for x in raw]


def _str_map(raw, where: str) -> dict:
    _require(isinstance(raw, dict), where, "must be an object")
    if _all_str(chain(raw, raw.values())):
        return dict(raw)
    return {_as_str_id(k, where): _as_str_id(v, f"{where}[{k!r}]") for k, v in raw.items()}


def _pair_table(raw, where: str, shape: str, pair: str) -> dict:
    """A list of [u, v, result] triples as {(u, v): result}; a pair may occur once."""
    _require(isinstance(raw, list), where, "must be a list")
    if (set(map(type, raw)) <= {list} and set(map(len, raw)) <= {3}
            and _all_str(chain.from_iterable(raw))
            and len(table := {(u, v): res for u, v, res in raw}) == len(raw)):
        return table
    table = {}
    for i, triple in enumerate(raw):
        at = f"{where}[{i}]"
        _require(isinstance(triple, list) and len(triple) == 3, at, f"must be a {shape} triple")
        u, v, res = (_as_str_id(t, at) for t in triple)
        _require((u, v) not in table, at, f"duplicate {pair} ({u!r}, {v!r})")
        table[(u, v)] = res
    return table


def _arrow_table(raw) -> dict:
    """A list of {"id", "l", "r"} objects as {id: (l, r)}; an id may occur once."""
    _require(isinstance(raw, list), "groupoid.arrows", "must be a list")
    if set(map(type, raw)) <= {dict} and all(map({"id", "l", "r"}.issubset, raw)):
        rows = list(map(itemgetter("id", "l", "r"), raw))
        if (_all_str(chain.from_iterable(rows))
                and len(table := {a: (lo, ro) for a, lo, ro in rows}) == len(rows)):
            return table
    table = {}
    for i, entry in enumerate(raw):
        where = f"groupoid.arrows[{i}]"
        _require(isinstance(entry, dict), where, "must be an object")
        for key in ("id", "l", "r"):
            _require(key in entry, where, f"missing field {key!r}")
        aid = _as_str_id(entry["id"], where + ".id")
        _require(aid not in table, where, f"duplicate arrow id {aid!r}")
        table[aid] = (_as_str_id(entry["l"], where + ".l"), _as_str_id(entry["r"], where + ".r"))
    return table


def _write_json(path, obj):
    # compact and sorted, the form ``finite generate`` prints; json.dumps
    # without indent runs in the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            # JSONDecodeError, and numbers past the integer-digit limit
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply to read") from None


# ---------------------------------------------------------------------------
# groupoids


def groupoid_from_dict(data: dict) -> FiniteGroupoid:
    _require(isinstance(data, dict), "groupoid", "top level must be an object")
    for key in ("objects", "arrows", "identity", "inverse", "compose"):
        _require(key in data, "groupoid", f"missing field {key!r}")
    objects = data["objects"]
    _require(isinstance(objects, list), "groupoid.objects", "must be a list")
    objects = _str_ids(objects, "groupoid.objects")
    arrow_table = _arrow_table(data["arrows"])

    identity = _str_map(data["identity"], "groupoid.identity")
    inverse = _str_map(data["inverse"], "groupoid.inverse")
    table = _pair_table(data["compose"], "groupoid.compose", "[g, h, gh]", "pair")
    try:
        return FiniteGroupoid(objects, arrow_table, identity, inverse, table)
    except ValueError as exc:
        raise SchemaError(f"groupoid: inconsistent tables: {exc}") from None


def _renaming(g: FiniteGroupoid):
    """Deterministic string names for objects and arrows, memoized on g for every writer."""
    if g._names is None:
        if all(isinstance(x, str) for x in chain(g.objects, g.arrow_ids)):
            g._names = {x: x for x in g.objects}, {a: a for a in g.arrow_ids}
        else:
            g._names = ({x: f"o{i}" for i, x in enumerate(sorted(g.objects, key=repr))},
                        {a: f"a{i}" for i, a in enumerate(sorted(g.arrow_ids, key=repr))})
    return g._names


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    """The wire form of g.  Each arrow p, in name order, meets the arrows out of r(p) in
    name order, so the compose rows come out sorted with no sort of the whole list."""
    # the composable pairs through y number in(y) * out(y), known before any arrow table
    into, out = Counter(), Counter()
    for (x, y), m in g.pair_counts().items():
        out[x] += m
        into[y] += m
    if (pair_count := sum(into[y] * out[y] for y in into)) > _COMPOSE_DUMP_CAP:
        raise SchemaError(f"compose table with {pair_count} entries exceeds the dump cap")
    obj_map, arrow_map = _renaming(g)
    ends, identity, inverse = g._built()
    named = sorted(arrow_map.items(), key=itemgetter(1))
    out_of = {x: [] for x in g.objects}
    for a, name in named:
        out_of[ends[a][0]].append((a, name))
    product = g._product
    return {
        "objects": sorted(obj_map.values()),
        "arrows": [{"id": name, "l": obj_map[ends[a][0]], "r": obj_map[ends[a][1]]}
                   for a, name in named],
        "identity": {obj_map[x]: arrow_map[a] for x, a in identity.items()},
        "inverse": {arrow_map[a]: arrow_map[b] for a, b in inverse.items()},
        "compose": [[pn, qn, arrow_map[product(p, q)]]
                    for p, pn in named for q, qn in out_of[ends[p][1]]],
    }


def load_groupoid(path) -> FiniteGroupoid:
    return groupoid_from_dict(_read_json(path))


def dump_groupoid(g: FiniteGroupoid, path):
    _write_json(path, groupoid_to_dict(g))


# ---------------------------------------------------------------------------
# weights


def _parse_weight(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(f"{where}: booleans are not weights")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(bounded_exponent(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: not a rational: {value!r} ({exc})") from None
    raise SchemaError(
        f"{where}: weights must be rational strings like \"3/4\" or integers, got {value!r}"
    )


def weights_from_dict(data: dict) -> WeightData:
    _require(isinstance(data, dict), "weights", "top level must be an object")
    for key in ("a", "b"):
        _require(key in data, "weights", f"missing field {key!r}")
        _require(isinstance(data[key], dict), f"weights.{key}", "must be an object")
    a = {k: _parse_weight(v, f"weights.a[{k!r}]") for k, v in data["a"].items()}
    b = {k: _parse_weight(v, f"weights.b[{k!r}]") for k, v in data["b"].items()}
    return WeightData(a, b)


def weights_to_dict(w: WeightData, rename=None) -> dict:
    obj_map = rename if rename is not None else {x: x for x in w.a}
    for x in w.a:
        if not isinstance(obj_map[x], str):
            raise SchemaError("weight keys must rename to strings for dumping")
    return {"a": {obj_map[x]: str(v) for x, v in w.a.items()},
            "b": {obj_map[x]: str(v) for x, v in w.b.items()}}


def load_weights(path) -> WeightData:
    return weights_from_dict(_read_json(path))


def dump_weights(w: WeightData, path, rename=None):
    _write_json(path, weights_to_dict(w, rename))


# ---------------------------------------------------------------------------
# bibundles


def bibundle_from_dict(data: dict) -> Bibundle:
    from .morita import Bibundle  # only bibundle files need the Morita module

    _require(isinstance(data, dict), "bibundle", "top level must be an object")
    for key in ("elements", "leftAnchor", "rightAnchor", "leftAction", "rightAction"):
        _require(key in data, "bibundle", f"missing field {key!r}")
    elements = data["elements"]
    _require(isinstance(elements, list), "bibundle.elements", "must be a list")
    elements = _str_ids(elements, "bibundle.elements")

    left_anchor, right_anchor = (_str_map(data[key], f"bibundle.{key}")
                                 for key in ("leftAnchor", "rightAnchor"))
    left_action, right_action = (
        _pair_table(data[key], f"bibundle.{key}", "[first, second, result]", "action pair")
        for key in ("leftAction", "rightAction"))
    try:
        return Bibundle(elements, left_anchor, right_anchor, left_action, right_action)
    except ValueError as exc:
        raise SchemaError(f"bibundle: inconsistent tables: {exc}") from None


def bibundle_to_dict(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle) -> dict:
    """Serialize the bibundle's anchors and action tables, renamed and sorted.

    Objects and arrows get the names :func:`groupoid_to_dict` gives them,
    so the dumped triple loads back consistently.  Elements keep their
    ids when all are strings and are renamed b0, b1, ... otherwise.
    """
    if (bad := bib.foreign_entry()) is not None:
        raise SchemaError(f"bibundle: action entry {bad[0]!r} -> {bad[1]!r} names a non-element")
    obj1, a1_map = _renaming(g1)
    obj2, a2_map = _renaming(g2)
    for side, objs, arrows, anchor, table, i in (
            ("left", obj1, a1_map, bib.left_anchor, bib.left_action, 0),
            ("right", obj2, a2_map, bib.right_anchor, bib.right_action, 1)):
        if bad := next(((e, x) for e, x in anchor.items() if x not in objs), None):
            raise SchemaError(f"bibundle: {side} anchor {bad[0]!r} -> {bad[1]!r} names a non-object")
        if bad := next((e for e in table.items() if e[0][i] not in arrows), None):
            raise SchemaError(f"bibundle: {side} action entry {bad[0]!r} -> {bad[1]!r} names a non-arrow")
    elem_map = ({e: e for e in bib.elements} if all(isinstance(e, str) for e in bib.elements)
                else {e: f"b{i}" for i, e in enumerate(sorted(bib.elements, key=repr))})
    return {
        "elements": sorted(elem_map.values()),
        "leftAnchor": {elem_map[e]: obj1[x] for e, x in bib.left_anchor.items()},
        "rightAnchor": {elem_map[e]: obj2[y] for e, y in bib.right_anchor.items()},
        "leftAction": sorted([a1_map[g], elem_map[b], elem_map[c]]
                             for (g, b), c in bib.left_action.items()),
        "rightAction": sorted([elem_map[b], a2_map[h], elem_map[c]]
                              for (b, h), c in bib.right_action.items()),
    }


def load_bibundle(path) -> Bibundle:
    return bibundle_from_dict(_read_json(path))


def dump_bibundle(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle, path):
    _write_json(path, bibundle_to_dict(g1, g2, bib))
