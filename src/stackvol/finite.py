"""Finite groupoids and their exact stack volumes.

A finite groupoid is stored as explicit tables: objects, arrows with a
left and right object, an identity arrow per object, an inverse per
arrow, and a partial composition.  Arrows compose left to right:
``compose(g, h)`` is defined exactly when ``r(g) == l(h)``, and then
``l(gh) == l(g)`` and ``r(gh) == r(h)``.

All volume computations on this side are exact over the rationals.  The
two routes, the fiber formula (sum over objects of the reciprocal weight
mass of each r-fiber) and the orbit formula (sum over orbits of the
section value divided by the isotropy order), agree whenever the section
b/a is constant on orbits; the test suite leans on that identity heavily.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from contextlib import suppress
from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd, lcm
from types import MappingProxyType

from .errors import DegenerateWeightError, ValidationFailure, ValidationReport
from .groups import FiniteGroup, finite_sets_cardinality, group_zoo


class UndefinedComposition(KeyError):
    """Raised by a groupoid's composition on a non-composable or refused pair."""


class InvalidGroupoidError(ValidationFailure):
    """A groupoid table breaks one of the axioms."""


class InvalidActionError(ValidationFailure):
    """A claimed group action fails the identity or compatibility law."""


class NonInvariantSectionError(ValidationFailure):
    """The section b/a takes different values inside one orbit."""


class UnknownOrbitError(ValidationFailure):
    """An orbit identifier does not name any orbit of the groupoid."""


# ---------------------------------------------------------------------------
# groupoid type


class FiniteGroupoid:
    """Finite groupoid with table-backed or closure-backed composition.

    ``compose`` may be a dict of exactly the composable pairs or a product
    rule ``(g, h) -> gh``.  :meth:`compose` alone decides composability: for
    a product rule it raises :class:`UndefinedComposition` unless g and h
    are arrows with r(g) == l(h), so the rule is only ever called on
    composable pairs; it may still raise :class:`UndefinedComposition` to
    refuse one, which :func:`validate` reports as a missing composition.
    Groupoids built in code, linking groupoids among them, use product
    rules so that no quadratic table has to be materialized; JSON-loaded
    groupoids keep an explicit table.  Inconsistent tables raise
    ValueError naming the first bad entry; the tables never change, so
    :meth:`pair_counts` and its derivatives are memoized.  ``deferred``, as
    :func:`block_union` gives it, is ``(build, pair_counts, arrow_count)``: the
    arrow, identity and inverse tables stay ``None`` until a reader calls
    :meth:`_built`, which fills them from ``build()`` and checks them once.
    """

    def __init__(self, objects, arrows, identity, inverse, compose, *, deferred=None):
        self._objects = tuple(objects)
        self._object_set = frozenset(self._objects)
        if len(self._object_set) != len(self._objects):
            raise ValueError("duplicate object ids")
        self._arrows = self._identity = self._inverse = None
        self._build, self._pair_counts, self._arrow_count = deferred or (None, None, None)
        if deferred is None:  # arrows maps an arrow id to (l, r)
            self._arrows, self._identity, self._inverse = dict(arrows), dict(identity), dict(inverse)
            self._arrow_count = len(self._arrows)
            self._check_structure()
        if isinstance(compose, dict):
            self._compose_table = dict(compose)
            self._product = self._table_rule(self._compose_table)
        else:
            self._compose_table = None
            self._product = compose
        self._by_l = self._by_r = None
        self._orbit_cache = self._fiber_index = self._validation = self._gens = None

    def _built(self):
        """The arrow, identity and inverse tables, built and checked on first use."""
        if self._arrows is None:
            self._arrows, self._identity, self._inverse = self._build()
            self._check_structure()
        return self._arrows, self._identity, self._inverse

    def _check_structure(self):
        with suppress(TypeError):  # C-speed screen; a table failing it is walked below
            if (set(map(len, self._arrows.values())) <= {2}
                    and self._object_set.issuperset(chain.from_iterable(self._arrows.values()))
                    and self._identity.keys() == self._object_set
                    and self._inverse.keys() == self._arrows.keys()
                    and all(map(self._arrows.__contains__,
                                chain(self._identity.values(), self._inverse.values())))):
                return
        for aid, (lo, ro) in self._arrows.items():
            if lo not in self._object_set or ro not in self._object_set:
                raise ValueError(f"arrow {aid!r} references unknown objects {(lo, ro)!r}")
        if set(self._identity) != self._object_set:
            raise ValueError("identity table must cover exactly the objects")
        for x, aid in self._identity.items():
            if aid not in self._arrows:
                raise ValueError(f"identity of {x!r} is not an arrow")
        if set(self._inverse) != set(self._arrows):
            raise ValueError("inverse table must cover exactly the arrows")
        for aid, bid in self._inverse.items():
            if bid not in self._arrows:
                raise ValueError(f"inverse of {aid!r} is not an arrow")

    @staticmethod
    def _table_rule(table):
        """A product rule that holds only ``table``; a miss is an undefined pair."""
        def product(g, h):
            try:
                return table[(g, h)]
            except KeyError:
                raise UndefinedComposition((g, h)) from None

        return product

    # -- basic queries ------------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._objects

    @property
    def arrow_ids(self):
        return (self._arrows or self._built()[0]).keys()

    @property
    def arrow_count(self) -> int:
        return self._arrow_count

    def has_object(self, x) -> bool:
        return x in self._object_set

    def l(self, g):
        return (self._arrows or self._built()[0])[g][0]

    def r(self, g):
        return (self._arrows or self._built()[0])[g][1]

    def identity(self, x):
        return (self._identity or self._built()[1])[x]

    def inverse(self, g):
        return (self._inverse or self._built()[2])[g]

    def compose(self, g, h):
        """The composite gh; :class:`UndefinedComposition` unless r(g) == l(h) for arrows g, h."""
        if self._compose_table is None:
            ends = self._arrows or self._built()[0]
            if g not in ends or h not in ends or ends[g][1] != ends[h][0]:
                raise UndefinedComposition((g, h))
        return self._product(g, h)

    def _build_indexes(self):
        by_l = {x: [] for x in self._objects}
        by_r = {x: [] for x in self._objects}
        for aid, (lo, ro) in self._built()[0].items():
            by_l[lo].append(aid)
            by_r[ro].append(aid)
        self._by_l = by_l
        self._by_r = by_r

    def arrows_from(self, x):
        """All arrows g with l(g) == x."""
        if self._by_l is None:
            self._build_indexes()
        return self._by_l[x]

    def arrows_into(self, y):
        """All arrows g with r(g) == y, the r-fiber over y."""
        if self._by_r is None:
            self._build_indexes()
        return self._by_r[y]

    def pair_counts(self):
        """Memoized read-only |Hom(x, y)| by endpoint pair, in first-arrow order."""
        if self._pair_counts is None:
            self._pair_counts = MappingProxyType(Counter(self._arrows.values()))
        return self._pair_counts

    def fiber_index(self) -> tuple:
        """Hom-set sizes over every r-fiber, built once and memoized.

        One entry ``(y, ((x, |Hom(x, y)|), ...))`` per object y, in
        ``objects`` order, listing each source object x of the r-fiber of
        y once with its multiplicity: :meth:`pair_counts` grouped by r.
        Equal rows are one tuple object, so :func:`fiber_volume` computes
        one mass per distinct hom-count row; the fibers of one orbit share
        theirs whenever their pairs come in the same order.
        """
        if self._fiber_index is None:
            sources = {y: [] for y in self._objects}
            for (x, y), m in self.pair_counts().items():
                sources[y].append((x, m))
            rows, index = {}, []
            for y, xs in sources.items():
                row = tuple(xs)
                index.append((y, rows.setdefault(row, row)))
            self._fiber_index = tuple(index)
        return self._fiber_index

    def __repr__(self):
        return f"FiniteGroupoid({len(self._objects)} objects, {self._arrow_count} arrows)"


# ---------------------------------------------------------------------------
# constructors


def empty_groupoid() -> FiniteGroupoid:
    return FiniteGroupoid((), {}, {}, {}, {})


def _block_tables(pts, objs, group: FiniteGroup):
    """Keys, endpoints, identity and inverse positions of the block pts x pts x group.

    ``keys[(i*n + j)*k + e]`` is ``(pts[i], pts[j], els[e])`` from ``objs[i]`` to
    ``objs[j]``; its inverse is at ``(j*n + i)*k + inv_at[e]``.
    """
    els = group.elements
    n, k = len(pts), len(els)
    e, inv_at = els.index(group.identity), [els.index(group.inv(gam)) for gam in els]
    step = n * k  # from the pair (i, j) to (i, j + 1) is k keys, to (i + 1, j) is n*k
    return ([(x, y, gam) for x in pts for y in pts for gam in els],
            [xy for xy in product(objs, objs) for _ in els],  # one endpoint tuple per pair
            [(i * n + i) * k + e for i in range(n)],
            [b + f for ik in range(0, step, k) for b in range(ik, n * step, step) for f in inv_at])


def block_groupoid(points, group: FiniteGroup) -> FiniteGroupoid:
    """Pair groupoid on ``points`` crossed with ``group``.

    Arrows are triples (x, y, gamma) with l = x and r = y, and
    (x, y, g)(y, z, h) = (x, z, gh).  Every finite groupoid is a disjoint
    union of such blocks up to isomorphism; :func:`block_union` builds one.
    """
    pts = tuple(points)
    keys, ends, ident, inv = _block_tables(pts, pts, group)
    mult = group.mult
    return FiniteGroupoid(pts, dict(zip(keys, ends)), dict(zip(pts, map(keys.__getitem__, ident))),
                          dict(zip(keys, map(keys.__getitem__, inv))),
                          lambda g, h: (g[0], h[1], mult(g[2], h[2])))


def block_union(specs) -> FiniteGroupoid:
    """The union of blocks ``block_groupoid(p, g)``, objects (i, x), arrows (i, (x, y, gamma)).

    The objects, the duplicate-point check and the pair counts (n*n pairs of
    count |G| per block) come from the specs at once.  The arrow, identity and
    inverse tables, with the order and ids of a union of separately built
    blocks, are built on first use; the fiber and orbit sums never need them.
    """
    blocks, objects, pairs = [], [], {}
    for i, (points, group) in enumerate(specs):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points")
        objs = [(i, x) for x in pts]
        blocks.append((pts, objs, group))
        objects += objs
        pairs.update(zip(product(objs, objs), repeat(group.order)))

    def tables():
        arrows, identity, inverse = {}, {}, {}
        for i, (pts, objs, group) in enumerate(blocks):
            keys, ends, ident, inv = _block_tables(pts, objs, group)
            keys = list(zip(repeat(i), keys))
            arrows.update(zip(keys, ends))
            identity.update(zip(objs, map(keys.__getitem__, ident)))
            inverse.update(zip(keys, map(keys.__getitem__, inv)))
        return arrows, identity, inverse

    mults = [group.mult for _, _, group in blocks]
    return FiniteGroupoid(objects, None, None, None,
                          lambda a, b: (a[0], (a[1][0], b[1][1], mults[a[0]](a[1][2], b[1][2]))),
                          deferred=(tables, MappingProxyType(Counter(pairs)), sum(pairs.values())))


def pair_groupoid(points) -> FiniteGroupoid:
    """Exactly one arrow between any two objects."""
    return block_groupoid(points, FiniteGroup.trivial())


def classifying_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    """One object whose isotropy is the given group (a point modulo the group)."""
    return block_groupoid(("pt",), group)


def action_groupoid(group: FiniteGroup, points, act) -> FiniteGroupoid:
    """Groupoid of a left action: arrows (h, x) with l = act(h, x), r = x.

    The action law is verified up front, a bad ``act`` raises
    :class:`InvalidActionError`.
    """
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    pt_set = set(pts)
    for x in pts:
        if act(group.identity, x) != x:
            raise InvalidActionError(f"identity must act trivially, fails at {x!r}")
    for h in group.elements:
        for x in pts:
            y = act(h, x)
            if y not in pt_set:
                raise InvalidActionError(f"action leaves the point set at {(h, x)!r}")
            for k in group.elements:
                if act(k, y) != act(group.mult(k, h), x):
                    raise InvalidActionError(
                        f"compatibility fails at {(k, h, x)!r}"
                    )

    arrows = {(h, x): (act(h, x), x) for h in group.elements for x in pts}
    identity = {x: (group.identity, x) for x in pts}
    inverse = {(h, x): (group.inv(h), act(h, x)) for (h, x) in arrows}
    mult = group.mult
    return FiniteGroupoid(pts, arrows, identity, inverse,
                          lambda g, h: (mult(g[0], h[0]), h[1]))


def restrict_to_objects(g: FiniteGroupoid, keep) -> FiniteGroupoid:
    """Full subgroupoid on the given objects (no fullness requirement here)."""
    keep_set = set(keep)
    unknown = keep_set - set(g.objects)
    if unknown:
        raise ValueError(f"unknown objects {sorted(map(repr, unknown))}")
    arrows = {aid: ends for aid, ends in g._built()[0].items() if keep_set.issuperset(ends)}
    identity = {x: g.identity(x) for x in keep_set}
    inverse = {aid: g.inverse(aid) for aid in arrows}
    ordered = tuple(x for x in g.objects if x in keep_set)
    return FiniteGroupoid(ordered, arrows, identity, inverse, g._product)


# ---------------------------------------------------------------------------
# validation


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustive axiom check; every violation carries a witness.

    Associativity is decided by Light's test: it is checked only on the
    triples (a, s, c) whose middle arrow s lies in a generating set chosen
    by :func:`_generators`, so an associativity witness always has that
    form.  Given the closure and endpoint checks, the arrows that pass
    for every a and c are closed under composition, so the test is as
    strong as a scan of all composable triples.  Each composable pair is
    composed once, into rows a -> {b: ab} that every check reads; Light's
    test costs two row lookups per generator s, arrow a into l(s) and
    arrow c out of r(s), at worst the full scan.  A table holding more
    pairs than the rows is scanned for spuriously composable pairs.

    The report is memoized on the groupoid, whose tables never change
    after construction; each call returns a fresh copy of it.  The
    generating set is memoized next to it, as ``_gens``: on a valid
    groupoid every arrow is a left-bracketed product of its members,
    which lets :func:`morita.validate_bibundle` check action laws at
    generators only.
    """
    if g._validation is None:
        g._validation = _check_axioms(g)
    return ValidationReport(list(g._validation.violations))


def _check_axioms(g: FiniteGroupoid) -> ValidationReport:
    report = ValidationReport()
    (ends, ident, inv), table = g._built(), g._compose_table
    by_l, by_r = ({x: f(x) for x in g.objects} for f in (g.arrows_from, g.arrows_into))

    # rows[a] = {b: ab} over the composable pairs; a refused pair is absent
    if table is not None:  # the table is its own marker for a miss
        rows = {a: {b: c for b in by_l[ra] if (c := table.get((a, b), table)) is not table}
                for a, (_, ra) in ends.items()}
        composable = sum(map(len, rows.values()))
    else:
        product, rows = g._product, {}
        for a, (_, ra) in ends.items():
            rows[a] = row = {}
            for b in by_l[ra]:
                try:
                    row[b] = product(a, b)
                except KeyError:  # a refused pair
                    pass

    for x in g.objects:
        if ends[ident[x]][0] != x or ends[ident[x]][1] != x:
            report.add("identity endpoints", (x, ident[x]))

    for a, (la, ra) in ends.items():
        b = inv[a]
        if ends[b][0] != ra or ends[b][1] != la:
            report.add("inverse axiom", (a, b), "inverse endpoints do not swap")
        elif b not in rows[a] or a not in rows[b]:
            report.add("inverse axiom", (a, b), "composite with inverse undefined")
        elif rows[a][b] != ident[la] or rows[b][a] != ident[ra]:
            report.add("inverse axiom", (a, b), "composite with inverse is not the identity")

    for a, (la, ra) in ends.items():
        ea, eb = ident[la], ident[ra]
        try:  # a pair made non-composable by a misplaced identity goes to compose
            if ((rows[ea][a] if ends[ea][1] == la else g.compose(ea, a)) != a
                    or (rows[a][eb] if ends[eb][0] == ra else g.compose(a, eb)) != a):
                report.add("identity unit", (a,))
        except KeyError:  # a row miss or UndefinedComposition
            report.add("identity unit", (a,), "unit composite undefined")

    for a, row in rows.items():
        la, ra = ends[a]
        for b in by_l[ra]:
            if (c := row.get(b, row)) is row:
                report.add("missing composition", (a, b))
            elif (ec := ends.get(c)) is None:
                report.add("composition closure", (a, b, c), "composite is not an arrow")
                del row[b]
            elif ec[0] != la or ec[1] != ends[b][1]:
                report.add("composition endpoints", (a, b, c))

    if table is not None and len(table) != composable:
        for (a, b) in table:
            if a not in ends or b not in ends or ends[a][1] != ends[b][0]:
                report.add("spurious composition", (a, b))

    g._gens = _generators(g, rows)
    for s in g._gens:
        s_row = rows[s]  # pairs missing from the rows are already reported
        for a in by_r[ends[s][0]]:
            a_row = rows[a]
            if (a_s := a_row.get(s)) is not None:
                as_row = rows[a_s]
                for c, sc in s_row.items():
                    if (left := as_row.get(c)) is not None and left != a_row.get(sc):
                        report.add("associativity", (a, s, c))

    return report


def _generators(g: FiniteGroupoid, rows: dict) -> list:
    """A generating set for Light's associativity test, in arrow order.

    One greedy pass: an arrow that is not yet a left-bracketed product
    ``(..((s1 s2) s3)..) sk`` of earlier generators becomes a generator,
    and the set of reached products is extended by right multiplication
    with every generator.  ``rows`` maps each arrow a to ``{b: ab}`` over
    its composable pairs, every composite an arrow; a pair missing from
    its row extends nothing.
    """
    ends = g._arrows
    gens = []
    gens_from = {}  # object x -> generators s with l(s) == x
    reached = set()
    reached_into = {}  # object y -> reached products p with r(p) == y
    for a, (la, _) in ends.items():
        if a in reached:
            continue
        gens.append(a)
        gens_from.setdefault(la, []).append(a)
        frontier = [a]
        for p in reached_into.get(la, ()):
            pa = rows[p].get(a)
            if pa is not None:
                frontier.append(pa)
        while frontier:
            p = frontier.pop()
            if p in reached:
                continue
            reached.add(p)
            reached_into.setdefault(ends[p][1], []).append(p)
            for s in gens_from.get(ends[p][1], ()):
                ps = rows[p].get(s)
                if ps is not None and ps not in reached:
                    frontier.append(ps)
    return gens


# ---------------------------------------------------------------------------
# orbits and volumes


Orbit = namedtuple("Orbit", "representative objects isotropy_order")


class OrbitDecomposition:
    """Orbits of a groupoid, each tagged by a deterministic representative."""

    def __init__(self, orbits):
        self.orbits = tuple(orbits)
        self._of_object = {}
        self.by_representative = {}
        for orb in self.orbits:
            self.by_representative[orb.representative] = orb
            for x in orb.objects:
                self._of_object[x] = orb

    def find(self, x) -> Orbit:
        return self._of_object[x]

    def __iter__(self):
        return iter(self.orbits)

    def __len__(self):
        return len(self.orbits)


def orbits(g: FiniteGroupoid) -> OrbitDecomposition:
    """Connected components of the object set under arrows.

    Union-find runs over the distinct pairs of :meth:`FiniteGroupoid.pair_counts`,
    and an orbit's isotropy order is |Hom(x, x)| at its representative x.
    The decomposition is memoized on the groupoid, whose tables never change.
    """
    if g._orbit_cache is not None:
        return g._orbit_cache
    counts = g.pair_counts()
    parent = {x: x for x in g.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for lo, ro in counts:
        a, b = find(lo), find(ro)
        if a != b:
            parent[a] = b

    groups = {}
    for x in g.objects:
        groups.setdefault(find(x), []).append(x)

    orbit_list = []
    for members in groups.values():
        rep = min(members, key=repr)
        orbit_list.append(Orbit(rep, frozenset(members), counts[(rep, rep)]))
    orbit_list.sort(key=lambda o: repr(o.representative))
    g._orbit_cache = OrbitDecomposition(orbit_list)
    return g._orbit_cache


def _fraction_sum(terms) -> Fraction:
    """The exact sum of the quotients p/q of the int pairs ``(p, q)``, q nonzero.

    The running sum is kept as ``top / bottom`` over the lcm of the
    denominators seen so far, so no term is normalized: one gcd in the
    final ``Fraction`` reduces the whole sum.  An empty sum is 0.
    """
    top, bottom = 0, 1
    for p, q in terms:
        c = gcd(bottom, q)
        top = top * (q // c) + p * (bottom // c)
        bottom *= q // c
    return Fraction(top, bottom)


def cardinality(g: FiniteGroupoid) -> Fraction:
    """Sum over orbits of the reciprocal isotropy order; an empty groupoid counts 0."""
    return _fraction_sum((1, o.isotropy_order) for o in orbits(g))


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"weights must be rational, got {type(v).__name__}")


class WeightData:
    """A pair of rational weights on the objects of a groupoid.

    ``a`` is the fiber weight (summed along r-fibers through the left
    object of each arrow) and must be nowhere zero; ``b`` is the base
    weight integrated against the reciprocal fiber mass.  The quotient
    b/a is the transferable datum: volumes depend only on it when it is
    constant on orbits.
    """

    def __init__(self, a, b):
        self.a = {x: _as_fraction(v) for x, v in dict(a).items()}
        self.b = {x: _as_fraction(v) for x, v in dict(b).items()}
        for x, v in self.a.items():
            if v == 0:
                raise DegenerateWeightError(f"fiber weight a vanishes at object {x!r}")

    def ratio(self, x) -> Fraction:
        """The section value b(x)/a(x)."""
        return self.b[x] / self.a[x]

    def rescaled(self, factor_map) -> "WeightData":
        """Multiply both weights by the same nowhere-zero rational function."""
        a = {x: v * _as_fraction(factor_map[x]) for x, v in self.a.items()}
        b = {x: v * _as_fraction(factor_map[x]) for x, v in self.b.items()}
        return WeightData(a, b)


def unit_weights(g: FiniteGroupoid) -> WeightData:
    return WeightData({x: 1 for x in g.objects}, {x: 1 for x in g.objects})


def _require_coverage(g: FiniteGroupoid, w: WeightData):
    if w.a.keys() >= g._object_set and w.b.keys() >= g._object_set:
        return
    for x in g.objects:  # only on a miss, to name the first missing object
        if x not in w.a or x not in w.b:
            raise ValidationFailure(f"weights missing object {x!r}")


def fiber_volume(g: FiniteGroupoid, w: WeightData) -> Fraction:
    """Exact volume by the fiber formula.

    For each object y, the arrows with r = y are weighted by a at their
    left object; the volume is the sum of b(y) over the reciprocal of
    that fiber mass.  The mass depends on the arrows only through the
    hom-set sizes, so it is read off the groupoid's memoized
    :meth:`FiniteGroupoid.fiber_index`, once per distinct hom-count row:
    the index holds equal rows as one object, which keys the masses by
    ``id`` (the memoized index keeps every row alive).  With a written over
    one common denominator D, each mass is the integer sum of |Hom(x, y)|
    times the numerator of a(x), and b(y) / (mass / D) is one pair of
    integers per object.  The pairs are summed over the integers, into
    one ``Fraction`` for the whole volume.  A zero fiber mass raises
    :class:`DegenerateWeightError`, naming the first such object.
    """
    _require_coverage(g, w)
    a = {x: w.a[x] for x in g.objects}
    den = lcm(*(v.denominator for v in a.values()))
    num = {x: v.numerator * (den // v.denominator) for x, v in a.items()}
    masses = {}
    terms = []
    for y, sources in g.fiber_index():
        mass = masses.get(id(sources))
        if mass is None:
            mass = masses[id(sources)] = sum([m * num[x] for x, m in sources])
        if mass == 0:
            raise DegenerateWeightError(f"fiber over {y!r} has total weight zero")
        by = w.b[y]
        terms.append((by.numerator * den, by.denominator * mass))
    return _fraction_sum(terms)


def invariant_section(g: FiniteGroupoid, w: WeightData, dec: OrbitDecomposition | None = None) -> dict:
    """The orbit-wise value of b/a; raises when the section is not constant.

    Inside an orbit, b/a is compared with its value at the representative,
    the least member by ``repr``, by integer cross-multiplication, and one
    ``Fraction`` is built per orbit.  Only on a mismatch are the members
    ordered by ``repr``, so that the error names the first one that differs.
    """
    _require_coverage(g, w)
    if dec is None:
        dec = orbits(g)
    a, b = w.a, w.b
    values = {}
    for orb in dec:
        rep = orb.representative
        a0, b0 = a[rep], b[rep]
        top, bottom = b0.numerator * a0.denominator, b0.denominator * a0.numerator
        bad = [x for x in orb.objects if b[x].numerator * a[x].denominator * bottom
               != top * b[x].denominator * a[x].numerator]
        if bad:
            x = min(bad, key=repr)
            raise NonInvariantSectionError(
                f"non-invariant section: b/a takes {w.ratio(rep)} at {rep!r} "
                f"but {w.ratio(x)} at {x!r} on the orbit of {rep!r}"
            )
        values[rep] = Fraction(top, bottom)
    return values


def orbit_volume(g: FiniteGroupoid, w: WeightData) -> Fraction:
    """Exact volume by the orbit formula: sum of (b/a)(orbit)/isotropy order.

    This is the measure of the union of all orbits: the sum runs over the
    integers, one pair per orbit, into one ``Fraction`` for the whole
    volume.
    """
    return orbit_set_measure(g, w, [orb.representative for orb in orbits(g)])


def orbit_set_measure(g: FiniteGroupoid, w: WeightData, orbit_reps) -> Fraction:
    """Measure of a union of orbits, identified by their representatives.

    One integer pair (b/a) / isotropy order per orbit, summed by
    :func:`_fraction_sum`.
    """
    dec = orbits(g)
    section = invariant_section(g, w, dec)
    terms = []
    for rep in set(orbit_reps):
        orb = dec.by_representative.get(rep)
        if orb is None:
            raise UnknownOrbitError(f"no orbit has representative {rep!r}")
        terms.append((section[rep].numerator, section[rep].denominator * orb.isotropy_order))
    return _fraction_sum(terms)


# ---------------------------------------------------------------------------
# generators


MAX_RANDOM_ARROWS = 150_000  # over ten times the 12,800 arrows of 40 points x order 8


def random_groupoid(seed, max_objects: int = 8, max_group_order: int = 6,
                    max_blocks: int = 4) -> FiniteGroupoid:
    """Seed-deterministic :func:`block_union` of blocks ``(range(n), group)``.

    Every isomorphism class of finite groupoid arises this way, and the
    output always satisfies the axioms by construction.  A draw of more
    than :data:`MAX_RANDOM_ARROWS` arrows raises ValueError at once.
    """
    if max_objects < 1 or max_group_order < 1 or max_blocks < 1:
        raise ValueError("size bounds must be >= 1")
    rng = random.Random(seed)
    zoo = group_zoo(max_group_order)
    n_blocks = rng.randint(1, max(1, min(max_blocks, max_objects)))
    per_block = max(1, max_objects // n_blocks)
    sizes = [(rng.randint(1, per_block), rng.choice(zoo)) for _ in range(n_blocks)]
    if (arrows := sum(n * n * group.order for n, group in sizes)) > MAX_RANDOM_ARROWS:
        raise ValueError(f"the random groupoid drawn has {arrows} arrows, "
                         f"over the cap of {MAX_RANDOM_ARROWS}")
    return block_union([(range(n), group) for n, group in sizes])


def random_invariant_weights(g: FiniteGroupoid, seed) -> WeightData:
    """Random weights whose section b/a is constant on every orbit.

    The fiber weight is positive with small denominator so that exact
    arithmetic on large corpora stays cheap.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    dec = orbits(g)
    a = {x: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for x in g.objects}
    section = {orb.representative: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for orb in dec}
    b = {x: a[x] * section[dec.find(x).representative] for x in g.objects}
    return WeightData(a, b)


def random_positive_rescaling(g: FiniteGroupoid, seed) -> dict:
    """A positive rational function on objects, for rescale-invariance checks."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return {x: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for x in g.objects}


# ---------------------------------------------------------------------------
# structural comparison


def check_strict_isomorphism(g1: FiniteGroupoid, g2: FiniteGroupoid,
                             object_map, arrow_map) -> bool:
    """Whether the given bijections carry every table of g1 onto g2."""
    if set(object_map) != set(g1.objects) or set(arrow_map) != set(g1.arrow_ids):
        return False
    if set(object_map.values()) != set(g2.objects):
        return False
    if set(arrow_map.values()) != set(g2.arrow_ids):
        return False
    for aid in g1.arrow_ids:
        img = arrow_map[aid]
        if g2.l(img) != object_map[g1.l(aid)] or g2.r(img) != object_map[g1.r(aid)]:
            return False
        if arrow_map[g1.inverse(aid)] != g2.inverse(img):
            return False
    for x in g1.objects:
        if arrow_map[g1.identity(x)] != g2.identity(object_map[x]):
            return False
    for a in g1.arrow_ids:
        for b in g1.arrows_from(g1.r(a)):
            try:
                expected = arrow_map[g1.compose(a, b)]
                got = g2.compose(arrow_map[a], arrow_map[b])
            except UndefinedComposition:
                return False
            if expected != got:
                return False
    return True
