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
from fractions import Fraction
from itertools import product, repeat
from math import gcd, lcm
from types import MappingProxyType

from .errors import DegenerateWeightError, ValidationFailure, ValidationReport, bounded_exponent
from .groups import FiniteGroup, finite_sets_cardinality, group_zoo


class UndefinedComposition(KeyError):
    """Raised only by :meth:`FiniteGroupoid.compose`: the pair is not composable, or the
    product rule refused it by raising ``KeyError``, as every rule refuses."""


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

    ``compose`` is a product rule ``(g, h) -> gh``, or a dict that becomes
    the rule ``table[g, h]``.  A rule refuses a pair by raising ``KeyError``,
    which :func:`validate` reports as a missing composition.  :meth:`compose`
    checks r(g) == l(h) for every groupoid alike, so a table entry for a
    non-composable pair, which :func:`validate` reports as spurious, is never
    a composite, and only :meth:`compose` raises :class:`UndefinedComposition`.
    Groupoids built in code, linking groupoids among them, use product rules
    so that no quadratic table has to be materialized; JSON-loaded groupoids
    keep an explicit table.  Inconsistent tables raise ValueError naming the
    first bad entry; the tables never change, so
    :meth:`pair_counts` and its derivatives are memoized.  ``deferred``, as
    :func:`block_union` gives it, is ``(build, pair_counts, arrow_count)``: the
    arrow, identity and inverse tables stay ``None`` until a reader calls
    :meth:`_built`, which fills them from ``build()`` and checks them once.
    Readers take endpoints, identities and inverses from those tables,
    ``arrows[g] == (l(g), r(g))``; :meth:`compose` is the one checked
    composition.
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
        if isinstance(compose, dict):  # read by validate's spurious-pair scan
            table = self._compose_table = dict(compose)
            self._product = lambda g, h: table[g, h]
        else:
            self._compose_table, self._product = None, compose
        self._by_l = self._by_r = None
        self._orbit_cache = self._fiber_index = self._validation = self._gens = None
        self._names = None  # the string names of jsonio's dumps

    def _built(self):
        """The arrow, identity and inverse tables, built and checked on first use."""
        if self._arrows is None:
            self._arrows, self._identity, self._inverse = self._build()
            self._check_structure()
        return self._arrows, self._identity, self._inverse

    def _check_structure(self):
        # one walk is the check; it names the first bad entry it meets
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

    def compose(self, g, h):
        """gh for arrows with r(g) == l(h); else, or on the rule's refusal, UndefinedComposition."""
        ends = self._arrows or self._built()[0]
        if g not in ends or h not in ends or ends[g][1] != ends[h][0]:
            raise UndefinedComposition((g, h))
        try:
            return self._product(g, h)
        except KeyError:
            raise UndefinedComposition((g, h)) from None

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
    """Full subgroupoid on the given objects (no fullness requirement here).

    Its tables are read from g's ``_built()`` ones.  A full subgroupoid
    of a groupoid is a groupoid, so an empty memoized report of g is
    memoized for it too, and :func:`validate` never scans it.
    """
    keep_set = set(keep)
    if unknown := keep_set - g._object_set:
        raise ValueError(f"unknown objects {sorted(map(repr, unknown))}")
    ends, ident, inv = g._built()
    arrows = {aid: e for aid, e in ends.items() if keep_set.issuperset(e)}
    identity = {x: ident[x] for x in keep_set}
    inverse = {aid: inv[aid] for aid in arrows}
    ordered = tuple(x for x in g.objects if x in keep_set)
    sub = FiniteGroupoid(ordered, arrows, identity, inverse, g._product)
    if g._validation is not None and g._validation.ok:
        sub._validation = ValidationReport()
    return sub


# ---------------------------------------------------------------------------
# validation


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Exhaustive axiom check; every violation carries a witness.

    Associativity is decided by Light's test: it is checked only on the
    triples (a, s, c) whose middle arrow s lies in a generating set chosen
    by :func:`_generators`, so an associativity witness always has that
    form.  Given the closure and endpoint checks, the arrows that pass
    for every a and c are closed under composition, so the test is as
    strong as a scan of all composable triples.  The product rule, a
    table's too, composes each composable pair once, into rows a -> {b: ab}
    that every check reads; Light's test costs two row lookups per generator
    s, arrow a into l(s) and arrow c out of r(s), at worst the full scan.
    A pair the rule refuses with ``KeyError`` is a missing composition.
    The table is read only to scan for spurious pairs, entries for
    non-composable pairs, when the rows hold fewer composites than it has.

    The report is memoized on the groupoid, whose tables never change
    after construction; each call returns a fresh copy of it.  The
    generating set is memoized next to it, as ``_gens``: on a valid
    groupoid every arrow is a left-bracketed product of its members,
    which lets :func:`check_strict_isomorphism` compare composites at
    generators only.  A report memoized without a scan, as
    :func:`morita.validate_bibundle` and :func:`restrict_to_objects`
    set it, leaves ``_gens`` None.
    """
    if g._validation is None:
        g._validation = _check_axioms(g)
    return ValidationReport(list(g._validation.violations))


def _check_axioms(g: FiniteGroupoid) -> ValidationReport:
    report = ValidationReport()
    (ends, ident, inv), table = g._built(), g._compose_table
    by_l, by_r = ({x: f(x) for x in g.objects} for f in (g.arrows_from, g.arrows_into))

    # rows[a] = {b: ab} by the product rule, a table's included; a refused pair is absent
    product, rows = g._product, {}
    for a, (_, ra) in ends.items():
        rows[a] = row = {}
        for b in by_l[ra]:
            try:
                row[b] = product(a, b)
            except KeyError:  # a refused pair
                pass
    composable = sum(map(len, rows.values()))  # before the closure check deletes any

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
        try:  # a row holds only composable pairs, so a misplaced identity misses too
            if rows[ident[la]][a] != a or rows[a][ident[ra]] != a:
                report.add("identity unit", (a,))
        except KeyError:  # a refused or non-composable pair
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


def orbits(g: FiniteGroupoid) -> tuple:
    """Connected components of the object set under arrows, as a tuple of :class:`Orbit`.

    Union-find runs over the distinct pairs of :meth:`FiniteGroupoid.pair_counts`.
    Each orbit's representative is its least member by ``repr``, the orbits
    are ordered by it, and an orbit's isotropy order is |Hom(x, x)| at its
    representative x.  The tuple is memoized on the groupoid, whose tables
    never change.
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
    g._orbit_cache = tuple(orbit_list)
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
        return Fraction(bounded_exponent(v))
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
    for x in g.objects:  # names the first missing object
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


def invariant_section(g: FiniteGroupoid, w: WeightData) -> dict:
    """The orbit-wise value of b/a; raises when the section is not constant.

    Inside an orbit, b/a is compared with its value at the representative,
    the least member by ``repr``, by integer cross-multiplication, and one
    ``Fraction`` is built per orbit.  Only on a mismatch are the members
    ordered by ``repr``, so that the error names the first one that differs.
    """
    _require_coverage(g, w)
    a, b = w.a, w.b
    values = {}
    for orb in orbits(g):
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
    isotropy = {orb.representative: orb.isotropy_order for orb in orbits(g)}
    section = invariant_section(g, w)
    terms = []
    for rep in set(orbit_reps):
        if rep not in isotropy:
            raise UnknownOrbitError(f"no orbit has representative {rep!r}")
        terms.append((section[rep].numerator, section[rep].denominator * isotropy[rep]))
    return _fraction_sum(terms)


# ---------------------------------------------------------------------------
# generators


MAX_RANDOM_ARROWS = 150_000  # over ten times the 12,800 arrows of 40 points x order 8
MAX_RANDOM_BLOCKS = 4


def random_groupoid(seed, max_objects: int = 8, max_group_order: int = 6) -> FiniteGroupoid:
    """Seed-deterministic :func:`block_union` of blocks ``(range(n), group)``.

    It draws 1 to :data:`MAX_RANDOM_BLOCKS` blocks, and no more blocks
    than ``max_objects``, which they share out evenly.  Every finite
    groupoid is isomorphic to a union of blocks, and the output always
    satisfies the axioms by construction.  A draw of more than
    :data:`MAX_RANDOM_ARROWS` arrows raises ValueError at once.
    """
    if max_objects < 1 or max_group_order < 1:
        raise ValueError("size bounds must be >= 1")
    rng = random.Random(seed)
    zoo = group_zoo(max_group_order)
    n_blocks = rng.randint(1, min(MAX_RANDOM_BLOCKS, max_objects))
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
    a = {x: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for x in g.objects}
    section = {}
    for orb in orbits(g):  # one draw per orbit, in orbit order
        section.update(dict.fromkeys(orb.objects, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    b = {x: a[x] * section[x] for x in g.objects}
    return WeightData(a, b)


def random_positive_rescaling(g: FiniteGroupoid, seed: int) -> dict:
    """A positive rational function on objects, for rescale-invariance checks."""
    rng = random.Random(seed)
    return {x: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for x in g.objects}


# ---------------------------------------------------------------------------
# structural comparison


def check_strict_isomorphism(g1: FiniteGroupoid, g2: FiniteGroupoid,
                             object_map, arrow_map) -> bool:
    """Whether the given bijections carry every table of g1 onto g2.

    Both groupoids must pass :func:`validate`; an invalid one is strictly
    isomorphic to nothing here.  Their ``_built()`` tables are read
    directly, endpoints component by component.  Composition is compared
    only at the generating set that :func:`validate` memoizes (every
    arrow, when the report was memoized without a scan), through both
    product rules: F(a s) = F(a) F(s) for each generator s and arrow a
    into l(s), composable on both sides as the endpoints carry over.
    Every arrow is a left-bracketed product of generators, so induction
    with associativity on both sides carries the law to every product:
    F(a (p s)) = F((a p) s) = F(a p) F(s) = (F(a) F(p)) F(s)
    = F(a) (F(p) F(s)) = F(a) F(p s).
    """
    if not (validate(g1).ok and validate(g2).ok):
        return False
    (ends1, ident1, inv1), (ends2, ident2, inv2) = g1._built(), g2._built()
    if (set(object_map) != set(g1.objects) or set(arrow_map) != ends1.keys()
            or set(object_map.values()) != set(g2.objects)
            or set(arrow_map.values()) != ends2.keys()
            or any(arrow_map[e] != ident2[object_map[x]] for x, e in ident1.items())):
        return False
    for a, (lo, ro) in ends1.items():
        fa = arrow_map[a]
        flo, fro = ends2[fa]
        if flo != object_map[lo] or fro != object_map[ro] or arrow_map[inv1[a]] != inv2[fa]:
            return False
    product1, product2 = g1._product, g2._product
    for s in ends1 if g1._gens is None else g1._gens:
        fs = arrow_map[s]
        for a in g1.arrows_into(ends1[s][0]):
            if arrow_map[product1(a, s)] != product2(arrow_map[a], fs):
                return False
    return True
