"""Bibundles, linking groupoids, and exact volume transfer.

Two finite groupoids are Morita equivalent when an invertible bibundle
connects them.  A bibundle is finite data: its elements, two anchors and
two action tables, a pair missing from a table being an undefined
action.  A valid bibundle matches the orbits of both sides, so an
invariant section transfers along its anchors: the value at the left
anchor of each element lands at its right anchor, and the volumes
computed with corresponding weights then agree exactly.  The linking
groupoid joins the disjoint object sets of both groupoids into one
groupoid whose extra arrows are the bibundle elements and their formal
inverses.  A bibundle is an equivalence exactly when its linking
groupoid is a groupoid in which both factors are full (Moerdijk and
Mrčun, *Introduction to Foliations and Lie Groupoids*, 2003, §5.4).

:func:`validate_bibundle` first checks the anchors, the domains of the
action tables and freeness.  When these pass and both factors pass
:func:`finite.validate`, it decides the link from the action tables,
with l, r the ends of an arrow and la, ra the anchors:

    totality       |left table| = sum over b of |r-fiber of la(b)|, and
                   |right table| = sum over b of |l-fiber of ra(b)|
    closure        g·b and b·h are elements; la(g·b) = l(g),
                   ra(g·b) = ra(b), la(b·h) = la(b), ra(b·h) = r(h)
    transitivity   the left transports (b, g·b) number the sum of
                   |ra-fiber|^2, the right ones the sum of |la-fiber|^2
    left law       (a s)·b = a·(s·b) for s a generator of the left factor
    right law      b·(h t) = (b·h)·t for t a generator of the right factor
    commuting      (s·b)·t = s·(b·t) for generators s and t

Freeness makes the transports distinct, and closure keeps each in one
anchor fiber, so the counts say that every ordered pair of a fiber has
one.  The generators are those :func:`finite.validate` memoizes: every
arrow is a left-bracketed product (..(s1 s2)..) sk of them.  A law at s
and t' gives it at t' s, by associativity of the factor:
((a t') s)·b = (a t')·(s·b) = a·(t'·(s·b)) = a·((t' s)·b); so induction
on k extends the left law to all arrows, and the right and commuting
laws likewise, one side at a time.  The unit law follows: with
k·(e·b) = b by transitivity, e·b = e·(k·(e·b)) = (e k)·(e·b) = b, and
likewise on the right.  Every composable triple of link arrows then
associates: LLL and RRR in the factors, LLB and BRR by the two laws,
LBR by commuting, and every other pattern by these plus freeness, which
makes each transport unique.  For instance ((B b)(Bi b'))(L g) is k g,
k the transport with k·b' = b, and (B b)((Bi b')(L g)) is the transport
carrying g⁻¹·b' to b, which k g is as well.  Totality, closure and
transitivity give the missing composites, endpoints and inverses.  So
when every law holds the link is a groupoid, and its memoized report is
set empty.  When a law fails, or a factor is invalid, the link goes to
:func:`finite.validate`, so the report is exactly that of its groupoid
axioms.  Link violations keep the axiom names, and their witnesses are
tagged arrows (L, R, B, Bi for LEFT, RIGHT, BRIDGE, BRIDGE_INV).  The
bibundle law each pattern breaks:

    missing composition (L g, B b)        left action refuses a defined pair
    missing composition (B b, R h)        right action refuses a defined pair
    missing composition (B b', Bi b)      left action not transitive
    missing composition (Bi b, B b')      right action not transitive
    missing composition (L a, L c)        left groupoid refuses a composite
    composition closure (L g, B b, c)     an action leaves the elements
    composition endpoints (L g, B b, c)   an action result has wrong anchors
    identity unit (B b,)                  an identity arrow moves b
    associativity (L, L, B)               left action law
    associativity (B, R, R)               right action law
    associativity (L, B, R)               the two actions do not commute
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .errors import ValidationFailure, ValidationReport
from .finite import (
    FiniteGroupoid,
    WeightData,
    block_union,
    fiber_volume,
    invariant_section,
    orbits,
    random_invariant_weights,
    validate,
)
from .groups import group_zoo

LEFT = "L"
RIGHT = "R"
BRIDGE = "B"
BRIDGE_INV = "Bi"


class InvalidBibundleError(ValidationFailure):
    """The bibundle data fails an axiom or is not biprincipal."""


class NotFullError(ValidationFailure):
    """An object subset misses some orbit, so sections cannot extend."""


class InconsistentSectionError(ValidationFailure):
    """A partial section takes two values on one orbit."""


class SectionMismatchError(ValidationFailure):
    """Weights on the two sides do not correspond under the bibundle."""


class Bibundle:
    """A two-sided action space between two groupoids, given by two action tables.

    ``left_anchor`` lands in the objects of the left groupoid and
    ``right_anchor`` in those of the right one.  ``left_action`` maps
    (g, b) to g·b and ``right_action`` maps (b, h) to b·h; a pair missing
    from a table is undefined.  A valid bibundle defines the left action
    of an arrow g exactly when r(g) equals the left anchor, the right
    action of an arrow h exactly when the right anchor equals l(h).
    """

    def __init__(self, elements, left_anchor, right_anchor, left_action, right_action):
        self.elements = tuple(elements)
        self.element_set = frozenset(self.elements)
        if len(self.element_set) != len(self.elements):
            raise ValueError("duplicate bibundle elements")
        self.left_anchor = dict(left_anchor)
        self.right_anchor = dict(right_anchor)
        if set(self.left_anchor) != self.element_set or set(self.right_anchor) != self.element_set:
            raise ValueError("anchors must cover exactly the elements")
        self.left_action = dict(left_action)
        self.right_action = dict(right_action)
        self._link_cache = None  # (g1, g2, report, link) of the last validation

    def __repr__(self):
        return f"Bibundle({len(self.elements)} elements)"

    def foreign_entry(self):
        """The first action entry ((u, v), w) naming a non-element, else None."""
        els = self.element_set  # an element is second in a left key, first in a right key
        return next((e for table, i in ((self.left_action, 1), (self.right_action, 0))
                     for e in table.items() if e[0][i] not in els or e[1] not in els), None)


# ---------------------------------------------------------------------------
# validation and the linking groupoid


def validate_bibundle(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle) -> ValidationReport:
    """Check the bibundle and its linking groupoid; every violation has a witness.

    The anchors must land in the object sets and be surjective, so that
    both factors are full; the action tables may hold no entry outside
    the defined pairs; and no two arrows may carry an element to the
    same one.  When all of that holds and both factors are valid, the
    link is decided by the bibundle laws at generators, and
    :func:`finite.validate` runs on it only if a law fails; otherwise,
    or for an invalid factor, it runs at once (see the module
    docstring).  Either way the report is that of the link's groupoid
    axioms.  The report and the link are memoized on the bibundle for
    the last pair of groupoids, compared by identity, so the transfer
    and the link check once; each call copies the report.
    """
    return ValidationReport(list(_checked_link(g1, g2, bib)[0].violations))


def linking_groupoid(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle) -> FiniteGroupoid:
    """The groupoid joining g1 and g2 through an invertible bibundle.

    Objects are the two object sets tagged LEFT/RIGHT; arrows are both
    arrow sets, the bibundle elements (running left to right), and their
    formal inverses.  The arrow count is therefore
    ``|g1| + |g2| + 2 * |bibundle|``.  The link is built once per
    bibundle and pair of groupoids and checked by
    :func:`validate_bibundle`: by the bibundle laws at generators, which
    leave its memoized report empty, or by :func:`finite.validate`
    when a law fails.  An invalid bibundle raises
    :class:`InvalidBibundleError`.
    """
    validate_bibundle(g1, g2, bib).require(InvalidBibundleError, "invalid bibundle")
    return _checked_link(g1, g2, bib)[1]


def _checked_link(g1, g2, bib):
    cached = bib._link_cache
    if cached is None or cached[0] is not g1 or cached[1] is not g2:
        cached = bib._link_cache = (g1, g2, *_build_link(g1, g2, bib))
    return cached[2:]


def _build_link(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle):
    """The bibundle's report and its link, or None when an anchor leaves its groupoid.

    The link composes by the case rules below, a product rule that reads
    the factors, the action tables and the transports.  A pair whose
    factor composite, action or transport is undefined raises
    ``KeyError``, so :func:`finite.validate`, which composes each pair
    once, reports it as a missing composition.  The link is validated
    only when :func:`_laws_hold` cannot vouch for it.
    """
    report = ValidationReport()
    sides = (("left", bib.left_anchor, g1), ("right", bib.right_anchor, g2))
    for side, anchor, g in sides:
        for b in bib.elements:
            if not g.has_object(anchor[b]):
                report.add("anchor range", (b,), f"{side} anchor leaves the {side} object set")
    if not report.ok:
        return report, None
    for side, anchor, g in sides:
        hit = set(anchor.values())
        for x in g.objects:
            if x not in hit:
                report.add("anchor not surjective", (x,), f"{side} anchor misses this object")

    left, right = bib.left_action, bib.right_action
    els, ids1, ids2, r1, l2 = bib.element_set, g1.arrow_ids, g2.arrow_ids, g1.r, g2.l
    for (g, b) in left:
        if not (b in els and g in ids1 and r1(g) == bib.left_anchor[b]):
            report.add("left action domain", (g, b), "entry outside the defined domain")
    for (b, h) in right:
        if not (b in els and h in ids2 and bib.right_anchor[b] == l2(h)):
            report.add("right action domain", (b, h), "entry outside the defined domain")

    # the transports invert the actions and are well defined exactly when
    # the actions are free; a dict is never an element, so each table is
    # its own marker for a missing pair
    left_transport = {}
    for b in bib.elements:
        for g in g1.arrows_into(bib.left_anchor[b]):
            if (b2 := left.get((g, b), left)) is not left:
                g0 = left_transport.setdefault((b, b2), g)
                if g0 != g:
                    report.add("left action not free", (g0, g, b), f"both carry it to {b2!r}")
    right_transport = {}
    for b in bib.elements:
        for h in g2.arrows_from(bib.right_anchor[b]):
            if (b2 := right.get((b, h), right)) is not right:
                h0 = right_transport.setdefault((b, b2), h)
                if h0 != h:
                    report.add("right action not free", (b, h0, h), f"both carry it to {b2!r}")

    objects, identity, inverse, parts = [], {}, {}, {}
    for tag, g in ((LEFT, g1), (RIGHT, g2)):
        for x in g.objects:
            objects.append((tag, x))
            identity[(tag, x)] = (tag, g.identity(x))
        parts[tag] = {(tag, a): ((tag, g.l(a)), (tag, g.r(a))) for a in g.arrow_ids}
        inverse.update(((tag, a), (tag, g.inverse(a))) for a in g.arrow_ids)
    bridges = {}
    for b in bib.elements:
        ends = ((LEFT, bib.left_anchor[b]), (RIGHT, bib.right_anchor[b]))
        bridges[(BRIDGE, b)], bridges[(BRIDGE_INV, b)] = ends, ends[::-1]
        inverse[(BRIDGE, b)], inverse[(BRIDGE_INV, b)] = (BRIDGE_INV, b), (BRIDGE, b)
    # with the bridges listed before the right factor, most right arrows
    # are products of earlier generators, which shortens Light's test
    arrows = {**parts[LEFT], **bridges, **parts[RIGHT]}

    def compose(p, q):
        tp, vp = p
        tq, vq = q
        if tp == LEFT and tq == LEFT:
            return (LEFT, g1.compose(vp, vq))
        if tp == RIGHT and tq == RIGHT:
            return (RIGHT, g2.compose(vp, vq))
        if tp == LEFT and tq == BRIDGE:
            return (BRIDGE, left[(vp, vq)])
        if tp == BRIDGE and tq == RIGHT:
            return (BRIDGE, right[(vp, vq)])
        if tp == BRIDGE_INV and tq == LEFT:
            # (inverse of b) then g equals the inverse of (g inverse acting on b)
            return (BRIDGE_INV, left[(g1.inverse(vq), vp)])
        if tp == RIGHT and tq == BRIDGE_INV:
            return (BRIDGE_INV, right[(vq, g2.inverse(vp))])
        if tp == BRIDGE and tq == BRIDGE_INV:
            # unique left arrow carrying the second element to the first
            return (LEFT, left_transport[(vq, vp)])
        # inverse bridge then bridge: the unique right arrow carrying the
        # first element to the second
        return (RIGHT, right_transport[(vp, vq)])

    link = FiniteGroupoid(objects, arrows, identity, inverse, compose)
    if (report.ok and validate(g1).ok and validate(g2).ok
            and _laws_hold(g1, g2, bib, left_transport, right_transport)):
        link._validation = ValidationReport()  # a groupoid, by the module docstring
    else:
        report.violations.extend(validate(link).violations)
    return report, link


def _laws_hold(g1, g2, bib, left_transport, right_transport) -> bool:
    """Whether the bibundle laws of the module docstring hold.

    Assumes valid factors, anchors in range and free actions whose
    entries all lie in the defined domain, as :func:`_build_link` has
    checked.  The checks run in that docstring's order, so every table
    lookup of a law is defined by totality and closure.  A factor whose
    generating set is not memoized (a link checked by these laws) gives
    False, and the link goes to :func:`finite.validate`.
    """
    gens1, gens2 = g1._gens, g2._gens
    if gens1 is None or gens2 is None:
        return False
    la, ra, left, right = bib.left_anchor, bib.right_anchor, bib.left_action, bib.right_action
    over_l, over_r = {}, {}  # object -> the elements anchored at it
    for b in bib.elements:
        over_l.setdefault(la[b], []).append(b)
        over_r.setdefault(ra[b], []).append(b)
    l1, r1, l2, r2 = g1.l, g1.r, g2.l, g2.r
    if not (len(left) == sum(len(g1.arrows_into(x)) * len(bs) for x, bs in over_l.items())
            and len(right) == sum(len(g2.arrows_from(y)) * len(bs) for y, bs in over_r.items())
            # a dict is never an element, so each table is its own marker
            and all(la.get(c, left) == l1(g) and ra[c] == ra[b] for (g, b), c in left.items())
            and all(ra.get(c, right) == r2(h) and la[c] == la[b] for (b, h), c in right.items())
            and len(left_transport) == sum(len(bs) ** 2 for bs in over_r.values())
            and len(right_transport) == sum(len(bs) ** 2 for bs in over_l.values())):
        return False
    compose1, compose2 = g1.compose, g2.compose
    for s in gens1:  # (a s)·b = a·(s·b)
        bs = over_l.get(r1(s), ())
        s_bs = [left[(s, b)] for b in bs]
        for a in g1.arrows_into(l1(s)):
            a_s = compose1(a, s)
            if [left[(a_s, b)] for b in bs] != [left[(a, sb)] for sb in s_bs]:
                return False
    for t in gens2:  # b·(h t) = (b·h)·t
        for h in g2.arrows_into(l2(t)):
            h_t, bs = compose2(h, t), over_r.get(l2(h), ())
            if [right[(b, h_t)] for b in bs] != [right[(right[(b, h)], t)] for b in bs]:
                return False
    gens2_from = {}
    for t in gens2:
        gens2_from.setdefault(l2(t), []).append(t)
    for s in gens1:  # (s·b)·t = s·(b·t)
        for b in over_l.get(r1(s), ()):
            s_b, ts = left[(s, b)], gens2_from.get(ra[b], ())
            if [right[(s_b, t)] for t in ts] != [left[(s, right[(b, t)])] for t in ts]:
                return False
    return True


def left_object_ids(g1: FiniteGroupoid):
    return [(LEFT, x) for x in g1.objects]


def right_object_ids(g2: FiniteGroupoid):
    return [(RIGHT, y) for y in g2.objects]


# ---------------------------------------------------------------------------
# extension, transfer


def extend_invariant_section(g: FiniteGroupoid, subset, partial: dict) -> dict:
    """Extend an orbit-constant section from a full subset to all objects."""
    subset_set = set(subset)
    result = {}
    for orb in orbits(g):
        seen = sorted(orb.objects & subset_set, key=repr)
        if not seen:
            raise NotFullError(f"subset misses the orbit of {orb.representative!r}")
        vals = {partial[x] for x in seen}
        if len(vals) > 1:
            raise InconsistentSectionError(
                f"section takes {len(vals)} values on the orbit of {orb.representative!r}"
            )
        val = vals.pop()
        for x in orb.objects:
            result[x] = val
    return result


def transfer_section(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle,
                     section: dict) -> dict:
    """Carry an invariant section of g1 to g2 along the bibundle anchors.

    A valid bibundle is biprincipal, so the left anchors of the elements
    with one right anchor fill exactly one orbit of g1, and every orbit
    is filled, the anchors being surjective.  An orbit-constant section
    then gives each object y of g2 the single value
    ``section[left_anchor(b)]`` over the elements b with
    ``right_anchor(b) == y``, and any other section takes two values at
    some y, which raises :class:`InconsistentSectionError`.
    """
    validate_bibundle(g1, g2, bib).require(InvalidBibundleError, "invalid bibundle")
    out = {}
    for b in bib.elements:
        y = bib.right_anchor[b]
        val = section[bib.left_anchor[b]]
        if out.setdefault(y, val) != val:
            raise InconsistentSectionError(
                f"section takes two values at {y!r}: {out[y]} and {val}"
            )
    return {y: out[y] for y in g2.objects}


class MoritaVolumeReport(namedtuple("MoritaVolumeReport", "equal volume_left volume_right")):
    __slots__ = ()

    def __str__(self):
        rel = "==" if self.equal else "!="
        return f"volume {self.volume_left} {rel} {self.volume_right}"


def _object_section(g: FiniteGroupoid, w: WeightData) -> dict:
    """b/a at every object, read from its orbit's value in :func:`invariant_section`."""
    dec = orbits(g)
    values = invariant_section(g, w, dec)
    return {x: values[dec.find(x).representative] for x in g.objects}


def morita_volume_check(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle,
                        w1: WeightData, w2: WeightData) -> MoritaVolumeReport:
    """Verify that corresponding weights give exactly equal volumes.

    The sections b/a on both sides must be orbit-constant and must
    correspond under the bibundle transfer; otherwise
    :class:`SectionMismatchError` is raised.
    """
    section1 = _object_section(g1, w1)  # checks that both weights cover every object
    section2 = _object_section(g2, w2)
    transferred = transfer_section(g1, g2, bib, section1)
    for y in g2.objects:
        if section2[y] != transferred[y]:
            raise SectionMismatchError(
                f"sections not corresponding at object {y!r}: "
                f"expected {transferred[y]}, got {section2[y]}"
            )
    v1 = fiber_volume(g1, w1)
    v2 = fiber_volume(g2, w2)
    return MoritaVolumeReport(v1 == v2, v1, v2)


# ---------------------------------------------------------------------------
# canonical bibundles


def _write_block_actions(tables, pts1, pts2, group, tag):
    """Add the canonical block bibundle to ``tables``.

    ``tables`` holds the elements list, both anchor dicts and both action
    dicts.  Every id z is written as ``tag(z)``, so that the blocks of a
    union get the tags of :func:`finite.block_union` in the same pass.
    """
    elements, left_anchor, right_anchor, left, right = tables
    els, mult = group.elements, group.mult
    for x in pts1:
        for y in pts2:
            for gam in els:
                b = tag((x, y, gam))
                elements.append(b)
                left_anchor[b], right_anchor[b] = tag(x), tag(y)
                for x2 in pts1:
                    for g in els:
                        left[(tag((x2, x, g)), b)] = tag((x2, y, mult(g, gam)))
                for y2 in pts2:
                    for h in els:
                        right[(b, tag((y, y2, h)))] = tag((x, y2, mult(gam, h)))


def block_bibundle(points1, points2, group) -> Bibundle:
    """Canonical equivalence between two blocks sharing the same group.

    Elements are (x, y, gamma); the left block acts through its pair part
    and group part on the left, the right block symmetrically:
    (x2, x, g)·(x, y, gamma) = (x2, y, g gamma) and
    (x, y, gamma)·(y, y2, h) = (x, y2, gamma h).  Matches the arrow layout
    of :func:`stackvol.finite.block_groupoid`.
    """
    tables = [], {}, {}, {}, {}
    _write_block_actions(tables, tuple(points1), tuple(points2), group, lambda z: z)
    return Bibundle(*tables)


def random_morita_triple(seed, max_blocks: int = 2, max_points: int = 3,
                         max_group_order: int = 4):
    """A seed-deterministic Morita-equivalent pair with its bibundle.

    Both groupoids are :func:`finite.block_union` of blocks over the same
    groups but with independently chosen point counts.  The bibundle is the
    union of the canonical block bibundles, its ids tagged (i, .) by block
    like the groupoids'.  Returns (g1, g2, bibundle).
    """
    rng = random.Random(seed)
    zoo = group_zoo(max_group_order)
    specs1, specs2, tables = [], [], ([], {}, {}, {}, {})
    for i in range(rng.randint(1, max_blocks)):
        group = rng.choice(zoo)
        n = rng.randint(1, max_points)
        m = rng.randint(1, max_points)
        specs1.append((range(n), group))
        specs2.append((range(m), group))
        _write_block_actions(tables, range(n), range(m), group, lambda z, i=i: (i, z))
    return block_union(specs1), block_union(specs2), Bibundle(*tables)


def random_morita_weights(g1, g2, bib, seed):
    """Corresponding weight pairs on both sides of a Morita triple."""
    rng = random.Random(seed)
    w1 = random_invariant_weights(g1, rng)
    section2 = transfer_section(g1, g2, bib, _object_section(g1, w1))
    a2 = {y: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for y in g2.objects}
    b2 = {y: a2[y] * section2[y] for y in g2.objects}
    return w1, WeightData(a2, b2)

