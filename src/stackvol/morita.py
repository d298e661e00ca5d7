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
Mrčun, *Introduction to Foliations and Lie Groupoids*, 2003, §5.4), so
:func:`validate_bibundle` checks the link with :func:`finite.validate`.
Link violations keep the groupoid axiom names, and their witnesses are
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
    restrict_to_objects,
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
    """Check the bibundle as its linking groupoid; every violation has a witness.

    Besides :func:`finite.validate` on the link (see the module
    docstring), the anchors must land in the object sets and be
    surjective, so that both factors are full; the action tables may
    hold no entry outside the defined pairs; and no two arrows may carry
    an element to the same one.  The report and the link are memoized on
    the bibundle for the last pair of groupoids, compared by identity, so
    the transfer and the link check once; each call copies the report.
    """
    return ValidationReport(list(_checked_link(g1, g2, bib)[0].violations))


def linking_groupoid(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle) -> FiniteGroupoid:
    """The groupoid joining g1 and g2 through an invertible bibundle.

    Objects are the two object sets tagged LEFT/RIGHT; arrows are both
    arrow sets, the bibundle elements (running left to right), and their
    formal inverses.  The arrow count is therefore
    ``|g1| + |g2| + 2 * |bibundle|``.  The link is built once per
    bibundle and pair of groupoids; an invalid bibundle raises
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
    once, reports it as a missing composition.
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
    for (g, b) in left:
        if not (b in bib.element_set and g in g1.arrow_ids and g1.r(g) == bib.left_anchor[b]):
            report.add("left action domain", (g, b), "entry outside the defined domain")
    for (b, h) in right:
        if not (b in bib.element_set and h in g2.arrow_ids and bib.right_anchor[b] == g2.l(h)):
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
    report.violations.extend(validate(link).violations)
    return report, link


def left_object_ids(g1: FiniteGroupoid):
    return [(LEFT, x) for x in g1.objects]


def right_object_ids(g2: FiniteGroupoid):
    return [(RIGHT, y) for y in g2.objects]


# ---------------------------------------------------------------------------
# restriction, extension, transfer


def restrict_full(g: FiniteGroupoid, keep) -> FiniteGroupoid:
    """Full subgroupoid on ``keep``; every orbit must meet ``keep``."""
    keep_set = set(keep)
    for orb in orbits(g):
        if not (orb.objects & keep_set):
            raise NotFullError(
                f"subset misses the orbit of {orb.representative!r}"
            )
    return restrict_to_objects(g, keep_set)


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

    A valid bibundle is biprincipal, so elements with one right anchor
    have left anchors in one orbit of g1; an orbit-constant section then
    gives each object y of g2 the single value ``section[left_anchor(b)]``
    over the elements b with ``right_anchor(b) == y``.
    """
    for orb in orbits(g1):
        vals = {section[x] for x in orb.objects}
        if len(vals) > 1:
            raise InconsistentSectionError(
                f"input section is not constant on the orbit of {orb.representative!r}"
            )
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


def morita_volume_check(g1: FiniteGroupoid, g2: FiniteGroupoid, bib: Bibundle,
                        w1: WeightData, w2: WeightData) -> MoritaVolumeReport:
    """Verify that corresponding weights give exactly equal volumes.

    The sections b/a on both sides must be orbit-constant and must
    correspond under the bibundle transfer; otherwise
    :class:`SectionMismatchError` is raised.
    """
    invariant_section(g1, w1)  # checks that both weights cover every object
    invariant_section(g2, w2)
    section1 = {x: w1.ratio(x) for x in g1.objects}
    transferred = transfer_section(g1, g2, bib, section1)
    for y in g2.objects:
        if w2.ratio(y) != transferred[y]:
            raise SectionMismatchError(
                f"sections not corresponding at object {y!r}: "
                f"expected {transferred[y]}, got {w2.ratio(y)}"
            )
    v1 = fiber_volume(g1, w1)
    v2 = fiber_volume(g2, w2)
    return MoritaVolumeReport(v1 == v2, v1, v2)


# ---------------------------------------------------------------------------
# canonical bibundles


def identity_bibundle(g: FiniteGroupoid) -> Bibundle:
    """The groupoid acting on its own arrows by composition on both sides."""
    elements = list(g.arrow_ids)
    composites = {(p, q): g.compose(p, q)
                  for y in g.objects for p in g.arrows_into(y) for q in g.arrows_from(y)}
    return Bibundle(elements, {a: g.l(a) for a in elements}, {a: g.r(a) for a in elements},
                    composites, composites)


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
    section2 = transfer_section(g1, g2, bib, {x: w1.ratio(x) for x in g1.objects})
    a2 = {y: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for y in g2.objects}
    b2 = {y: a2[y] * section2[y] for y in g2.objects}
    return w1, WeightData(a2, b2)


def relabel_bibundle(bib: Bibundle, rename: dict) -> Bibundle:
    """An isomorphic copy with renamed elements (rename must be a bijection)."""
    if set(rename) != set(bib.elements) or len(set(rename.values())) != len(bib.elements):
        raise ValueError("rename must be a bijection on the elements")
    if (bad := bib.foreign_entry()) is not None:
        raise ValueError(f"action entry {bad[0]!r} -> {bad[1]!r} names a non-element")
    return Bibundle([rename[e] for e in bib.elements],
                    {rename[e]: x for e, x in bib.left_anchor.items()},
                    {rename[e]: y for e, y in bib.right_anchor.items()},
                    {(g, rename[b]): rename[c] for (g, b), c in bib.left_action.items()},
                    {(rename[b], h): rename[c] for (b, h), c in bib.right_action.items()})


def compose_bibundles(g1: FiniteGroupoid, g2: FiniteGroupoid, g3: FiniteGroupoid,
                      b12: Bibundle, b23: Bibundle) -> Bibundle:
    """Composite bibundle: matched pairs modulo the middle groupoid action.

    Pairs (p, q) with right anchor of p equal to the left anchor of q are
    identified along (p acted by h, q) ~ (p, h acting on q).  The class
    representatives are deterministic minima so the result is stable.
    Both factors must be valid; otherwise :class:`InvalidBibundleError`
    is raised.
    """
    validate_bibundle(g1, g2, b12).require(InvalidBibundleError, "invalid left factor")
    validate_bibundle(g2, g3, b23).require(InvalidBibundleError, "invalid right factor")
    pairs = [
        (p, q)
        for p in b12.elements
        for q in b23.elements
        if b12.right_anchor[p] == b23.left_anchor[q]
    ]
    parent = {pq: pq for pq in pairs}

    def find(z):
        while parent[z] != z:
            parent[z] = parent[parent[z]]
            z = parent[z]
        return z

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    for (p, q) in pairs:
        for h in g2.arrows_from(b12.right_anchor[p]):
            moved = (b12.right_action[(p, h)], b23.left_action[(g2.inverse(h), q)])
            union((p, q), moved)

    classes = {}
    for pq in pairs:
        classes.setdefault(find(pq), []).append(pq)
    rep_of = {}
    reps = []
    for members in classes.values():
        rep = min(members, key=repr)
        reps.append(rep)
        for m in members:
            rep_of[m] = rep

    left_anchor = {rep: b12.left_anchor[rep[0]] for rep in reps}
    right_anchor = {rep: b23.right_anchor[rep[1]] for rep in reps}
    left = {(g, (p, q)): rep_of[(b12.left_action[(g, p)], q)]
            for p, q in reps for g in g1.arrows_into(left_anchor[(p, q)])}
    right = {((p, q), h): rep_of[(p, b23.right_action[(q, h)])]
             for p, q in reps for h in g3.arrows_from(right_anchor[(p, q)])}
    return Bibundle(reps, left_anchor, right_anchor, left, right)
