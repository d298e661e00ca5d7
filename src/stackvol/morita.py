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
    left law       (g t)·b0 = g·(t·b0) for each left entry (g, b), b = t·b0
    right law      b0·(t h) = (b0·t)·h for each right entry (b, h), b = b0·t
    commuting      (s·b1)·h = s·(b1·h) for each right entry (b, h), b = s·b1

Here b0 is the first element anchored where b is, at ra(b) for the left
law and at la(b) for the right one, and b1 is the first at ra(b).
Freeness makes the transports distinct, and closure keeps each in one
anchor fiber, so the counts say that every ordered pair of a fiber has
one.  So t ↦ t·b0 is a bijection from the arrows into la(b0) onto the
ra-fiber of b0, and each check is its law.  By the check at a s, at a
and at s, with associativity of the factor between them,
(a s)·(t·b0) = ((a s) t)·b0 = (a (s t))·b0 = a·((s t)·b0) = a·(s·(t·b0));
the right law likewise.  With both, commuting follows from its check:
(s·(s'·b1))·h = ((s s')·b1)·h = (s s')·(b1·h) = s·(s'·(b1·h))
= s·((s'·b1)·h).  The unit law follows: with k·(e·b) = b by
transitivity, e·b = e·(k·(e·b)) = (e k)·(e·b) = b, and likewise on the
right.  Every composable triple of link arrows then associates: LLL
and RRR in the factors, LLB and BRR by the two laws, LBR by commuting,
and every other pattern by these plus freeness, which makes each
transport unique.  For instance ((B b)(Bi b'))(L g) is k g,
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
from itertools import product, repeat

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
    Its public tables must not change once built: validation is memoized
    on the bibundle, keyed only by the two groupoids, and is not redone.
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
    link is decided by the bibundle laws, one check per action-table
    entry, and :func:`finite.validate` runs on it only if a law fails;
    otherwise, or for an invalid factor, it runs at once (see the module
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
    :func:`validate_bibundle`: by the bibundle laws, which leave its
    memoized report empty, or by :func:`finite.validate` when a law
    fails.  An invalid bibundle raises :class:`InvalidBibundleError`.
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

    The domain checks and the link's factor tables read the factors'
    ``_built()`` tables.  The link's product rule reads the factors' rules
    and inverse tables, the action tables and the transports; a pair whose
    factor composite, action or transport is undefined raises ``KeyError``,
    the refusal of every product rule: :func:`finite.validate` reports it as
    a missing composition, and the link's ``compose`` alone turns it into
    :class:`finite.UndefinedComposition`.  The link is validated only when
    :func:`_laws_hold` cannot vouch for it.
    """
    report = ValidationReport()
    sides = (("left", bib.left_anchor, g1), ("right", bib.right_anchor, g2))
    fibers = over_l, over_r = {}, {}  # object -> the elements anchored at it, in element order
    for (side, anchor, g), over in zip(sides, fibers):
        for b in bib.elements:
            if anchor[b] not in g._object_set:
                report.add("anchor range", (b,), f"{side} anchor leaves the {side} object set")
            over.setdefault(anchor[b], []).append(b)
    if not report.ok:
        return report, None
    for (side, _, g), over in zip(sides, fibers):
        for x in g.objects:
            if x not in over:
                report.add("anchor not surjective", (x,), f"{side} anchor misses this object")

    left, right, els = bib.left_action, bib.right_action, bib.element_set
    (ends1, _, inv1), (ends2, _, inv2) = g1._built(), g2._built()
    # the transports invert the actions and are well defined exactly when
    # the actions are free
    left_transport = {}
    for (g, b), b2 in left.items():
        if not (b in els and g in ends1 and ends1[g][1] == bib.left_anchor[b]):
            report.add("left action domain", (g, b), "entry outside the defined domain")
        elif (g0 := left_transport.setdefault((b, b2), g)) != g:
            report.add("left action not free", (g0, g, b), f"both carry it to {b2!r}")
    right_transport = {}
    for (b, h), b2 in right.items():
        if not (b in els and h in ends2 and bib.right_anchor[b] == ends2[h][0]):
            report.add("right action domain", (b, h), "entry outside the defined domain")
        elif (h0 := right_transport.setdefault((b, b2), h)) != h:
            report.add("right action not free", (b, h0, h), f"both carry it to {b2!r}")

    objects, identity, inverse, parts = [], {}, {}, {}
    for tag, g in ((LEFT, g1), (RIGHT, g2)):
        ends, ident, inv = g._built()
        objects += [(tag, x) for x in g.objects]
        identity.update(((tag, x), (tag, ident[x])) for x in g.objects)
        parts[tag] = {(tag, a): ((tag, lo), (tag, ro)) for a, (lo, ro) in ends.items()}
        inverse.update(((tag, a), (tag, inv[a])) for a in ends)
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
            return (LEFT, g1._product(vp, vq))
        if tp == RIGHT and tq == RIGHT:
            return (RIGHT, g2._product(vp, vq))
        if tp == LEFT and tq == BRIDGE:
            return (BRIDGE, left[(vp, vq)])
        if tp == BRIDGE and tq == RIGHT:
            return (BRIDGE, right[(vp, vq)])
        if tp == BRIDGE_INV and tq == LEFT:
            # (inverse of b) then g equals the inverse of (g inverse acting on b)
            return (BRIDGE_INV, left[(inv1[vq], vp)])
        if tp == RIGHT and tq == BRIDGE_INV:
            return (BRIDGE_INV, right[(vq, inv2[vp])])
        if tp == BRIDGE and tq == BRIDGE_INV:
            # unique left arrow carrying the second element to the first
            return (LEFT, left_transport[(vq, vp)])
        # inverse bridge then bridge: the unique right arrow carrying the
        # first element to the second
        return (RIGHT, right_transport[(vp, vq)])

    link = FiniteGroupoid(objects, arrows, identity, inverse, compose)
    if (report.ok and validate(g1).ok and validate(g2).ok
            and _laws_hold(g1, g2, bib, over_l, over_r, left_transport, right_transport)):
        link._validation = ValidationReport()  # a groupoid, by the module docstring
    else:
        report.violations.extend(validate(link).violations)
    return report, link


def _laws_hold(g1, g2, bib, over_l, over_r, left_transport, right_transport) -> bool:
    """Whether the bibundle laws of the module docstring hold.

    Assumes valid factors, anchors in range and free actions whose
    entries all lie in the defined domain, as :func:`_build_link` has
    checked.  The checks run in that docstring's order, so every table,
    transport and factor lookup of a law is defined by totality, closure
    and transitivity.  Each law is one check per action-table entry,
    against the first element of the entry's anchor fiber, as ``over_l``
    and ``over_r`` list the fibers by object.  It reads the factors'
    endpoint tables and composes through their product rules.
    """
    la, ra, left, right = bib.left_anchor, bib.right_anchor, bib.left_action, bib.right_action
    e1, e2 = g1._built()[0], g2._built()[0]  # arrow -> (l, r) in each factor
    if not (len(left) == sum(len(g1.arrows_into(x)) * len(bs) for x, bs in over_l.items())
            and len(right) == sum(len(g2.arrows_from(y)) * len(bs) for y, bs in over_r.items())
            # a dict is never an element, so each table is its own marker
            and all(la.get(c, left) == e1[g][0] and ra[c] == ra[b] for (g, b), c in left.items())
            and all(ra.get(c, right) == e2[h][1] and la[c] == la[b] for (b, h), c in right.items())
            and len(left_transport) == sum(len(bs) ** 2 for bs in over_r.values())
            and len(right_transport) == sum(len(bs) ** 2 for bs in over_l.values())):
        return False
    compose1, compose2 = g1._product, g2._product
    for (g, b), c in left.items():  # (g t)·b0 = g·(t·b0) with b = t·b0
        b0 = over_r[ra[b]][0]
        if left_transport[(b0, c)] != compose1(g, left_transport[(b0, b)]):
            return False
    for (b, h), c in right.items():  # b0·(t h) = (b0·t)·h with b = b0·t
        b0, b1 = over_l[la[b]][0], over_r[ra[b]][0]
        if (right_transport[(b0, c)] != compose2(right_transport[(b0, b)], h)
                # (s·b1)·h = s·(b1·h) with b = s·b1
                or left[(left_transport[(b1, b)], right[(b1, h)])] != c):
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
    values = invariant_section(g, w)
    return {x: values[orb.representative] for orb in orbits(g) for x in orb.objects}


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
# generators


def random_morita_triple(seed):
    """A seed-deterministic Morita-equivalent pair with its bibundle.

    Both groupoids are :func:`finite.block_union` of one or two blocks over
    the same groups, of order at most 4, but with independently chosen
    point counts from 1 to 3.  The bibundle is the union of the canonical
    block bibundles, its ids tagged (i, .) by block like the groupoids'.
    Over a block with group G its elements are the (x, y, gamma), acted on
    by (x2, x, g)·(x, y, gamma) = (x2, y, g gamma) on the left and
    (x, y, gamma)·(y, y2, h) = (x, y2, gamma h) on the right, the arrow
    layout of :func:`finite.block_groupoid`.  Elements and arrow ids are
    shared objects, built once per block and reused as action-table keys
    and values.  Returns (g1, g2, bibundle).
    """
    rng = random.Random(seed)
    zoo = group_zoo(4)
    specs1, specs2 = [], []
    elements, left_anchor, right_anchor, left, right = [], {}, {}, {}, {}
    for i in range(rng.randint(1, 2)):
        group = rng.choice(zoo)
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        specs1.append((range(n), group))
        specs2.append((range(m), group))
        els, mult = group.elements, group.mult
        block = {k: (i, k) for k in product(range(n), range(m), els)}
        into = [[(i, (x2, x, g)) for x2, g in product(range(n), els)] for x in range(n)]
        out = [[(i, (y, y2, h)) for y2, h in product(range(m), els)] for y in range(m)]
        # g·(x, y, gam) over all g does not depend on x, nor (x, y, gam)·h over all h on y
        g_gam = {(y, gam): [block[x2, y, mult(g, gam)] for x2, g in product(range(n), els)]
                 for y, gam in product(range(m), els)}
        gam_h = {(x, gam): [block[x, y2, mult(gam, h)] for y2, h in product(range(m), els)]
                 for x, gam in product(range(n), els)}
        for (x, y, gam), b in block.items():
            elements.append(b)
            left_anchor[b], right_anchor[b] = (i, x), (i, y)
            left.update(zip(zip(into[x], repeat(b)), g_gam[y, gam]))
            right.update(zip(zip(repeat(b), out[y]), gam_h[x, gam]))
    bib = Bibundle(elements, left_anchor, right_anchor, left, right)
    return block_union(specs1), block_union(specs2), bib


def random_morita_weights(g1, g2, bib, seed):
    """Corresponding weight pairs on both sides of a Morita triple."""
    rng = random.Random(seed)
    w1 = random_invariant_weights(g1, rng)
    section2 = transfer_section(g1, g2, bib, _object_section(g1, w1))
    a2 = {y: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for y in g2.objects}
    b2 = {y: a2[y] * section2[y] for y in g2.objects}
    return w1, WeightData(a2, b2)

