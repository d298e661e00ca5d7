"""Small finite groups given by explicit multiplication tables.

These feed the finite groupoid constructors: a block of a finite groupoid
is a pair groupoid crossed with one of these groups, and action groupoids
need a concrete group to act.  Only tiny orders are ever required, so the
tables are stored as plain dicts.  The groupoid of finite sets, whose
cardinality is the sum of 1/|S_n|, is here too, so that its series needs
no groupoid code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations


class FiniteGroup:
    """A finite group as a full multiplication table.

    Elements may be any hashable values.  The constructor locates the
    identity and all inverses from the table and rejects tables that do
    not describe a group.
    """

    def __init__(self, name, elements, table):
        self.name = name
        self.elements = tuple(elements)
        self._table = dict(table)
        elem_set = set(self.elements)
        if len(elem_set) != len(self.elements):
            raise ValueError("duplicate group elements")
        for pair, value in self._table.items():
            if pair[0] not in elem_set or pair[1] not in elem_set or value not in elem_set:
                raise ValueError(f"table entry {pair!r} -> {value!r} leaves the element set")
        if len(self._table) != len(self.elements) ** 2:
            raise ValueError("multiplication table is not total")

        identity = None
        for e in self.elements:
            if all(self._table[(e, x)] == x and self._table[(x, e)] == x for x in self.elements):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no two-sided identity")
        self.identity = identity

        self._inverse = {}
        for x in self.elements:
            for y in self.elements:
                if self._table[(x, y)] == identity and self._table[(y, x)] == identity:
                    self._inverse[x] = y
                    break
            else:
                raise ValueError(f"element {x!r} has no inverse")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, a, b):
        return self._table[(a, b)]

    def inv(self, a):
        return self._inverse[a]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group needs order >= 1")
        els = range(n)
        table = {(a, b): (a + b) % n for a in els for b in els}
        return cls(f"Z{n}", els, table)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Permutations of range(n) as tuples; (p*q)[i] = p[q[i]]."""
        if not 1 <= n <= 5:
            raise ValueError("symmetric group supported for 1 <= n <= 5")
        els = [tuple(p) for p in permutations(range(n))]
        table = {(p, q): tuple(p[q[i]] for i in range(n)) for p in els for q in els}
        return cls(f"S{n}", els, table)

    @classmethod
    def dihedral(cls, n: int) -> "FiniteGroup":
        """Symmetries of the regular n-gon, elements (rotation, flip)."""
        if n < 1:
            raise ValueError("dihedral group needs n >= 1")
        els = [(k, f) for k in range(n) for f in (0, 1)]

        def mul(a, b):
            k1, f1 = a
            k2, f2 = b
            k = (k1 + (k2 if f1 == 0 else -k2)) % n
            return (k, f1 ^ f2)

        table = {(a, b): mul(a, b) for a in els for b in els}
        return cls(f"D{n}", els, table)

    @classmethod
    def direct_product(cls, g: "FiniteGroup", h: "FiniteGroup") -> "FiniteGroup":
        els = [(a, b) for a in g.elements for b in h.elements]
        table = {
            ((a1, b1), (a2, b2)): (g.mult(a1, a2), h.mult(b1, b2))
            for (a1, b1) in els
            for (a2, b2) in els
        }
        return cls(f"{g.name}x{h.name}", els, table)


def group_zoo(max_order: int) -> list[FiniteGroup]:
    """A spread of isomorphism types with order bounded by ``max_order``."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return list(_zoo(min(max_order, 8)))


@cache  # a group never changes after construction, so every caller shares one
def _zoo(max_order: int) -> tuple[FiniteGroup, ...]:
    zoo = [FiniteGroup.cyclic(n) for n in range(1, max_order + 1)]
    c2 = FiniteGroup.cyclic(2)
    if max_order >= 4:
        zoo.append(FiniteGroup.direct_product(c2, c2))
    if max_order >= 6:
        zoo.append(FiniteGroup.symmetric(3))
    if max_order >= 8:
        zoo.append(FiniteGroup.dihedral(4))
        zoo.append(FiniteGroup.direct_product(c2, FiniteGroup.cyclic(4)))
    return tuple(zoo)


def finite_sets_cardinality(cutoff: int) -> Fraction:
    """Partial sum of 1/n! for n = 0..cutoff, over one denominator cutoff!.

    The groupoid of finite sets and bijections has one orbit per size n
    with isotropy the n! permutations, so its cardinality is the
    exponential series at 1; the skeleton used here is sizes 0..cutoff.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    total = tail = 1  # tail = N!/n! and total = sum of N!/m! over m >= n, N = cutoff
    for n in range(cutoff, 0, -1):
        tail *= n
        total += tail
    return Fraction(total, tail)
