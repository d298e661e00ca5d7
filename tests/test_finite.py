"""Exact finite-groupoid computations against hand-derived oracles."""

import gc
import hashlib
import math
import os
import random
import sys
import tempfile
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stackvol.finite as finite_module
from stackvol.errors import ValidationFailure, Violation, bounded_exponent
from stackvol.finite import (
    MAX_RANDOM_ARROWS,
    DegenerateWeightError,
    FiniteGroupoid,
    InvalidActionError,
    InvalidGroupoidError,
    NonInvariantSectionError,
    UndefinedComposition,
    UnknownOrbitError,
    WeightData,
    action_groupoid,
    block_groupoid,
    block_union,
    cardinality,
    check_strict_isomorphism,
    classifying_groupoid,
    fiber_volume,
    finite_sets_cardinality,
    invariant_section,
    orbit_set_measure,
    orbit_volume,
    orbits,
    random_groupoid,
    random_invariant_weights,
    random_positive_rescaling,
    restrict_to_objects,
    unit_weights,
    validate,
    _generators,
)
from stackvol.groups import FiniteGroup, group_zoo
from stackvol.jsonio import (
    _renaming,
    dump_groupoid,
    groupoid_from_dict,
    groupoid_to_dict,
    load_groupoid,
)
from stackvol.morita import linking_groupoid, random_morita_triple

# frozen oracles, each derived by hand before implementation:
#   one object with symmetry group of order n      -> cardinality 1/n
#   pair groupoid on {1,2}, a=(1,3), b=(2,6)       -> volume (2+6)/(1+3) = 2
#   swap action of order-2 group on two points,
#     unit weights                                 -> volume 1 (free orbit)
#   regular self-action of S3, unit weights        -> volume 1
#   two one-object components with sections 3, 6
#     and symmetry orders 2, 3                     -> volume 3/2 + 6/3 = 7/2
#   natural S3 action on three points, unit
#     weights                                      -> volume 1/2 (isotropy 2)
#   series of 1/n! for n = 0..3                    -> 8/3


def z_n(n):
    return classifying_groupoid(FiniteGroup.cyclic(n))


def axioms_of(report):
    """The names of the axioms a validation report finds broken."""
    return {v.axiom for v in report.violations}


def random_block_specs(seed, max_objects, max_group_order, max_blocks=4):
    """The blocks random_groupoid(seed, max_objects, max_group_order) passes to
    block_union, drawn in the same order; max_blocks replaces its bound of 4."""
    rng = random.Random(seed)
    zoo = group_zoo(max_group_order)
    n_blocks = rng.randint(1, min(max_blocks, max_objects))
    per_block = max(1, max_objects // n_blocks)
    return [(range(rng.randint(1, per_block)), rng.choice(zoo)) for _ in range(n_blocks)]


def disjoint_union(*parts):
    """Reference union: objects and arrows tagged with the part index, read
    from the parts' tables; it holds only the parts' product rules."""
    arrows, identity, inverse = {}, {}, {}  # identity's keys are the objects, in order
    for i, g in enumerate(parts):
        ends, ident, inv = g._built()
        identity.update(((i, x), (i, ident[x])) for x in g.objects)
        arrows.update(((i, a), ((i, lo), (i, ro))) for a, (lo, ro) in ends.items())
        inverse.update(((i, a), (i, inv[a])) for a in ends)
    rules = tuple(g._product for g in parts)  # the parts themselves are not kept
    return FiniteGroupoid(identity, arrows, identity, inverse,
                          lambda a, b: (a[0], rules[a[0]](a[1], b[1])))


class TestCardinality:
    def test_one_object_reciprocal_order(self):
        for n in range(1, 13):
            assert cardinality(z_n(n)) == Fraction(1, n)

    def test_empty_groupoid_counts_zero(self):
        assert cardinality(FiniteGroupoid((), {}, {}, {}, {})) == 0

    def test_pair_groupoid_is_equivalent_to_a_point(self):
        assert cardinality(block_groupoid([1, 2, 3], FiniteGroup.cyclic(1))) == 1

    def test_disjoint_union_adds(self):
        g = disjoint_union(z_n(2), z_n(3))
        assert cardinality(g) == Fraction(1, 2) + Fraction(1, 3)

    def test_cardinality_equals_unit_weight_volume(self):
        # the reciprocal-fiber-size sum route for the counting measure
        g = disjoint_union(block_groupoid([1, 2], FiniteGroup.cyclic(1)),
                           block_groupoid([0, 1], FiniteGroup.cyclic(3)))
        assert fiber_volume(g, unit_weights(g)) == cardinality(g)


class TestFiberAndOrbitVolumes:
    def test_pair_groupoid_frozen_value(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        w = WeightData({1: 1, 2: 3}, {1: 2, 2: 6})
        assert fiber_volume(g, w) == 2
        assert orbit_volume(g, w) == 2

    def test_swap_action_free_orbit(self):
        z2 = FiniteGroup.cyclic(2)
        g = action_groupoid(z2, [0, 1], lambda h, x: (x + h) % 2)
        w = unit_weights(g)
        assert fiber_volume(g, w) == 1
        assert orbit_volume(g, w) == 1

    def test_regular_self_action_of_s3(self):
        s3 = FiniteGroup.symmetric(3)
        g = action_groupoid(s3, s3.elements, lambda h, x: s3.mult(h, x))
        assert fiber_volume(g, unit_weights(g)) == 1

    def test_natural_s3_action_has_half_volume(self):
        s3 = FiniteGroup.symmetric(3)
        g = action_groupoid(s3, [0, 1, 2], lambda p, x: p[x])
        assert fiber_volume(g, unit_weights(g)) == Fraction(1, 2)
        assert orbit_volume(g, unit_weights(g)) == Fraction(1, 2)

    def test_two_component_sections(self):
        g = disjoint_union(z_n(2), z_n(3))
        objs = list(g.objects)
        a = {x: Fraction(1) for x in objs}
        b = {x: Fraction(3) if x[0] == 0 else Fraction(6) for x in objs}
        w = WeightData(a, b)
        assert fiber_volume(g, w) == Fraction(7, 2)
        assert orbit_volume(g, w) == Fraction(7, 2)

    def test_empty_groupoid_volume(self):
        g = FiniteGroupoid((), {}, {}, {}, {})
        assert fiber_volume(g, WeightData({}, {})) == 0

    def test_degenerate_fiber_mass(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        w = WeightData({1: 1, 2: -1}, {1: 1, 2: 1})
        with pytest.raises(DegenerateWeightError):
            fiber_volume(g, w)

    def test_zero_a_rejected(self):
        with pytest.raises(DegenerateWeightError):
            WeightData({1: 0}, {1: 1})

    def test_non_invariant_section_detected(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        w = WeightData({1: 1, 2: 1}, {1: 1, 2: 2})
        with pytest.raises(NonInvariantSectionError) as exc:
            orbit_volume(g, w)
        assert "non-invariant section" in str(exc.value)
        # the fiber route stays defined regardless
        assert fiber_volume(g, w) == Fraction(3, 2)

    def test_weight_coverage_required(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        with pytest.raises(ValidationFailure):
            fiber_volume(g, WeightData({1: 1}, {1: 1}))

    @pytest.mark.parametrize("volume", [fiber_volume, orbit_volume])
    def test_coverage_error_names_the_first_missing_object(self, volume):
        g = block_groupoid([3, 1, 2], FiniteGroup.cyclic(1))
        # extra keys are allowed; 2 lacks a and 1 lacks b, and 1 comes first
        a = {3: 1, 1: 1, "extra": 1}
        b = {3: 1, 2: 1, "extra": 1}
        with pytest.raises(ValidationFailure, match=r"^weights missing object 1$"):
            volume(g, WeightData(a, b))
        a[2] = b[1] = 1
        assert volume(g, WeightData(a, b)) == 1


class TestOrbitDecomposition:
    def test_block_structure(self):
        g = disjoint_union(
            block_groupoid([0, 1, 2], FiniteGroup.cyclic(4)),
            block_groupoid([0], FiniteGroup.symmetric(3)),
        )
        dec = orbits(g)
        assert type(dec) is tuple and len(dec) == 2
        sizes = sorted(len(o.objects) for o in dec)
        assert sizes == [1, 3]
        iso = sorted(o.isotropy_order for o in dec)
        assert iso == [4, 6]

    def test_representative_is_minimal_by_repr(self):
        g = block_groupoid([3, 1, 2], FiniteGroup.cyclic(1))
        (orb,) = orbits(g)
        assert orb.representative == 1

    def test_each_object_lies_in_one_orbit(self):
        g = disjoint_union(z_n(2), z_n(3))
        dec = orbits(g)
        for x in g.objects:
            assert sum(x in o.objects for o in dec) == 1

    def test_orbit_set_measure(self):
        g = disjoint_union(z_n(2), z_n(3))
        objs = list(g.objects)
        a = {x: Fraction(1) for x in objs}
        b = {x: Fraction(3) if x[0] == 0 else Fraction(6) for x in objs}
        w = WeightData(a, b)
        dec = orbits(g)
        reps = [o.representative for o in dec]
        per_orbit = sorted(orbit_set_measure(g, w, [r]) for r in reps)
        assert per_orbit == [Fraction(3, 2), Fraction(2)]
        assert orbit_set_measure(g, w, reps) == Fraction(7, 2)

    def test_a_repeated_representative_counts_once(self):
        g = disjoint_union(z_n(2), z_n(3))
        w = WeightData({x: Fraction(1) for x in g.objects},
                       {x: Fraction(3) if x[0] == 0 else Fraction(6) for x in g.objects})
        for r in (o.representative for o in orbits(g)):
            assert orbit_set_measure(g, w, [r, r]) == orbit_set_measure(g, w, [r])

    def test_unknown_orbit_representative(self):
        g = z_n(2)
        with pytest.raises(UnknownOrbitError):
            orbit_set_measure(g, unit_weights(g), ["nonsense"])


class TestCompositionConvention:
    def test_action_groupoid_against_modular_arithmetic(self):
        z3 = FiniteGroup.cyclic(3)
        g = action_groupoid(z3, [0, 1, 2], lambda h, x: (x + h) % 3)
        ends = g._built()[0]
        for h1 in range(3):
            for x1 in range(3):
                for h2 in range(3):
                    for x2 in range(3):
                        p, q = (h1, x1), (h2, x2)
                        composable = x1 == (x2 + h2) % 3
                        assert (ends[p][1] == ends[q][0]) == composable
                        if composable:
                            assert g.compose(p, q) == ((h1 + h2) % 3, x2)
                        else:
                            with pytest.raises(UndefinedComposition):
                                g.compose(p, q)

    def test_endpoints_of_composite(self):
        g = random_groupoid(17)
        ends = g._built()[0]
        for p in g.arrow_ids:
            for q in g.arrows_from(ends[p][1]):
                assert ends[g.compose(p, q)] == (ends[p][0], ends[q][1])

    def test_inverse_identities(self):
        g = random_groupoid(23)
        ends, ident, inv = g._built()
        for p, (lo, ro) in ends.items():
            assert g.compose(p, inv[p]) == ident[lo]
            assert g.compose(inv[p], p) == ident[ro]

    def test_bad_action_rejected(self):
        z2 = FiniteGroup.cyclic(2)

        def crush(h, x):
            # not an action: crush(1, crush(1, 1)) = 0 != 1 = crush(0, 1)
            return x if h == 0 else 0

        with pytest.raises(InvalidActionError):
            action_groupoid(z2, [0, 1], crush)

    def test_action_is_evaluated_once_per_arrow_outside_the_law_check(self):
        s3, calls = FiniteGroup.symmetric(3), []

        def act(p, x):
            calls.append((p, x))
            return p[x]

        g = action_groupoid(s3, range(3), act)
        # |X| identity checks, then per arrow one act(h, x) and 2|G| compatibility calls
        assert len(calls) == 3 + 6 * 3 * (1 + 2 * 6) == 237
        ends, _, inv = g._built()
        assert ends == {(h, x): (h[x], x) for h in s3.elements for x in range(3)}
        assert inv == {(h, x): (s3.inv(h), h[x]) for h in s3.elements for x in range(3)}

    def test_action_leaving_point_set_rejected(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(InvalidActionError):
            action_groupoid(z2, [0, 1], lambda h, x: x + h)


class TestValidate:
    def test_generated_groupoids_pass(self):
        for seed in (0, 5, 9):
            assert validate(random_groupoid(seed)).ok

    def _z4_tables(self):
        arrows = {i: ("pt", "pt") for i in range(4)}
        identity = {"pt": 0}
        inverse = {i: (-i) % 4 for i in range(4)}
        table = {(i, j): (i + j) % 4 for i in range(4) for j in range(4)}
        return arrows, identity, inverse, table

    def test_broken_associativity_is_flagged(self):
        arrows, identity, inverse, table = self._z4_tables()
        table[(1, 1)] = 3
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        report = validate(g)
        assert not report.ok
        assert "associativity" in axioms_of(report)

    def test_broken_inverse_is_flagged(self):
        arrows, identity, inverse, table = self._z4_tables()
        inverse[1] = 2
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        report = validate(g)
        assert not report.ok
        assert "inverse axiom" in axioms_of(report)

    def test_broken_identity_unit_is_flagged(self):
        arrows, identity, inverse, table = self._z4_tables()
        table[(0, 1)] = 2
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        report = validate(g)
        assert not report.ok
        assert "identity unit" in axioms_of(report)

    def test_missing_composition_is_flagged(self):
        arrows, identity, inverse, table = self._z4_tables()
        del table[(2, 3)]
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        report = validate(g)
        assert not report.ok
        assert "missing composition" in axioms_of(report)

    @staticmethod
    def _materialize(g):
        arrows, identity, inverse = map(dict, g._built())
        table = {(p, q): g.compose(p, q)
                 for p, (_, ro) in arrows.items() for q in g.arrows_from(ro)}
        return arrows, identity, inverse, table

    def test_spurious_composition_is_flagged(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        arrows, identity, inverse, table = self._materialize(g)
        # (1,2) ends at 2 but (1,2) starts at 1: not composable with itself
        table[((1, 2), (1, 2))] = (1, 2)
        broken = FiniteGroupoid(g.objects, arrows, identity, inverse, table)
        report = validate(broken)
        assert not report.ok
        assert "spurious composition" in axioms_of(report)

    def test_compose_refuses_spurious_and_missing_table_pairs(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        arrows, identity, inverse, table = self._materialize(g)
        a = (1, 2, 0)  # ends at 2 but starts at 1: not composable with itself
        spurious, missing = (a, a), ((1, 1, 0), a)
        table[spurious] = a
        del table[missing]
        broken = FiniteGroupoid(g.objects, arrows, identity, inverse, table)
        for h, pair in ((g, spurious), (broken, spurious), (broken, missing)):
            with pytest.raises(UndefinedComposition):
                h.compose(*pair)
        violations = validate(broken).violations
        assert Violation("spurious composition", spurious) in violations
        assert Violation("missing composition", missing) in violations

    def test_wrong_identity_endpoints_flagged(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        arrows, _, inverse, table = self._materialize(g)
        # (1, 2, 0) is an arrow but does not start and end at object 2
        broken = FiniteGroupoid(g.objects, arrows,
                                {1: (1, 1, 0), 2: (1, 2, 0)}, inverse, table)
        report = validate(broken)
        assert not report.ok
        assert "identity endpoints" in axioms_of(report)

    def test_rule_raising_key_error_is_a_missing_composition(self):
        g = block_groupoid([1, 2], FiniteGroup.cyclic(1))
        refused = ((1, 2, 0), (2, 1, 0))

        def rule(p, q):
            if (p, q) == refused:
                raise KeyError("refused")
            return g.compose(p, q)

        arrows, identity, inverse, _ = self._materialize(g)
        report = validate(FiniteGroupoid(g.objects, arrows, identity, inverse, rule))
        assert report.violations == [
            Violation("inverse axiom", refused, "composite with inverse undefined"),
            Violation("inverse axiom", refused[::-1], "composite with inverse undefined"),
            Violation("missing composition", refused),
        ]

    def test_memoized_report_is_copied_on_each_call(self, monkeypatch):
        import stackvol.finite as finite_module

        arrows, identity, inverse, table = self._z4_tables()
        table[(1, 1)] = 3
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        scans = []
        check = finite_module._check_axioms
        monkeypatch.setattr(finite_module, "_check_axioms",
                            lambda h: scans.append(h) or check(h))
        first = validate(g)
        found = list(first.violations)
        assert found
        first.add("tampered", ())
        second = validate(g)
        assert second.violations == found and second is not first
        second.violations.clear()
        assert validate(g).violations == found
        assert len(scans) == 1

    def test_require_attaches_the_report_to_its_exception(self):
        arrows, identity, inverse, table = self._z4_tables()
        table[(1, 1)] = 3
        report = validate(FiniteGroupoid(["pt"], arrows, identity, inverse, table))
        with pytest.raises(InvalidGroupoidError) as exc:
            report.require(InvalidGroupoidError, "z4")
        assert exc.value.report is report
        assert exc.value.report.violations[0].witness == report.violations[0].witness
        assert str(exc.value) == f"z4: {report.summary()}"
        validate(z_n(4)).require(InvalidGroupoidError, "clean")  # a clean report raises nothing

    def test_violation_report_summary_mentions_witness(self):
        arrows, identity, inverse, table = self._z4_tables()
        table[(1, 1)] = 3
        g = FiniteGroupoid(["pt"], arrows, identity, inverse, table)
        report = validate(g)
        assert any(v.witness for v in report.violations)
        assert report.summary()


def _rule_of(table):
    def compose(p, q):
        try:
            return table[(p, q)]
        except KeyError:
            raise UndefinedComposition((p, q)) from None

    return compose


def _corrupted_block_union(data, closure):
    """A union of blocks whose table has 1-3 composites swapped.

    Each swapped composite is replaced by another arrow with the same
    endpoints, so the closure and endpoint checks still pass and only
    associativity, units and inverses can break.
    """
    groups = [grp for grp in group_zoo(4) if grp.order >= 2]
    blocks = [block_groupoid(range(data.draw(st.integers(1, 3))), data.draw(st.sampled_from(groups)))
              for _ in range(data.draw(st.integers(1, 2)))]
    union = disjoint_union(*blocks)
    arrows, identity, inverse, table = TestValidate._materialize(union)
    swapped = data.draw(st.lists(st.sampled_from(sorted(table, key=repr)),
                                 min_size=1, max_size=3, unique=True))
    for p, q in swapped:
        ends = (arrows[p][0], arrows[q][1])
        others = sorted((c for c in arrows if arrows[c] == ends and c != table[(p, q)]), key=repr)
        table[(p, q)] = data.draw(st.sampled_from(others))
    return FiniteGroupoid(union.objects, arrows, identity, inverse,
                          _rule_of(table) if closure else table)


def _is_associative(g, a, b, c):
    return g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def _composable_triples(g):
    ends = g._built()[0]
    for a in g.arrow_ids:
        for b in g.arrows_from(ends[a][1]):
            for c in g.arrows_from(ends[b][1]):
                yield a, b, c


def _composites(g):
    return {a: {b: g.compose(a, b) for b in g.arrows_from(ro)}
            for a, (_, ro) in g._built()[0].items()}


@pytest.mark.parametrize("closure", [False, True], ids=["table", "closure"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_light_test_agrees_with_all_triples_scan(closure, data):
    g = _corrupted_block_union(data, closure)
    assert (g._compose_table is None) == closure
    brute_force = any(not _is_associative(g, *t) for t in _composable_triples(g))
    report = validate(g)
    assert ("associativity" in axioms_of(report)) == brute_force
    gens = set(_generators(g, _composites(g)))
    for v in report.violations:
        if v.axiom == "associativity":
            a, s, c = v.witness
            assert s in gens
            assert not _is_associative(g, a, s, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans(), st.data())
def test_generators_reach_every_arrow_by_right_products(seed, corrupt, data):
    g = _corrupted_block_union(data, False) if corrupt else _small_groupoid(seed)
    rows = _composites(g)
    gens = _generators(g, rows)
    ends = g._built()[0]
    assert gens == [a for a in g.arrow_ids if a in set(gens)]
    reached, frontier = set(), list(gens)
    while frontier:
        p = frontier.pop()
        if p not in reached:
            reached.add(p)
            frontier.extend(rows[p][s] for s in gens if ends[p][1] == ends[s][0])
    assert reached == set(g.arrow_ids)


def _mutants(g, rng):
    """The tables of ``g`` as they are and after six seeded mutations.

    A mutation edits the table t, identity map i or inverse map v in
    place.  Each version is built once table-backed and once closure-backed.
    """
    arrows, identity, inverse, table = TestValidate._materialize(g)
    ids, pairs = list(arrows), list(table)

    def deleted(t, i, v):
        del t[rng.choice(pairs)]

    def retargeted(t, i, v):
        t[rng.choice(pairs)] = rng.choice(ids)

    def left_the_arrows(t, i, v):
        t[rng.choice(pairs)] = ("ghost", rng.randrange(3))

    def spurious(t, i, v):
        p, q = rng.choice(ids), rng.choice(ids)
        t[(p, q) if arrows[p][1] != arrows[q][0] else (p, "ghost")] = rng.choice(ids)

    def broken_inverse(t, i, v):
        v[rng.choice(ids)] = rng.choice(ids)

    def broken_identity(t, i, v):
        i[rng.choice(g.objects)] = rng.choice(ids)

    out = []
    for mutate in (None, deleted, retargeted, left_the_arrows, spurious,
                   broken_inverse, broken_identity):
        t, i, v = dict(table), dict(identity), dict(inverse)
        if mutate:
            mutate(t, i, v)
        out.append(FiniteGroupoid(g.objects, arrows, i, v, t))
        out.append(FiniteGroupoid(g.objects, arrows, i, v, _rule_of(t)))
    return out


# sha256 over the reports of the corpus below, recorded before validate
# read its composites by row; no verdict or witness may change
_WITNESS_DIGEST = "7fca95ea2092e1e071e0d053e4176641c669b5e5e5f338d1e3ecc938c5483f0f"


def test_violation_witnesses_are_pinned():
    from test_morita import random_triple_parts  # test_morita imports this module

    rng = random.Random(13)
    bases = [block_union(random_block_specs(seed, 5, 4, max_blocks=3)) for seed in range(40)]
    for seed in range(50):
        specs1, specs2, bib = random_triple_parts(seed, max_points=2, max_group_order=3)
        bases.append(linking_groupoid(block_union(specs1), block_union(specs2), bib))
    reports = [validate(m) for g in bases for m in _mutants(g, rng)]
    assert set().union(*(axioms_of(r) for r in reports)) == {
        "identity endpoints", "inverse axiom", "identity unit", "missing composition",
        "composition closure", "composition endpoints", "spurious composition", "associativity"}
    text = "\n".join(repr(r.violations) for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == _WITNESS_DIGEST


class TestConstructors:
    def test_block_groupoid_counts(self):
        g = block_groupoid([0, 1, 2], FiniteGroup.cyclic(2))
        assert len(g.objects) == 3
        assert g.arrow_count == 9 * 2
        assert validate(g).ok

    def test_restriction_of_pair_groupoid(self):
        g = block_groupoid([1, 2, 3], FiniteGroup.cyclic(1))
        sub = restrict_to_objects(g, [1, 2])
        assert sorted(sub.objects) == [1, 2]
        assert sub.arrow_count == 4
        assert cardinality(sub) == 1
        assert validate(sub).ok

    def test_restriction_keeps_composition(self):
        g = block_groupoid([0, 1, 2], FiniteGroup.cyclic(3))
        sub = restrict_to_objects(g, [0, 1])
        for p in sub.arrow_ids:
            for q in sub.arrows_from(sub._built()[0][p][1]):
                assert sub.compose(p, q) == g.compose(p, q)

    def test_disjoint_union_validates(self):
        g = disjoint_union(z_n(4), block_groupoid([1, 2], FiniteGroup.cyclic(1)),
                           block_groupoid([0], FiniteGroup.dihedral(3)))
        assert validate(g).ok

    def test_strict_isomorphism_roundtrip(self):
        g = block_groupoid([0, 1], FiniteGroup.cyclic(2))
        obj_map = {x: ("copy", x) for x in g.objects}
        arrow_map = {a: ("copy", a) for a in g.arrow_ids}
        ends, ident, inv = g._built()
        table = {(p, q): g.compose(p, q)
                 for p, (_, ro) in ends.items() for q in g.arrows_from(ro)}
        h = FiniteGroupoid(
            [obj_map[x] for x in g.objects],
            {arrow_map[a]: (obj_map[lo], obj_map[ro]) for a, (lo, ro) in ends.items()},
            {obj_map[x]: arrow_map[a] for x, a in ident.items()},
            {arrow_map[a]: arrow_map[b] for a, b in inv.items()},
            {(arrow_map[p], arrow_map[q]): arrow_map[v]
             for (p, q), v in table.items()},
        )
        assert check_strict_isomorphism(g, h, obj_map, arrow_map)
        bad_map = dict(arrow_map)
        keys = list(bad_map)
        bad_map[keys[0]], bad_map[keys[1]] = bad_map[keys[1]], bad_map[keys[0]]
        assert not check_strict_isomorphism(g, h, obj_map, bad_map)

    @pytest.mark.parametrize("table, key, value", [
        ("arrow_map", (0, 0, 1), None),  # None deletes the entry
        ("object_map", 1, 0),
        ("arrow_map", (0, 0, 1), "elsewhere"),
        ("arrows", (0, 1, 0), (1, 1)),
        ("inverse", (0, 0, 1), (0, 0, 1)),
        ("identity", 0, (0, 0, 1)),
        ("compose", ((0, 0, 1), (0, 0, 1)), None),
        ("compose", ((0, 0, 1), (0, 0, 1)), (0, 0, 0)),
    ], ids=["map domain", "object codomain", "arrow codomain", "endpoints", "inverse",
            "identity", "undefined composite", "wrong composite"])
    def test_strict_isomorphism_refuses_each_broken_table(self, table, key, value):
        # one edit to the identity maps of g onto a copy, or to the copy's tables
        g = block_groupoid([0, 1], FiniteGroup.cyclic(3))
        ends, ident, inv = g._built()
        tables = {"object_map": {x: x for x in g.objects}, "arrow_map": {a: a for a in g.arrow_ids},
                  "arrows": dict(ends), "identity": dict(ident), "inverse": dict(inv),
                  "compose": {(p, q): g.compose(p, q)
                              for p, (_, ro) in ends.items() for q in g.arrows_from(ro)}}

        def holds():
            h = FiniteGroupoid(g.objects, *(tables[k] for k in ("arrows", "identity", "inverse",
                                                                  "compose")))
            return check_strict_isomorphism(g, h, tables["object_map"], tables["arrow_map"])

        assert holds()
        if value is None:
            del tables[table][key]
        else:
            tables[table][key] = value
        assert not holds()


def _isomorphic_by_all_pairs(g1, g2, object_map, arrow_map):
    """Reference for check_strict_isomorphism: every table, every composable pair."""
    if (set(object_map) != set(g1.objects) or set(arrow_map) != set(g1.arrow_ids)
            or set(object_map.values()) != set(g2.objects)
            or set(arrow_map.values()) != set(g2.arrow_ids)):
        return False
    (ends1, ident1, inv1), (ends2, ident2, inv2) = g1._built(), g2._built()
    if any(arrow_map[ident1[x]] != ident2[object_map[x]] for x in g1.objects):
        return False
    for a, (lo, ro) in ends1.items():
        fa = arrow_map[a]
        if tuple(ends2[fa]) != (object_map[lo], object_map[ro]) or arrow_map[inv1[a]] != inv2[fa]:
            return False
        for b in g1.arrows_from(ro):
            if arrow_map[g1.compose(a, b)] != g2.compose(fa, arrow_map[b]):
                return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000), st.randoms(use_true_random=False))
def test_isomorphism_at_generators_agrees_with_all_pairs(seed, rng):
    # a relabelled copy, and a map that permutes the arrows of one hom-set:
    # most such maps break a composite, some are automorphisms of a group
    g = random_groupoid(seed, max_objects=4, max_group_order=6)
    tag = {a: ("c", a) for a in g.arrow_ids}
    objects = [("c", x) for x in g.objects]
    g_ends, g_ident, g_inv = g._built()
    ends = {tag[a]: (("c", lo), ("c", ro)) for a, (lo, ro) in g_ends.items()}
    identity = {("c", x): tag[a] for x, a in g_ident.items()}
    inverse = {tag[a]: tag[b] for a, b in g_inv.items()}
    table = {(tag[p], tag[q]): tag[g.compose(p, q)]
             for p, (_, ro) in g_ends.items() for q in g.arrows_from(ro)}
    h = FiniteGroupoid(objects, ends, identity, inverse, table)
    object_map = {x: ("c", x) for x in g.objects}
    assert check_strict_isomorphism(g, h, object_map, tag)
    a = rng.choice(sorted(g.arrow_ids, key=repr))
    hom = [c for c in g.arrow_ids if g_ends[c] == g_ends[a]]
    permuted = dict(tag)
    permuted.update(zip(hom, rng.sample([tag[c] for c in hom], len(hom))))
    assert (check_strict_isomorphism(g, h, object_map, permuted)
            == _isomorphic_by_all_pairs(g, h, object_map, permuted))
    # one edit to the copy's endpoints, inverse or identity table; the same
    # ends as a list, which the constructor accepts, change nothing
    ends, identity, inverse, fa = dict(ends), dict(identity), dict(inverse), tag[a]
    arrows = sorted(ends, key=repr)
    kind = rng.choice(["retarget", "list", "inverse", "identity"])
    if kind == "retarget":
        ends[fa] = (ends[fa][0], rng.choice(objects))
    elif kind == "list":
        ends[fa] = list(ends[fa])
    elif kind == "inverse":
        inverse[fa] = rng.choice(arrows)
    else:
        identity[ends[fa][0]] = rng.choice(arrows)
    edited = FiniteGroupoid(objects, ends, identity, inverse, table)
    assert (check_strict_isomorphism(g, edited, object_map, tag)
            == _isomorphic_by_all_pairs(g, edited, object_map, tag))


def test_restriction_inherits_only_an_empty_report(monkeypatch):
    calls = []
    check = finite_module._check_axioms
    g = z_n(5)
    assert validate(g).ok
    monkeypatch.setattr(finite_module, "_check_axioms", lambda h: calls.append(h) or check(h))
    sub = restrict_to_objects(g, ["pt"])
    assert validate(sub).ok and sub._gens is None
    # no memoized generators: composites are compared at every arrow; the
    # swaps 1 <-> 2 and 3 <-> 4 keep identity and inverses but not sums
    same = {x: x for x in sub.objects}
    assert check_strict_isomorphism(sub, g, same, {a: a for a in sub.arrow_ids})
    swapped = {a: ("pt", "pt", (0, 2, 1, 4, 3)[a[2]]) for a in sub.arrow_ids}
    assert not check_strict_isomorphism(sub, g, same, swapped)
    assert calls == []
    fresh = z_n(5)
    assert restrict_to_objects(fresh, ["pt"])._validation is None
    broken = FiniteGroupoid([0, 1], {"e0": (0, 0), "e1": (1, 1)}, {0: "e0", 1: "e1"},
                            {"e0": "e0", "e1": "e1"}, {("e0", "e0"): "e0"})
    assert not validate(broken).ok
    assert restrict_to_objects(broken, [0])._validation is None


class TestSeries:
    def test_small_partial_sums(self):
        assert finite_sets_cardinality(0) == 1
        assert finite_sets_cardinality(1) == 2
        assert finite_sets_cardinality(3) == Fraction(8, 3)

    def test_converges_to_e(self):
        assert abs(float(finite_sets_cardinality(13)) - math.e) < 1e-9

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            finite_sets_cardinality(-1)

    def test_matches_the_per_term_sum(self):
        for cutoff in range(40):
            terms = (Fraction(1, math.factorial(n)) for n in range(cutoff + 1))
            assert finite_sets_cardinality(cutoff) == sum(terms, Fraction(0))


class TestGenerators:
    def test_seed_determinism(self):
        a = random_groupoid(123)
        b = random_groupoid(123)
        assert sorted(map(repr, a.objects)) == sorted(map(repr, b.objects))
        assert a.arrow_count == b.arrow_count
        wa = random_invariant_weights(a, 9)
        wb = random_invariant_weights(b, 9)
        assert wa.a == wb.a and wa.b == wb.b

    def test_sections_are_invariant_by_construction(self):
        for seed in range(5):
            g = random_groupoid(seed)
            w = random_invariant_weights(g, seed + 100)
            invariant_section(g, w)

    def test_rescaling_is_positive(self):
        g = random_groupoid(3)
        theta = random_positive_rescaling(g, 4)
        assert all(v > 0 for v in theta.values())
        assert set(theta) == set(g.objects)


class TestRefusals:
    @pytest.mark.parametrize("elements, table, message", [
        ((0, 0), {}, "duplicate group elements"),
        ((0,), {(0, 0): 1}, r"table entry \(0, 0\) -> 1 leaves the element set"),
        ((0, 1), {(0, 0): 0}, "multiplication table is not total"),
        ((0, 1), {(a, b): 1 for a in (0, 1) for b in (0, 1)}, "no two-sided identity"),
        ((0, 1), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}, "element 1 has no inverse"),
    ], ids=["duplicate", "outside", "partial", "no-identity", "no-inverse"])
    def test_finite_group_table_checks(self, elements, table, message):
        with pytest.raises(ValueError, match=message):
            FiniteGroup("bad", elements, table)

    @pytest.mark.parametrize("build, n", [
        (FiniteGroup.cyclic, 0), (FiniteGroup.symmetric, 0), (FiniteGroup.symmetric, 6),
        (FiniteGroup.dihedral, 0), (group_zoo, 0),
    ], ids=["cyclic-0", "symmetric-0", "symmetric-6", "dihedral-0", "zoo-0"])
    def test_group_size_bounds(self, build, n):
        with pytest.raises(ValueError):
            build(n)

    @pytest.mark.parametrize("points, act, error, message", [
        ([0, 0], lambda h, x: x, ValueError, "duplicate points"),
        ([0, 1], lambda h, x: 1 - x, InvalidActionError,
         "identity must act trivially, fails at 0"),
        ([0, 1], lambda h, x: x + 2 * h, InvalidActionError,
         r"action leaves the point set at \(1, 0\)"),
    ], ids=["duplicate-points", "identity", "leaves-set"])
    def test_action_groupoid_refusals(self, points, act, error, message):
        with pytest.raises(error, match=message):
            action_groupoid(FiniteGroup.cyclic(2), points, act)

    def test_restriction_to_unknown_objects(self):
        with pytest.raises(ValueError, match="unknown objects"):
            restrict_to_objects(block_groupoid([1, 2], FiniteGroup.cyclic(1)), [1, 3])

    def test_float_weight_refused(self):
        with pytest.raises(TypeError, match="weights must be rational, got float"):
            WeightData({1: 0.5}, {1: 1})

    def test_huge_decimal_exponent_refused(self):
        with pytest.raises(ValueError, match="decimal exponent"):
            WeightData({1: 1}, {1: "1e-100000000"})

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_an_exponent_at_the_digit_limit_is_kept_and_one_past_it_refused(self, sign):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        assert bounded_exponent(f"1e{sign}{limit}") == f"1e{sign}{limit}"
        with pytest.raises(ValueError, match=f"past the {limit}-digit integer limit"):
            bounded_exponent(f"1e{sign}{limit + 1}")

    @pytest.mark.parametrize("bound", ["max_objects", "max_group_order"])
    def test_random_groupoid_bound_of_zero(self, bound):
        with pytest.raises(ValueError, match="size bounds must be >= 1"):
            random_groupoid(1, **{bound: 0})


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_fiber_equals_orbit_for_any_seed(seed):
    g = random_groupoid(seed, max_objects=12, max_group_order=6)
    w = random_invariant_weights(g, seed + 1)
    assert fiber_volume(g, w) == orbit_volume(g, w)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=0, max_value=100))
def test_volume_depends_only_on_quotient(seed, rescale_seed):
    g = random_groupoid(seed, max_objects=10, max_group_order=4)
    w = random_invariant_weights(g, seed + 7)
    theta = random_positive_rescaling(g, rescale_seed)
    assert fiber_volume(g, w.rescaled(theta)) == fiber_volume(g, w)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_product_with_pair_block_preserves_cardinality_times_orbit(n, m):
    # a block with n points over a group of order m has cardinality 1/m
    g = block_groupoid(range(n), FiniteGroup.cyclic(m))
    assert cardinality(g) == Fraction(1, m)


def naive_fiber_volume(g, w):
    """Reference fiber formula: one Fraction add per arrow."""
    total, ends = Fraction(0), g._built()[0]
    for y in g.objects:
        mass = Fraction(0)
        for aid in g.arrows_into(y):
            mass += w.a[ends[aid][0]]
        if mass == 0:
            raise DegenerateWeightError(f"fiber over {y!r} has total weight zero")
        total += w.b[y] / mass
    return total


def _small_groupoid(seed):
    return block_union(random_block_specs(seed, 6, 4, max_blocks=3))


def _interleaved_action():
    """Z/2 acting on range(4) by x -> x + 2 mod 4: the orbits {0, 2} and {1, 3} interleave."""
    return action_groupoid(FiniteGroup.cyclic(2), range(4), lambda h, x: (x + 2 * h) % 4)


@st.composite
def _groupoids_with_rows_apart(draw):
    """Unions of interleaved actions and small random groupoids, sometimes sent
    through JSON with shuffled objects, so that fibers which share a hom-count
    row need not be adjacent in ``objects`` order."""
    parts = [_interleaved_action() if draw(st.booleans())
             else _small_groupoid(draw(st.integers(0, 100_000)))
             for _ in range(draw(st.integers(1, 3)))]
    g = disjoint_union(*parts)
    if draw(st.booleans()):
        doc = groupoid_to_dict(g)
        doc["objects"] = draw(st.permutations(doc["objects"]))
        g = groupoid_from_dict(doc)
    return g


def _cancel_one_fiber(g, a, data):
    """Set a at one source object so that the mass over a drawn fiber with two
    or more source objects is zero; when g has no such fiber, a stays as it is."""
    fibers = [src for _, src in g.fiber_index() if len(src) > 1]
    if not fibers:
        return
    (x0, m0), *rest = data.draw(st.sampled_from(fibers))
    if sum(m * a[x] for x, m in rest) == 0:
        a[rest[0][0]] *= 2
    a[x0] = -sum((m * a[x] for x, m in rest), Fraction(0)) / m0


# signed, with denominators up to 10**30; b may be zero, a never is
_signed_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30)
_signed_b = st.one_of(st.just(Fraction(0)), _signed_rationals)


class TestFiberIndex:
    def test_hom_counts_per_fiber(self):
        g = disjoint_union(block_groupoid([0, 1], FiniteGroup.cyclic(3)), z_n(2))
        assert g.fiber_index() == (
            ((0, 0), (((0, 0), 3), ((0, 1), 3))),
            ((0, 1), (((0, 0), 3), ((0, 1), 3))),
            ((1, "pt"), (((1, "pt"), 2),)),
        )
        assert g.fiber_index() is g.fiber_index()

    def test_fiber_volume_uses_no_orbit_data(self, monkeypatch):
        import stackvol.finite as finite_module

        def forbidden(*args, **kwargs):
            raise AssertionError("fiber_volume must not use orbits or isotropy")

        g = random_groupoid(5)
        w = random_invariant_weights(g, 6)
        expected = orbit_volume(g, w)
        monkeypatch.setattr(finite_module, "orbits", forbidden)
        assert fiber_volume(g, w) == expected

    def test_equal_rows_are_one_object_within_one_groupoid_only(self):
        def interleaved():
            # the orbits {o0, o1} and {o2, o3} alternate in objects order
            doc = groupoid_to_dict(disjoint_union(block_groupoid([0, 1], FiniteGroup.cyclic(2)),
                                                  block_groupoid([0, 1], FiniteGroup.cyclic(3))))
            doc["objects"] = ["o0", "o2", "o1", "o3"]
            return groupoid_from_dict(doc)

        for build in (interleaved, lambda: random_groupoid(5)):
            g, twin = build(), build()
            rows = [row for _, row in g.fiber_index()]
            assert len({id(row) for row in rows}) < len(rows)
            assert all((r == s) == (r is s) for r in rows for s in rows)
            assert twin.fiber_index() == g.fiber_index()
            assert not {id(row) for _, row in twin.fiber_index()} & {id(row) for row in rows}

    def test_shared_object_ids_do_not_share_the_index(self):
        # same object ids 0, 1, 2, different hom-set sizes
        g1 = block_groupoid([0, 1, 2], FiniteGroup.cyclic(1))
        g2 = block_groupoid([0, 1, 2], FiniteGroup.cyclic(3))
        w = WeightData({0: Fraction(1, 2), 1: 3, 2: Fraction(-5, 7)}, {0: 1, 1: 2, 2: 3})
        v1, v2 = naive_fiber_volume(g1, w), naive_fiber_volume(g2, w)
        assert v1 != v2
        for _ in range(3):
            assert fiber_volume(g1, w) == v1
            assert fiber_volume(g2, w) == v2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_indexed_fiber_sum_matches_per_arrow_sum(seed, data):
    # a and b are arbitrary: not invariant, signed, with large denominators
    g = _small_groupoid(seed)
    a = {x: data.draw(_signed_rationals.filter(bool)) for x in g.objects}
    b = {x: data.draw(_signed_b) for x in g.objects}
    w = WeightData(a, b)
    try:
        expected = naive_fiber_volume(g, w)
    except DegenerateWeightError as exc:
        with pytest.raises(DegenerateWeightError) as got:
            fiber_volume(g, w)
        assert str(got.value) == str(exc)
        return
    got = fiber_volume(g, w)
    assert type(got) is Fraction
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_zero_fiber_mass_names_the_same_object(seed, data):
    # the pair block guarantees a fiber with two source objects
    g = disjoint_union(_small_groupoid(seed), block_groupoid([0, 1], FiniteGroup.cyclic(1)))
    a = {x: data.draw(_signed_rationals.filter(bool)) for x in g.objects}
    _cancel_one_fiber(g, a, data)
    w = WeightData(a, {x: data.draw(_signed_b) for x in g.objects})
    with pytest.raises(DegenerateWeightError) as want:
        naive_fiber_volume(g, w)
    with pytest.raises(DegenerateWeightError) as got:
        fiber_volume(g, w)
    assert str(got.value) == str(want.value)


@settings(max_examples=60, deadline=None)
@given(_groupoids_with_rows_apart(), st.data())
def test_fiber_sum_matches_per_arrow_sum_with_shared_rows_apart(g, data):
    a = {x: data.draw(_signed_rationals.filter(bool)) for x in g.objects}
    if data.draw(st.booleans()):
        _cancel_one_fiber(g, a, data)
    w = WeightData(a, {x: data.draw(_signed_b) for x in g.objects})
    try:
        expected = naive_fiber_volume(g, w)
    except DegenerateWeightError as exc:
        with pytest.raises(DegenerateWeightError) as got:
            fiber_volume(g, w)
        assert str(got.value) == str(exc)
        return
    got = fiber_volume(g, w)
    assert type(got) is Fraction
    assert got == expected


def _signed_invariant_weights(g, data):
    """Weights with b/a constant on each reference orbit: a signed, b possibly zero."""
    a = {x: data.draw(_signed_rationals.filter(bool)) for x in g.objects}
    b = {}
    for _, members, _ in _reference_orbits(g):
        value = data.draw(_signed_b)
        b.update((x, a[x] * value) for x in members)
    return WeightData(a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_orbit_sums_match_plain_fraction_sums(seed, data):
    g = _small_groupoid(seed)
    w = _signed_invariant_weights(g, data)
    ref = _reference_orbits(g)  # (representative, objects, isotropy order) from the arrows
    section = {rep: w.b[rep] / w.a[rep] for rep, _, _ in ref}
    chosen = data.draw(st.sets(st.sampled_from([rep for rep, _, _ in ref])))
    got = cardinality(g), orbit_volume(g, w), orbit_set_measure(g, w, chosen)
    assert got == (sum((Fraction(1, n) for _, _, n in ref), Fraction(0)),
                   sum((section[rep] / n for rep, _, n in ref), Fraction(0)),
                   sum((section[rep] / n for rep, _, n in ref if rep in chosen), Fraction(0)))
    assert all(type(v) is Fraction for v in got)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_non_invariant_section_names_both_ratios_in_lowest_terms(seed, data):
    g = disjoint_union(_small_groupoid(seed), block_groupoid([0, 1], FiniteGroup.cyclic(1)))
    w = _signed_invariant_weights(g, data)
    rep, members, _ = data.draw(st.sampled_from([o for o in _reference_orbits(g) if len(o[1]) > 1]))
    members = sorted(members, key=repr)
    x = data.draw(st.sampled_from(members[1:]))
    w.b[x] += data.draw(_signed_rationals.filter(bool)) * w.a[x]  # b/a moves at x only
    ratios = [Fraction(w.b[z].numerator * w.a[z].denominator,
                       w.b[z].denominator * w.a[z].numerator) for z in members]
    bad = next(i for i, r in enumerate(ratios) if r != ratios[0])
    for call in (invariant_section, orbit_volume):
        with pytest.raises(NonInvariantSectionError) as got:
            call(g, w)
        assert str(got.value) == (
            f"non-invariant section: b/a takes {ratios[0]} at {members[0]!r} "
            f"but {ratios[bad]} at {members[bad]!r} on the orbit of {rep!r}")


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(12)), st.data())
def test_non_invariant_section_names_the_first_of_several_mismatches_in_repr_order(objects, data):
    g = block_groupoid(objects, FiniteGroup.cyclic(1))  # one orbit, represented by 0, least by repr
    w = _signed_invariant_weights(g, data)
    moved = data.draw(st.sets(st.sampled_from(range(1, 12)), min_size=2))
    for x in moved:
        w.b[x] += data.draw(_signed_rationals.filter(bool)) * w.a[x]
    first = min(moved, key=repr)  # repr order: 0, 1, 10, 11, 2, ...
    for call in (invariant_section, orbit_volume):
        with pytest.raises(NonInvariantSectionError) as got:
            call(g, w)
        assert str(got.value) == (
            f"non-invariant section: b/a takes {w.ratio(0)} at 0 "
            f"but {w.ratio(first)} at {first!r} on the orbit of 0")


# ---------------------------------------------------------------------------
# the structure check of the constructor


def _half_point_tables():
    """One object with isotropy of order two, as constructor arguments."""
    arrows = {"e": ("pt", "pt"), "s": ("pt", "pt")}
    table = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    return ["pt"], arrows, {"pt": "e"}, {"e": "e", "s": "s"}, table


class TestStructureCheck:
    def test_well_formed_tables_pass(self):
        assert cardinality(FiniteGroupoid(*_half_point_tables())) == Fraction(1, 2)

    def test_duplicate_object(self):
        objects, arrows, identity, inverse, table = _half_point_tables()
        with pytest.raises(ValueError, match="^duplicate object ids$"):
            FiniteGroupoid(["pt", "pt"], arrows, identity, inverse, table)

    def test_unknown_endpoint(self):
        objects, arrows, identity, inverse, table = _half_point_tables()
        arrows["s"] = ("pt", "qq")
        with pytest.raises(ValueError) as exc:
            FiniteGroupoid(objects, arrows, identity, inverse, table)
        assert str(exc.value) == "arrow 's' references unknown objects ('pt', 'qq')"

    @pytest.mark.parametrize("entry, error, message", [
        (("pt", "pt", "pt"), ValueError, "too many values to unpack"),
        (("pt",), ValueError, "not enough values to unpack"),
        (7, TypeError, "cannot unpack non-iterable int object"),
    ], ids=["triple", "single", "int"])
    def test_arrow_entry_that_is_not_a_pair(self, entry, error, message):
        objects, arrows, identity, inverse, table = _half_point_tables()
        arrows["s"] = entry
        with pytest.raises(error) as exc:
            FiniteGroupoid(objects, arrows, identity, inverse, table)
        assert str(exc.value).startswith(message)

    def test_first_bad_arrow_is_named(self):
        objects, arrows, identity, inverse, table = _half_point_tables()
        arrows = {"e": ("pt", "pt"), "s": ("pt", "qq"), "t": ("pt", "pt", "pt")}
        inverse = {"e": "e", "s": "s", "t": "t"}
        with pytest.raises(ValueError) as exc:
            FiniteGroupoid(objects, arrows, identity, inverse, table)
        assert str(exc.value) == "arrow 's' references unknown objects ('pt', 'qq')"

    @pytest.mark.parametrize("identity", [{}, {"pt": "e", "qq": "e"}], ids=["missing", "extra"])
    def test_identity_coverage(self, identity):
        objects, arrows, _, inverse, table = _half_point_tables()
        with pytest.raises(ValueError, match="^identity table must cover exactly the objects$"):
            FiniteGroupoid(objects, arrows, identity, inverse, table)

    def test_identity_that_is_not_an_arrow(self):
        objects, arrows, _, inverse, table = _half_point_tables()
        with pytest.raises(ValueError) as exc:
            FiniteGroupoid(objects, arrows, {"pt": "x"}, inverse, table)
        assert str(exc.value) == "identity of 'pt' is not an arrow"

    @pytest.mark.parametrize("inverse", [{"e": "e"}, {"e": "e", "s": "s", "x": "e"}],
                             ids=["missing", "extra"])
    def test_inverse_coverage(self, inverse):
        objects, arrows, identity, _, table = _half_point_tables()
        with pytest.raises(ValueError, match="^inverse table must cover exactly the arrows$"):
            FiniteGroupoid(objects, arrows, identity, inverse, table)

    def test_inverse_that_is_not_an_arrow(self):
        objects, arrows, identity, _, table = _half_point_tables()
        with pytest.raises(ValueError) as exc:
            FiniteGroupoid(objects, arrows, identity, {"e": "x", "s": "s"}, table)
        assert str(exc.value) == "inverse of 'e' is not an arrow"


# ---------------------------------------------------------------------------
# constructors and the endpoint-pair count against per-arrow references


def _tables(g):
    ends, identity, inverse = g._built()
    return g.objects, list(ends.items()), identity, inverse


def _reference_block(points, group):
    objects = tuple(points)
    arrows = [((x, y, gam), (x, y)) for x in objects for y in objects for gam in group.elements]
    identity = {x: (x, x, group.identity) for x in objects}
    inverse = {(x, y, gam): (y, x, group.inv(gam)) for (x, y, gam), _ in arrows}
    return objects, arrows, identity, inverse


def _reference_union(parts):
    objects, arrows, identity, inverse = [], [], {}, {}
    for i, g in enumerate(parts):
        ends, ident, inv = g._built()
        for x in g.objects:
            objects.append((i, x))
            identity[(i, x)] = (i, ident[x])
        for a, (lo, ro) in ends.items():
            arrows.append(((i, a), ((i, lo), (i, ro))))
            inverse[(i, a)] = (i, inv[a])
    return tuple(objects), arrows, identity, inverse


def _action(group, kind):
    """A valid left action of ``group``: trivial, regular or by conjugation."""
    if kind == "trivial":
        return action_groupoid(group, ["u", "v"], lambda h, x: x)
    if kind == "regular":
        return action_groupoid(group, group.elements, group.mult)
    return action_groupoid(group, group.elements,
                           lambda h, x: group.mult(group.mult(h, x), group.inv(h)))


@st.composite
def _any_groupoid(draw, kinds=("random", "action", "json", "link")):
    """A random, action, JSON-loaded or linking groupoid."""
    kind = draw(st.sampled_from(kinds))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    if kind == "random":
        return _small_groupoid(seed)
    if kind == "action":
        return _action(draw(st.sampled_from(group_zoo(6))),
                       draw(st.sampled_from(["trivial", "regular", "conjugation"])))
    if kind == "json":
        return groupoid_from_dict(groupoid_to_dict(_small_groupoid(seed)))
    return linking_groupoid(*random_morita_triple(seed))


def _string_ids(g):
    """g with ids renamed to strings in arrow order, composing through g's own rule;
    "g10" sorts before "g2", so name order is not arrow order."""
    obj = {x: f"x{i}" for i, x in enumerate(g.objects)}
    arr = {a: f"g{i}" for i, a in enumerate(g.arrow_ids)}
    back = {name: a for a, name in arr.items()}
    ends, ident, inv = g._built()
    return FiniteGroupoid(obj.values(), {arr[a]: (obj[lo], obj[ro]) for a, (lo, ro) in ends.items()},
                          {obj[x]: arr[a] for x, a in ident.items()},
                          {arr[a]: arr[b] for a, b in inv.items()},
                          lambda p, q: arr[g.compose(back[p], back[q])])


@settings(max_examples=60, deadline=None)
@given(_any_groupoid() | _any_groupoid(("random", "link")).map(_string_ids))
def test_dump_emits_compose_rows_in_name_order(g):
    # the rows a sort of the per-object walk gives, arrows by id, and a dump
    # that loads back and dumps to the same bytes
    _, name = _renaming(g)
    data = groupoid_to_dict(g)
    assert data["compose"] == sorted([name[p], name[q], name[g.compose(p, q)]] for y in g.objects
                                     for p in g.arrows_into(y) for q in g.arrows_from(y))
    ids = [a["id"] for a in data["arrows"]]
    assert ids == sorted(ids)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.json"), os.path.join(tmp, "second.json")
        dump_groupoid(g, first)
        dump_groupoid(load_groupoid(first), second)
        with open(first, "rb") as fh1, open(second, "rb") as fh2:
            assert fh1.read() == fh2.read()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(group_zoo(8))),
                min_size=1, max_size=3))
def test_block_union_tables_match_reference(blocks):
    parts = [block_groupoid([f"p{j}" for j in range(n)], grp) for n, grp in blocks]
    for (n, grp), part in zip(blocks, parts):
        assert _tables(part) == _reference_block([f"p{j}" for j in range(n)], grp)
    assert _tables(disjoint_union(*parts)) == _reference_union(parts)


@settings(max_examples=40, deadline=None)
@given(st.lists(_any_groupoid(("action", "json")) | st.builds(
    block_groupoid, st.sampled_from([range(2), ["pt"]]), st.sampled_from(group_zoo(4))),
    min_size=1, max_size=3))
def test_union_of_any_parts_matches_reference(parts):
    union = disjoint_union(*parts)
    assert _tables(union) == _reference_union(parts)
    assert validate(union).ok


def _reference_orbits(g):
    """Components by search over every arrow; isotropy by counting loops."""
    neighbours = {x: set() for x in g.objects}
    ends = g._built()[0]
    for lo, ro in ends.values():
        neighbours[lo].add(ro)
        neighbours[ro].add(lo)
    seen, found = set(), []
    for x in g.objects:
        if x in seen:
            continue
        members, frontier = set(), [x]
        while frontier:
            y = frontier.pop()
            if y not in members:
                members.add(y)
                frontier.extend(neighbours[y])
        seen |= members
        rep = min(members, key=repr)
        loops = sum(1 for e in ends.values() if e == (rep, rep))
        found.append((rep, frozenset(members), loops))
    return sorted(found, key=lambda o: repr(o[0]))


@settings(max_examples=80, deadline=None)
@given(_any_groupoid())
def test_orbits_and_fibers_match_per_arrow_references(g):
    dec = orbits(g)
    assert [(o.representative, o.objects, o.isotropy_order) for o in dec] == _reference_orbits(g)
    assert type(dec) is tuple and dec is orbits(g)
    ends = g._built()[0]
    assert g.fiber_index() == tuple(
        (y, tuple(Counter(ends[a][0] for a in g.arrows_into(y)).items())) for y in g.objects)
    assert dict(g.pair_counts()) == Counter(ends.values())


class TestPairCounts:
    def test_counts_are_memoized_and_read_only(self):
        g = disjoint_union(block_groupoid([0, 1], FiniteGroup.cyclic(3)), z_n(2))
        counts = g.pair_counts()
        assert counts is g.pair_counts()
        assert counts[((0, 0), (0, 1))] == 3 and counts[((1, "pt"), (1, "pt"))] == 2
        assert counts[((0, 0), (1, "pt"))] == 0
        with pytest.raises(TypeError):
            counts[((0, 0), (0, 0))] = 1
        assert [o.isotropy_order for o in orbits(g) if (0, 0) in o.objects] == [3]

    def test_orbits_read_no_arrow_endpoints(self, monkeypatch):
        g = random_groupoid(11)
        g.pair_counts()
        for name in ("_built", "arrows_from", "arrows_into"):
            monkeypatch.setattr(g, name, None)
        assert cardinality(g) == fiber_volume(g, unit_weights(g))


@given(st.integers(min_value=1, max_value=12))
def test_group_zoo_returns_a_fresh_list(max_order):
    first = group_zoo(max_order)
    second = group_zoo(max_order)
    assert type(first) is list and first is not second
    assert all(a is b for a, b in zip(first, second)) and len(first) == len(second)
    first.clear()
    assert group_zoo(max_order) == second


# ids that name no arrow of any constructor below; a hit is decided by the reference anyway
_NOT_ARROWS = ("nope", None, -1, ("p0",), ("p0", "p0"), (0, "pt", 0), (7, "nope"))


@st.composite
def _constructed_with_reference(draw, depth=0):
    """A constructor's groupoid, with its arrows' endpoints and products written
    out independently, and the ids that are not its arrows but are near misses:
    the untagged arrows of a union's parts and the arrows a restriction removed."""
    kinds = ["block", "action", "empty"] + (["union", "restrict"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "empty":
        return FiniteGroupoid((), {}, {}, {}, {}), {}, None, []
    grp = draw(st.sampled_from(group_zoo(4)))
    if kind == "block":
        pts = [f"p{j}" for j in range(draw(st.integers(1, 3)))]
        ends = {(x, y, gam): (x, y) for x in pts for y in pts for gam in grp.elements}
        return (block_groupoid(pts, grp), ends,
                lambda p, q: (p[0], q[1], grp.mult(p[2], q[2])), [])
    if kind == "action":
        pts, act = draw(st.sampled_from([
            (["u", "v"], lambda h, x: x),
            (grp.elements, grp.mult),
            (grp.elements, lambda h, x: grp.mult(grp.mult(h, x), grp.inv(h))),
        ]))
        ends = {(h, x): (act(h, x), x) for h in grp.elements for x in pts}
        return (action_groupoid(grp, pts, act), ends,
                lambda p, q: (grp.mult(p[0], q[0]), q[1]), [])
    if kind == "union":
        parts = draw(st.lists(_constructed_with_reference(depth + 1), min_size=1, max_size=3))
        ends = {(i, a): ((i, lo), (i, ro)) for i, (_, part_ends, _, _) in enumerate(parts)
                for a, (lo, ro) in part_ends.items()}
        products = [product for _, _, product, _ in parts]
        near = [a for _, part_ends, _, part_near in parts for a in (*part_ends, *part_near)]
        return (disjoint_union(*(g for g, _, _, _ in parts)), ends,
                lambda p, q: (p[0], products[p[0]](p[1], q[1])), near)
    g, g_ends, product, near = draw(_constructed_with_reference(depth + 1))
    keep = set(draw(st.lists(st.sampled_from(g.objects), unique=True))) if g.objects else set()
    ends = {a: lr for a, lr in g_ends.items() if keep.issuperset(lr)}
    return (restrict_to_objects(g, keep), ends, product,
            near + [a for a in g_ends if a not in ends])


@settings(max_examples=150, deadline=None)
@given(_constructed_with_reference(), st.data())
def test_compose_raises_exactly_off_the_fibered_product(built, data):
    g, ends, product, near = built
    composable = {(p, q) for p in ends for q in ends if ends[p][1] == ends[q][0]}
    arrows, _, _, table = TestValidate._materialize(g)
    assert arrows == ends
    assert table == {(p, q): product(p, q) for p, q in composable}
    pool = sorted({*ends, *near, *_NOT_ARROWS}, key=repr)
    for p, q in data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                                   max_size=40)):
        if (p, q) in composable:
            assert g.compose(p, q) == product(p, q)
        else:
            with pytest.raises(UndefinedComposition):
                g.compose(p, q)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([range(1), range(2), ["p", "q"]]),
                          st.sampled_from(group_zoo(3))), max_size=3), st.data())
def test_table_and_rule_copies_compose_alike(specs, data):
    """A JSON round trip of a block union, with spurious entries added to its
    compose table, composes every ordered pair of arrows as the union does."""
    g = block_union(specs)
    _, names = _renaming(g)
    doc = groupoid_to_dict(g)
    ends = g._built()[0]
    apart = sorted(((p, q) for p in ends for q in ends if ends[p][1] != ends[q][0]), key=repr)
    if apart:
        for p, q in data.draw(st.lists(st.sampled_from(apart), max_size=4, unique=True)):
            doc["compose"].append([names[p], names[q], names[p]])
    loaded = groupoid_from_dict(doc)
    for p in ends:
        for q in ends:
            try:
                expected = names[g.compose(p, q)]
            except UndefinedComposition:
                with pytest.raises(UndefinedComposition):
                    loaded.compose(names[p], names[q])
            else:
                assert loaded.compose(names[p], names[q]) == expected


def test_union_and_restriction_keep_no_part_alive():
    parts = [block_groupoid([0, 1], FiniteGroup.cyclic(3)),
             _action(FiniteGroup.symmetric(3), "conjugation"),
             groupoid_from_dict(groupoid_to_dict(_small_groupoid(3))),
             FiniteGroupoid((), {}, {}, {}, {})]
    parts.append(restrict_to_objects(parts[0], [1]))
    refs = [weakref.ref(g) for g in parts]
    union = disjoint_union(*parts)
    expected = _composites(union)
    del parts
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    assert _composites(union) == expected
    assert validate(union).ok


def _ordered_tables(g):
    """Every table of g in iteration order, and every composite."""
    ends, identity, inverse = g._built()
    return (g.objects, list(ends.items()), list(identity.items()), list(inverse.items()),
            [(a, b, g.compose(a, b)) for a, (_, ro) in ends.items() for b in g.arrows_from(ro)])


def _block_specs():
    return st.lists(st.tuples(st.sampled_from([range(1), range(3), ["p", "q"], ("pt",), ()]),
                              st.sampled_from(group_zoo(8))), max_size=4)


@settings(max_examples=80, deadline=None)
@given(_block_specs(), st.data())
def test_block_union_matches_union_of_blocks(specs, data):
    g = block_union(specs)
    ref = disjoint_union(*(block_groupoid(pts, grp) for pts, grp in specs))
    assert _ordered_tables(g) == _ordered_tables(ref)
    assert list(g.pair_counts().items()) == list(ref.pair_counts().items())
    assert g.fiber_index() == ref.fiber_index()
    assert ([(o.representative, o.objects, o.isotropy_order) for o in orbits(g)]
            == [(o.representative, o.objects, o.isotropy_order) for o in orbits(ref)])
    assert validate(g).ok and validate(ref).ok
    # near misses: untagged arrows, arrows of a block under another tag, and non-arrows
    near = [a for _, a in g.arrow_ids] + [(i + 1, a) for i, a in g.arrow_ids] + list(_NOT_ARROWS)
    pool = sorted({*g.arrow_ids, *near}, key=repr)
    ends = ref._built()[0]
    for p, q in data.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                                   max_size=60)):
        if p in ends and q in ends and ends[p][1] == ends[q][0]:
            assert g.compose(p, q) == ref.compose(p, q)
        else:
            with pytest.raises(UndefinedComposition):
                g.compose(p, q)


def test_block_union_refuses_duplicate_points():
    # at construction: the tables that would show the clash are built only on first use
    with pytest.raises(ValueError, match="duplicate points"):
        block_union([(range(2), FiniteGroup.cyclic(2)), ([0, 0], FiniteGroup.cyclic(2))])


def _unbuilt(g):
    return g._arrows is None and g._identity is None and g._inverse is None


def _exact_invariants(g, w):
    """What the exact volumes read, in order: none of it needs an arrow table."""
    return (g.objects, g.arrow_count, list(g.pair_counts().items()),
            [(o.representative, o.objects, o.isotropy_order) for o in orbits(g)],
            fiber_volume(g, w), orbit_volume(g, w))


@settings(max_examples=60, deadline=2000)
@given(st.lists(st.tuples(st.integers(0, 4), st.booleans(), st.sampled_from(group_zoo(8))),
                max_size=4), st.integers(0, 2 ** 32))
def test_lazy_block_union_matches_reference_before_and_after_building(blocks, seed):
    specs = [(range(n) if as_range else [f"p{j}" for j in range(n)], grp)
             for n, as_range, grp in blocks]
    ref = disjoint_union(*(block_groupoid(pts, grp) for pts, grp in specs))
    w = random_invariant_weights(ref, seed)
    expected = _exact_invariants(ref, w)
    lazy, built = block_union(specs), block_union(specs)
    assert _unbuilt(lazy) and _unbuilt(built)
    assert _exact_invariants(lazy, w) == expected and _unbuilt(lazy)
    assert repr(lazy) == repr(ref) and _unbuilt(lazy)
    assert list(built.arrow_ids) == list(ref.arrow_ids) and not _unbuilt(built)
    assert _exact_invariants(built, w) == expected
    # the tables, once built, give the pair counts that came from the specs
    assert list(Counter(built._built()[0].values()).items()) == expected[2]
    assert validate(lazy).ok and not _unbuilt(lazy)
    assert _exact_invariants(lazy, w) == expected


@pytest.mark.parametrize("seed", [0, 7, 11, 1000])
def test_exact_volumes_leave_random_groupoid_tables_unbuilt(seed):
    g = random_groupoid(seed, max_objects=40, max_group_order=8)
    w = random_invariant_weights(g, seed)
    assert fiber_volume(g, w) == orbit_volume(g, w)
    assert cardinality(g) == fiber_volume(g, unit_weights(g))
    assert _unbuilt(g)


def test_random_groupoid_refuses_a_draw_over_the_arrow_cap():
    assert MAX_RANDOM_ARROWS >= 10 * 40 ** 2 * 8  # the largest groupoid the benchmark draws
    with pytest.raises(ValueError, match=f"over the cap of {MAX_RANDOM_ARROWS}$"):
        random_groupoid(1, max_objects=10 ** 12)  # about 4.6e23 arrows: no object is made


@pytest.mark.parametrize("bounds", [(8, 6), (12, 8), (3, 3)])
def test_random_groupoid_is_the_union_of_its_blocks(bounds):
    for seed in range(50):
        g = random_groupoid(seed, *bounds)
        # a disjoint_union of separately built blocks
        ref = disjoint_union(*(block_groupoid(*spec) for spec in random_block_specs(seed, *bounds)))
        assert _ordered_tables(g) == _ordered_tables(ref)
        assert g.fiber_index() == ref.fiber_index()


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.booleans(), st.sampled_from(group_zoo(8))),
                min_size=1, max_size=4))
def test_block_union_builds_its_pair_counts_on_first_use(blocks):
    specs = [(range(n) if as_range else [f"p{j}" for j in range(n)], grp)
             for n, as_range, grp in blocks]
    # what a sampler reads of a draw it keeps or throws away builds no pair count
    fresh = block_union(specs)
    assert len(fresh.objects) == sum(n for n, _, _ in blocks)
    assert fresh.arrow_count == sum(n * n * grp.order for n, _, grp in blocks)
    assert fresh._pair_counts is None and _unbuilt(fresh)
    g = block_union(specs)
    counts = list(g.pair_counts().items())
    assert _unbuilt(g)
    ends = g._built()[0]
    assert counts == list(Counter(ends.values()).items())
    assert g.arrow_count == len(g.arrow_ids)


def _reference_invariant_weights(g, rng):
    """random_invariant_weights as a product of Fractions: a, then one draw per orbit."""
    a = {x: Fraction(rng.randint(1, 6), rng.randint(1, 4)) for x in g.objects}
    section = {}
    for orb in orbits(g):
        section.update(dict.fromkeys(orb.objects, Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
    return a, {x: a[x] * section[x] for x in g.objects}


def _items(weights):
    return [(x, v, type(v)) for x, v in weights.items()]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 63), st.integers(0, 2 ** 63), st.integers(1, 12), st.integers(1, 6))
def test_weight_generators_keep_their_values_and_draw_order(seed, draw_seed, n, order):
    g = random_groupoid(seed, max_objects=n, max_group_order=order)
    a, b = _reference_invariant_weights(g, random.Random(draw_seed))
    w = random_invariant_weights(g, draw_seed)
    assert (_items(w.a), _items(w.b)) == (_items(a), _items(b))
    rng, ref_rng = random.Random(draw_seed), random.Random(draw_seed)
    w = random_invariant_weights(g, rng)
    assert (_items(w.a), _items(w.b)) == (_items(a), _items(b))
    _reference_invariant_weights(g, ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    rng = random.Random(draw_seed)
    assert _items(random_positive_rescaling(g, draw_seed)) == _items(
        {x: Fraction(rng.randint(1, 9), rng.randint(1, 5)) for x in g.objects})


def _bfs_orbits(g):
    """Orbits by breadth-first search over the endpoint pairs, both ways."""
    neighbours = {x: [] for x in g.objects}
    for lo, ro in g.pair_counts():
        neighbours[lo].append(ro)
        neighbours[ro].append(lo)
    seen, found = set(), []
    for x in g.objects:
        if x in seen:
            continue
        seen.add(x)
        members, queue = [x], [x]
        for y in queue:
            for z in neighbours[y]:
                if z not in seen:
                    seen.add(z)
                    members.append(z)
                    queue.append(z)
        rep = min(members, key=repr)
        found.append((rep, frozenset(members), g.pair_counts()[rep, rep]))
    return sorted(found, key=lambda o: repr(o[0]))


@st.composite
def _shuffled_json_groupoid(draw):
    """A JSON-loaded groupoid with its arrows in drawn order: a dump of a valid
    one, or identities plus arrows between drawn objects with no composites,
    whose Hom relation need be neither symmetric nor transitive."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        doc = groupoid_to_dict(draw(_any_groupoid(("random", "action", "link"))))
    else:
        objects = [f"x{i}" for i in range(draw(st.integers(0, 8)))]
        extra = draw(st.lists(st.tuples(st.sampled_from(objects), st.sampled_from(objects)),
                              max_size=12)) if objects else []
        ends = [(x, x) for x in objects] + extra
        doc = {"objects": objects,
               "arrows": [{"id": f"a{i}", "l": lo, "r": ro} for i, (lo, ro) in enumerate(ends)],
               "identity": {x: f"a{i}" for i, x in enumerate(objects)},
               "inverse": {f"a{i}": f"a{i}" for i in range(len(ends))},
               "compose": []}
    rng.shuffle(doc["arrows"])
    rng.shuffle(doc["objects"])
    return groupoid_from_dict(doc)


@settings(max_examples=120, deadline=None)
@given(_shuffled_json_groupoid())
def test_orbits_match_a_breadth_first_search_over_pair_counts(g):
    assert [(o.representative, o.objects, o.isotropy_order) for o in orbits(g)] == _bfs_orbits(g)
