"""Equivalence bibundles, linking groupoids, and volume transfer."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import stackvol.finite as finite_module
import stackvol.morita as morita_module
from stackvol import jsonio
from stackvol.errors import SchemaError
from stackvol.finite import (
    FiniteGroupoid,
    UndefinedComposition,
    WeightData,
    _check_axioms,
    block_groupoid,
    cardinality,
    check_strict_isomorphism,
    classifying_groupoid,
    fiber_volume,
    orbits,
    pair_groupoid,
    random_invariant_weights,
    unit_weights,
    validate,
)
from stackvol.groups import FiniteGroup, group_zoo
from stackvol.morita import (
    BRIDGE,
    BRIDGE_INV,
    LEFT,
    RIGHT,
    Bibundle,
    InconsistentSectionError,
    InvalidBibundleError,
    NotFullError,
    SectionMismatchError,
    block_bibundle,
    extend_invariant_section,
    left_object_ids,
    linking_groupoid,
    morita_volume_check,
    random_morita_triple,
    random_morita_weights,
    right_object_ids,
    transfer_section,
    validate_bibundle,
)

from test_finite import disjoint_union  # the reference union of separately built parts

# frozen oracles:
#   one-object groupoid with order-2 symmetry, equivalent to itself through
#   a two-element torsor: linking has 2 objects and 2 + 2 + 2*2 = 8 arrows
#   pair groupoid on two points, equivalent to a single point: linking has
#   3 objects and 4 + 1 + 2*2 = 9 arrows; with section value 3 both volumes
#   equal 3


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


def identity_bibundle(g: FiniteGroupoid) -> Bibundle:
    """The groupoid acting on its own arrows by composition on both sides."""
    elements = list(g.arrow_ids)
    composites = {(p, q): g.compose(p, q)
                  for y in g.objects for p in g.arrows_into(y) for q in g.arrows_from(y)}
    return Bibundle(elements, {a: g.l(a) for a in elements}, {a: g.r(a) for a in elements},
                    composites, composites)


def _arrow(k):
    return ("pt", "pt", k)


def z2_self_equivalence():
    """pt mod Z2 equivalent to itself through the group as a torsor."""
    g = classifying_groupoid(FiniteGroup.cyclic(2))
    elements = (0, 1)
    anchor = {0: "pt", 1: "pt"}
    left = {(_arrow(k), b): (k + b) % 2 for k in (0, 1) for b in (0, 1)}
    right = {(b, _arrow(k)): (b + k) % 2 for k in (0, 1) for b in (0, 1)}
    return g, g, Bibundle(elements, anchor, dict(anchor), left, right)


class TestBibundleBasics:
    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError):
            Bibundle([0, 0], {0: "pt"}, {0: "pt"}, {}, {})

    def test_anchor_cover_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Bibundle([0, 1], {0: "pt"}, {0: "pt", 1: "pt"}, {}, {})


class TestValidateBibundle:
    def test_hand_fixture_passes(self):
        g1, g2, bib = z2_self_equivalence()
        report = validate_bibundle(g1, g2, bib)
        assert report.ok, report.summary()

    def test_block_bibundle_passes(self):
        group = FiniteGroup.symmetric(3)
        g1 = block_groupoid(range(2), group)
        g2 = block_groupoid(range(3), group)
        bib = block_bibundle(range(2), range(3), group)
        assert validate_bibundle(g1, g2, bib).ok

    def test_non_free_action_flagged(self):
        g1, g2, _ = z2_self_equivalence()
        left = {(_arrow(k), b): (k + b) % 2 for k in (0, 1) for b in (0, 1)}
        frozen_right = {(b, _arrow(k)): b for k in (0, 1) for b in (0, 1)}
        bib = Bibundle((0, 1), {0: "pt", 1: "pt"}, {0: "pt", 1: "pt"},
                       left, frozen_right)
        report = validate_bibundle(g1, g2, bib)
        assert not report.ok
        assert any(v.axiom == "right action not free" and v.witness == (b, _arrow(0), _arrow(1))
                   for v in report.violations for b in (0, 1))
        # no right arrow carries 0 to 1, so the right action is not transitive
        assert any(v.axiom == "missing composition"
                   and v.witness == ((BRIDGE_INV, 0), (BRIDGE, 1))
                   for v in report.violations)

    def test_missed_object_flagged(self):
        g1, _, bib = z2_self_equivalence()
        wide = block_groupoid(("pt", "qt"), FiniteGroup.cyclic(2))
        report = validate_bibundle(g1, wide, bib)
        assert not report.ok
        assert "anchor not surjective" in report.axioms()

    def test_spurious_table_entry_flagged(self):
        g1, g2, _ = z2_self_equivalence()
        left = {(_arrow(k), b): (k + b) % 2 for k in (0, 1) for b in (0, 1)}
        left[(_arrow(0), 7)] = 0
        right = {(b, _arrow(k)): (b + k) % 2 for k in (0, 1) for b in (0, 1)}
        bib = Bibundle((0, 1), {0: "pt", 1: "pt"}, {0: "pt", 1: "pt"}, left, right)
        report = validate_bibundle(g1, g2, bib)
        assert not report.ok
        assert "left action domain" in report.axioms()

    def test_anchor_outside_objects_flagged(self):
        g1, g2, _ = z2_self_equivalence()
        bib = Bibundle((0,), {0: "elsewhere"}, {0: "pt"}, {}, {})
        report = validate_bibundle(g1, g2, bib)
        assert not report.ok
        assert "anchor range" in report.axioms()

    def test_refused_factor_composite_is_a_violation(self):
        g, _, bib = z2_self_equivalence()
        refused = (_arrow(1), _arrow(1))

        def compose(p, q):
            if (p, q) == refused:
                raise UndefinedComposition((p, q))
            return g.compose(p, q)

        broken = FiniteGroupoid(g.objects, {a: (g.l(a), g.r(a)) for a in g.arrow_ids},
                                {x: g.identity(x) for x in g.objects},
                                {a: g.inverse(a) for a in g.arrow_ids}, compose)
        left = validate_bibundle(broken, g, bib)
        assert any(v.axiom == "missing composition"
                   and v.witness == tuple((LEFT, a) for a in refused)
                   for v in left.violations)
        right = validate_bibundle(g, broken, bib)
        assert any(v.axiom == "missing composition"
                   and v.witness == tuple((RIGHT, a) for a in refused)
                   for v in right.violations)

    def test_volume_check_then_link_scans_the_bibundle_once(self, monkeypatch):
        import stackvol.morita as morita_module

        g1, g2, bib = random_morita_triple(11)
        # weights drawn on an equal copy, so bib's link is not built here
        w1, w2 = random_morita_weights(*random_morita_triple(11), 12)
        scans = []
        build = morita_module._build_link
        monkeypatch.setattr(morita_module, "_build_link",
                            lambda *args: scans.append(args) or build(*args))
        assert morita_volume_check(g1, g2, bib, w1, w2).equal
        link = linking_groupoid(g1, g2, bib)
        assert validate(link).ok
        assert len(scans) == 1
        assert linking_groupoid(g1, g2, bib) is link
        # the memo is keyed on the groupoid objects, not on equal tables
        h1, h2, _ = random_morita_triple(11)
        assert validate_bibundle(h1, h2, bib).ok
        assert len(scans) == 2


class TestLinkingGroupoid:
    def test_arrow_count_formula(self):
        g1, g2, bib = z2_self_equivalence()
        link = linking_groupoid(g1, g2, bib)
        assert len(link.objects) == 2
        assert link.arrow_count == g1.arrow_count + g2.arrow_count + 2 * len(bib.elements)
        assert link.arrow_count == 8

    def test_linking_validates_as_groupoid(self):
        g1, g2, bib = z2_self_equivalence()
        link = linking_groupoid(g1, g2, bib)
        report = validate(link)
        assert report.ok, report.summary()

    def test_point_presentation_linking(self):
        g1 = pair_groupoid([1, 2])
        g2 = classifying_groupoid(FiniteGroup.trivial())
        bib = block_bibundle([1, 2], ["pt"], FiniteGroup.trivial())
        link = linking_groupoid(g1, g2, bib)
        assert len(link.objects) == 3
        assert link.arrow_count == 9
        assert validate(link).ok
        # one orbit: the two presentations really are glued together
        assert cardinality(link) == Fraction(1, 1)

    def test_bridge_compositions_against_transport(self):
        g1, g2, bib = z2_self_equivalence()
        link = linking_groupoid(g1, g2, bib)
        # bridge then inverse bridge lands in the left factor: the unique
        # left arrow moving the second element onto the first
        assert link.compose((BRIDGE, 1), (BRIDGE_INV, 0)) == (LEFT, _arrow(1))
        assert link.compose((BRIDGE, 0), (BRIDGE_INV, 0)) == (LEFT, _arrow(0))
        # inverse bridge then bridge lands in the right factor
        assert link.compose((BRIDGE_INV, 1), (BRIDGE, 0)) == (RIGHT, _arrow(1))
        # factor arrows act on bridge elements
        assert link.compose((LEFT, _arrow(1)), (BRIDGE, 0)) == (BRIDGE, 1)
        assert link.compose((BRIDGE, 0), (RIGHT, _arrow(1))) == (BRIDGE, 1)
        # bridges invert to formal inverses
        assert link.inverse((BRIDGE, 1)) == (BRIDGE_INV, 1)

    def test_invalid_bibundle_blocks_linking(self):
        g1, g2, _ = z2_self_equivalence()
        left = {(_arrow(k), b): (k + b) % 2 for k in (0, 1) for b in (0, 1)}
        frozen_right = {(b, _arrow(k)): b for k in (0, 1) for b in (0, 1)}
        bad = Bibundle((0, 1), {0: "pt", 1: "pt"}, {0: "pt", 1: "pt"},
                       left, frozen_right)
        with pytest.raises(InvalidBibundleError):
            linking_groupoid(g1, g2, bad)
        with pytest.raises(InvalidBibundleError):
            transfer_section(g1, g2, bad, {"pt": Fraction(1)})

    def test_restriction_to_left_factor_is_isomorphic(self):
        g = disjoint_union(classifying_groupoid(FiniteGroup.cyclic(2)),
                           pair_groupoid([1, 2]))
        bib = identity_bibundle(g)
        assert validate_bibundle(g, g, bib).ok
        link = linking_groupoid(g, g, bib)
        from stackvol.finite import restrict_to_objects
        left_part = restrict_to_objects(link, left_object_ids(g))
        obj_map = {x: (LEFT, x) for x in g.objects}
        arrow_map = {a: (LEFT, a) for a in g.arrow_ids}
        assert check_strict_isomorphism(g, left_part, obj_map, arrow_map)
        right_part = restrict_to_objects(link, right_object_ids(g))
        obj_map_r = {x: (RIGHT, x) for x in g.objects}
        arrow_map_r = {a: (RIGHT, a) for a in g.arrow_ids}
        assert check_strict_isomorphism(g, right_part, obj_map_r, arrow_map_r)


class TestSectionTransfer:
    def test_extension_from_one_point_per_orbit(self):
        g = pair_groupoid([1, 2, 3])
        section = extend_invariant_section(g, [2], {2: Fraction(5)})
        assert section == {1: Fraction(5), 2: Fraction(5), 3: Fraction(5)}

    def test_extension_needs_a_subset_meeting_every_orbit(self):
        g = disjoint_union(classifying_groupoid(FiniteGroup.cyclic(2)),
                           classifying_groupoid(FiniteGroup.cyclic(3)))
        with pytest.raises(NotFullError, match="misses the orbit"):
            extend_invariant_section(g, [(0, "pt")], {(0, "pt"): Fraction(1)})

    def test_inconsistent_partial_section_rejected(self):
        g = pair_groupoid([1, 2])
        with pytest.raises(InconsistentSectionError):
            extend_invariant_section(g, [1, 2], {1: Fraction(1), 2: Fraction(2)})

    def test_transfer_through_torsor_is_identity_here(self):
        g1, g2, bib = z2_self_equivalence()
        out = transfer_section(g1, g2, bib, {"pt": Fraction(7, 3)})
        assert out == {"pt": Fraction(7, 3)}

    def test_transfer_multi_block(self):
        g1, g2, bib = random_morita_triple(42, max_blocks=2, max_points=3)
        section = {}
        for i, val in enumerate((Fraction(2), Fraction(5, 2), Fraction(9))):
            section.update({x: val for x in g1.objects if x[0] == i})
        section = {x: section[x] for x in g1.objects}
        out = transfer_section(g1, g2, bib, section)
        # orbits correspond blockwise, so values follow the block tag
        for y, val in out.items():
            sample = next(x for x in g1.objects if x[0] == y[0])
            assert val == section[sample]

    def test_non_invariant_input_section_rejected(self):
        g1 = pair_groupoid([1, 2])
        g2 = classifying_groupoid(FiniteGroup.trivial())
        bib = block_bibundle([1, 2], ["pt"], FiniteGroup.trivial())
        with pytest.raises(InconsistentSectionError):
            transfer_section(g1, g2, bib, {1: Fraction(1), 2: Fraction(2)})


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.data())
def test_transfer_refuses_exactly_the_sections_not_constant_on_orbits(seed, data):
    # the anchors over each object of g2 fill one orbit of g1, and every orbit
    # is filled, so the transfer's own check sees every non-constant orbit
    g1, g2, bib = random_morita_triple(seed)
    section = {x: Fraction(data.draw(st.integers(0, 1))) for x in g1.objects}
    if all(len({section[x] for x in orb.objects}) == 1 for orb in orbits(g1)):
        assert transfer_section(g1, g2, bib, section).keys() == set(g2.objects)
    else:
        with pytest.raises(InconsistentSectionError):
            transfer_section(g1, g2, bib, section)


class TestMoritaVolume:
    def test_point_presentation_frozen_volume(self):
        g1 = pair_groupoid([1, 2])
        g2 = classifying_groupoid(FiniteGroup.trivial())
        bib = block_bibundle([1, 2], ["pt"], FiniteGroup.trivial())
        w1 = WeightData({1: 1, 2: 1}, {1: 3, 2: 3})
        w2 = WeightData({"pt": 1}, {"pt": 3})
        report = morita_volume_check(g1, g2, bib, w1, w2)
        assert report.equal
        assert report.volume_left == 3
        assert report.volume_right == 3

    def test_unit_weights_give_cardinality_on_both_sides(self):
        g1, g2, bib = z2_self_equivalence()
        report = morita_volume_check(g1, g2, bib, unit_weights(g1), unit_weights(g2))
        assert report.equal
        assert report.volume_left == Fraction(1, 2)

    def test_mismatched_sections_rejected(self):
        g1, g2, bib = z2_self_equivalence()
        w1 = unit_weights(g1)
        w2 = WeightData({"pt": 1}, {"pt": 2})
        with pytest.raises(SectionMismatchError) as exc:
            morita_volume_check(g1, g2, bib, w1, w2)
        assert "sections not corresponding" in str(exc.value)

    def test_random_triples_validate_and_agree(self):
        for seed in range(6):
            g1, g2, bib = random_morita_triple(seed)
            assert validate_bibundle(g1, g2, bib).ok
            w1, w2 = random_morita_weights(g1, g2, bib, seed + 50)
            report = morita_volume_check(g1, g2, bib, w1, w2)
            assert report.equal, str(report)

    def test_report_formatting(self):
        g1, g2, bib = z2_self_equivalence()
        report = morita_volume_check(g1, g2, bib, unit_weights(g1), unit_weights(g2))
        assert "==" in str(report)


class TestBibundleAlgebra:
    def test_relabel_preserves_transfer(self):
        g1, g2, bib = z2_self_equivalence()
        renamed = relabel_bibundle(bib, {0: "u", 1: "v"})
        assert validate_bibundle(g1, g2, renamed).ok
        section = {"pt": Fraction(11, 4)}
        assert (transfer_section(g1, g2, bib, section)
                == transfer_section(g1, g2, renamed, section))

    def test_relabel_requires_bijection(self):
        _, _, bib = z2_self_equivalence()
        with pytest.raises(ValueError):
            relabel_bibundle(bib, {0: "u", 1: "u"})

    @pytest.mark.parametrize("side, entry, message", [
        ("left", (_arrow(0), 7), "(('pt', 'pt', 0), 7) -> 0"),
        ("right", ("nope", 0), "('nope', 0) -> 0"),
    ])
    def test_entry_naming_a_non_element_is_refused(self, side, entry, message):
        g1, g2, bib = z2_self_equivalence()
        (bib.left_action if side == "left" else bib.right_action)[entry] = 0
        with pytest.raises(ValueError) as exc:
            relabel_bibundle(bib, {0: "u", 1: "v"})
        assert str(exc.value) == f"action entry {message} names a non-element"
        with pytest.raises(SchemaError) as exc:
            jsonio.bibundle_to_dict(g1, g2, bib)
        assert str(exc.value) == f"bibundle: action entry {message} names a non-element"

    @pytest.mark.parametrize("table, key, value, message", [
        ("left_action", ("nope", 0), 1, "left action entry ('nope', 0) -> 1 names a non-arrow"),
        ("right_action", (0, "nope"), 1, "right action entry (0, 'nope') -> 1 names a non-arrow"),
        ("left_anchor", 0, "elsewhere", "left anchor 0 -> 'elsewhere' names a non-object"),
        ("right_anchor", 1, "elsewhere", "right anchor 1 -> 'elsewhere' names a non-object"),
    ])
    def test_dump_refuses_names_outside_the_groupoids(self, table, key, value, message):
        g1, g2, bib = z2_self_equivalence()
        getattr(bib, table)[key] = value
        with pytest.raises(SchemaError) as exc:
            jsonio.bibundle_to_dict(g1, g2, bib)
        assert str(exc.value) == f"bibundle: {message}"


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_equivalent_presentations_share_volume(seed):
    g1, g2, bib = random_morita_triple(seed)
    w1, w2 = random_morita_weights(g1, g2, bib, seed + 1)
    report = morita_volume_check(g1, g2, bib, w1, w2)
    assert report.equal


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=100_000))
def test_anchor_transfer_matches_linking_extension(seed, weight_seed):
    g1, g2, bib = random_morita_triple(seed)
    w1 = random_invariant_weights(g1, weight_seed)
    section = {x: w1.ratio(x) for x in g1.objects}
    link = linking_groupoid(g1, g2, bib)
    lifted = {(LEFT, x): section[x] for x in g1.objects}
    extended = extend_invariant_section(link, left_object_ids(g1), lifted)
    via_link = {y: extended[(RIGHT, y)] for y in g2.objects}
    assert transfer_section(g1, g2, bib, section) == via_link


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_linking_cardinality_counts_one_merged_orbit_per_block(seed):
    g1, g2, bib = random_morita_triple(seed)
    link = linking_groupoid(g1, g2, bib)
    # each merged orbit has isotropy of the shared block group, and unit
    # weights on the linking groupoid see both presentations at once
    assert fiber_volume(link, unit_weights(link)) == cardinality(link)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_linking_table_covers_exactly_the_composable_pairs(seed):
    link = linking_groupoid(*random_morita_triple(seed))
    for p in link.arrow_ids:
        for q in link.arrow_ids:
            if link.r(p) == link.l(q):
                pq = link.compose(p, q)
                assert (link.l(pq), link.r(pq)) == (link.l(p), link.r(q))
            else:
                with pytest.raises(UndefinedComposition):
                    link.compose(p, q)


def _action_tables(g1, g2, bib):
    return dict(bib.left_action), dict(bib.right_action)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(group_zoo(4)), st.integers(1, 3), st.integers(1, 3), st.data())
def test_retargeting_one_action_entry_is_refused(group, n, m, data):
    g1, g2 = block_groupoid(range(n), group), block_groupoid(range(m), group)
    bib = block_bibundle(range(n), range(m), group)
    assume(len(bib.elements) >= 2)
    left, right = _action_tables(g1, g2, bib)
    tabled = Bibundle(bib.elements, bib.left_anchor, bib.right_anchor, left, right)
    assert validate_bibundle(g1, g2, tabled).ok
    table = data.draw(st.sampled_from([left, right]))
    key = data.draw(st.sampled_from(sorted(table, key=repr)))
    table[key] = data.draw(st.sampled_from([e for e in bib.elements if e != table[key]]))
    mutated = Bibundle(bib.elements, bib.left_anchor, bib.right_anchor, left, right)
    report = validate_bibundle(g1, g2, mutated)
    assert not report.ok
    assert all(v.witness for v in report.violations)
    with pytest.raises(InvalidBibundleError):
        linking_groupoid(g1, g2, mutated)


def _union_of_blocks_triple(seed, max_blocks=2, max_points=3, max_group_order=4):
    """random_morita_triple's groupoids as disjoint unions of separately built
    blocks, drawing from the generator in the same order."""
    rng = random.Random(seed)
    zoo = group_zoo(max_group_order)
    blocks1, blocks2 = [], []
    for _ in range(rng.randint(1, max_blocks)):
        group = rng.choice(zoo)
        n = rng.randint(1, max_points)
        m = rng.randint(1, max_points)
        blocks1.append(block_groupoid(range(n), group))
        blocks2.append(block_groupoid(range(m), group))
    return disjoint_union(*blocks1), disjoint_union(*blocks2)


def _ordered_tables(g):
    return (g.objects, [(a, g.l(a), g.r(a)) for a in g.arrow_ids],
            [(x, g.identity(x)) for x in g.objects], [(a, g.inverse(a)) for a in g.arrow_ids],
            [(a, b, g.compose(a, b)) for a in g.arrow_ids for b in g.arrows_from(g.r(a))])


@pytest.mark.parametrize("bounds", [(2, 3, 4), (3, 2, 8)])
def test_random_triple_sides_are_unions_of_blocks(bounds):
    for seed in range(50):
        g1, g2, bib = random_morita_triple(seed, *bounds)
        ref1, ref2 = _union_of_blocks_triple(seed, *bounds)
        assert _ordered_tables(g1) == _ordered_tables(ref1)
        assert _ordered_tables(g2) == _ordered_tables(ref2)
        # the bibundle's tags name objects of both sides
        assert set(bib.left_anchor.values()) == set(g1.objects)
        assert set(bib.right_anchor.values()) == set(g2.objects)
        assert validate_bibundle(g1, g2, bib).ok


# ---------------------------------------------------------------------------
# the law check against the generic check of the link

_BIBUNDLE_AXIOMS = {"anchor range", "anchor not surjective", "left action domain",
                    "right action domain", "left action not free", "right action not free"}


def _refusing(g, rng):
    """A copy of g whose product rule refuses one composable pair."""
    p = rng.choice(sorted(g.arrow_ids, key=repr))
    refused = (p, rng.choice(sorted(g.arrows_from(g.r(p)), key=repr)))

    def compose(a, b):
        if (a, b) == refused:
            raise UndefinedComposition((a, b))
        return g.compose(a, b)

    return FiniteGroupoid(g.objects, {a: (g.l(a), g.r(a)) for a in g.arrow_ids},
                          {x: g.identity(x) for x in g.objects},
                          {a: g.inverse(a) for a in g.arrow_ids}, compose)


def _mutated_triple(seed, kind, rng):
    """random_morita_triple(seed) after one mutation of the given kind.

    "shuffle" permutes one element's action entries under the arrows
    between two objects, which keeps the actions total and free; "swap"
    trades the entries of two arrows with the same ends, which keeps the
    two actions commuting; "conjugate" conjugates the left action on the
    elements over one right object by a permutation that keeps both
    anchors, which keeps the left law.
    """
    g1, g2, bib = random_morita_triple(seed)
    elements, la, ra = list(bib.elements), dict(bib.left_anchor), dict(bib.right_anchor)
    left, right = dict(bib.left_action), dict(bib.right_action)
    side = rng.randrange(2)  # 0: the left action and g1, 1: the right action and g2
    g, table = (g1, left) if side == 0 else (g2, right)
    keys = sorted(table, key=repr)
    if kind == "retarget":
        table[rng.choice(keys)] = rng.choice(elements)
    elif kind == "delete":
        del table[rng.choice(keys)]
    elif kind == "re-point":
        (la, ra)[side][rng.choice(elements)] = rng.choice(g.objects)
    elif kind == "refuse":
        g1, g2 = (_refusing(g1, rng), g2) if side == 0 else (g1, _refusing(g2, rng))
    elif kind == "shuffle":
        b = rng.choice(elements)
        acting = g1.arrows_into(la[b]) if side == 0 else g2.arrows_from(ra[b])
        far = g.l if side == 0 else g.r  # the end of an acting arrow away from b
        x = far(rng.choice(acting))
        row = [(a, b) if side == 0 else (b, a) for a in acting if far(a) == x]
        values = [table[k] for k in row]
        rng.shuffle(values)
        table.update(zip(row, values))
    elif kind == "swap":
        a = rng.choice(sorted(g.arrow_ids, key=repr))
        twins = [c for c in g.arrow_ids if (g.l(c), g.r(c)) == (g.l(a), g.r(a))]
        c = rng.choice(twins)
        for k in keys:
            if k[side] == a:  # the arrow is first in a left key, second in a right key
                k2 = (c, k[1]) if side == 0 else (k[0], c)
                table[k], table[k2] = table[k2], table[k]
    elif kind == "conjugate":
        y0 = rng.choice(g2.objects)
        over = [b for b in elements if ra[b] == y0]
        phi = {}
        for x in g1.objects:
            fiber = [b for b in over if la[b] == x]
            phi.update(zip(fiber, rng.sample(fiber, len(fiber))))
        phi_inv = {v: k for k, v in phi.items()}
        left.update({(h, b): phi_inv[left[(h, phi[b])]]
                     for h, b in bib.left_action if b in phi})
    return g1, g2, Bibundle(elements, la, ra, left, right)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 100_000),
       st.sampled_from([None, "retarget", "delete", "re-point", "refuse", "shuffle", "swap",
                        "conjugate"]),
       st.randoms(use_true_random=False))
def test_law_check_agrees_with_the_link_axioms(seed, kind, rng):
    g1, g2, bib = _mutated_triple(seed, kind, rng)
    report = _agreeing_report(g1, g2, bib)
    if kind is None:
        assert report.ok


def _agreeing_report(g1, g2, bib):
    """validate_bibundle's report, asserted equal, violation for violation, to
    the bibundle's own checks followed by the generic axiom check of its link."""
    report = validate_bibundle(g1, g2, bib)
    link = morita_module._checked_link(g1, g2, bib)[1]
    if link is None:  # an anchor leaves its groupoid, and no link is built
        assert report.axioms() == {"anchor range"}
    else:
        own = [v for v in report.violations if v.axiom in _BIBUNDLE_AXIOMS]
        assert report.violations == own + _check_axioms(link).violations
    return report


@pytest.mark.parametrize("trivial_side", ["left", "right"])
def test_an_action_that_is_not_transitive_is_refused(trivial_side):
    # Z2 acts on itself from one side, the trivial group from the other: both
    # actions are total, free and lawful, but the trivial one cannot move 0 to 1
    one = classifying_groupoid(FiniteGroup.trivial())
    g1, g2, bib = z2_self_equivalence()
    fixed = {0: 0, 1: 1}
    if trivial_side == "left":
        g1, left, right = one, {(_arrow(0), b): b for b in fixed}, bib.right_action
        pattern = (BRIDGE, BRIDGE_INV)
    else:
        g2, left, right = one, bib.left_action, {(b, _arrow(0)): b for b in fixed}
        pattern = (BRIDGE_INV, BRIDGE)
    report = _agreeing_report(g1, g2, Bibundle((0, 1), bib.left_anchor, bib.right_anchor,
                                               left, right))
    missing = {v.witness for v in report.violations if v.axiom == "missing composition"}
    assert missing == {((pattern[0], 0), (pattern[1], 1)), ((pattern[0], 1), (pattern[1], 0))}


def test_a_passing_law_check_leaves_nothing_for_validate(monkeypatch):
    g1, g2, bib = random_morita_triple(7)
    assert validate(g1).ok and validate(g2).ok
    calls = []
    check = finite_module._check_axioms
    monkeypatch.setattr(finite_module, "_check_axioms", lambda g: calls.append(g) or check(g))
    assert validate_bibundle(g1, g2, bib).ok
    link = linking_groupoid(g1, g2, bib)
    assert validate(link).ok and validate(link).violations == []
    assert calls == []


@pytest.mark.parametrize("retarget", [False, True])
def test_a_factor_without_generators_goes_to_the_axiom_scan(retarget, monkeypatch):
    # a link decided by the law check memoizes no generators, so as a factor
    # of another bibundle it leaves that bibundle's link to the axiom scan
    g1, g2, bib = z2_self_equivalence()
    link = linking_groupoid(g1, g2, bib)
    assert link._gens is None
    outer = identity_bibundle(link)
    if retarget:  # to an element over another right object: free, but not closed
        key = ((LEFT, _arrow(1)), (BRIDGE, 0))
        outer.left_action[key] = next(c for c in outer.elements
                                      if link.r(c) != link.r(outer.left_action[key]))
    verdicts = []
    laws = morita_module._laws_hold
    monkeypatch.setattr(morita_module, "_laws_hold",
                        lambda *args: verdicts.append(laws(*args)) or verdicts[-1])
    report = _agreeing_report(link, link, outer)
    assert verdicts == [False]
    assert report.ok != retarget
