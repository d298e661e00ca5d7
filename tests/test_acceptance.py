"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Run with -v to get a pass/fail line per criterion.  Each test prints a
short measurement summary for the record.
"""

import math
import random
import time
from fractions import Fraction

from stackvol.catalog import (
    PoissonFamilyModel,
    SymplecticModel,
    natural_leaf_measure,
    plane_o2,
    plane_so2,
    poisson_stack_density,
    symplectic_bk_volume,
    torus_free,
)
from stackvol.finite import (
    WeightData,
    action_groupoid,
    cardinality,
    check_strict_isomorphism,
    classifying_groupoid,
    fiber_volume,
    finite_sets_cardinality,
    orbit_volume,
    orbits,
    random_groupoid,
    random_invariant_weights,
    random_positive_rescaling,
    restrict_to_objects,
    validate,
)
from stackvol.groups import FiniteGroup
from stackvol.morita import (
    LEFT,
    RIGHT,
    left_object_ids,
    linking_groupoid,
    morita_volume_check,
    random_morita_triple,
    random_morita_weights,
    right_object_ids,
)
from stackvol.smooth import (
    finite_action_model,
    homogeneous_volume,
    pushforward_density,
    stack_volume,
)
from stackvol.su2 import gaussian_test_function, weyl_integration_check

CORPUS_SIZE = 200
WEIGHT_PAIRS = 5
RESCALINGS = 3

_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = [
            random_groupoid(1000 + i, max_objects=40, max_group_order=8)
            for i in range(CORPUS_SIZE)
        ]
    return _corpus_cache


def test_criterion_01_exact_volume_agreement():
    global _corpus_cache
    _corpus_cache = None
    start = time.perf_counter()
    checked = 0
    for i, g in enumerate(corpus()):
        for j in range(WEIGHT_PAIRS):
            w = random_invariant_weights(g, 5000 + i * WEIGHT_PAIRS + j)
            assert fiber_volume(g, w) == orbit_volume(g, w)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {checked} exact fiber/orbit agreements "
          f"on {CORPUS_SIZE} groupoids in {elapsed:.2f}s")
    assert checked == CORPUS_SIZE * WEIGHT_PAIRS
    assert elapsed < 10.0


def test_criterion_02_volume_sees_only_the_quotient():
    checked = 0
    for i, g in enumerate(corpus()):
        w = random_invariant_weights(g, 6000 + i)
        reference = fiber_volume(g, w)
        for j in range(RESCALINGS):
            theta = random_positive_rescaling(g, 7000 + i * RESCALINGS + j)
            assert fiber_volume(g, w.rescaled(theta)) == reference
            checked += 1
    print(f"criterion 2: {checked} positive rescalings left volumes unchanged")
    assert checked == CORPUS_SIZE * RESCALINGS


def test_criterion_03_equivalence_invariance():
    for i in range(100):
        g1, g2, bib = random_morita_triple(3000 + i)
        w1, w2 = random_morita_weights(g1, g2, bib, 3500 + i)
        report = morita_volume_check(g1, g2, bib, w1, w2)
        assert report.equal, f"triple {i}: {report}"
        link = linking_groupoid(g1, g2, bib)
        assert validate(link).ok, f"triple {i}: linking groupoid invalid"
        left_part = restrict_to_objects(link, left_object_ids(g1))
        assert check_strict_isomorphism(
            g1, left_part,
            {x: (LEFT, x) for x in g1.objects},
            {a: (LEFT, a) for a in g1.arrow_ids},
        ), f"triple {i}: left factor not recovered"
        right_part = restrict_to_objects(link, right_object_ids(g2))
        assert check_strict_isomorphism(
            g2, right_part,
            {y: (RIGHT, y) for y in g2.objects},
            {a: (RIGHT, a) for a in g2.arrow_ids},
        ), f"triple {i}: right factor not recovered"
    print("criterion 3: 100 equivalent pairs with equal volumes, "
          "valid linking groupoids, and recovered factors")


def test_criterion_04_classifying_stack_values():
    for n in range(1, 13):
        g = classifying_groupoid(FiniteGroup.cyclic(n))
        assert cardinality(g) == Fraction(1, n)
    print("criterion 4: one-object stacks measure 1/n for n = 1..12")


def test_criterion_05_finite_sets_series():
    value = float(finite_sets_cardinality(13))
    err = abs(value - math.e)
    print(f"criterion 5: series at cutoff 13 is {value:.12f}, off e by {err:.3g}")
    assert err < 1e-9


def test_criterion_06_plane_models():
    so2 = plane_so2(R=2.0)
    res = stack_volume(so2)
    assert abs(res.value - 2.0) <= 1e-6
    for r in (0.5, 1.0, 1.5, 2.0):
        assert abs(pushforward_density(so2, r) - r) <= 1e-8
    o2 = plane_o2(R=2.0)
    res2 = stack_volume(o2)
    assert abs(res2.value - 1.0) <= 1e-6
    for r in (0.5, 1.0, 1.5, 2.0):
        assert abs(pushforward_density(o2, r) - r / 2.0) <= 1e-8
    print(f"criterion 6: disk volumes {res.value:.9f} / {res2.value:.9f} "
          "with densities r and r/2")


def test_criterion_07_homogeneous_quotient():
    am = torus_free()
    homog = homogeneous_volume(am)
    stack = stack_volume(am)
    diff = abs(homog.value - stack.value)
    print(f"criterion 7: homogeneous {homog.value:.12f} vs "
          f"stack {stack.value:.12f} (diff {diff:.3g})")
    assert diff <= 1e-8


def test_criterion_08_weyl_integration():
    start = time.perf_counter()
    phi = gaussian_test_function()
    report = weyl_integration_check(phi, mc_samples=1_000_000, seed=94720,
                                    tol=0.02)
    elapsed = time.perf_counter() - start
    print(f"criterion 8: lhs {report.lhs:.5f} rhs {report.rhs:.5f} "
          f"rel err {report.relative_error:.3%} in {elapsed:.2f}s")
    assert report.passed
    assert report.relative_error < 0.02
    assert elapsed < 30.0


def test_criterion_09_symplectic_quotients():
    assert symplectic_bk_volume(SymplecticModel(Fraction(1), 1)) == 1
    grid = [
        (Fraction(1), 1), (Fraction(1), 2), (Fraction(1), 3),
        (Fraction(2), 3), (Fraction(3), 6), (Fraction(5, 2), 5),
        (Fraction(7, 3), 7), (Fraction(9, 4), 3), (Fraction(11), 4),
        (Fraction(1, 12), 12),
    ]
    for c, k in grid:
        assert symplectic_bk_volume(SymplecticModel(c, k)) == c / k
    print(f"criterion 9: constant-multiple volume c/k exact on {len(grid)} cases")


def test_criterion_10_poisson_family():
    slope = 4.0 * math.pi
    linear = PoissonFamilyModel(area=lambda t: slope * t,
                                coeff=lambda t: slope ** 2,
                                t_domain=(0.05, 5.0))
    quad = PoissonFamilyModel(area=lambda t: t * t + 3.0 * t,
                              coeff=lambda t: (2.0 * t + 3.0) ** 2,
                              t_domain=(0.05, 5.0))
    worst = 0.0
    for t in (0.2, 0.7, 1.0, 2.3, 4.1):
        worst = max(worst, abs(poisson_stack_density(linear, t) - slope))
        worst = max(worst, abs(poisson_stack_density(quad, t) - (2.0 * t + 3.0)))
    assert worst <= 1e-6
    natural_worst = max(abs(natural_leaf_measure(linear, t) - slope)
                        for t in (0.2, 1.0, 3.0, 4.9))
    assert natural_worst <= 1e-8
    print(f"criterion 10: densities track the area derivative "
          f"(worst {worst:.3g}, natural {natural_worst:.3g})")


def _twenty_actions():
    s3 = FiniteGroup.symmetric(3)
    s4 = FiniteGroup.symmetric(4)
    d3 = FiniteGroup.dihedral(3)
    d4 = FiniteGroup.dihedral(4)
    z2xz2 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    z2xz4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    z2xz3 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))

    def rotation(n):
        return (FiniteGroup.cyclic(n), range(n), lambda h, x, n=n: (x + h) % n)

    def regular(group):
        return (group, group.elements, lambda h, x, g=group: g.mult(h, x))

    def swap_with_fixed(h, x):
        if x == 2:
            return 2
        return x if h == 0 else 1 - x

    return [
        rotation(2), rotation(3), rotation(4), rotation(5), rotation(6),
        (s3, range(3), lambda p, x: p[x]),
        (s4, range(4), lambda p, x: p[x]),
        (d4, range(4), lambda h, x: (h[0] + (x if h[1] == 0 else -x)) % 4),
        (d3, range(3), lambda h, x: (h[0] + (x if h[1] == 0 else -x)) % 3),
        regular(FiniteGroup.cyclic(4)),
        regular(z2xz2),
        regular(s3),
        regular(d4),
        regular(z2xz4),
        (FiniteGroup.cyclic(4), range(3), lambda h, x: x),
        (FiniteGroup.cyclic(6), range(3), lambda h, x: (x + h) % 3),
        (z2xz3, range(2), lambda h, x: (x + h[0]) % 2),
        (FiniteGroup.cyclic(5), range(10), lambda h, x: (x + 2 * h) % 10),
        (FiniteGroup.cyclic(2), range(3), swap_with_fixed),
        (FiniteGroup.cyclic(4), range(2), lambda h, x: (x + h) % 2),
    ]


def test_criterion_11_finite_smooth_consistency():
    actions = _twenty_actions()
    assert len(actions) == 20
    worst = 0.0
    for idx, (group, points, act) in enumerate(actions):
        g = action_groupoid(group, points, act)
        rng = random.Random(4000 + idx)
        a = {x: Fraction(rng.randint(1, 5), rng.randint(1, 3)) for x in g.objects}
        b = {}
        for orb in orbits(g):
            section = Fraction(rng.randint(1, 7), rng.randint(1, 4))
            for x in orb.objects:
                b[x] = a[x] * section
        exact = fiber_volume(g, WeightData(a, b))
        am = finite_action_model(group, points, act, a, b)
        numeric = stack_volume(am).value
        rel = abs(numeric - float(exact)) / max(abs(float(exact)), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-12, f"action {idx}: rel diff {rel}"
    print(f"criterion 11: 20 finite actions agree across engines "
          f"(worst relative diff {worst:.3g})")
