"""Analytic action models: fibers, volumes, invariance, pushforward."""

import dataclasses
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackvol.catalog import plane_o2, plane_so2, torus_free
from stackvol.errors import DegenerateWeightError, NumericalFailure
from stackvol.finite import WeightData, action_groupoid, fiber_volume, orbits
from stackvol.groups import FiniteGroup, group_zoo
from stackvol.quadrature import MAX_EVALUATIONS, NonConvergenceError, integrate_1d
import stackvol.smooth as smooth_module
from stackvol.smooth import (
    HAAR_TOL,
    TWO_PI,
    BoxChart,
    GroupModel,
    OrbitChart,
    PointChart,
    SingularOrbitError,
    fiber_integral,
    finite_action_model,
    homogeneous_volume,
    pushforward_density,
    stack_volume,
)

# frozen oracles:
#   rotations of the radius-2 disk: volume = 2^2/2 = 2, orbit density r
#   rotations+reflections of the same disk: volume 1, orbit density r/2
#   free circle translation on the flat 2-torus: volume = (2pi)^2/(2pi) = 2pi
#   disk fiber integral for a(r, theta) = 1 + r^2: 2pi (1 + r^2)
#   annulus 1 <= r <= 2 under rotations: (4 - 1)/2 = 3/2
#   integral of 1/(1.1 + cos t) over the circle: 2pi/sqrt(1.1^2 - 1)

POLE = 1.1
POLE_INTEGRAL = TWO_PI / math.sqrt(POLE ** 2 - 1.0)

_coeff = st.floats(-1.0, 1.0)
# a mean in [1, 2] plus cosine and sine terms of frequency 1..15
_circle_poly = st.tuples(st.floats(1.0, 2.0),
                         st.lists(st.tuples(st.integers(1, 15), _coeff, _coeff), max_size=6))


def _trig(poly):
    mean, terms = poly
    return lambda t: mean + sum(c * math.cos(k * t) + s * math.sin(k * t) for k, c, s in terms)


def _cosine_disk(k):
    """plane-so2 with a = 1 + cos(k theta) / 2, whose fiber is 2pi at every point."""
    return dataclasses.replace(plane_so2(R=2.0),
                               a_density=lambda p: 1.0 + 0.5 * math.cos(k * p[1]),
                               a_constant=False)


def _along_orbits(model, poly, slope):
    """The catalog model with a = trig(orbit coordinate) (1 + slope t), t the orbit parameter."""
    base = model()
    axis = base.orbit_chart.param_axis
    f = _trig(poly)
    return dataclasses.replace(base, a_constant=False,
                               a_density=lambda p: f(p[1 - axis]) * (1.0 + slope * p[axis]))


def _window(am, t0, t1):
    """The model on the saturation of the orbit-parameter interval [t0, t1]."""
    bounds = list(am.chart.bounds)
    bounds[am.orbit_chart.param_axis] = (t0, t1)
    return dataclasses.replace(am, chart=BoxChart(bounds))


class TestGroupModels:
    def test_volumes(self):
        assert GroupModel("circle").volume == pytest.approx(TWO_PI)
        assert GroupModel("o2").volume == pytest.approx(2 * TWO_PI)
        s3 = GroupModel("finite", group=FiniteGroup.symmetric(3))
        assert s3.volume == 6.0

    @pytest.mark.parametrize("fn, largest", [
        (lambda h: 1e308, "1e+308 at 0.0"),
        (lambda h: -math.inf if h > 3.0 else 1.0, "-inf at 3.14159"),  # node pi, of 16
    ], ids=["finite-values-summing-past-the-floats", "infinite-value"])
    def test_haar_overflow_is_a_numerical_failure(self, fn, largest):
        message = re.escape(f"overflowed: largest value {largest}")
        with pytest.raises(NumericalFailure, match=message):
            GroupModel("circle").integrate(fn)

    def test_haar_arithmetic_error_is_a_numerical_failure(self):
        # node 8 of the 16-node grid is exactly pi
        with pytest.raises(NumericalFailure, match=re.escape(f"at {math.pi!r}")) as exc:
            GroupModel("circle").integrate(lambda t: 1.0 / (t - math.pi))
        assert isinstance(exc.value.__cause__, ZeroDivisionError)

    def test_haar_nan_stays_invalid_input(self):
        with pytest.raises(ValueError, match="NaN"):
            GroupModel("o2").integrate(lambda h: math.nan if h[0] else 1.0)

    def test_bad_parameters(self):
        for kind in ("quaternionic", "su2", "torus"):
            with pytest.raises(ValueError):
                GroupModel(kind)
        with pytest.raises(ValueError):
            GroupModel("finite")

    def test_integrate_circle(self):
        gm = GroupModel("circle")
        res = gm.integrate(lambda t: 1.0)
        assert res.value == pytest.approx(TWO_PI)
        assert res.evaluations > 0

    def test_integrate_o2_sees_both_components(self):
        gm = GroupModel("o2")
        assert gm.integrate(lambda h: 1.0 if h[0] else 0.0).value == pytest.approx(TWO_PI)

    @settings(max_examples=40, deadline=None)
    @given(_circle_poly, _circle_poly)
    def test_trig_polynomials_below_degree_16_are_exact(self, p, q):
        value = GroupModel("circle").integrate(_trig(p)).value
        assert value == pytest.approx(TWO_PI * p[0], rel=1e-12)
        f, g = _trig(p), _trig(q)
        value = GroupModel("o2").integrate(lambda h: g(h[1]) if h[0] else f(h[1])).value
        assert value == pytest.approx(TWO_PI * (p[0] + q[0]), rel=1e-12)

    def test_node_count_ignores_scales(self):
        def f(t):
            return 1.0 / (POLE + math.cos(t))

        res = GroupModel("circle").integrate(f)
        assert res.value == pytest.approx(POLE_INTEGRAL, rel=1e-9)
        base = res.evaluations
        assert base > 2 * 16  # the first two grids do not settle this integrand
        for scale in (1e-13, 1.0, 1e13):
            assert GroupModel("circle").integrate(lambda t: scale * f(t)).evaluations == base

    def test_the_error_estimate_is_the_last_gap(self):
        # f > 0, so the integral of |f| is the value, and the accepted gap is at most HAAR_TOL of it
        res = GroupModel("circle").integrate(lambda t: 1.0 / (POLE + math.cos(t)))
        assert 0.0 < res.error_estimate <= HAAR_TOL * res.value
        s3 = GroupModel("finite", group=FiniteGroup.symmetric(3))
        assert s3.integrate(lambda h: 1.0 + h[0]).error_estimate == 0.0
        assert fiber_integral(plane_so2(), (1.0, 0.3)) == (TWO_PI, 0.0, 0)

    @pytest.mark.parametrize("gm, fn", [
        (GroupModel("finite", group=FiniteGroup.symmetric(3)), lambda h: 1.0 + h[0]),
        (GroupModel("circle"), lambda t: 1.0 / (POLE + math.cos(t))),
        (GroupModel("o2"), lambda h: 1.0 / (POLE + math.cos(h[1])) if h[0] else 1.0),
    ], ids=["finite", "circle", "o2"])
    def test_reported_evaluations_equal_calls(self, gm, fn):
        calls = 0

        def counted(h):
            nonlocal calls
            calls += 1
            return fn(h)

        assert gm.integrate(counted).evaluations == calls

    @pytest.mark.parametrize("tol", [1e-4, HAAR_TOL])
    def test_kinked_integrand_meets_tol_or_raises(self, monkeypatch, tol):
        # the kink raises at HAAR_TOL; a looser setting keeps the converging branch tested
        monkeypatch.setattr(smooth_module, "HAAR_TOL", tol)
        gm = GroupModel("circle")
        try:
            value = gm.integrate(lambda t: abs(math.sin(t))).value
        except NonConvergenceError as exc:
            assert exc.result.evaluations > 0
        else:
            assert abs(value - 4.0) <= tol * 4.0


class TestCharts:
    @pytest.mark.parametrize("bounds", [
        ((0.0, math.inf),), ((-math.inf, 0.0),), ((0.0, math.nan),), ((1.0, 0.0),),
        ((0.0, 0.0),), ((0.0, 1.0), (0.0, math.inf)), ((0.0, 1.0),) * 3, (),
    ], ids=["0-inf", "-inf-0", "0-nan", "1-0", "0-0", "second-axis-inf", "3-axes", "0-axes"])
    def test_a_chart_is_a_bounded_box_of_dimension_1_or_2(self, bounds):
        with pytest.raises(ValueError):
            BoxChart(bounds)

    def test_singular_parameter_window(self):
        oc = plane_so2().orbit_chart
        assert oc.is_singular(0.0)
        assert oc.is_singular(1e-13)
        assert not oc.is_singular(1e-10)

    def test_singular_window_scales_with_the_range(self):
        tiny = plane_so2(R=1e-12)
        assert tiny.orbit_chart.is_singular(0.0)
        assert not tiny.orbit_chart.is_singular(5e-13)
        assert pushforward_density(tiny, 5e-13) == pytest.approx(5e-13, rel=1e-12)


class TestFiberIntegral:
    def test_constant_density_fast_path(self):
        am = plane_so2()
        assert fiber_integral(am, (1.0, 0.3)).value == pytest.approx(TWO_PI)

    def test_orbitwise_constant_nonconstant_density(self):
        am = dataclasses.replace(plane_so2(),
                                 a_density=lambda p: 1.0 + p[0] ** 2,
                                 a_constant=False)
        for r in (0.25, 1.0, 1.75):
            expect = TWO_PI * (1.0 + r * r)
            assert fiber_integral(am, (r, 1.0)).value == pytest.approx(expect, rel=1e-9)

    def test_frequency_16_is_not_aliased(self):
        # equispaced grids of 4 or 8 steps per period alias frequency 16 to 1.5 * 2pi
        am = _cosine_disk(16)
        assert fiber_integral(am, (1.0, 0.3)).value == pytest.approx(TWO_PI, rel=1e-9)
        res = stack_volume(am)
        assert abs(res.value - 2.0) <= 1e-6

    @pytest.mark.parametrize("k", [32, 64, 96])
    def test_frequencies_both_first_grids_alias_are_caught(self, k):
        # the grids of 16 and 32 nodes both alias these frequencies and agree
        # on a wrong value; the shifted grid's phase exposes them
        assert fiber_integral(_cosine_disk(k), (1.0, 0.3)).value == pytest.approx(TWO_PI, rel=1e-9)

    @pytest.mark.parametrize("b", ["r", "a r"])
    def test_volume_with_an_aliased_frequency_ends_quickly(self, b):
        am = _cosine_disk(32)
        if b == "a r":
            am = dataclasses.replace(am, b_density=lambda p: am.a_density(p) * p[0])
        start = time.perf_counter()
        try:
            res = stack_volume(am)
        except NonConvergenceError:
            assert b == "a r"  # b / fiber oscillates 32 times around each circle
        else:
            assert abs(res.value - 2.0) <= 1e-6
        assert time.perf_counter() - start < 5.0

    def test_non_convergence_counts_the_fiber_rules(self):
        # the model of the aliased-frequency test with b = a r, whose chart rule fails
        counts = {"b": 0, "act": 0}
        base = _cosine_disk(32)

        def b(p):
            counts["b"] += 1
            return base.a_density(p) * p[0]

        def act(h, p):
            counts["act"] += 1
            return base.act(h, p)

        with pytest.raises(NonConvergenceError, match="Gauss panels") as exc:
            stack_volume(dataclasses.replace(base, act=act, b_density=b))
        assert exc.value.result.evaluations == counts["b"] + counts["act"]
        assert counts["act"] > 0

    def test_one_budget_covers_the_chart_and_the_fiber_rules(self):
        # without an orbit chart every chart node runs its own fiber rule, so
        # a budget on the chart nodes alone let this model run for minutes
        counts = {"b": 0, "act": 0}
        base = dataclasses.replace(_cosine_disk(32), orbit_chart=None)

        def b(p):
            counts["b"] += 1
            return base.a_density(p) * p[0]

        def act(h, p):
            counts["act"] += 1
            return base.act(h, p)

        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="Gauss panels") as exc:
            stack_volume(dataclasses.replace(base, act=act, b_density=b))
        assert time.perf_counter() - start < 10.0
        assert exc.value.result.evaluations == counts["b"] + counts["act"]
        # the fiber rules of one refinement may carry the count past the budget
        assert MAX_EVALUATIONS < exc.value.result.evaluations < 2 * MAX_EVALUATIONS
        assert counts["b"] < counts["act"] / 100

    def test_a_fiber_rules_non_convergence_passes_unchanged(self):
        # the fibers of the first radii settle; at r > 1.5 the phase of a
        # sweeps 4 * 10^6 radians around the circle, too fast for any trapezoid grid
        counts = {"inner": 0, "outer": 0}
        base = plane_so2(R=2.0)

        def act(h, p):
            counts["inner" if p[0] < 1.5 else "outer"] += 1
            return base.act(h, p)

        def a(p):
            r, phi = p
            return 1.5 + 0.5 * math.cos(phi if r < 1.5 else 1e6 * math.sin(phi))

        am = dataclasses.replace(base, act=act, a_density=a, a_constant=False)
        with pytest.raises(NonConvergenceError, match="trapezoid") as exc:
            stack_volume(am)
        assert counts["inner"] > 0
        assert exc.value.result.evaluations == counts["outer"]

    def test_finite_fiber_matches_group_sum(self):
        s3 = FiniteGroup.symmetric(3)
        a = {0: 2.0, 1: 3.0, 2: 5.0}
        am = finite_action_model(s3, [0, 1, 2], lambda p, x: p[x], a,
                                 {0: 1.0, 1: 1.0, 2: 1.0})
        for y in (0, 1, 2):
            expect = sum(a[p[y]] for p in s3.elements)
            assert fiber_integral(am, y).value == pytest.approx(expect)


class TestStackVolume:
    def test_disk_rotations(self):
        res = stack_volume(plane_so2(R=2.0))
        assert abs(res.value - 2.0) <= res.error_estimate + 1e-9
        assert res.evaluations > 0

    @pytest.mark.parametrize("model", [plane_so2, plane_o2, torus_free])
    def test_result_holds_plain_floats(self, model):
        res = stack_volume(model())
        assert type(res.value) is float and type(res.error_estimate) is float

    def test_disk_full_orthogonal_group(self):
        res = stack_volume(plane_o2(R=2.0))
        assert abs(res.value - 1.0) <= res.error_estimate + 1e-9

    def test_torus_translation(self):
        res = stack_volume(torus_free())
        assert abs(res.value - TWO_PI) <= res.error_estimate + 1e-9

    def test_annulus_restriction(self):
        res = stack_volume(_window(plane_so2(R=2.0), 1.0, 2.0))
        assert abs(res.value - 1.5) <= res.error_estimate + 1e-9

    def test_point_chart_is_exact(self):
        s3 = FiniteGroup.symmetric(3)
        unit = {x: 1 for x in range(3)}
        am = finite_action_model(s3, range(3), lambda p, x: p[x], unit, unit)
        res = stack_volume(am)
        assert res.value == pytest.approx(0.5, abs=1e-15)
        assert res.error_estimate == 0.0
        assert res.evaluations == 3

    def test_evaluations_include_the_fiber_rules(self):
        # a varies along each orbit; b = a r keeps the volume at 2
        counts = {"b": 0, "act": 0}

        def theta(p):
            r, phi = p
            return 1.5 + 0.5 * math.sin(phi) + 0.1 * r

        def b(p):
            counts["b"] += 1
            return theta(p) * p[0]

        base = plane_so2(R=2.0)

        def act(h, p):
            counts["act"] += 1
            return base.act(h, p)

        am = dataclasses.replace(base, act=act, a_density=theta, b_density=b,
                                 a_constant=False)
        res = stack_volume(am)
        assert abs(res.value - 2.0) <= 1e-6
        # b is read once per integrand call, act once per fiber-rule node
        assert res.evaluations == counts["b"] + counts["act"]
        assert counts["act"] > counts["b"]

    def test_theta_model_keeps_its_evaluations_and_bits(self):
        # the benchmark's volume model; the shared budget never binds on it
        def theta(p):
            return 1.5 + 0.5 * math.sin(p[1]) + 0.1 * p[0]

        am = dataclasses.replace(plane_so2(R=2.0), a_density=theta,
                                 b_density=lambda p: theta(p) * p[0], a_constant=False)
        res = stack_volume(am)
        assert (res.value.hex(), res.evaluations) == ("0x1.ffffffffffffep+0", 845)

    def test_one_fiber_rule_runs_per_orbit_parameter(self):
        counts = {"b": 0, "act": 0}
        radii = set()

        def theta(p):
            r, phi = p
            return 1.5 + 0.5 * math.sin(phi) + 0.1 * r

        def b(p):
            counts["b"] += 1
            radii.add(p[0])
            return theta(p) * p[0]

        base = plane_so2(R=2.0)

        def act(h, p):
            counts["act"] += 1
            return base.act(h, p)

        am = dataclasses.replace(base, act=act, a_density=theta, b_density=b,
                                 a_constant=False)
        uncached = stack_volume(dataclasses.replace(am, orbit_chart=None))
        counts.update(b=0, act=0)
        radii.clear()
        res = stack_volume(am)
        assert abs(res.value - uncached.value) <= 1e-12
        # the chart rule's own evaluations plus the fiber rules that ran,
        # one per radius, each taking the same nodes on this a
        assert res.evaluations == counts["b"] + counts["act"]
        per_fiber = GroupModel("circle").integrate(lambda h: theta((1.0, h))).evaluations
        assert counts["act"] == len(radii) * per_fiber
        assert len(radii) < counts["b"]
        assert res.evaluations < uncached.evaluations / 4

    def test_point_chart_evaluations_include_the_group_sums(self):
        s3 = FiniteGroup.symmetric(3)
        am = finite_action_model(s3, range(3), lambda p, x: p[x], {0: 1, 1: 2, 2: 3},
                                 {x: 1 for x in range(3)})
        assert not am.a_constant
        assert stack_volume(am).evaluations == 3 + 3 * 6

    def test_vanishing_fiber_is_degenerate(self):
        am = dataclasses.replace(plane_so2(), a_density=lambda p: 0.0)
        with pytest.raises(DegenerateWeightError):
            stack_volume(am)

    def test_fiber_that_cancels_to_rounding_noise_is_degenerate(self):
        # 0.1 + 0.2 - 0.3 sums to a few 1e-17 in floats, not to 0.0: only the
        # threshold relative to |a(p)| vol(G) stops b / fiber reading about 1e16
        z3 = FiniteGroup.cyclic(3)
        am = finite_action_model(z3, range(3), lambda h, x: (x + h) % 3,
                                 {0: 0.1, 1: 0.2, 2: -0.3}, {x: 1.0 for x in range(3)})
        assert all(0.0 < abs(fiber_integral(am, x).value) < 1e-16 for x in range(3))
        with pytest.raises(DegenerateWeightError):
            stack_volume(am)

    @pytest.mark.parametrize("scale", [1e-13, 1e13])
    def test_haar_rescale_scales_volume_inversely(self, scale):
        # a times s scales every fiber integral by s, as Haar measure times s would
        z3 = FiniteGroup.cyclic(3)
        weights = {0: 1, 1: 2, 2: 4}

        def finite(s):
            return finite_action_model(z3, range(3), lambda h, x: (x + h) % 3,
                                       {x: s * v for x, v in weights.items()}, weights)

        expect = stack_volume(finite(1.0)).value / scale
        assert stack_volume(finite(scale)).value == pytest.approx(expect, rel=1e-12)
        disk = dataclasses.replace(plane_so2(R=2.0), a_density=lambda p: scale)
        assert stack_volume(disk).value == pytest.approx(2.0 / scale, rel=1e-6)

        # a vanishing on one orbit stays degenerate at every scale
        fixed = finite_action_model(z3, range(4), lambda h, x: (x + h) % 3 if x < 3 else x,
                                    {0: 0, 1: 0, 2: 0, 3: scale}, {x: 1 for x in range(4)})
        with pytest.raises(DegenerateWeightError):
            stack_volume(fixed)
        inner_zero = dataclasses.replace(disk, a_density=lambda p: scale * float(p[0] > 1.0),
                                         a_constant=False)
        with pytest.raises(DegenerateWeightError):
            stack_volume(inner_zero)

    def test_tiny_b_keeps_the_evaluations(self):
        # a b peaked in theta: with a tolerance relative to the integral of
        # |b|, shrinking b must not stop the refinement early
        def model(scale):
            def b(p):
                r, theta = p
                return (scale * r * math.exp(-8.0 * (r - 1.3) ** 2)
                        * (1.0 + math.cos(3.0 * theta) ** 8))

            return dataclasses.replace(plane_so2(R=2.0), b_density=b)

        base = stack_volume(model(1.0))
        tiny = stack_volume(model(1e-9))
        assert tiny.evaluations == base.evaluations
        assert tiny.value / 1e-9 == pytest.approx(1.03318, rel=1e-5)

    def test_volume_unchanged_by_noninvariant_rescale(self):
        # multiplying a and b by the same positive chart function must not
        # move the volume, even when that function is not orbit-constant
        def theta(p):
            r, phi = p
            return 1.5 + 0.5 * math.sin(phi) + 0.1 * r

        am = dataclasses.replace(
            plane_so2(R=2.0),
            a_density=lambda p: theta(p),
            b_density=lambda p: theta(p) * p[0],
            a_constant=False,
        )
        res = stack_volume(am, tol=1e-5)
        assert abs(res.value - 2.0) < 5e-4


_ORBIT_MODELS = [plane_so2, plane_o2, torus_free]


class TestOrbitCache:
    """stack_volume reuses a fiber for every node with the same orbit parameter."""

    @pytest.mark.parametrize("model", _ORBIT_MODELS)
    def test_fiber_is_constant_on_each_level_set_of_the_parameter(self, model):
        am = _along_orbits(model, (1.5, [(1, 0.3, -0.2), (3, 0.1, 0.25), (20, 0.05, 0.0)]), 0.4)
        axis = am.orbit_chart.param_axis
        lo, hi = am.chart.bounds[1 - axis]
        fibers = []
        for t in (0.3, 1.1, 1.9):
            values = []
            for frac in (0.0, 0.05, 0.37, 0.8):
                p = [0.0, 0.0]
                p[axis], p[1 - axis] = t, lo + frac * (hi - lo)
                values.append(fiber_integral(am, tuple(p)).value)
            assert values == pytest.approx([values[0]] * len(values), rel=1e-9)
            fibers.append(values[0])
        # the fibers do depend on the parameter, so agreement above is not vacuous
        assert fibers[0] < fibers[1] < fibers[2]

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_ORBIT_MODELS),
           st.tuples(st.floats(1.0, 2.0),
                     st.lists(st.tuples(st.integers(1, 40), st.floats(-0.1, 0.1),
                                        st.floats(-0.1, 0.1)), min_size=1, max_size=4)),
           st.floats(0.0, 1.0))
    def test_cached_and_uncached_volumes_agree(self, model, poly, slope):
        am = _along_orbits(model, poly, slope)
        cached = stack_volume(am)
        uncached = stack_volume(dataclasses.replace(am, orbit_chart=None))
        assert abs(cached.value - uncached.value) <= 1e-6 * abs(uncached.value)
        assert cached.evaluations < uncached.evaluations


class TestHomogeneousVolume:
    def test_torus_agrees_with_stack(self):
        am = torus_free()
        homog = homogeneous_volume(am)
        stack = stack_volume(am)
        assert abs(homog.value - stack.value) <= 1e-8

    def test_point_chart_ratio(self):
        # on a point chart the ratio is the stack volume; homogeneous_volume takes boxes only
        z4 = FiniteGroup.cyclic(4)
        unit = {x: 1 for x in range(3)}
        am = finite_action_model(z4, range(3), lambda h, x: x, unit, unit)
        with pytest.raises(ValueError, match="box chart"):
            homogeneous_volume(am)
        assert stack_volume(am).value == pytest.approx(3 / 4)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_finite_actions_agree_with_stack_or_refuse(self, data):
        # Z/n acting on a disjoint union of cyclic orbits Z/d, d | n
        n = data.draw(st.integers(1, 6))
        sizes = data.draw(st.lists(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]),
                                   min_size=1, max_size=4))
        points = [(i, r) for i, d in enumerate(sizes) for r in range(d)]
        weight = st.integers(1, 5)
        if data.draw(st.booleans()):
            a = dict.fromkeys(points, data.draw(weight))
        else:
            a = {p: data.draw(weight) for p in points}
        b = {p: data.draw(weight) for p in points}
        am = finite_action_model(FiniteGroup.cyclic(n), points,
                                 lambda h, p: (p[0], (p[1] + h) % sizes[p[0]]), a, b)
        with pytest.raises(ValueError):
            homogeneous_volume(am)  # a point chart
        if am.a_constant:  # the stack volume is the total b mass over a times |G|
            homog = sum(b.values()) / (a[points[0]] * n)
            assert stack_volume(am).value == pytest.approx(homog, rel=1e-12)

    @pytest.mark.parametrize("b, error", [(1e308, NumericalFailure), (math.nan, ValueError)])
    def test_a_point_chart_sum_that_is_not_finite_is_refused(self, b, error):
        # two finite terms of 1e308 overflow; a NaN term is invalid input
        am = finite_action_model(FiniteGroup.cyclic(1), [0, 1], lambda h, p: p,
                                 {0: 1, 1: 1}, {0: b, 1: b})
        with pytest.raises(error):
            stack_volume(am)

    def test_point_chart_with_zero_a_is_degenerate(self):
        z2 = FiniteGroup.cyclic(2)
        am = finite_action_model(z2, [0, 1], lambda h, x: (x + h) % 2,
                                 {0: 0, 1: 0}, {0: 1, 1: 1})
        with pytest.raises(DegenerateWeightError):
            stack_volume(am)

    def test_requires_constant_a(self):
        am = dataclasses.replace(torus_free(), a_constant=False)
        with pytest.raises(ValueError):
            homogeneous_volume(am)

    def test_zero_a_is_degenerate(self):
        am = dataclasses.replace(plane_so2(R=2.0), a_density=lambda p: 0.0)
        with pytest.raises(DegenerateWeightError, match="group volume weighted by a vanishes"):
            homogeneous_volume(am)

    def test_a_ratio_that_overflows_is_a_numerical_failure(self):
        # a finite b mass over a group volume weighted by a = 1e-308 is inf
        am = dataclasses.replace(plane_so2(R=2.0), a_density=lambda p: 1e-308)
        with pytest.raises(NumericalFailure,
                           match="overflowed to inf in the b mass over the group volume"):
            homogeneous_volume(am)


class TestInvariance:
    # every catalog action has Jacobian 1 in its chart, so b must be unchanged by it
    @staticmethod
    def assert_b_invariant(am):
        rng = random.Random(3)
        gm = am.group
        for _ in range(100):
            h = gm.element(rng.choice(gm.components), rng.uniform(0.0, TWO_PI))
            p = tuple(rng.uniform(lo, hi) for lo, hi in am.chart.bounds)
            assert am.b_density(am.act(h, p)) == pytest.approx(am.b_density(p), rel=1e-12)

    def test_rotations_preserve_lebesgue(self):
        self.assert_b_invariant(plane_so2())

    def test_reflections_preserve_lebesgue(self):
        self.assert_b_invariant(plane_o2())

    def test_translations_preserve_lebesgue(self):
        self.assert_b_invariant(torus_free())


class TestPushforward:
    def test_disk_density_is_radius(self):
        am = plane_so2(R=2.0)
        for r in (0.5, 1.0, 1.5, 2.0):
            assert pushforward_density(am, r) == pytest.approx(r, abs=1e-12)

    def test_reflections_halve_the_density(self):
        am = plane_o2(R=2.0)
        for r in (0.5, 1.0, 1.5, 2.0):
            assert pushforward_density(am, r) == pytest.approx(r / 2, abs=1e-12)

    def test_singular_orbit_rejected(self):
        with pytest.raises(SingularOrbitError) as exc:
            pushforward_density(plane_so2(), 0.0)
        assert "strongly regular" in str(exc.value)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pushforward_density(plane_so2(R=2.0), 3.0)

    def test_needs_orbit_chart(self):
        z2 = FiniteGroup.cyclic(2)
        unit = {0: 1, 1: 1}
        am = finite_action_model(z2, [0, 1], lambda h, x: (x + h) % 2, unit, unit)
        with pytest.raises(ValueError):
            pushforward_density(am, 0.5)

    def test_compensating_rescale_of_orbit_data(self):
        # scaling orbit density and isotropy volume together cancels exactly
        am = plane_so2(R=2.0)
        oc = am.orbit_chart
        scaled = dataclasses.replace(
            am,
            orbit_chart=OrbitChart(
                param_axis=oc.param_axis,
                param_range=oc.param_range,
                orbit_density=lambda t: (1.0 + t * t) * oc.orbit_density(t),
                isotropy_volume=lambda t: (1.0 + t * t) * oc.isotropy_volume(t),
                singular_params=oc.singular_params,
            ),
        )
        for r in (0.5, 1.3, 2.0):
            assert abs(pushforward_density(scaled, r)
                       - pushforward_density(am, r)) < 1e-12


def _two_routes(am, t0, t1):
    """The chart volume of the window [t0, t1] and the orbit-space integral over it.

    Returns both results and whether they agree within their error
    estimates plus their common tolerance, 1e-6, times the larger value.
    """
    oc = am.orbit_chart
    via_chart = stack_volume(_window(am, t0, t1))
    # the raw ratio: the endpoints may touch the singular set, which carries no volume
    via_orbit = integrate_1d(lambda t: oc.orbit_density(t) / oc.isotropy_volume(t), t0, t1)
    scale = max(abs(via_chart.value), abs(via_orbit.value))
    budget = via_chart.error_estimate + via_orbit.error_estimate + 1e-6 * scale
    return via_chart, via_orbit, abs(via_chart.value - via_orbit.value) <= budget


class TestTwoRouteComparison:
    def test_disk_full_range(self):
        via_chart, via_orbit, agree = _two_routes(plane_so2(R=2.0), 0.0, 2.0)
        assert agree
        assert via_chart.value == pytest.approx(2.0, abs=1e-6)
        assert via_orbit.value == pytest.approx(2.0, abs=1e-9)

    def test_disk_annulus(self):
        _, via_orbit, agree = _two_routes(plane_so2(R=2.0), 1.0, 2.0)
        assert agree
        assert via_orbit.value == pytest.approx(1.5, abs=1e-9)

    def test_reflection_quotient(self):
        _, via_orbit, agree = _two_routes(plane_o2(R=2.0), 0.0, 2.0)
        assert agree
        assert via_orbit.value == pytest.approx(1.0, abs=1e-9)

    def test_torus_full_range(self):
        _, via_orbit, agree = _two_routes(torus_free(), 0.0, TWO_PI)
        assert agree
        assert via_orbit.value == pytest.approx(TWO_PI, abs=1e-9)

    def test_torus_partial_transverse_window(self):
        _, via_orbit, agree = _two_routes(torus_free(), 0.0, math.pi)
        assert agree
        assert via_orbit.value == pytest.approx(math.pi, abs=1e-9)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_one_percent_mismatch_fails_at_every_scale(self, scale):
        # the chart volume is accurate relative to its size, so the routes agree
        # at every scale and a one-percent change of the orbit density shows
        base = plane_so2(R=2.0)
        scaled = dataclasses.replace(
            base,
            b_density=lambda p: scale * p[0],
            orbit_chart=base.orbit_chart._replace(orbit_density=lambda t: scale * t),
        )
        assert _two_routes(scaled, 0.0, 2.0)[2]
        skew = dataclasses.replace(
            scaled, orbit_chart=base.orbit_chart._replace(orbit_density=lambda t: 1.01 * scale * t))
        assert not _two_routes(skew, 0.0, 2.0)[2]


class TestFiniteBridge:
    def test_chart_and_group(self):
        z2 = FiniteGroup.cyclic(2)
        unit = {0: 1, 1: 1}
        am = finite_action_model(z2, [0, 1], lambda h, x: (x + h) % 2, unit, unit)
        assert isinstance(am.chart, PointChart)
        assert am.a_constant
        assert am.group.volume == 2.0

    def test_nonconstant_a_detected(self):
        z2 = FiniteGroup.cyclic(2)
        am = finite_action_model(z2, [0, 1], lambda h, x: (x + h) % 2,
                                 {0: 1, 1: 2}, {0: 1, 1: 1})
        assert not am.a_constant

    def test_haar_scale_cancels_in_volume(self):
        s3 = FiniteGroup.symmetric(3)
        unit = {x: 1 for x in range(3)}
        plain = finite_action_model(s3, range(3), lambda p, x: p[x], unit, unit)
        scaled = finite_action_model(s3, range(3), lambda p, x: p[x],
                                     {x: 7 for x in range(3)}, unit)
        v1 = stack_volume(plain).value
        v2 = stack_volume(scaled).value
        # a times 7 rescales the fibers as Haar measure times 7 would, but b is per-point mass
        assert v2 == pytest.approx(v1 / 7.0)


def _coset_action(group, generators):
    """Points and action of the group on the disjoint union of its G/<g>, g in generators.

    A point is (i, coset), the coset a frozenset; the group acts by left
    multiplication.
    """
    mult = group.mult
    points = {}
    for i, g in enumerate(generators):
        sub, k = {group.identity}, g
        while k not in sub:
            sub.add(k)
            k = mult(k, g)
        points.update(dict.fromkeys((i, frozenset(mult(x, s) for s in sub))
                                    for x in group.elements))
    return list(points), lambda h, p: (p[0], frozenset(mult(h, y) for y in p[1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_finite_and_smooth_engines_agree_on_coset_spaces(data):
    # a differential oracle: the exact fiber sum and the smooth engine's point
    # chart must give the same volume, or both refuse a cancelled fiber with
    # the one DegenerateWeightError
    group = data.draw(st.sampled_from(group_zoo(8)))
    generators = data.draw(st.lists(st.sampled_from(group.elements), min_size=1, max_size=3))
    points, act = _coset_action(group, generators)
    g = action_groupoid(group, points, act)
    low = -6 if data.draw(st.booleans()) else 1  # signed a in half the draws
    a = {x: Fraction(data.draw(st.integers(low, 6).filter(bool)), data.draw(st.integers(1, 4)))
         for x in points}
    b = {}
    for orb in orbits(g):
        ratio = Fraction(data.draw(st.integers(-7, 7)), data.draw(st.integers(1, 4)))
        b.update({x: a[x] * ratio for x in orb.objects})
    try:
        exact = fiber_volume(g, WeightData(a, b))
    except DegenerateWeightError:
        exact = None
    try:
        numeric = stack_volume(finite_action_model(group, points, act, a, b)).value
    except DegenerateWeightError:
        numeric = None
    assert (exact is None) == (numeric is None), (exact, numeric)
    if exact is not None:
        assert abs(numeric - float(exact)) <= 1e-12 * (abs(float(exact)) or 1.0)


def test_both_engines_refuse_a_cancelled_fiber():
    # Z2 swapping two points whose fiber weights cancel: every fiber sums to
    # zero, and both engines raise the same error class
    z2 = FiniteGroup.cyclic(2)
    points, act = _coset_action(z2, [z2.identity])
    a = {points[0]: Fraction(1), points[1]: Fraction(-1)}
    g = action_groupoid(z2, points, act)
    with pytest.raises(DegenerateWeightError):
        fiber_volume(g, WeightData(a, a))
    with pytest.raises(DegenerateWeightError):
        stack_volume(finite_action_model(z2, points, act, a, a))
