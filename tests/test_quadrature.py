"""Integration primitives against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackvol.quadrature import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    MAX_EVALUATIONS,
    NonConvergenceError,
    integrate_1d,
    integrate_box,
    integrate_mc,
)

# closed forms used as oracles:
#   int_0^1 x^2 dx                  = 1/3
#   int_0^{2pi} sin                 = 0
#   int_0^2 r dr                    = 2
#   int_0^3 e^x sin(3x) dx          = (e^3 (sin 9 - 3 cos 9) + 3) / 10
#   int_{[0,1]^2} xy                = 1/4
#   unit ball volume                = 4 pi / 3

EXP_SIN_ORACLE = (math.exp(3.0) * (math.sin(9.0) - 3.0 * math.cos(9.0)) + 3.0) / 10.0


class TestIntegrate1D:
    def test_polynomial(self):
        res = integrate_1d(lambda x: x * x, 0.0, 1.0)
        assert abs(res.value - 1.0 / 3.0) <= max(res.error_estimate, 1e-9)
        assert res.evaluations > 0

    def test_full_period_sine(self):
        res = integrate_1d(math.sin, 0.0, 2.0 * math.pi)
        assert abs(res.value) <= 1e-6

    def test_radial_weight(self):
        res = integrate_1d(lambda r: r, 0.0, 2.0)
        assert abs(res.value - 2.0) <= 1e-9

    def test_oscillatory_closed_form(self):
        res = integrate_1d(lambda x: math.exp(x) * math.sin(3.0 * x), 0.0, 3.0,
                           tol=1e-9)
        assert abs(res.value - EXP_SIN_ORACLE) <= 1e-7

    def test_reversed_bounds_flip_sign(self):
        fwd = integrate_1d(lambda x: x * x, 0.0, 1.0)
        rev = integrate_1d(lambda x: x * x, 1.0, 0.0)
        assert rev.value == -fwd.value

    def test_empty_interval(self):
        res = integrate_1d(lambda x: 1.0, 2.0, 2.0)
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_tol_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_1d(lambda x: x, 0.0, 1.0, tol=tol)

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: float("nan"), 0.0, 1.0)

    def test_non_convergence_carries_partial_result(self):
        with pytest.raises(NonConvergenceError) as exc:
            integrate_1d(lambda x: math.sqrt(abs(x - 1.0 / 3.0)), 0.0, 1.0,
                         tol=1e-15)
        partial = exc.value.result
        assert math.isfinite(partial.value)
        assert partial.evaluations > 0

    def test_tighter_tol_does_not_worsen_estimate(self):
        f = lambda x: math.sin(20.0 * x) + x * x
        loose = integrate_1d(f, 0.0, 3.0, tol=1e-4)
        tight = integrate_1d(f, 0.0, 3.0, tol=5e-5)
        assert tight.error_estimate <= loose.error_estimate + 1e-12

    def test_linearity(self):
        f = lambda x: math.sin(3.0 * x)
        g = lambda x: x ** 3
        combo = integrate_1d(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 2.0)
        rf = integrate_1d(f, 0.0, 2.0)
        rg = integrate_1d(g, 0.0, 2.0)
        budget = combo.error_estimate + 2.0 * rf.error_estimate + 3.0 * rg.error_estimate
        assert abs(combo.value - (2.0 * rf.value + 3.0 * rg.value)) <= budget + 1e-9


class TestIntegrateBox:
    def test_product_polynomial(self):
        res = integrate_box(lambda x, y: x * y, [(0.0, 1.0), (0.0, 1.0)])
        assert abs(res.value - 0.25) <= 1e-8

    def test_one_dimensional_delegation(self):
        res = integrate_box(lambda x: x * x, [(0.0, 1.0)])
        assert abs(res.value - 1.0 / 3.0) <= 1e-8

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError):
            integrate_box(lambda *p: 1.0, [(0, 1)] * 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            integrate_box(lambda x, y: 1.0, [(1.0, 0.0), (0.0, 1.0)])

    def test_smooth_bump(self):
        # int over [0,pi]^2 of sin(x)sin(y) = 4
        res = integrate_box(lambda x, y: math.sin(x) * math.sin(y),
                            [(0.0, math.pi), (0.0, math.pi)])
        assert abs(res.value - 4.0) <= 1e-7


    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_refuses_tol_not_positive_and_finite(self, tol, dims):
        calls = []
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_box(lambda *p: calls.append(p) or 1.0, [(0.0, 1.0)] * dims, tol=tol)
        assert calls == []

    def test_gauss_rule_is_numpys_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert GAUSS_NODES == tuple(float(x) for x in nodes)
        assert GAUSS_WEIGHTS == tuple(float(w) for w in weights)

    def test_value_is_a_plain_float(self):
        res = integrate_box(lambda x, y: x * y, [(0.0, 1.0), (0.0, 1.0)])
        assert type(res.value) is float and type(res.error_estimate) is float


class TestRelativeTolerance:
    @pytest.mark.parametrize("f, bounds", [
        (lambda x: math.exp(x) * math.sin(3.0 * x), [(0.0, 3.0)]),
        (lambda x, y: math.exp(-8.0 * (x - 1.3) ** 2) * (1.0 + math.cos(3.0 * y) ** 8),
         [(0.0, 2.0), (0.0, 2.0 * math.pi)]),
    ], ids=["1d", "2d"])
    def test_scaling_f_keeps_the_evaluations(self, f, bounds):
        base = integrate_box(f, bounds)
        d = len(bounds)
        assert base.evaluations > 5 ** d + 10 ** d  # refined past the root cell
        for scale in (1e-13, 1.0, 1e13):
            res = integrate_box(lambda *p: scale * f(*p), bounds)
            assert res.evaluations == base.evaluations
            assert res.value == pytest.approx(scale * base.value, rel=1e-12)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_evaluation_budget_raises_with_partial_result(self, dims):
        calls = 0

        def wild(*p):
            nonlocal calls
            calls += 1
            return math.sin(1e6 * sum(p))

        with pytest.raises(NonConvergenceError) as exc:
            integrate_box(wild, [(0.0, 1.0)] * dims)
        partial = exc.value.result
        assert partial.evaluations == calls <= MAX_EVALUATIONS
        assert math.isfinite(partial.value)
        assert "evaluations" in str(exc.value)


class TestIntegrateMC:
    def test_constant_is_exact(self):
        res = integrate_mc(lambda pts: np.ones(len(pts)), [(0, 1)] * 3, 1000, seed=5)
        assert res.value == 1.0
        assert res.error_estimate == 0.0

    def test_ball_volume_within_three_sigma(self):
        def indicator(points):
            return (np.linalg.norm(points, axis=1) <= 1.0).astype(float)

        res = integrate_mc(indicator, [(-1, 1)] * 3, 1_000_000, seed=11)
        target = 4.0 * math.pi / 3.0
        assert abs(res.value - target) <= 3.0 * res.error_estimate
        assert abs(res.value - target) <= 0.05

    def test_seed_determinism(self):
        def f(points):
            return np.sin(points).sum(axis=1)

        a = integrate_mc(f, [(0, 2)] * 3, 5000, seed=42)
        b = integrate_mc(f, [(0, 2)] * 3, 5000, seed=42)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_different_seed_differs(self):
        f = lambda pts: pts.sum(axis=1)
        a = integrate_mc(f, [(0, 1)] * 3, 2000, seed=1)
        b = integrate_mc(f, [(0, 1)] * 3, 2000, seed=2)
        assert a.value != b.value

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            integrate_mc(lambda x: x, [(0, 1)], 1, seed=0)

    def test_vectorized_shape_check(self):
        with pytest.raises(ValueError):
            integrate_mc(lambda pts: np.zeros((3, 2)), [(0, 1)] * 2, 3, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mc_reproducible_for_any_seed(seed):
    f = lambda pts: pts[:, 0] * pts[:, 1] + pts[:, 2]
    a = integrate_mc(f, [(0, 1)] * 3, 500, seed=seed)
    b = integrate_mc(f, [(0, 1)] * 3, 500, seed=seed)
    assert a.value == b.value


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_affine_integrals_are_exact(width, slope):
    # an order-5 Gauss panel integrates polynomials up to degree 9 exactly
    res = integrate_1d(lambda x: slope * x + 1.0, 0.0, width)
    expected = slope * width * width / 2.0 + width
    assert abs(res.value - expected) <= 1e-9 + 1e-9 * abs(expected)
