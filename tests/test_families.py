"""Closed-form family volumes: exact rationals and leaf-space densities."""

import math
from fractions import Fraction

import pytest

from stackvol.catalog import (
    CriticalPointError,
    PoissonFamilyModel,
    SymplecticModel,
    natural_leaf_measure,
    poisson_sphere_bundle,
    poisson_stack_density,
    su2_dual,
    symplectic_bk_volume,
)

# frozen oracles:
#   constant-multiple symplectic quotient: volume = c / kernel order
#   leaf family with area V and square measure f = (V')^2: density V'
#   linear leaf family V = 4 pi t: natural density 4 pi at every t


class TestSymplecticVolume:
    def test_trivial_kernel(self):
        assert symplectic_bk_volume(SymplecticModel(Fraction(1), 1)) == 1

    def test_order_two_kernel(self):
        assert symplectic_bk_volume(SymplecticModel(Fraction(1), 2)) == Fraction(1, 2)

    def test_reduction_of_constant(self):
        assert symplectic_bk_volume(SymplecticModel(Fraction(3), 6)) == Fraction(1, 2)

    def test_grid_of_cases(self):
        cases = [
            (Fraction(1), 1, Fraction(1)),
            (Fraction(1), 2, Fraction(1, 2)),
            (Fraction(1), 3, Fraction(1, 3)),
            (Fraction(2), 3, Fraction(2, 3)),
            (Fraction(3), 6, Fraction(1, 2)),
            (Fraction(5, 2), 5, Fraction(1, 2)),
            (Fraction(7, 3), 7, Fraction(1, 3)),
            (Fraction(9, 4), 3, Fraction(3, 4)),
            (Fraction(11), 4, Fraction(11, 4)),
            (Fraction(1, 12), 12, Fraction(1, 144)),
        ]
        for c, k, expect in cases:
            assert symplectic_bk_volume(SymplecticModel(c, k)) == expect

    def test_dimension_parameter_does_not_change_volume(self):
        assert (symplectic_bk_volume(SymplecticModel(Fraction(2), 4, m=3))
                == Fraction(1, 2))

    def test_invalid_kernel_order(self):
        with pytest.raises(ValueError):
            SymplecticModel(Fraction(1), 0)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            SymplecticModel(Fraction(1), 1, m=0)

    def test_coercion_to_fraction(self):
        sm = SymplecticModel(2, 4)
        assert symplectic_bk_volume(sm) == Fraction(1, 2)
        assert isinstance(symplectic_bk_volume(sm), Fraction)


def linear_model():
    """V(t) = 4 pi t with f = (V')^2, derivative left to finite differences."""
    slope = 4.0 * math.pi
    return PoissonFamilyModel(
        area=lambda t: slope * t,
        coeff=lambda t: slope ** 2,
        t_domain=(0.05, 5.0),
        name="linear-family",
    )


def quadratic_model():
    """V(t) = t^2 + 3 t with f = (V')^2 on a domain clear of t = -3/2."""
    return PoissonFamilyModel(
        area=lambda t: t * t + 3.0 * t,
        coeff=lambda t: (2.0 * t + 3.0) ** 2,
        t_domain=(0.05, 5.0),
        name="quadratic-family",
    )


class TestPoissonDensity:
    def test_square_measure_gives_back_derivative_linear(self):
        pm = linear_model()
        for t in (0.3, 1.0, 2.5, 4.9):
            assert poisson_stack_density(pm, t) == pytest.approx(
                4.0 * math.pi, abs=1e-6)

    def test_square_measure_gives_back_derivative_quadratic(self):
        pm = quadratic_model()
        for t in (0.3, 1.0, 2.5, 4.9):
            assert poisson_stack_density(pm, t) == pytest.approx(
                2.0 * t + 3.0, abs=1e-6)

    def test_natural_measure_is_area_derivative(self):
        pm = linear_model()
        for t in (0.2, 1.0, 3.7):
            assert natural_leaf_measure(pm, t) == pytest.approx(
                4.0 * math.pi, abs=1e-8)
        qm = PoissonFamilyModel(area=lambda t: t * t, coeff=lambda t: 1.0,
                                t_domain=(0.5, 4.0))
        for t in (0.7, 2.0, 3.5):
            # Richardson differences are exact on polynomials of low degree
            assert natural_leaf_measure(qm, t) == pytest.approx(2.0 * t, abs=1e-8)

    def test_closed_form_derivative_is_used(self):
        probes = []
        pm = PoissonFamilyModel(
            area=lambda t: 4.0 * math.pi * t,
            coeff=lambda t: 1.0,
            t_domain=(0.1, 2.0),
            d_area=lambda t: probes.append(t) or 4.0 * math.pi,
        )
        probes.clear()
        assert natural_leaf_measure(pm, 1.0) == pytest.approx(4.0 * math.pi)
        assert probes == [1.0]

    def test_domain_is_open(self):
        pm = linear_model()
        with pytest.raises(ValueError):
            poisson_stack_density(pm, 0.05)
        with pytest.raises(ValueError):
            poisson_stack_density(pm, 5.0)
        with pytest.raises(ValueError):
            poisson_stack_density(pm, -1.0)

    def test_constant_area_rejected_at_construction(self):
        with pytest.raises(CriticalPointError):
            PoissonFamilyModel(area=lambda t: 2.0, coeff=lambda t: 1.0,
                               t_domain=(0.0, 1.0))

    def test_interior_critical_point_caught_at_evaluation(self):
        # the construction grid has no node at exactly t = 1, so the
        # parabola with vertex there slips through; evaluation must not
        pm = PoissonFamilyModel(area=lambda t: (t - 1.0) ** 2,
                                coeff=lambda t: 1.0,
                                t_domain=(0.9638, 1.04))
        with pytest.raises(CriticalPointError):
            poisson_stack_density(pm, 1.0)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            PoissonFamilyModel(area=lambda t: t, coeff=lambda t: 1.0,
                               t_domain=(2.0, 2.0))


class TestCatalogFamilies:
    def test_su2_dual_natural_measure(self):
        pm = su2_dual()
        for t in (0.3, 1.0, 4.0):
            assert natural_leaf_measure(pm, t) == pytest.approx(
                4.0 * math.pi, abs=1e-8)

    def test_su2_dual_square_mode_density(self):
        pm = su2_dual(mode="dv2")
        assert poisson_stack_density(pm, 1.0) == pytest.approx(
            4.0 * math.pi, abs=1e-6)

    def test_su2_dual_other_modes(self):
        flat = su2_dual(mode="dv")
        assert poisson_stack_density(flat, 2.0) == pytest.approx(1.0, abs=1e-9)
        inv = su2_dual(mode="one")
        assert poisson_stack_density(inv, 2.0) == pytest.approx(
            1.0 / (4.0 * math.pi), abs=1e-9)

    def test_sphere_bundle_density(self):
        pm = poisson_sphere_bundle(c1=3.0, c2=1.0, mode="dv2")
        for t in (0.3, 1.3, 4.0):
            assert poisson_stack_density(pm, t) == pytest.approx(
                3.0 + 2.0 * t, abs=1e-9)

    def test_sphere_bundle_flat_mode(self):
        pm = poisson_sphere_bundle(c1=2.0, c2=0.5, mode="dv")
        assert poisson_stack_density(pm, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_sphere_bundle_accepted(self):
        # V' = 1e-9 (1 + 2t) never vanishes; only its size is small
        pm = poisson_sphere_bundle(c1=1e-9, c2=1e-9, mode="dv2")
        assert poisson_stack_density(pm, 1.0) == pytest.approx(3e-9, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_critical_points_refused_at_every_scale(self, scale):
        with pytest.raises(CriticalPointError):
            PoissonFamilyModel(area=lambda t: 2.0 * scale, coeff=lambda t: 1.0,
                               t_domain=(0.0, 1.0))
        with pytest.raises(CriticalPointError):
            poisson_stack_density(poisson_sphere_bundle(c1=-2.0 * scale, c2=scale), 1.0)
        with pytest.raises(CriticalPointError):
            PoissonFamilyModel(area=lambda t: scale * (t - 0.5) ** 2,
                               coeff=lambda t: 1.0, t_domain=(0.0, 1.3))

    def test_nan_slope_refused(self):
        # NaN compares false against the critical-slope threshold
        with pytest.raises(CriticalPointError):
            poisson_sphere_bundle(c1=math.nan)
        pm = PoissonFamilyModel(area=lambda t: t, coeff=lambda t: 1.0, t_domain=(0.0, 2.0),
                                d_area=lambda t: math.nan if t == 1.0 else 1.0)
        with pytest.raises(CriticalPointError):
            poisson_stack_density(pm, 1.0)
        with pytest.raises(CriticalPointError):
            natural_leaf_measure(pm, 1.0)

    def test_sphere_bundle_critical_vertex_caught(self):
        # c1 < 0 puts the vertex of the area parabola inside the domain;
        # it sits between construction grid nodes, so evaluation catches it
        pm = poisson_sphere_bundle(c1=-2.0, c2=1.0)
        with pytest.raises(CriticalPointError):
            poisson_stack_density(pm, 1.0)
        # a grid-aligned critical point dies at construction instead
        # (the probe grid for (0, 1.3) steps by 0.02 and lands on 0.5)
        with pytest.raises(CriticalPointError):
            PoissonFamilyModel(area=lambda t: (t - 0.5) ** 2,
                               coeff=lambda t: 1.0, t_domain=(0.0, 1.3))
