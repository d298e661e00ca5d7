"""Closed-form volume families: symplectic quotients and Poisson bundles.

The symplectic family is exact rational arithmetic; the Poisson family
evaluates leaf-space densities for a one-parameter family of symplectic
leaves whose area function has no critical points.  Both model types
check their input in the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .errors import ValidationFailure


class CriticalPointError(ValidationFailure):
    """The leaf-area function has a (near-)critical point in the domain."""


class SymplecticModel:
    """Quotient data: measure constant c, finite kernel order, dimension 2m."""

    __slots__ = ("c", "k_order", "m")

    def __init__(self, c: Fraction, k_order: int, m: int = 1):
        self.c = Fraction(c)
        if k_order < 1:
            raise ValueError("kernel order must be >= 1")
        if m < 1:
            raise ValueError("dimension parameter m must be >= 1")
        self.k_order, self.m = k_order, m

    def __repr__(self):
        return f"SymplecticModel(c={self.c}, k_order={self.k_order}, m={self.m})"


def symplectic_bk_volume(sm: SymplecticModel) -> Fraction:
    """Exact stack volume c / #(kernel) for the constant-multiple measure."""
    return sm.c / sm.k_order


_DERIV_STEP = 1e-5


class PoissonFamilyModel:
    """A family of symplectic leaves over an interval of parameters t.

    ``area`` is the symplectic area V(t) of the leaf at t and ``coeff``
    the coefficient f(t) of the square measure on the total space.  The
    family is admissible only when V has no critical points on the
    domain; this is probed on an interior grid at construction.  |V'|
    counts as critical at or below 1e-8 times the largest |V| on that
    grid over the domain width, so rescaling V never changes the verdict,
    and a NaN slope or area counts as critical.
    """

    __slots__ = ("area", "coeff", "t_domain", "d_area", "name", "critical_slope")

    def __init__(self, area: Callable[[float], float], coeff: Callable[[float], float],
                 t_domain: tuple, d_area: Optional[Callable[[float], float]] = None,
                 name: str = "poisson-family"):
        lo, hi = float(t_domain[0]), float(t_domain[1])
        if not lo < hi:
            raise ValueError("t_domain must be a nonempty open interval")
        self.area, self.coeff, self.t_domain, self.d_area, self.name = (
            area, coeff, (lo, hi), d_area, name)
        span = hi - lo
        grid = [lo + span * k / 65.0 for k in range(1, 65)]
        size = max(abs(float(area(t))) for t in grid)
        self.critical_slope = 1e-8 * size / span
        for t in grid:
            if not abs(self._derivative(t)) > self.critical_slope:  # NaN too
                raise CriticalPointError(
                    f"leaf area of {self.name} is critical near t={t:.6g}"
                )

    def __repr__(self):
        return f"PoissonFamilyModel({self.name}, t_domain={self.t_domain})"

    def _derivative(self, t: float) -> float:
        if self.d_area is not None:
            return float(self.d_area(t))
        h = _DERIV_STEP
        d1 = (self.area(t + h) - self.area(t - h)) / (2.0 * h)
        d2 = (self.area(t + h / 2.0) - self.area(t - h / 2.0)) / h
        # one Richardson step knocks out the leading error term
        return (4.0 * d2 - d1) / 3.0


def _checked_derivative(pm: PoissonFamilyModel, t: float) -> float:
    lo, hi = pm.t_domain
    if not lo < t < hi:
        raise ValueError(f"parameter {t} outside the open domain ({lo}, {hi})")
    d = pm._derivative(t)
    if not abs(d) > pm.critical_slope:  # NaN too
        raise CriticalPointError(f"leaf area of {pm.name} is critical at t={t:.6g}")
    return d


def poisson_stack_density(pm: PoissonFamilyModel, t: float) -> float:
    """Density f(t)/V'(t) of the stack measure on the leaf parameter line."""
    return float(pm.coeff(t)) / _checked_derivative(pm, t)


def natural_leaf_measure(pm: PoissonFamilyModel, t: float) -> float:
    """Density V'(t) of the measure pulled from the leaf areas."""
    return _checked_derivative(pm, t)

