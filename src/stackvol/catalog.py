"""The named analytic models exposed to the CLI and the test suites.

Each builder returns one of the model types understood elsewhere in the
package: an ActionModel (chart-based volume computations), CartanData
(the rank-one adjoint quotient), a SymplecticModel (exact rational
volume), or a PoissonFamilyModel (leaf-space densities).  The last two
are defined here with their closed-form volumes and densities, and
check their input in the constructor.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from fractions import Fraction
from typing import Callable, Optional

from .errors import NumericalFailure, ValidationFailure
from .smooth import ActionModel, BoxChart, GroupModel, OrbitChart

TWO_PI = 2.0 * math.pi


class UnknownModelError(ValidationFailure):
    """The requested catalog name or parameter does not exist."""


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


def _disk(name: str, R: float, group: str, act, isotropy: float) -> ActionModel:
    """The radius-R disk in the polar chart with Lebesgue b and constant a.

    The orbit space is the radius interval with density r; the origin is
    the single singular orbit, and every regular orbit has isotropy
    volume ``isotropy``.
    """
    if R <= 0:
        raise ValueError("R must be positive")
    return ActionModel(
        name=name,
        group=GroupModel(group),
        chart=BoxChart(bounds=((0.0, R), (0.0, TWO_PI))),
        act=act,
        a_density=lambda p: 1.0,
        b_density=lambda p: p[0],
        a_constant=True,
        orbit_chart=OrbitChart(param_axis=0, param_range=(0.0, R), orbit_density=lambda t: t,
                               isotropy_volume=lambda t: isotropy, singular_params=(0.0,)),
    )


def plane_so2(R: float = 2.0) -> ActionModel:
    """Rotations of the radius-R disk, polar chart, Lebesgue b.

    The orbit space is the radius interval with density r; the origin is
    the single singular orbit.
    """

    def act(phi, p):
        r, theta = p
        return (r, (theta + phi) % TWO_PI)

    return _disk("plane-so2", R, "circle", act, 1.0)


def plane_o2(R: float = 2.0) -> ActionModel:
    """Rotations and reflections of the disk; reflections halve the density."""

    def act(h, p):
        flag, phi = h
        r, theta = p
        sign = -1.0 if flag else 1.0
        return (r, (phi + sign * theta) % TWO_PI)

    # each regular point is fixed by exactly one reflection
    return _disk("plane-o2", R, "o2", act, 2.0)


def torus_free() -> ActionModel:
    """A circle translating the first coordinate of a flat two-torus."""

    def act(phi, p):
        u, v = p
        return ((u + phi) % TWO_PI, v)

    return ActionModel(
        name="torus-free",
        group=GroupModel("circle"),
        chart=BoxChart(bounds=((0.0, TWO_PI), (0.0, TWO_PI))),
        act=act,
        a_density=lambda p: 1.0,
        b_density=lambda p: 1.0,
        a_constant=True,
        orbit_chart=OrbitChart(
            param_axis=1,
            param_range=(0.0, TWO_PI),
            orbit_density=lambda t: 1.0,
            isotropy_volume=lambda t: 1.0,
        ),
    )


def adjoint_su2():
    """Computed normalization data for the rank-one adjoint quotient."""
    from .su2 import su2_cartan  # loads numpy, which no other model needs

    return su2_cartan()


def symplectic_bk(c: Fraction = Fraction(1), k: int = 1, m: int = 1) -> SymplecticModel:
    """Exact-volume symplectic quotient with finite kernel of order k."""
    return SymplecticModel(c=Fraction(c), k_order=int(k), m=int(m))


_POISSON_MODES = ("dv2", "dv", "one")


def _poisson_coeff(mode: str, d_area):
    if mode == "dv2":
        def squared_slope(t):
            slope = d_area(t)
            try:
                square = slope ** 2
            except OverflowError:
                raise NumericalFailure(f"coefficient V'(t)^2 overflows at t={t!r}, "
                                       f"where V'(t) = {slope!r}") from None
            if slope and abs(square) < sys.float_info.min:
                raise NumericalFailure(f"coefficient V'(t)^2 underflows at t={t!r}, "
                                       f"where V'(t) = {slope!r}")
            return square

        return squared_slope
    if mode == "dv":
        return lambda t: d_area(t)
    if mode == "one":
        return lambda t: 1.0
    raise UnknownModelError(f"mode must be one of {_POISSON_MODES}, got {mode!r}")


def poisson_sphere_bundle(c1: float = 3.0, c2: float = 1.0,
                          mode: str = "dv2") -> PoissonFamilyModel:
    """Leaves with area V(t) = c1 t + c2 t^2 over t in (0.05, 5).

    mode picks the total-space coefficient: "dv2" squares the natural
    leaf density, "dv" uses it once, "one" is the constant 1.
    """

    def area(t):
        return c1 * t + c2 * t * t

    def d_area(t):
        return c1 + 2.0 * c2 * t

    return PoissonFamilyModel(
        area=area,
        coeff=_poisson_coeff(mode, d_area),
        t_domain=(0.05, 5.0),
        d_area=d_area,
        name="poisson-sphere-bundle",
    )


def su2_dual(mode: str = "dv2") -> PoissonFamilyModel:
    """The coadjoint leaf family with linear area growth.

    The sphere through parameter t has symplectic area equal to the
    sphere area at unit scale times t, so the natural leaf measure is
    the constant slope.
    """
    slope = 2.0 * TWO_PI

    def area(t):
        return slope * t

    def d_area(t):
        return slope

    return PoissonFamilyModel(
        area=area,
        coeff=_poisson_coeff(mode, d_area),
        t_domain=(0.05, 5.0),
        d_area=d_area,
        name="su2-dual",
    )


CATALOG = {
    "plane-so2": plane_so2,
    "plane-o2": plane_o2,
    "torus-free": torus_free,
    "adjoint-su2": adjoint_su2,
    "symplectic-bk": symplectic_bk,
    "poisson-sphere-bundle": poisson_sphere_bundle,
    "su2-dual": su2_dual,
}


# the decimal exponent of a string Fraction() accepts
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _bounded_fraction(raw) -> Fraction:
    """Fraction(raw), refusing a decimal exponent past the integer-digit limit.

    Fraction expands the exponent of a string into a power of ten, so an
    unbounded one buys unbounded work from a short string.
    """
    match = isinstance(raw, str) and _EXPONENT.search(raw)
    if match:
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if abs(int(match.group(1))) > limit:
            raise ValueError(f"decimal exponent past the {limit}-digit integer limit")
    return Fraction(raw)


def build_model(name: str, **params):
    """Instantiate a catalog model, coercing parameters by declared type."""
    try:
        builder = CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise UnknownModelError(f"unknown model {name!r}; catalog: {known}") from None
    sig = inspect.signature(builder)
    kwargs = {}
    for key, raw in params.items():
        if key not in sig.parameters:
            raise UnknownModelError(f"model {name!r} takes no parameter {key!r}")
        default = sig.parameters[key].default
        try:
            if isinstance(default, int):
                kwargs[key] = int(raw)
            elif isinstance(default, float):
                kwargs[key] = float(raw)
                if not math.isfinite(kwargs[key]):
                    raise ValueError("not a finite number")
            elif isinstance(default, Fraction):
                kwargs[key] = _bounded_fraction(raw)
            else:
                kwargs[key] = raw
        except (ValueError, ZeroDivisionError) as exc:
            raise UnknownModelError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return builder(**kwargs)
