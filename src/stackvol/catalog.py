"""The named analytic models exposed to the CLI and the test suites.

Each builder returns one of the model types understood elsewhere in the
package: an ActionModel (chart-based volume computations), CartanData
(the rank-one adjoint quotient), a SymplecticModel (exact rational
volume), or a PoissonFamilyModel (leaf-space densities).
"""

from __future__ import annotations

import inspect
import math
import re
import sys
from fractions import Fraction

from .errors import NumericalFailure, ValidationFailure
from .families import PoissonFamilyModel, SymplecticModel
from .smooth import ActionModel, BoxChart, GroupModel, OrbitChart

TWO_PI = 2.0 * math.pi


class UnknownModelError(ValidationFailure):
    """The requested catalog name or parameter does not exist."""


def plane_so2(R: float = 2.0) -> ActionModel:
    """Rotations of the radius-R disk, polar chart, Lebesgue b.

    The orbit space is the radius interval with density r; the origin is
    the single singular orbit.
    """
    if R <= 0:
        raise ValueError("R must be positive")

    def act(phi, p):
        r, theta = p
        return (r, (theta + phi) % TWO_PI)

    return ActionModel(
        name="plane-so2",
        group=GroupModel("circle"),
        chart=BoxChart(bounds=((0.0, R), (0.0, TWO_PI)), periods=(None, TWO_PI)),
        act=act,
        a_density=lambda p: 1.0,
        b_density=lambda p: p[0],
        a_constant=True,
        orbit_chart=OrbitChart(
            param_axis=0,
            param_range=(0.0, R),
            orbit_density=lambda t: t,
            isotropy_volume=lambda t: 1.0,
            singular_params=(0.0,),
        ),
    )


def plane_o2(R: float = 2.0) -> ActionModel:
    """Rotations and reflections of the disk; reflections halve the density."""
    if R <= 0:
        raise ValueError("R must be positive")

    def act(h, p):
        flag, phi = h
        r, theta = p
        sign = -1.0 if flag else 1.0
        return (r, (phi + sign * theta) % TWO_PI)

    return ActionModel(
        name="plane-o2",
        group=GroupModel("o2"),
        chart=BoxChart(bounds=((0.0, R), (0.0, TWO_PI)), periods=(None, TWO_PI)),
        act=act,
        a_density=lambda p: 1.0,
        b_density=lambda p: p[0],
        a_constant=True,
        orbit_chart=OrbitChart(
            param_axis=0,
            param_range=(0.0, R),
            orbit_density=lambda t: t,
            # each regular point is fixed by exactly one reflection
            isotropy_volume=lambda t: 2.0,
            singular_params=(0.0,),
        ),
    )


def torus_free() -> ActionModel:
    """A circle translating the first coordinate of a flat two-torus."""

    def act(phi, p):
        u, v = p
        return ((u + phi) % TWO_PI, v)

    return ActionModel(
        name="torus-free",
        group=GroupModel("circle"),
        chart=BoxChart(bounds=((0.0, TWO_PI), (0.0, TWO_PI)), periods=(TWO_PI, TWO_PI)),
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
