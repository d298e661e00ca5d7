"""Numerical stack volumes for transformation-groupoid models.

A model packages a compact group (finitely many components times
circle angles, with scaled Haar measure), a coordinate chart for the
space acted on, the action in those coordinates, and a pair of
densities: ``a_density`` along the group directions and ``b_density``
on the chart.  The stack volume integrates b against the reciprocal of
the fiber integral of a, mirroring the exact finite formula; each fiber
integral is a sum over the components of a periodic trapezoid rule in
the angles, refined until it settles.  Models may also carry an orbit
chart describing the regular part of the orbit space, which gives the
pushforward density of the stack measure on the orbit parameter.

Box and point charts check their input when built.  The orbit chart is
a namedtuple, so ``_replace`` copies one; an ``ActionModel`` is frozen
and copied with the standard library's ``replace``.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DegenerateWeightError, NumericalFailure, ValidationFailure
from .quadrature import (
    EvalCounter,
    NonConvergenceError,
    QuadratureResult,
    integrate_box,
    left_sum,
    refuse_non_finite,
    require_positive_finite,
)

TWO_PI = 2.0 * math.pi
# trapezoid Haar rule: first grid per angle, cap on one grid over all angles
HAAR_START_NODES = 16
HAAR_MAX_NODES = 2 ** 16
# offset of the aliasing check's grid, in steps: the golden ratio's fraction,
# far from every rational with a small denominator
HAAR_SHIFT = (math.sqrt(5.0) - 1.0) / 2.0


class SingularOrbitError(ValidationFailure):
    """The pushforward density is defined on the strongly regular part only."""


# ---------------------------------------------------------------------------
# groups


class GroupModel:
    """A compact group: a tuple of components times ``rank`` circle angles.

    "finite" is the table's elements with rank 0, "circle" one component
    with rank 1, and "o2" the components (0, 1), 1 for reflections, with
    rank 1.  ``element`` maps (component, angles) to what ``act``
    receives: a table element, an angle or a pair (flag, angle).  The
    scale multiplies the Haar measure of this parametrization.
    """

    ELEMENT_MAPS = {
        "finite": lambda c, angles: c,
        "circle": lambda c, angles: angles[0],
        "o2": lambda c, angles: (c, angles[0]),
    }

    def __init__(self, kind: str, haar_scale: float = 1.0, group=None):
        if kind not in self.ELEMENT_MAPS:
            raise ValueError(f"unknown group kind {kind!r}")
        if haar_scale <= 0:
            raise ValueError("haar_scale must be positive")
        self.kind = kind
        self.haar_scale = float(haar_scale)
        self.element = self.ELEMENT_MAPS[kind]
        self.components, self.rank = ((0, 1) if kind == "o2" else (0,)), 1
        if kind == "finite":
            if group is None:
                raise ValueError("finite kind needs a multiplication-table group")
            self.components, self.rank = tuple(group.elements), 0

    @property
    def volume(self) -> float:
        return self.haar_scale * len(self.components) * TWO_PI ** self.rank

    def integrate(self, fn: Callable, tol: float = 1e-9):
        """Haar integral of fn over the group; returns (value, evaluations).

        Sums over the components and applies the periodic trapezoid rule
        to the angles, which converges exponentially for smooth periodic
        integrands.  The grid starts at HAAR_START_NODES per angle and
        doubles, reusing its nodes, until two estimates agree to ``tol``
        relative to the integral of |fn|, the policy of the chart rule in
        :mod:`quadrature`, so scaling fn never changes the number of
        evaluations.  Nested grids alias the same frequencies, so once the
        grids of n/2 and n nodes agree, a grid of n/2 nodes shifted by
        HAAR_SHIFT of its step must agree too; a frequency that both nested
        grids alias shows up there as a phase difference (Trefethen and
        Weideman, SIAM Review 56(3), 2014, section 3), and the grid keeps
        doubling.  The evaluations count the shifted nodes.  An integrand
        that does not settle within HAAR_MAX_NODES raises
        NonConvergenceError with the last estimate; it never returns
        silently.
        """
        require_positive_finite("tol", tol)
        n = HAAR_START_NODES
        total = size = 0.0
        prev = None
        evals = 0

        def sample(nodes):
            """The sums of fn and |fn| over the components at the given angles."""
            nonlocal evals
            values = [float(fn(self.element(c, angles)))
                      for c in self.components for angles in nodes]
            evals += len(values)
            abs_sum = left_sum(map(abs, values))
            if math.isnan(abs_sum):
                raise ValueError("Haar integrand returned NaN")
            if abs_sum == math.inf:  # an infinite value, or finite ones summing past the floats
                i = max(range(len(values)), key=lambda i: abs(values[i]))
                c, k = divmod(i, len(nodes))
                raise NumericalFailure(f"Haar integrand overflowed: largest value {values[i]!r} "
                                       f"at {self.element(self.components[c], nodes[k])!r}")
            return left_sum(values), abs_sum

        while True:
            grid = itertools.product(range(n), repeat=self.rank)
            part, part_size = sample([tuple(TWO_PI * i / n for i in idx) for idx in grid
                                      if prev is None or any(i % 2 for i in idx)])
            total += part
            size += part_size
            weight = self.haar_scale * (TWO_PI / n) ** self.rank
            value = weight * total
            if self.rank == 0:
                return value, evals
            gap = math.inf if prev is None else abs(value - prev)
            if gap <= tol * weight * size:
                half = n // 2
                grid = itertools.product(range(half), repeat=self.rank)
                shifted, _ = sample([tuple(TWO_PI * (i + HAAR_SHIFT) / half for i in idx)
                                     for idx in grid])
                gap = abs(2 ** self.rank * weight * shifted - value)
                if gap <= tol * weight * size:
                    return value, evals
            if (2 * n) ** self.rank > HAAR_MAX_NODES:
                raise NonConvergenceError(
                    f"trapezoid Haar rule hit {n ** self.rank} nodes before reaching tol={tol}",
                    QuadratureResult(value, gap, evals),
                )
            prev = value
            n *= 2

    def __repr__(self):
        return f"GroupModel({self.kind}, scale={self.haar_scale})"


# ---------------------------------------------------------------------------
# charts


class BoxChart:
    """A bounded box of dimension 1 or 2, the dimensions ``integrate_box`` covers."""

    __slots__ = ("bounds",)

    def __init__(self, bounds):
        bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        if len(bounds) not in (1, 2):
            raise ValueError(f"a chart has dimension 1 or 2, not {len(bounds)}")
        if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in bounds):
            raise ValueError(f"chart bounds {bounds} are not finite intervals lo < hi")
        self.bounds = bounds

    def __repr__(self):
        return f"BoxChart({self.bounds})"


class PointChart:
    """A finite point set, for actions of finite groups on finite sets."""

    __slots__ = ("points",)

    def __init__(self, points):
        self.points = tuple(points)

    def __repr__(self):
        return f"PointChart({len(self.points)} points)"


class OrbitChart(namedtuple("OrbitChart", "param_axis param_range orbit_density "
                                          "isotropy_volume singular_params", defaults=((),))):
    """Analytic description of the strongly regular part of an orbit space.

    ``param_axis`` names the chart coordinate that descends to the orbit
    parameter, ``orbit_density`` is the orbit-space density in that
    parameter, and ``isotropy_volume`` the volume of the isotropy group
    over each regular orbit.  Singular parameter values are declared,
    not detected; the window around them scales with ``param_range``.
    Each level set of ``param_axis`` in the chart must be a single orbit:
    ``stack_volume`` reuses one fiber integral for every chart node with
    the same orbit parameter.
    """

    __slots__ = ()

    def is_singular(self, t: float) -> bool:
        lo, hi = self.param_range
        return any(abs(t - s) < 1e-12 * (hi - lo) for s in self.singular_params)


@dataclass(frozen=True)  # kept, as perfbench/workloads.py copies it with dataclasses.replace
class ActionModel:
    """A group action on a chart together with the volume densities."""

    name: str
    group: GroupModel
    chart: object
    act: Callable
    a_density: Callable
    b_density: Callable
    a_constant: bool = False
    orbit_chart: Optional[OrbitChart] = None


# ---------------------------------------------------------------------------
# volume computations


def _fiber(am: ActionModel, y):
    """The fiber integral at y and the evaluations its Haar rule made."""
    if am.a_constant:
        return float(am.a_density(y)) * am.group.volume, 0
    return am.group.integrate(lambda h: float(am.a_density(am.act(h, y))))


def fiber_integral(am: ActionModel, y) -> float:
    """Haar integral of a_density along the orbit through y.

    For a constant a this is a(y) times the group volume, the direct
    analog of the finite fiber sum.
    """
    return _fiber(am, y)[0]


def stack_volume(am: ActionModel, tol: float = 1e-6) -> QuadratureResult:
    """Volume of the quotient stack: integral of b over the reciprocal fibers.

    A fiber counts as vanishing when it is negligible against the fiber
    a constant a = a(p) would give, so rescaling the Haar measure or the
    densities never changes whether a model is degenerate.  Haar measure is invariant, so the
    fiber integral is constant along each orbit: on a box chart with an
    orbit chart and a non-constant a, each value of the orbit parameter
    gets one fiber rule, whose integral serves every node with that
    parameter.  This requires each level set of the orbit chart's
    ``param_axis`` to be a single orbit.  The evaluations count the
    integrand calls plus the evaluations of every fiber rule run, and the
    chart rule charges both to one budget, ``quadrature.MAX_EVALUATIONS``:
    past it the rule raises NonConvergenceError, whose partial result
    counts both as well.
    """
    # orbit parameter -> fiber integral, for this call only
    fibers = ({} if am.orbit_chart is not None and not am.a_constant
              and not isinstance(am.chart, PointChart) else None)

    def fiber(p):
        if fibers is not None:
            key = p[am.orbit_chart.param_axis]
            if key in fibers:
                return fibers[key]
        fib, evals = _fiber(am, p)
        counter.count += evals  # a fiber rule's NonConvergenceError passes as it is
        if fibers is not None:
            fibers[key] = fib
        return fib

    def b_over_fiber(p):
        fib = fiber(p)
        if abs(fib) <= 1e-12 * abs(float(am.a_density(p))) * am.group.volume:
            raise DegenerateWeightError(f"fiber integral vanishes at {p!r}")
        return float(am.b_density(p)) / fib

    if isinstance(am.chart, PointChart):
        # refuses each non-finite b/fiber, and counts the points and (in fiber) the fiber rules
        counter = EvalCounter(b_over_fiber)
        total = left_sum(map(counter, am.chart.points))
        if not math.isfinite(total):
            refuse_non_finite(total, "in the sum over the chart points")
        return QuadratureResult(total, 0.0, counter.count)
    counter = EvalCounter(lambda *p: b_over_fiber(p))
    return integrate_box(counter, am.chart.bounds, tol=tol)


def homogeneous_volume(am: ActionModel, tol: float = 1e-6) -> QuadratureResult:
    """Total b mass divided by the group volume, for constant a.

    Valid when the action is transitive with trivial isotropy up to a
    group of measure zero, where the stack volume collapses to the ratio
    of total volumes.
    """
    if not am.a_constant:
        raise ValueError("homogeneous_volume requires a constant a_density")
    point_chart = isinstance(am.chart, PointChart)
    a0 = float(am.a_density(am.chart.points[0] if point_chart
                            else tuple(lo for lo, _ in am.chart.bounds)))
    if a0 == 0.0:
        raise DegenerateWeightError("group volume weighted by a vanishes")
    denom = a0 * am.group.volume

    if point_chart:
        total = left_sum(float(am.b_density(p)) for p in am.chart.points)
        res = QuadratureResult(total, 0.0, len(am.chart.points))
    else:
        res = integrate_box(lambda *p: float(am.b_density(p)), am.chart.bounds, tol=tol)
    if not math.isfinite(value := res.value / denom):
        refuse_non_finite(value, "in the b mass over the group volume")
    return QuadratureResult(value, res.error_estimate / abs(denom), res.evaluations)


# ---------------------------------------------------------------------------
# pushforward route


def pushforward_density(am: ActionModel, t: float) -> float:
    """Density of the stack measure on the orbit space at parameter t."""
    oc = am.orbit_chart
    if oc is None:
        raise ValueError(f"model {am.name} declares no orbit chart")
    lo, hi = oc.param_range
    if not lo <= t <= hi:
        raise ValueError(f"parameter {t} outside orbit range [{lo}, {hi}]")
    if oc.is_singular(t):
        raise SingularOrbitError(
            f"parameter {t} is singular; the density lives on the strongly regular part only"
        )
    return float(oc.orbit_density(t)) / float(oc.isotropy_volume(t))


# ---------------------------------------------------------------------------
# finite bridge


def finite_action_model(group, points, act, a, b, haar_scale: float = 1.0,
                        name: str = "finite-action") -> ActionModel:
    """Wrap a finite group action as a smooth-engine model.

    ``a`` and ``b`` map points to weights (rationals welcome); they are
    evaluated to floats here, so exact agreement with the finite engine
    holds up to float rounding only.
    """
    pts = tuple(points)
    a_map = {p: float(a[p]) for p in pts}
    b_map = {p: float(b[p]) for p in pts}
    gm = GroupModel("finite", haar_scale=haar_scale, group=group)
    values = set(a_map.values())
    return ActionModel(
        name=name,
        group=gm,
        chart=PointChart(pts),
        act=act,
        a_density=lambda p: a_map[p],
        b_density=lambda p: b_map[p],
        a_constant=len(values) == 1,
    )
