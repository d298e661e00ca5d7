"""Deterministic numerical integration for the smooth models.

Three integrators cover what the smooth side needs: adaptive Simpson in
one dimension, adaptive tensor Gauss panels over boxes in up to two
dimensions, and a seeded Monte Carlo estimator for the high-dimensional
comparison check.  All of them report an error estimate and the number
of integrand evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailure


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __str__(self):
        return f"{self.value:.12g} (est err {self.error_estimate:.3g}, {self.evaluations} evals)"


class NonConvergenceError(NumericalFailure):
    """Requested tolerance was not reached; carries the partial result."""

    def __init__(self, message, result: QuadratureResult):
        super().__init__(message)
        self.result = result


def require_positive_finite(name: str, value: float):
    """Refuse a parameter such as ``tol`` that is NaN, infinite or not positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class _EvalCounter:
    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        v = float(self.f(*args))
        if not math.isfinite(v):
            raise ValueError(f"integrand returned non-finite value {v} at {args}")
        return v


def integrate_1d(f, a: float, b: float, tol: float = 1e-6,
                 max_depth: int = 15) -> QuadratureResult:
    """Adaptive Simpson rule on [a, b] with absolute tolerance ``tol``.

    Interval halving continues until the Richardson defect of a panel is
    within its share of the tolerance.  Panels still failing at
    ``max_depth`` make the whole call raise :class:`NonConvergenceError`
    with the assembled partial result attached.
    """
    require_positive_finite("tol", tol)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    g = _EvalCounter(f)

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    total = 0.0
    err_total = 0.0
    failed = False

    # stack entries: (x0, x2, f0, f1, f2, whole, tol_local, depth)
    mid = 0.5 * (a + b)
    f0, f1, f2 = g(a), g(mid), g(b)
    stack = [(a, b, f0, f1, f2, simpson(a, b, f0, f1, f2), tol, 0)]
    while stack:
        x0, x2, f0, f1, f2, whole, tol_local, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl, fr = g(lm), g(rm)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        # force a couple of splits so a coarse grid cannot fool Simpson
        if depth >= 2 and abs(delta) <= 15.0 * tol_local:
            total += left + right + delta / 15.0
            err_total += abs(delta) / 15.0
        elif depth >= max_depth:
            total += left + right + delta / 15.0
            err_total += abs(delta) / 15.0
            failed = True
        else:
            stack.append((x0, xm, f0, fl, f1, left, 0.5 * tol_local, depth + 1))
            stack.append((xm, x2, f1, fr, f2, right, 0.5 * tol_local, depth + 1))

    result = QuadratureResult(sign * total, err_total, g.count)
    if failed:
        raise NonConvergenceError(
            f"adaptive Simpson hit depth {max_depth} before reaching tol={tol}",
            result,
        )
    return result


# order-5 Gauss-Legendre rule on [-1, 1], the float values numpy's leggauss(5)
# returns; the closed-form square roots differ from them by an ulp or two
GAUSS_NODES = (-0.906179845938664, -0.5384693101056831, 0.0,
               0.5384693101056831, 0.906179845938664)
GAUSS_WEIGHTS = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                 0.4786286704993663, 0.23692688505618928)


def _panel_2d(fn, cell):
    (x0, x1), (y0, y1) = cell
    hx, hy = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    acc = 0.0
    for xn, xw in zip(GAUSS_NODES, GAUSS_WEIGHTS):
        xi = cx + hx * xn
        for yn, yw in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            acc += xw * yw * fn(xi, cy + hy * yn)
    return acc * hx * hy


def _quadrants(cell):
    (x0, x1), (y0, y1) = cell
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return (
        ((x0, xm), (y0, ym)),
        ((xm, x1), (y0, ym)),
        ((x0, xm), (ym, y1)),
        ((xm, x1), (ym, y1)),
    )


def integrate_box(f, bounds, tol: float = 1e-6, max_depth: int = 12) -> QuadratureResult:
    """Adaptive integration over an axis-aligned box.

    One-dimensional boxes delegate to :func:`integrate_1d`.  In two
    dimensions each cell gets a tensor order-5 Gauss panel; a cell is accepted
    when its refinement by quadrants moves the value by at most its
    tolerance share, otherwise the quadrants are pushed with a quarter
    of the budget each.
    """
    require_positive_finite("tol", tol)
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo <= hi")
    if len(bounds) == 1:
        (lo, hi), = bounds
        return integrate_1d(lambda x: f(x), lo, hi, tol=tol, max_depth=15)
    if len(bounds) != 2:
        raise ValueError("integrate_box supports dimensions 1 and 2")

    counter = _EvalCounter(f)

    total = 0.0
    err_total = 0.0
    failed = False
    root = (bounds[0], bounds[1])
    coarse = _panel_2d(counter, root)
    stack = [(root, coarse, tol, 0)]
    while stack:
        cell, parent_value, tol_cell, depth = stack.pop()
        quads = _quadrants(cell)
        values = [_panel_2d(counter, q) for q in quads]
        refined = sum(values)
        delta = refined - parent_value
        if abs(delta) <= 15.0 * tol_cell or depth >= max_depth:
            total += refined + delta / 15.0
            err_total += abs(delta) / 15.0
            if abs(delta) > 15.0 * tol_cell:
                failed = True
        else:
            child_tol = 0.25 * tol_cell
            for q, v in zip(quads, values):
                stack.append((q, v, child_tol, depth + 1))

    result = QuadratureResult(total, err_total, counter.count)
    if failed:
        raise NonConvergenceError(
            f"adaptive panels hit depth {max_depth} before reaching tol={tol}",
            result,
        )
    return result


def integrate_disk(f_xy, radius: float, tol: float = 1e-6, inner: float = 0.0,
                   center=(0.0, 0.0)) -> QuadratureResult:
    """Integral of f(x, y) over an annulus, via the polar substitution."""
    if radius <= inner or inner < 0:
        raise ValueError("need 0 <= inner < radius")
    cx, cy = center

    def polar(r, theta):
        return f_xy(cx + r * math.cos(theta), cy + r * math.sin(theta)) * r

    return integrate_box(polar, [(inner, radius), (0.0, 2.0 * math.pi)], tol=tol)


def integrate_mc(f, bounds, samples: int, seed: int,
                 vectorized: bool = False) -> QuadratureResult:
    """Plain Monte Carlo over a box with a seeded generator.

    ``vectorized`` integrands receive an (n, d) array and return n
    values; otherwise f is called pointwise on coordinate tuples.  The
    error estimate is the standard error of the mean times the volume.
    """
    import numpy as np

    if samples < 2:
        raise ValueError("need at least 2 samples")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(hi <= lo for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo < hi")
    volume = 1.0
    for lo, hi in bounds:
        volume *= hi - lo
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in bounds])
    highs = np.array([hi for _, hi in bounds])
    points = rng.uniform(lows, highs, size=(samples, len(bounds)))
    if vectorized:
        values = np.asarray(f(points), dtype=float)
        if values.shape != (samples,):
            raise ValueError("vectorized integrand must return one value per sample")
    else:
        values = np.array([float(f(*p)) for p in points])
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand returned non-finite values")
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    return QuadratureResult(mean * volume, stderr * volume, samples)
