"""Numerical integration for the smooth models.

One adaptive rule covers every chart integral: tensor order-5 Gauss
panels over a box of dimension 1 or 2, with a tolerance relative to the
integral of |f| and fixed bounds on depth and evaluations.  A seeded
Monte Carlo estimator covers the high-dimensional comparison check.
Both report an error estimate and the number of integrand evaluations.
"""

from __future__ import annotations

import itertools
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


# order-5 Gauss-Legendre rule on [-1, 1], the float values numpy's leggauss(5)
# returns; the closed-form square roots differ from them by an ulp or two
GAUSS_NODES = (-0.906179845938664, -0.5384693101056831, 0.0,
               0.5384693101056831, 0.906179845938664)
GAUSS_WEIGHTS = (0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                 0.4786286704993663, 0.23692688505618928)

# tensor weights on [-1, 1]^d in itertools.product order, first axis outermost
_TENSOR_WEIGHTS = {d: [math.prod(w) for w in itertools.product(GAUSS_WEIGHTS, repeat=d)]
                   for d in (1, 2)}

# bounds on the adaptive panel rule: halvings of one cell, integrand calls
MAX_DEPTH = 30
MAX_EVALUATIONS = 2 ** 18
MC_CHUNK = 65536  # rows per Monte Carlo chunk: 1.5 MB of points in dimension 3


def _panel(fn, weights, cell):
    """Tensor Gauss panel over ``cell``: estimates of the integrals of fn and |fn|."""
    half = [0.5 * (hi - lo) for lo, hi in cell]
    axes = [[0.5 * (lo + hi) + h * n for n in GAUSS_NODES] for (lo, hi), h in zip(cell, half)]
    acc = size = 0.0
    for w, point in zip(weights, itertools.product(*axes)):
        v = fn(*point)
        acc += w * v
        size += w * abs(v)
    for h in half:
        acc *= h
        size *= h
    return acc, size


def _children(cell):
    """The 2^d halves of a cell, first axis varying fastest."""
    halves = [((lo, mid), (mid, hi)) for lo, hi in cell for mid in [0.5 * (lo + hi)]]
    return [c[::-1] for c in itertools.product(*halves[::-1])]


def _gauss_panels(f, bounds, tol):
    """Adaptive tensor Gauss panels over a box of dimension 1 or 2.

    Each cell gets an order-5 Gauss panel and is compared with the sum of
    the panels on its 2^d halves.  A cell of share 2^-(d depth) passes when
    that refinement moves its value by at most its share of ``tol`` times
    the current estimate of the integral of |f|, so scaling f scales the
    value and leaves every decision alone.  A pass adds the refined value
    plus the Richardson correction delta/15.  Refining past MAX_DEPTH or
    MAX_EVALUATIONS raises NonConvergenceError carrying the accepted cells
    plus the pending panels as the partial result.
    """
    require_positive_finite("tol", tol)
    cell = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if any(lo == hi for lo, hi in cell):
        return QuadratureResult(0.0, 0.0, 0)
    weights = _TENSOR_WEIGHTS[len(cell)]
    fan_out = 2 ** len(cell)
    counter = _EvalCounter(f)

    total = err_total = 0.0
    value, size = _panel(counter, weights, cell)
    # stack entries: (cell, panel value, panel |f| value, depth, error bound);
    # a pending half's bound is its share of the change its parent saw
    stack = [(cell, value, size, 0, math.inf)]
    while stack:
        cell, parent_value, parent_size, depth, _ = stack[-1]
        if depth == MAX_DEPTH or counter.count + fan_out * len(weights) > MAX_EVALUATIONS:
            bound = f"depth {MAX_DEPTH}" if depth == MAX_DEPTH else f"{MAX_EVALUATIONS} evaluations"
            partial = QuadratureResult(total + sum(e[1] for e in stack),
                                       err_total + sum(e[4] for e in stack), counter.count)
            raise NonConvergenceError(
                f"adaptive Gauss panels hit {bound} before reaching tol={tol}", partial)
        stack.pop()
        cells = _children(cell)
        panels = [_panel(counter, weights, c) for c in cells]
        refined = sum(v for v, _ in panels)
        delta = refined - parent_value
        size += sum(s for _, s in panels) - parent_size
        if abs(delta) <= 15.0 * tol * size / fan_out ** depth:
            total += refined + delta / 15.0
            err_total += abs(delta) / 15.0
        else:
            for c, (v, s) in zip(cells, panels):
                stack.append((c, v, s, depth + 1, abs(delta) / fan_out))
    return QuadratureResult(total, err_total, counter.count)


def integrate_1d(f, a: float, b: float, tol: float = 1e-6) -> QuadratureResult:
    """Integral of f from a to b by the adaptive Gauss panels of :func:`integrate_box`.

    ``tol`` is relative to the integral of |f|.  Reversed bounds flip
    the sign, and an empty interval costs no evaluations.
    """
    if b < a:
        return _gauss_panels(lambda x: -f(x), [(b, a)], tol)
    return _gauss_panels(f, [(a, b)], tol)


def integrate_box(f, bounds, tol: float = 1e-6) -> QuadratureResult:
    """Adaptive tensor Gauss panels over an axis-aligned box of dimension 1 or 2.

    A cell is accepted when refining it into its 2^d halves moves the
    value by at most its share of ``tol`` times the integral of |f|, so
    the tolerance is relative and scaling f never changes the number of
    evaluations.  Past MAX_DEPTH halvings or MAX_EVALUATIONS calls the
    rule raises :class:`NonConvergenceError` with the partial result.
    """
    if len(bounds) not in (1, 2):
        raise ValueError("integrate_box supports dimensions 1 and 2")
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo <= hi")
    return _gauss_panels(f, bounds, tol)


def integrate_mc(f, bounds, samples: int, seed: int) -> QuadratureResult:
    """Plain Monte Carlo over a box with a seeded generator, in bounded memory.

    f gets MC_CHUNK rows at a time, together bit for bit ``rng.uniform(lows,
    highs, (samples, d))``, and returns a finite value per row.  Chunk
    statistics about the first chunk's mean merge as in Chan, Golub & LeVeque
    (1983); the error estimate is the standard error times the volume.  The
    statistics are kept in units of a power of two above every |value| seen,
    which changes no bit of them but keeps the squares of values near 1e200
    or 1e-300 from overflowing or vanishing.
    """
    import numpy as np

    if samples < 2:
        raise ValueError("need at least 2 samples")
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    if any(not lo < hi for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo < hi")
    volume = math.prod(hi - lo for lo, hi in bounds)
    require_positive_finite("box volume", volume)  # refuses infinite bounds
    rng = np.random.default_rng(seed)
    lows, widths = np.array([(lo, hi - lo) for lo, hi in bounds]).T
    mean = m2 = 0.0
    for count in range(0, samples, MC_CHUNK):
        k = min(MC_CHUNK, samples - count)
        points = rng.random((k, len(bounds)))
        points *= widths
        points += lows
        values = np.asarray(f(points), dtype=float)
        if values.shape != (k,):
            raise ValueError("integrand must return one value per sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("integrand returned non-finite values")
        # 1/unit: the power of two just above the chunk's largest |value|
        unit = math.ldexp(1.0, min(1023, -math.frexp(float(np.abs(values).max()))[1]))
        if count == 0:
            scale = unit
        elif unit < scale and values.any():  # a larger value (frexp puts 0 at unit 1)
            ratio = unit / scale
            scale, shift, mean, m2 = unit, shift * ratio, mean * ratio, m2 * ratio * ratio
        dev = values * scale  # exact, as is every rescaling by a power of two
        if count == 0:
            shift = float(dev.mean())  # keeps the digits of a large common offset
        dev -= shift
        chunk_mean = float(dev.mean())
        dev -= chunk_mean
        delta = chunk_mean - mean
        m2 += float(dev @ dev) + delta * delta * (count * k / (count + k))
        mean += delta * (k / (count + k))
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) / scale
    return QuadratureResult((shift + mean) / scale * volume, stderr * volume, samples)
