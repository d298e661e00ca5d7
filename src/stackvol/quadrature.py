"""Numerical integration for the smooth models.

One globally adaptive rule covers every chart integral: tensor order-5
Gauss panels over a box of dimension 1 or 2, with a tolerance relative to
the integral of |f| and one bound on evaluations.  A seeded Monte Carlo
estimator covers the high-dimensional comparison check.
Both report an error estimate and the number of integrand evaluations.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import sys
from collections import namedtuple

from .errors import NumericalFailure


QuadratureResult = namedtuple("QuadratureResult", "value error_estimate evaluations")


class NonConvergenceError(NumericalFailure):
    """Requested tolerance was not reached; carries the partial result."""

    def __init__(self, message, result: QuadratureResult):
        super().__init__(message)
        self.result = result


def require_positive_finite(name: str, value: float):
    """Refuse a parameter such as ``tol`` that is NaN, infinite or not positive."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def left_sum(values):
    """The sum from the left, which ``sum`` of floats compensates from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def refuse_non_finite(value, where):
    """Refuse a non-finite value or sum: NumericalFailure if infinite, ValueError if NaN."""
    if math.isinf(value):
        raise NumericalFailure(f"integrand overflowed to {value} {where}")
    raise ValueError(f"integrand returned non-finite value {value} {where}")


class EvalCounter:
    """An integrand that counts its calls and refuses non-finite values.

    An infinite value is an overflow and raises NumericalFailure, as does
    an ArithmeticError from f, such as ``0.0 ** -0.9`` at a pole; a NaN is
    an invalid integrand and raises ValueError.  All three name the node.

    The adaptive rule counts an integrand given as an EvalCounter with
    that counter, so work the integrand adds to ``count`` itself, such as
    the nodes of a nested rule, is charged to MAX_EVALUATIONS too.
    """

    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        try:
            v = float(self.f(*args))
        except ArithmeticError as exc:
            raise NumericalFailure(f"integrand raised {exc!r} at {args}") from exc
        if not math.isfinite(v):
            refuse_non_finite(v, f"at {args}")
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

MAX_EVALUATIONS = 2 ** 18
# the largest factor on a leaf's |delta|: x^(-alpha) for alpha <= 0.95 needs r/(1 - r)
# up to 28.4 and fails its oracle below 15; 50 is r/(1 - r) at alpha = 0.971
SLOW_DECAY_CAP = 50.0
MC_CHUNK = 65536  # rows per Monte Carlo chunk: a 1.5 MB buffer of points in dimension 3


def _panel(fn, weights, cell):
    """Tensor Gauss panel over ``cell``: integrals of fn and |fn|, and whether fn was nonzero."""
    half = [0.5 * (hi - lo) for lo, hi in cell]
    axes = [[0.5 * (lo + hi) + h * n for n in GAUSS_NODES] for (lo, hi), h in zip(cell, half)]
    acc = size = 0.0
    for w, point in zip(weights, itertools.product(*axes)):
        v = fn(*point)
        acc += w * v
        size += w * abs(v)
    nonzero = size > 0.0
    for h in half:
        acc *= h
        size *= h
    return acc, size, nonzero


def _children(cell):
    """The 2^d halves of a cell, first axis varying fastest."""
    halves = [((lo, mid), (mid, hi)) for lo, hi in cell for mid in [0.5 * (lo + hi)]]
    return [c[::-1] for c in itertools.product(*halves[::-1])]


def _inside(lo, hi):
    """Whether the panel on [lo, hi] puts every node strictly inside it.

    The nodes are computed as :func:`_panel` computes them, and they are
    monotone in the Gauss node, so the two outer ones decide.
    """
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return lo < c + h * GAUSS_NODES[0] and c + h * GAUSS_NODES[-1] < hi


def _halvable(lo, hi):
    """Whether the panels of both halves of [lo, hi] put every node strictly inside their half."""
    mid = 0.5 * (lo + hi)
    return _inside(lo, mid) and _inside(mid, hi)


def integrate_1d(f, a: float, b: float, tol: float = 1e-6) -> QuadratureResult:
    """Integral of f from a to b by the globally adaptive rule of :func:`integrate_box`.

    ``tol`` bounds the summed refinement changes relative to the integral
    of |f|.  Reversed bounds b < a raise ValueError; an empty interval
    costs nothing.
    """
    if b < a:
        raise ValueError("integration bounds must satisfy a <= b")
    return integrate_box(f, [(a, b)], tol)


def integrate_box(f, bounds, tol: float = 1e-6) -> QuadratureResult:
    """Globally adaptive tensor Gauss panels over an axis-aligned box of dimension 1 or 2.

    Each leaf cell holds the order-5 Gauss panels on its 2^d halves and
    |delta|, the change from its own panel to their sum.  A leaf's error is
    |delta|, except where halving its parent shrank |delta| only by a ratio
    r in (1/2, 1), as beside an endpoint singularity x^(-alpha), where r is
    2^(alpha - 1).  There it is |delta| r/(1 - r), the error an h^p law
    leaves in the halves' sum, up to SLOW_DECAY_CAP |delta|; a |delta| that
    did not shrink counts the cap (QUADPACK's error scaling: Piessens et
    al., 1983; Gonnet, ACM Computing Surveys 44(4), 2012).  The leaf with
    the largest error is split until the errors sum to at most
    ``tol`` times the integral of |f|; that sum is the error estimate, and
    the half-panels sum to the value (QUADPACK's QAG).
    Scaling f scales every sum and changes no decision.  MAX_EVALUATIONS,
    the one budget, counts the nested work an :class:`EvalCounter` f adds;
    only one split's 4^d * 5^d nodes can carry the count past it.  Past it,
    or at a leaf too narrow to halve, where a node of the next panels would
    round onto a cell end, :class:`NonConvergenceError` carries the partial
    sums; refinement never evaluates f at a cell end.  A box too narrow for
    the nodes of its own panel or of its halves' is refused so before f is
    evaluated, with value 0, an infinite error and no evaluations.
    Non-finite sums, or an integral of |f| below the normal floats from an
    f nonzero at a node, raise NumericalFailure.
    """
    if len(bounds) not in (1, 2):
        raise ValueError("integrate_box supports dimensions 1 and 2")
    if any(hi < lo for lo, hi in bounds):
        raise ValueError("box bounds must satisfy lo <= hi")
    require_positive_finite("tol", tol)
    cell = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if any(lo == hi for lo, hi in cell):
        return QuadratureResult(0.0, 0.0, 0)
    # the first panel and its halves' panels are evaluated before any leaf's check
    for lo, hi in cell:
        if not (_inside(lo, hi) and _halvable(lo, hi)):
            raise NonConvergenceError(f"adaptive Gauss panels hit a cell too narrow to halve "
                                      f"before reaching tol={tol}",
                                      QuadratureResult(0.0, math.inf, 0))
    weights = _TENSOR_WEIGHTS[len(cell)]
    counter = f if isinstance(f, EvalCounter) else EvalCounter(f)
    budget = MAX_EVALUATIONS - 4 ** len(cell) * len(weights)  # less one split's nodes
    size, err, nonzero = 0.0, 0.0, False  # running sums over the leaves of |f| and of its error
    leaves = []  # heap of (-error, half-panel sum, its |f| sum, halves, their panels, |delta|)

    def add_leaf(cell, own, parent):
        nonlocal size, err, nonzero
        cells = _children(cell)
        panels = [_panel(counter, weights, c) for c in cells]
        refined, refined_size, nonzero_panels = map(left_sum, zip(*panels))
        delta = abs(refined - own)
        error = delta  # times r/(1 - r) where halving shrank |delta| by r = delta/parent > 1/2
        if delta > 0.5 * parent:
            error *= (min(SLOW_DECAY_CAP, delta / (parent - delta)) if delta < parent
                      else SLOW_DECAY_CAP)
        size, err, nonzero = size + refined_size, err + error, nonzero or nonzero_panels > 0
        heapq.heappush(leaves, (-error, refined, refined_size, cells, panels, delta))

    add_leaf(cell, _panel(counter, weights, cell)[0], math.inf)
    while True:
        if not (math.isfinite(err) and (sys.float_info.min <= size < math.inf or not nonzero)):
            raise NumericalFailure(f"adaptive Gauss panels: the integral of |f|, {size!r}, "
                                   f"or its error, {err!r}, left the normal floats")
        if err <= tol * size:  # the running sum passes: test the correctly rounded one
            err = abs(math.fsum(leaf[0] for leaf in leaves))
        neg_error, _, refined_size, cells, panels, delta = leaves[0]
        # the first and last cells hold every interval of the others, axis by axis
        narrow = not all(_halvable(lo, hi) for c in (cells[0], cells[-1]) for lo, hi in c)
        if err <= tol * size or narrow or counter.count > budget:
            break
        heapq.heappop(leaves)
        size, err = size - refined_size, err + neg_error
        for c, p in zip(cells, panels):
            add_leaf(c, p[0], delta)
    result = QuadratureResult(math.fsum(leaf[1] for leaf in leaves), err, counter.count)
    if err <= tol * size:
        return result
    bound = "a cell too narrow to halve" if narrow else f"{MAX_EVALUATIONS} evaluations"
    raise NonConvergenceError(f"adaptive Gauss panels hit {bound} before reaching tol={tol}",
                              result)


def integrate_mc(f, lo: float, hi: float, dim: int, samples: int, seed: int) -> QuadratureResult:
    """Plain Monte Carlo over the cube [lo, hi]^dim with a seeded generator, in bounded memory.

    f gets MC_CHUNK rows at a time, together bit for bit ``rng.uniform(lo,
    hi, (samples, dim))``, and returns a value per row: an infinite one
    raises NumericalFailure, a NaN ValueError.  The rows are one buffer
    that every chunk refills, so f may overwrite them (to square them in
    place, say) but must not keep them.  Memory stays at that buffer of
    MC_CHUNK * dim floats, plus what f allocates, whatever the sample
    count.  Chunk statistics about the first chunk's mean merge
    as in Chan, Golub & LeVeque (1983); the error estimate is the standard
    error times the volume.  The statistics are kept in units of a power of
    two above every |value| seen, which changes no bit of them but keeps
    the squares of values near 1e200 or 1e-300 from overflowing or
    vanishing.
    """
    import numpy as np

    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError("box bounds must satisfy lo < hi")
    width = hi - lo
    volume = math.prod([width] * dim)  # from the left: width ** dim can round otherwise
    require_positive_finite("box volume", volume)  # refuses infinite bounds
    rng = np.random.default_rng(seed)
    buf = np.empty((min(MC_CHUNK, samples), dim))
    mean = m2 = 0.0
    for count in range(0, samples, MC_CHUNK):
        k = min(MC_CHUNK, samples - count)
        points = rng.random(out=buf[:k])
        points *= width
        points += lo
        values = np.asarray(f(points), dtype=float)
        if values.shape != (k,):
            raise ValueError("integrand must return one value per sample")
        top = float(np.abs(values).max())  # NaN if a value is NaN, else inf if one is infinite
        if not math.isfinite(top):
            refuse_non_finite(top, "in a sample chunk")
        # 1/unit: the power of two just above the chunk's largest |value|
        unit = math.ldexp(1.0, min(1023, -math.frexp(top)[1]))
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
        # a numpy sum, not BLAS dot, whose order of addition follows the thread count
        m2 += float(np.square(dev, out=dev).sum()) + delta * delta * (count * k / (count + k))
        mean += delta * (k / (count + k))
    stderr = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples) / scale
    return QuadratureResult((shift + mean) / scale * volume, stderr * volume, samples)
