"""Adjoint-quotient model for SU(2), with computed normalizations.

Everything that could be a magic constant is computed at runtime from
the chosen Lie-algebra basis: the exponential period along the Cartan
line (from the eigenvalues of the Cartan generator), the root value
entering the orbit density (from the eigenvalues of the adjoint
representation), and the Euclidean-coordinate volume of the group (by
integrating the exponential Jacobian, a product over the same adjoint
eigenvalues, over a ball).  A Monte Carlo / quadrature cross-check of
the Weyl integration identity then validates the whole normalization
chain.  The normalization data and the reports are namedtuples.

Importing the module loads no numpy: each function that computes with it
imports it, so numpy loads at the first SU(2) computation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .quadrature import (
    NonConvergenceError,
    QuadratureResult,
    integrate_1d,
    integrate_mc,
    require_positive_finite,
)


# computed normalization data for the rank-one compact group: the period of
# the Cartan line, the one root value sigma and the group volume
CartanData = namedtuple("CartanData", "period sigma volume_norm")


def _basis():
    import numpy as np

    h = np.array([[1j, 0.0], [0.0, -1j]])
    x = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, 1j], [1j, 0.0]])
    return h, x, y


def _bracket(a, b):
    return a @ b - b @ a


def _coords(m, basis):
    import numpy as np

    # the basis is orthonormal for <A,B> = Re tr(A B*)/2
    return np.array([float(np.real(np.trace(m @ b.conj().T))) / 2.0 for b in basis])


def _adjoint_matrix(v, basis):
    """ad_v as a real 3x3 matrix in the given orthonormal basis."""
    import numpy as np

    cols = [_coords(_bracket(v, b), basis) for b in basis]
    return np.column_stack(cols)


def _find_period(h) -> float:
    """Smallest t > 0 with exp(t h) = identity, from the eigenvalues of h.

    The exponential closes up when every eigenvalue of t h is a multiple
    of 2 pi i; the fastest rotation fixes the candidate, and the defect
    check confirms that the slower ones close up with it.
    """
    import numpy as np

    eigs, vecs = np.linalg.eig(h)
    speed = float(np.max(np.abs(eigs.imag)))
    if speed <= 0:
        raise ArithmeticError("exponential has no rotation component")
    period = 2.0 * math.pi / speed
    closed = (vecs * np.exp(period * eigs)) @ np.linalg.inv(vecs)
    if np.linalg.norm(closed - np.eye(len(eigs))) > 1e-7:
        raise ArithmeticError(f"exponential defect too large at candidate period {period}")
    return period


def _exp_jacobian(rho, eigs):
    """|det d exp| at a Cartan point of norm rho, in basis coordinates.

    ``eigs`` are the eigenvalues of ad_h.  The differential is phi1(A) with
    A = -rho ad_h and phi1(z) = expm1(z)/z.  A is normal, so its eigenvalues
    are well conditioned, and det phi1(A) is the product of phi1 over them,
    with phi1(0) = 1.
    """
    import numpy as np

    lam = -rho * eigs
    return abs(math.prod(np.expm1(z) / z if z else 1.0 for z in lam))


@lru_cache(maxsize=1)
def su2_cartan() -> CartanData:
    """Compute period, root normalization, and group volume for SU(2).

    The basis satisfies [h, x] = 2y, [h, y] = -2x, [x, y] = 2h and is
    orthonormal for an invariant inner product, so conjugation acts by
    rotations on coordinates and the exponential Jacobian only depends
    on the radius.
    """
    import numpy as np

    basis = _basis()
    h = basis[0]

    period = _find_period(h)

    # the root value on h is the rotation speed of ad_h on the normal plane
    ad_h = _adjoint_matrix(h, basis)
    eigs = np.linalg.eigvals(ad_h)
    speed = float(np.max(np.abs(eigs.imag)))
    if speed <= 0:
        raise ArithmeticError("adjoint representation has no rotation component")
    # lattice basis vector is period*h, so the root evaluates to speed*period
    sigma = speed * period

    # group volume in basis-Lebesgue coordinates: exp is injective on the
    # ball of radius period/2 (its boundary collapses to a point)
    def shell(rho):
        return 4.0 * math.pi * rho * rho * _exp_jacobian(rho, eigs)

    vol = integrate_1d(shell, 0.0, period / 2.0, tol=1e-12)

    return CartanData(period=period, sigma=sigma, volume_norm=vol.value)


# ---------------------------------------------------------------------------
# orbit density on the chamber


OrbitDensity = namedtuple("OrbitDensity", "value on_wall")


def adjoint_orbit_density(t: float, cartan: CartanData) -> OrbitDensity:
    """Density of orbit volumes at chamber parameter t, lattice-normalized.

    The parameter measures the chamber in units of the lattice basis
    vector; the density is the squared root value there.  On the chamber
    wall the density vanishes and the result is flagged.
    """
    if t < 0:
        raise ValueError("chamber parameter must be nonnegative")
    factor = t * cartan.sigma
    return OrbitDensity(factor * factor, factor == 0.0)


def chamber_parameters(points):
    """Project Lie-algebra coordinate vectors to their chamber parameters.

    Each row is the coordinate vector of an algebra element.  The basis
    is orthonormal for an invariant inner product, so the coordinate norm
    is the class invariant (it equals sqrt(det) of the matrix) and gives
    the conjugate Cartan point, converted to lattice units by the period.
    Column sums add the squares as ``np.linalg.norm(axis=1)`` does, at half its cost.
    """
    import numpy as np

    return _chamber_from_squares(np.square(np.asarray(points, dtype=float)), su2_cartan().period)


def _chamber_from_squares(sq, period):
    """Chamber parameters of the rows whose squared coordinates are ``sq``."""
    import numpy as np

    s = np.add(sq[:, 0], sq[:, 1])
    s += sq[:, 2]
    np.sqrt(s, out=s)
    s /= period
    return s


def gaussian_test_function(width: float = 0.25):
    """Centered Gaussian in the chamber parameter, vectorization-friendly."""
    import numpy as np  # here, not in phi: building phi loads numpy, its first call does not

    require_positive_finite("width", width)
    twice_square = 2.0 * width * width
    inv = 1.0 / twice_square if twice_square else math.inf
    if math.isinf(inv):
        raise ValueError(f"width {width!r} is too small: 1/(2 width^2) is not finite")

    def phi(s):
        return np.exp(-inv * np.square(s))

    phi.width = width
    return phi


class WeylReport(namedtuple("WeylReport", "lhs rhs relative_error mc_stderr evaluations "
                                          "passed")):
    __slots__ = ()

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"weyl check {status}: lhs {self.lhs:.6g} vs rhs {self.rhs:.6g} "
                f"(rel err {self.relative_error:.3%}, mc se {self.mc_stderr:.3g})")


def weyl_integration_check(phi, mc_samples: int = 1_000_000, seed: int = 94720,
                           tol: float = 0.02) -> WeylReport:
    """Cross-check the chamber density against direct algebra integration.

    The left side averages phi of the chamber projection over the Lie
    algebra, with coordinates normalized by the computed group volume;
    the right side integrates the orbit density times phi over the
    chamber.  Agreement validates the period, root, and volume
    normalizations simultaneously.  Both sides stop at chamber parameter
    ``5 * phi.width``.  ``tol`` must be positive and finite, and a Monte
    Carlo standard error above a third of it raises NonConvergenceError.
    """
    import numpy as np

    require_positive_finite("tol", tol)
    cartan = su2_cartan()
    s_max = 5.0 * phi.width
    half = s_max * cartan.period

    def integrand(points):
        # integrate_mc's chunk buffer, squared in place
        return phi(_chamber_from_squares(np.square(points, out=points), cartan.period))

    mc = integrate_mc(integrand, -half, half, 3, mc_samples, seed)
    lhs = mc.value / cartan.volume_norm
    lhs_se = mc.error_estimate / cartan.volume_norm

    def rhs_integrand(s):
        return adjoint_orbit_density(s, cartan).value * float(phi(s))

    rhs = integrate_1d(rhs_integrand, 0.0, s_max, tol=1e-12)

    scale = max(abs(lhs), abs(rhs.value), 1e-300)
    rel_se = lhs_se / scale
    if rel_se > tol / 3.0:
        raise NonConvergenceError(
            f"Monte Carlo standard error {rel_se:.3%} exceeds a third of tol {tol:.3%}",
            QuadratureResult(lhs, lhs_se, mc.evaluations),
        )

    rel_err = abs(lhs - rhs.value) / max(abs(rhs.value), 1e-300)
    return WeylReport(
        lhs=lhs,
        rhs=rhs.value,
        relative_error=rel_err,
        mc_stderr=lhs_se,
        evaluations=mc.evaluations + rhs.evaluations,
        passed=rel_err < tol,
    )
