"""The computed rank-one compact group model and its internal cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from stackvol.quadrature import NonConvergenceError
from stackvol.su2 import (
    adjoint_orbit_density,
    chamber_parameters,
    gaussian_test_function,
    su2_cartan,
    weyl_integration_check,
    _adjoint_matrix,
    _basis,
    _bracket,
    _exp_jacobian,
)

# closed-form oracles (derived independently, the module must not assume
# them): with an orthonormal bracket basis scaled so [h, x] = 2y, the
# one-parameter subgroup through h closes up at 2pi, the single root
# evaluates to 2 on h so the lattice-normalized root value is 4pi, and
# the Haar volume in basis-Lebesgue coordinates is
#   4pi * int_0^pi rho^2 (sin rho / rho)^2 drho = 2 pi^2.
PERIOD = 2.0 * math.pi
ROOT_VALUE = 4.0 * math.pi
VOLUME = 2.0 * math.pi ** 2


@pytest.fixture(scope="module")
def cartan():
    return su2_cartan()


class TestCartanData:
    def test_period(self, cartan):
        assert cartan.period == pytest.approx(PERIOD, abs=1e-6)

    def test_root_value(self, cartan):
        assert cartan.sigma == pytest.approx(ROOT_VALUE, abs=1e-6)

    def test_volume(self, cartan):
        assert cartan.volume_norm == pytest.approx(VOLUME, rel=1e-9)

    def test_volume_against_period_identity(self, cartan):
        # the shell integral collapses to pi * period for this group
        assert cartan.volume_norm == pytest.approx(math.pi * cartan.period, rel=1e-9)

    def test_cached(self):
        assert su2_cartan() is su2_cartan()

    def test_basis_bracket_relations(self):
        h, x, y = _basis()
        assert np.allclose(_bracket(h, x), 2.0 * y)
        assert np.allclose(_bracket(h, y), -2.0 * x)
        assert np.allclose(_bracket(x, y), 2.0 * h)

    def test_basis_orthonormal(self):
        basis = _basis()
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                ip = 0.5 * float(np.trace(u @ v.conj().T).real)
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestExponentialJacobian:
    def test_matches_sinc_squared(self):
        h, x, y = _basis()
        ad_h = _adjoint_matrix(h, (h, x, y))
        for rho in (0.3, 1.0, 2.2, 3.0):
            expect = (math.sin(rho) / rho) ** 2
            assert _exp_jacobian(rho, ad_h) == pytest.approx(expect, rel=1e-9)

    def test_vanishes_at_half_period(self):
        h, x, y = _basis()
        ad_h = _adjoint_matrix(h, (h, x, y))
        assert _exp_jacobian(math.pi, ad_h) == pytest.approx(0.0, abs=1e-12)


class TestChamberProjection:
    def test_cartan_direction(self, cartan):
        h = np.array([[2.0, 0.0, 0.0]])
        s = chamber_parameters(h, cartan)
        assert s[0] == pytest.approx(2.0 / cartan.period, rel=1e-12)

    def test_rotation_invariance(self, cartan):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(4096, 3))
        norms = np.linalg.norm(pts, axis=1)
        s = chamber_parameters(pts, cartan)
        # conjugation acts by rotations, so only the radius matters; on full
        # random mantissas any other order of addition (einsum's, say) moves
        # some radii by an ulp
        assert np.array_equal(s, norms / cartan.period)

    def test_origin_maps_to_wall(self, cartan):
        s = chamber_parameters(np.zeros((1, 3)), cartan)
        assert s[0] == 0.0


@settings(max_examples=60, deadline=2000)
@given(arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_chamber_parameters_match_numpy_norm_bit_for_bit(points):
    period = su2_cartan().period
    # entries past about 1e154 overflow both sides to the same inf by design
    with np.errstate(over="ignore"):
        assert np.array_equal(chamber_parameters(points),
                              np.linalg.norm(points, axis=1) / period)


class TestOrbitDensity:
    def test_wall_is_flagged(self):
        d = adjoint_orbit_density(0.0)
        assert d.on_wall
        assert d.value == 0.0

    def test_negative_parameter_rejected(self):
        with pytest.raises(ValueError):
            adjoint_orbit_density(-0.1)

    def test_value_is_squared_root(self, cartan):
        for t in (0.1, 0.5, 1.0):
            d = adjoint_orbit_density(t, cartan)
            assert not d.on_wall
            assert d.value == pytest.approx((t * cartan.sigma) ** 2, rel=1e-9)

    def test_quadratic_homogeneity(self, cartan):
        base = adjoint_orbit_density(0.3, cartan).value
        assert adjoint_orbit_density(0.6, cartan).value == pytest.approx(4 * base)


class TestTestFunction:
    def test_width_attribute(self):
        phi = gaussian_test_function(0.4)
        assert phi.width == 0.4

    def test_values(self):
        phi = gaussian_test_function(0.25)
        assert phi(0.0) == pytest.approx(1.0)
        assert phi(0.25) == pytest.approx(math.exp(-0.5))
        out = phi(np.array([0.0, 0.25]))
        assert out.shape == (2,)

    def test_bad_width(self):
        with pytest.raises(ValueError):
            gaussian_test_function(0.0)

    @pytest.mark.parametrize("width", [1e-200, 1e-160])
    def test_width_whose_exponent_overflows_is_refused(self, width):
        # 2 w^2 is 0.0 at 1e-200 and subnormal at 1e-160
        with pytest.raises(ValueError, match="too small"):
            gaussian_test_function(width)


class TestWeylCheck:
    def test_moderate_sample_run(self):
        # 200k samples cannot hit the default 2% gate, so widen it; the
        # Monte Carlo standard error scales the acceptance accordingly
        phi = gaussian_test_function()
        report = weyl_integration_check(phi, mc_samples=200_000, seed=7, tol=0.05)
        assert report.passed, str(report)
        # closed form for the chamber side:
        #   int_0^inf (4 pi s)^2 exp(-8 s^2) ds = pi^2 sqrt(pi/2) / 4
        closed = math.pi ** 2 * math.sqrt(math.pi / 2.0) / 4.0
        assert report.rhs == pytest.approx(closed, rel=1e-4)
        assert report.lhs == pytest.approx(closed, rel=5 * report.mc_stderr / closed)

    def test_default_check_is_pinned(self):
        # lhs and mc_stderr of the default 1M-sample check at seed 94720, as
        # recorded from the one-shot Monte Carlo before it streamed in chunks
        report = weyl_integration_check(gaussian_test_function(), seed=94720)
        assert f"{report.lhs:.12g}" == "3.1266616274"
        assert repr(report.lhs) == "3.1266616273998906"
        assert f"{report.mc_stderr:.12g}" == "0.014463737326"

    def test_insufficient_samples_refused(self):
        phi = gaussian_test_function()
        with pytest.raises(NonConvergenceError) as exc:
            weyl_integration_check(phi, mc_samples=200, seed=1)
        assert exc.value.result.evaluations == 200

    def test_shrinking_wall_neighborhood_loses_all_mass(self, cartan):
        # smooth bumps concentrating at the wall: the squared-root density
        # suppresses them cubically, so both sides must march to zero
        values = []
        for eps in (0.2, 0.1, 0.05):
            def near_wall(s, eps=eps):
                return np.exp(-np.square(np.asarray(s) / eps))

            near_wall.width = eps
            # the box reaches 5 eps, seven of the bump's standard deviations,
            # so the error gate needs 2M samples
            report = weyl_integration_check(near_wall, mc_samples=2_000_000, seed=5)
            # full-line closed form, the cut at 5 eps only sheds an e^-25 tail:
            #   int_0^inf (4 pi s)^2 exp(-(s/eps)^2) ds = 4 pi^2 sqrt(pi) eps^3
            exact = 4.0 * math.pi ** 2 * math.sqrt(math.pi) * eps ** 3
            assert report.rhs == pytest.approx(exact, rel=1e-6)
            assert abs(report.lhs - report.rhs) < 6 * report.mc_stderr
            values.append((report.lhs, report.rhs))
        assert values[0][1] > values[1][1] > values[2][1]
        assert values[2][1] < 0.01
        assert values[2][0] < 0.02

    def test_scaling_linearity(self, cartan):
        phi = gaussian_test_function()

        def doubled(s):
            return 2.0 * phi(s)

        doubled.width = phi.width
        a = weyl_integration_check(phi, mc_samples=1_000_000, seed=12)
        b = weyl_integration_check(doubled, mc_samples=1_000_000, seed=12)
        assert b.rhs == pytest.approx(2.0 * a.rhs, rel=1e-12)
        assert b.lhs == pytest.approx(2.0 * a.lhs, rel=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_bad_tol_refused_before_sampling(self, monkeypatch, tol):
        import stackvol.su2 as su2_module

        def no_sampling(*args, **kwargs):
            raise AssertionError("Monte Carlo sampling must not start")

        monkeypatch.setattr(su2_module, "integrate_mc", no_sampling)
        with pytest.raises(ValueError, match="tol"):
            weyl_integration_check(gaussian_test_function(), tol=tol)

    def test_report_fields(self):
        phi = gaussian_test_function()
        report = weyl_integration_check(phi, mc_samples=1_000_000, seed=3)
        assert report.evaluations > 1_000_000
        assert report.mc_stderr > 0
        assert "weyl check" in str(report)

    def test_custom_cartan_is_used(self):
        phi = gaussian_test_function()
        real = su2_cartan()
        fake = real._replace(volume_norm=2 * real.volume_norm)
        honest = weyl_integration_check(phi, mc_samples=1_000_000, seed=9)
        skewed = weyl_integration_check(phi, mc_samples=1_000_000, seed=9, cartan=fake)
        assert skewed.lhs == pytest.approx(honest.lhs / 2.0, rel=1e-12)
