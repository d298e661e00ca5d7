"""Integration primitives against closed-form oracles."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stackvol.quadrature as quadrature
from stackvol.errors import NumericalFailure
from stackvol.quadrature import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    MAX_EVALUATIONS,
    EvalCounter,
    MC_CHUNK,
    NonConvergenceError,
    integrate_1d,
    integrate_box,
    integrate_mc,
)

# closed forms used as oracles:
#   int_0^1 x^2 dx                  = 1/3
#   int_0^{2pi} sin                 = 0
#   int_0^2 r dr                    = 2
#   int_0^3 e^x sin(3x) dx          = (e^3 (sin 9 - 3 cos 9) + 3) / 10
#   int_{[0,1]^2} xy                = 1/4
#   unit ball volume                = 4 pi / 3

EXP_SIN_ORACLE = (math.exp(3.0) * (math.sin(9.0) - 3.0 * math.cos(9.0)) + 3.0) / 10.0


class TestIntegrate1D:
    def test_polynomial(self):
        res = integrate_1d(lambda x: x * x, 0.0, 1.0)
        assert abs(res.value - 1.0 / 3.0) <= max(res.error_estimate, 1e-9)
        assert res.evaluations > 0

    def test_full_period_sine(self):
        res = integrate_1d(math.sin, 0.0, 2.0 * math.pi)
        assert abs(res.value) <= 1e-6

    def test_radial_weight(self):
        res = integrate_1d(lambda r: r, 0.0, 2.0)
        assert abs(res.value - 2.0) <= 1e-9

    def test_oscillatory_closed_form(self):
        res = integrate_1d(lambda x: math.exp(x) * math.sin(3.0 * x), 0.0, 3.0,
                           tol=1e-9)
        assert abs(res.value - EXP_SIN_ORACLE) <= 1e-7

    def test_reversed_bounds_refused(self):
        calls = []
        with pytest.raises(ValueError, match="a <= b"):
            integrate_1d(lambda x: calls.append(x) or 1.0, 1.0, 0.0)
        assert calls == []

    def test_empty_interval(self):
        res = integrate_1d(lambda x: 1.0, 2.0, 2.0)
        assert res.value == 0.0
        assert res.evaluations == 0

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, 1.0, tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_tol_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_1d(lambda x: x, 0.0, 1.0, tol=tol)

    def test_rejects_non_finite_integrand(self):
        # NaN is invalid input; an infinite value is an overflow (TestGlobalRule)
        with pytest.raises(ValueError, match="non-finite value nan"):
            integrate_1d(lambda x: float("nan"), 0.0, 1.0)

    def test_non_convergence_carries_partial_result(self):
        # no float rule meets tol=1e-300: the cell around the jump is halved
        # down to the spacing of the floats near 1/3 and still moves by 1e-17
        with pytest.raises(NonConvergenceError, match="too narrow") as exc:
            integrate_1d(lambda x: 1.0 if x < 1.0 / 3.0 else -2.0, 0.0, 1.0, tol=1e-300)
        partial = exc.value.result
        assert math.isfinite(partial.value)
        assert partial.evaluations > 0
        assert abs(partial.value + 1.0) <= 1e-15

    def test_tighter_tol_does_not_worsen_estimate(self):
        f = lambda x: math.sin(20.0 * x) + x * x
        loose = integrate_1d(f, 0.0, 3.0, tol=1e-4)
        tight = integrate_1d(f, 0.0, 3.0, tol=5e-5)
        assert tight.error_estimate <= loose.error_estimate + 1e-12

    def test_linearity(self):
        f = lambda x: math.sin(3.0 * x)
        g = lambda x: x ** 3
        combo = integrate_1d(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 2.0)
        rf = integrate_1d(f, 0.0, 2.0)
        rg = integrate_1d(g, 0.0, 2.0)
        budget = combo.error_estimate + 2.0 * rf.error_estimate + 3.0 * rg.error_estimate
        assert abs(combo.value - (2.0 * rf.value + 3.0 * rg.value)) <= budget + 1e-9


class TestGlobalRule:
    # closed forms on [0, 1]: sqrt x gives 2/3, x^(-1/2) gives 2, and the
    # jump from 1 to -2 at x = 1/3 gives -1, with 5/3 for its |f|
    @pytest.mark.parametrize("f, tol, exact, size", [
        (math.sqrt, 1e-9, 2.0 / 3.0, 2.0 / 3.0),
        (lambda x: 1.0 / math.sqrt(x), 1e-9, 2.0, 2.0),
        (lambda x: 1.0 if x < 1.0 / 3.0 else -2.0, 1e-12, -1.0, 5.0 / 3.0),
    ], ids=["sqrt", "inverse-sqrt", "sign-jump"])
    def test_singular_integrands_converge_within_tol(self, f, tol, exact, size):
        res = integrate_1d(f, 0.0, 1.0, tol=tol)
        assert abs(res.value - exact) <= tol * size
        assert res.error_estimate <= tol * size

    @pytest.mark.parametrize("f, bounds", [
        (lambda x: 1e300, [(0.0, 1e10)]),
        (lambda x, y: 1e300, [(0.0, 1e5), (0.0, 1e5)]),
        (lambda x: x, [(0.0, 1e-160)]),
        (lambda x, y: 1e-300, [(0.0, 1e-10), (0.0, 1.0)]),
    ], ids=["overflow-1d", "overflow-2d", "underflow-1d", "underflow-2d"])
    def test_sums_outside_the_normal_floats_are_refused_at_once(self, f, bounds):
        counter = EvalCounter(f)
        with pytest.raises(NumericalFailure, match="left the normal floats") as exc:
            integrate_box(counter, bounds)
        assert not isinstance(exc.value, NonConvergenceError)
        d = len(bounds)
        assert counter.count == 5 ** d * (1 + 2 ** d)  # the first leaf only

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_integrand_overflowing_at_a_node_is_a_numerical_failure(self, sign):
        counter = EvalCounter(lambda x, y: sign * x * y)
        with pytest.raises(NumericalFailure, match=r"overflowed to -?inf at \(4\.6"):
            integrate_box(counter, [(0.0, 1e200)] * 2)
        assert counter.count == 1  # the first node

    def test_an_exact_panel_reports_a_positive_zero_error(self):
        res = integrate_box(lambda x, y: 1.0, [(0.0, 1.0), (0.0, 2.0)])
        assert res.value == pytest.approx(2.0, rel=1e-15)
        assert str(res.error_estimate) == "0.0"

    @pytest.mark.parametrize("f", [math.sqrt, lambda x: math.exp(x) * (1.5 + math.sin(3.0 * x))],
                             ids=["sqrt", "exp-sin"])
    def test_error_estimate_is_the_sum_that_stops_the_rule(self, f):
        # f > 0, so the value is the integral of |f|: a tol just above the
        # returned error's share of it stops at the same leaves, and one
        # just below it needs another split
        res = integrate_1d(f, 0.0, 3.0, tol=1e-8)
        share = res.error_estimate / res.value
        assert 0.0 < share <= 1e-8
        assert integrate_1d(f, 0.0, 3.0, tol=share * (1 + 1e-9)) == res
        finer = integrate_1d(f, 0.0, 3.0, tol=share * (1 - 1e-9))
        assert finer.evaluations > res.evaluations
        assert finer.error_estimate <= share * (1 - 1e-9) * finer.value


class TestIntegrateBox:
    def test_product_polynomial(self):
        res = integrate_box(lambda x, y: x * y, [(0.0, 1.0), (0.0, 1.0)])
        assert abs(res.value - 0.25) <= 1e-8

    def test_one_dimensional_delegation(self):
        res = integrate_box(lambda x: x * x, [(0.0, 1.0)])
        assert abs(res.value - 1.0 / 3.0) <= 1e-8

    def test_rejects_higher_dimensions(self):
        with pytest.raises(ValueError):
            integrate_box(lambda *p: 1.0, [(0, 1)] * 3)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            integrate_box(lambda x, y: 1.0, [(1.0, 0.0), (0.0, 1.0)])

    def test_smooth_bump(self):
        # int over [0,pi]^2 of sin(x)sin(y) = 4
        res = integrate_box(lambda x, y: math.sin(x) * math.sin(y),
                            [(0.0, math.pi), (0.0, math.pi)])
        assert abs(res.value - 4.0) <= 1e-7


    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_refuses_tol_not_positive_and_finite(self, tol, dims):
        calls = []
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_box(lambda *p: calls.append(p) or 1.0, [(0.0, 1.0)] * dims, tol=tol)
        assert calls == []

    def test_gauss_rule_is_numpys_leggauss_bit_for_bit(self):
        nodes, weights = np.polynomial.legendre.leggauss(5)
        assert GAUSS_NODES == tuple(float(x) for x in nodes)
        assert GAUSS_WEIGHTS == tuple(float(w) for w in weights)

    def test_value_is_a_plain_float(self):
        res = integrate_box(lambda x, y: x * y, [(0.0, 1.0), (0.0, 1.0)])
        assert type(res.value) is float and type(res.error_estimate) is float


class TestRelativeTolerance:
    @pytest.mark.parametrize("f, bounds", [
        (lambda x: math.exp(x) * math.sin(3.0 * x), [(0.0, 3.0)]),
        (lambda x, y: math.exp(-8.0 * (x - 1.3) ** 2) * (1.0 + math.cos(3.0 * y) ** 8),
         [(0.0, 2.0), (0.0, 2.0 * math.pi)]),
    ], ids=["1d", "2d"])
    def test_scaling_f_keeps_the_evaluations(self, f, bounds):
        base = integrate_box(f, bounds)
        d = len(bounds)
        assert base.evaluations > 5 ** d + 10 ** d  # refined past the root cell
        for scale in (1e-13, 1.0, 1e13):
            res = integrate_box(lambda *p: scale * f(*p), bounds)
            assert res.evaluations == base.evaluations
            assert res.value == pytest.approx(scale * base.value, rel=1e-12)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_evaluation_budget_raises_with_partial_result(self, dims):
        calls = 0

        def wild(*p):
            nonlocal calls
            calls += 1
            return math.sin(1e6 * sum(p))

        with pytest.raises(NonConvergenceError) as exc:
            integrate_box(wild, [(0.0, 1.0)] * dims)
        partial = exc.value.result
        assert partial.evaluations == calls <= MAX_EVALUATIONS
        assert math.isfinite(partial.value)
        assert "evaluations" in str(exc.value)


class TestIntegrateMC:
    def test_constant_is_exact(self):
        res = integrate_mc(lambda pts: np.ones(len(pts)), [(0, 1)] * 3, 1000, seed=5)
        assert res.value == 1.0
        assert res.error_estimate == 0.0

    def test_ball_volume_within_three_sigma(self):
        def indicator(points):
            return (np.linalg.norm(points, axis=1) <= 1.0).astype(float)

        res = integrate_mc(indicator, [(-1, 1)] * 3, 1_000_000, seed=11)
        target = 4.0 * math.pi / 3.0
        assert abs(res.value - target) <= 3.0 * res.error_estimate
        assert abs(res.value - target) <= 0.05

    def test_seed_determinism(self):
        def f(points):
            return np.sin(points).sum(axis=1)

        a = integrate_mc(f, [(0, 2)] * 3, 5000, seed=42)
        b = integrate_mc(f, [(0, 2)] * 3, 5000, seed=42)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_different_seed_differs(self):
        f = lambda pts: pts.sum(axis=1)
        a = integrate_mc(f, [(0, 1)] * 3, 2000, seed=1)
        b = integrate_mc(f, [(0, 1)] * 3, 2000, seed=2)
        assert a.value != b.value

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            integrate_mc(lambda x: x, [(0, 1)], 1, seed=0)

    def test_vectorized_shape_check(self):
        with pytest.raises(ValueError):
            integrate_mc(lambda pts: np.zeros((3, 2)), [(0, 1)] * 2, 3, seed=0)


MIXED_BOUNDS = [(0, 1), (-1, 3), (2, 2.5)]
MIXED_VOLUME = 2.0


def _one_shot_uniform(bounds, n, seed):
    lows, highs = np.array(bounds, dtype=float).T
    return np.random.default_rng(seed).uniform(lows, highs, size=(n, len(bounds)))


class TestStreamedMC:
    @pytest.mark.parametrize("n", [2, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7])
    def test_points_are_one_uniform_draw(self, n):
        seen = []

        def f(points):
            seen.append(points.copy())
            return points[:, 0]

        integrate_mc(f, MIXED_BOUNDS, n, seed=2024)
        assert np.array_equal(np.concatenate(seen), _one_shot_uniform(MIXED_BOUNDS, n, 2024))

    def test_f_never_sees_more_than_a_chunk(self):
        sizes = []

        def f(points):
            sizes.append(len(points))
            return points[:, 0]

        integrate_mc(f, MIXED_BOUNDS, 3 * MC_CHUNK + 7, seed=1)
        assert sizes == [MC_CHUNK] * 3 + [7]

    def test_statistics_over_real_chunks_match_one_shot(self):
        n = 2 * MC_CHUNK + 5
        res = integrate_mc(lambda p: 1e6 + p[:, 0], MIXED_BOUNDS, n, seed=8)
        values = 1e6 + _one_shot_uniform(MIXED_BOUNDS, n, 8)[:, 0]
        assert res.value == pytest.approx(values.mean() * MIXED_VOLUME, rel=1e-12)
        assert res.error_estimate == pytest.approx(
            values.std(ddof=1) / math.sqrt(n) * MIXED_VOLUME, rel=1e-12)

    def test_f_may_overwrite_its_chunk(self):
        n = 2 * MC_CHUNK + 5
        seen = []

        def f(points):
            seen.append(points.copy())
            values = 1e6 + points[:, 0]
            points.fill(np.nan)
            return values

        res = integrate_mc(f, MIXED_BOUNDS, n, seed=8)
        one_shot = _one_shot_uniform(MIXED_BOUNDS, n, 8)
        assert np.array_equal(np.concatenate(seen), one_shot)
        values = 1e6 + one_shot[:, 0]
        assert res.value == pytest.approx(values.mean() * MIXED_VOLUME, rel=1e-12)
        assert res.error_estimate == pytest.approx(
            values.std(ddof=1) / math.sqrt(n) * MIXED_VOLUME, rel=1e-12)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits its sum between threads: summing squares
        # with dev @ dev gives other last bits under 1 and 2 threads on 4 of these seeds
        script = (
            "import numpy as np\n"
            "from stackvol.quadrature import integrate_mc\n"
            "f = lambda p: np.sin(p[:, 0]) * p[:, 1] + p[:, 2]\n"
            "for seed in range(12):\n"
            f"    r = integrate_mc(f, {MIXED_BOUNDS}, 200_003, seed)\n"
            "    print(r.value.hex(), r.error_estimate.hex())\n")
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 12

    @pytest.mark.parametrize("bad_call", [0, 1])
    @pytest.mark.parametrize("bad, message", [
        (lambda p: np.zeros(len(p) + 1), "one value per sample"),
        (lambda p: np.where(np.arange(len(p)) == len(p) - 1, np.nan, p[:, 0]), "non-finite"),
    ])
    def test_contract_holds_in_every_chunk(self, bad_call, bad, message):
        calls = []

        def f(points):
            calls.append(len(points))
            return bad(points) if len(calls) - 1 == bad_call else points[:, 0]

        with pytest.raises(ValueError, match=message):
            integrate_mc(f, MIXED_BOUNDS, MC_CHUNK + 10, seed=4)
        assert len(calls) == bad_call + 1

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_an_infinite_value_is_a_numerical_failure(self, value):
        # an overflow exits 2 as in the chart rule; a NaN stays invalid input
        def f(points):
            return np.where(points[:, 0] < 0.5, value, 1.0)

        with pytest.raises(NumericalFailure, match="overflowed"):
            integrate_mc(f, [(0, 1)], 100, seed=0)

    @pytest.mark.parametrize("size", [1e200, 1e-300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_error_estimate_survives_extreme_magnitudes(self, size):
        # squared deviations of 1e200 overflow and those of 1e-300 vanish
        base = integrate_mc(lambda p: 1 + p[:, 0], [(0, 1)], 200_000, seed=3)
        res = integrate_mc(lambda p: size * (1 + p[:, 0]), [(0, 1)], 200_000, seed=3)
        assert res.value == pytest.approx(size * base.value, rel=1e-12, abs=0)
        assert res.error_estimate == pytest.approx(size * base.error_estimate, rel=1e-12, abs=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_late_chunk_far_above_the_first_lowers_the_unit(self):
        # the unit of the first chunk (values 1 + x) would square 1e200 into overflow
        calls = []

        def f(points):
            calls.append(len(points))
            return (1 + points[:, 0]) * (1.0 if len(calls) == 1 else 1e200)

        n = 2 * MC_CHUNK
        res = integrate_mc(f, [(0, 1)], n, seed=5)
        assert calls == [MC_CHUNK, MC_CHUNK]
        scaled = 1 + _one_shot_uniform([(0, 1)], n, 5)[:, 0]
        scaled[:MC_CHUNK] *= 1e-200  # the values over 1e200, which square without overflow
        assert math.isfinite(res.error_estimate) and res.error_estimate > 0
        assert res.value == pytest.approx(1e200 * scaled.mean(), rel=1e-12, abs=0)
        assert res.error_estimate == pytest.approx(
            1e200 * scaled.std(ddof=1) / math.sqrt(n), rel=1e-9, abs=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_zero_chunk_keeps_the_unit_of_tiny_values(self):
        # the largest |value| of an all-zero chunk, 0, has no power of two above it
        calls = []

        def f(points):
            calls.append(len(points))
            return (1 + points[:, 0]) * (0.0 if len(calls) == 2 else 1e-300)

        n = 3 * MC_CHUNK
        res = integrate_mc(f, [(0, 1)], n, seed=6)
        scaled = 1 + _one_shot_uniform([(0, 1)], n, 6)[:, 0]
        scaled[MC_CHUNK:2 * MC_CHUNK] = 0.0
        assert res.value == pytest.approx(1e-300 * scaled.mean(), rel=1e-12, abs=0)
        assert res.error_estimate == pytest.approx(
            1e-300 * scaled.std(ddof=1) / math.sqrt(n), rel=1e-9, abs=0)

    @pytest.mark.parametrize("bounds", [
        [(0, math.inf)], [(-math.inf, 1)], [(0, 1), (math.nan, 1)], [(1, math.nan)],
        [(-1e308, 1e308)], [(0, 1e200)] * 2])
    def test_box_without_finite_volume_is_refused_before_sampling(self, bounds):
        def f(points):
            raise AssertionError("sampled")

        with pytest.raises(ValueError, match="box"):
            integrate_mc(f, bounds, 10, seed=0)

    def test_peak_memory_does_not_grow_with_samples(self):
        def f(points):
            return points[:, 0] * points[:, 1] + points[:, 2]

        peaks = []
        for n in (10 ** 5, 10 ** 6):
            tracemalloc.start()
            try:
                integrate_mc(f, MIXED_BOUNDS, n, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


@settings(max_examples=60, deadline=2000)
@given(chunk=st.integers(1, 9), n=st.integers(2, 120), seed=st.integers(0, 2 ** 32),
       ratio=st.sampled_from([0.0, 1e6, -1e6]), scale=st.sampled_from([1e-3, 1.0, 5e4]))
def test_streamed_statistics_match_one_shot(chunk, n, seed, ratio, scale):
    # a small chunk puts many chunk boundaries inside a small sample count,
    # and the mean sits up to 10^6 spreads from zero; the one-shot statistics
    # of the same values are exact, because numpy's two-pass std is itself
    # off by 1.7e-12 on two nearly equal values 10^6 from zero
    def f(points):
        return scale * (ratio + points[:, 0] * points[:, 1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MC_CHUNK", chunk)
        res = integrate_mc(f, MIXED_BOUNDS, n, seed=seed)
    values = [Fraction(v) for v in f(_one_shot_uniform(MIXED_BOUNDS, n, seed)).tolist()]
    mean = sum(values) / n
    stderr = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1) / n)
    # a mean that nearly cancels is held to the size of the values
    size = float(max(map(abs, values)))
    assert res.value == pytest.approx(float(mean) * MIXED_VOLUME, rel=1e-12,
                                      abs=1e-12 * size * MIXED_VOLUME)
    assert res.error_estimate == pytest.approx(stderr * MIXED_VOLUME, rel=1e-12)


def _unscaled_statistics(values, chunk, volume):
    """The streamed value and error of ``integrate_mc``, with no rescaling."""
    n, mean, m2 = len(values), 0.0, 0.0
    for count in range(0, n, chunk):
        k = min(chunk, n - count)
        if count == 0:
            shift = float(values[:k].mean())
        dev = values[count:count + k] - shift
        chunk_mean = float(dev.mean())
        dev -= chunk_mean
        delta = chunk_mean - mean
        m2 += float(np.square(dev).sum()) + delta * delta * (count * k / (count + k))
        mean += delta * (k / (count + k))
    return (shift + mean) * volume, math.sqrt(m2 / (n - 1)) / math.sqrt(n) * volume


@settings(max_examples=60, deadline=2000)
@given(chunk=st.integers(1, 9), n=st.integers(2, 120), seed=st.integers(0, 2 ** 32),
       ratio=st.sampled_from([0.0, 1e6, -1e6]), scale=st.sampled_from([1e-3, 1.0, 5e4]))
def test_rescaling_changes_no_output_bit(chunk, n, seed, ratio, scale):
    def f(points):
        return scale * (ratio + points[:, 0] * points[:, 1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MC_CHUNK", chunk)
        res = integrate_mc(f, MIXED_BOUNDS, n, seed=seed)
    values = f(_one_shot_uniform(MIXED_BOUNDS, n, seed))
    assert (res.value, res.error_estimate) == _unscaled_statistics(values, chunk, MIXED_VOLUME)


@settings(max_examples=40, deadline=2000)
@given(chunk=st.integers(1, 9), n=st.integers(2, 60), seed=st.integers(0, 2 ** 32),
       exponent=st.integers(-1000, 1000))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_of_two_scales_every_output_bit(chunk, n, seed, exponent):
    def f(points):
        return 0.3 + points[:, 0] * points[:, 1]

    factor = math.ldexp(1.0, exponent)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "MC_CHUNK", chunk)
        base = integrate_mc(f, MIXED_BOUNDS, n, seed=seed)
        res = integrate_mc(lambda p: factor * f(p), MIXED_BOUNDS, n, seed=seed)
    assert res.value == factor * base.value
    assert res.error_estimate == factor * base.error_estimate


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mc_reproducible_for_any_seed(seed):
    f = lambda pts: pts[:, 0] * pts[:, 1] + pts[:, 2]
    a = integrate_mc(f, [(0, 1)] * 3, 500, seed=seed)
    b = integrate_mc(f, [(0, 1)] * 3, 500, seed=seed)
    assert a.value == b.value


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_affine_integrals_are_exact(width, slope):
    # an order-5 Gauss panel integrates polynomials up to degree 9 exactly
    res = integrate_1d(lambda x: slope * x + 1.0, 0.0, width)
    expected = slope * width * width / 2.0 + width
    assert abs(res.value - expected) <= 1e-9 + 1e-9 * abs(expected)


def _abs_sin_antiderivative(u):
    """An antiderivative of |sin u|: 2 per half period passed, then 1 - cos."""
    k = math.floor(u / math.pi)
    return 2.0 * k + 1.0 - math.cos(u - k * math.pi)


# one factor of a separable integrand on [a, b]: (g, integral of g, integral of |g|)
_FACTORS = {
    "power": lambda p, a, b: (lambda t: t ** p,
                              (b ** (p + 1) - a ** (p + 1)) / (p + 1),
                              (math.copysign(abs(b) ** (p + 1), b)
                               - math.copysign(abs(a) ** (p + 1), a)) / (p + 1)),
    "exp": lambda p, a, b: (lambda t: math.exp((p - 2) * t),
                            (math.exp((p - 2) * b) - math.exp((p - 2) * a)) / (p - 2),
                            (math.exp((p - 2) * b) - math.exp((p - 2) * a)) / (p - 2)),
    "sin": lambda p, a, b: (lambda t: math.sin((p + 1) * t),
                            (math.cos((p + 1) * a) - math.cos((p + 1) * b)) / (p + 1),
                            (_abs_sin_antiderivative((p + 1) * b)
                             - _abs_sin_antiderivative((p + 1) * a)) / (p + 1)),
}

_FACTOR = st.tuples(st.sampled_from(sorted(_FACTORS)), st.sampled_from([0, 1, 3, 4]),
                    st.floats(-2.0, 1.75), st.floats(0.25, 2.0))


@settings(max_examples=150, deadline=None)
@given(factors=st.lists(_FACTOR, min_size=1, max_size=2), scale=st.integers(-160, 150),
       amplitude=st.integers(-160, 150), tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
@example(factors=[("power", 1, 0.0, 1.0)], scale=-160, amplitude=-160, tol=1e-6)
@example(factors=[("power", 1, 0.0, 1.0)] * 2, scale=-160, amplitude=0, tol=1e-6)
@example(factors=[("exp", 3, -1.0, 2.0)] * 2, scale=150, amplitude=10, tol=1e-6)
def test_closed_forms_at_every_magnitude(factors, scale, amplitude, tol):
    # f(x) = 10^amplitude * prod g(x_i / L) on the box L * [a_i, a_i + w_i],
    # L = 10^scale: the rule lands within tol * int|f| + error_estimate of
    # the exact value, or refuses; it refuses only when int|f| is near or
    # outside the normal floats
    L, amp = 10.0 ** scale, 10.0 ** amplitude
    parts = [_FACTORS[name](p, a, a + w) for name, p, a, w in factors]
    bounds = [(L * a, L * (a + w)) for _, _, a, w in factors]
    factor = Fraction(amp) * Fraction(L) ** len(parts)
    exact = factor * math.prod(Fraction(integral) for _, integral, _ in parts)
    size = factor * math.prod(Fraction(abs_integral) for _, _, abs_integral in parts)

    def f(*x):
        return amp * math.prod(g(xi / L) for (g, _, _), xi in zip(parts, x))

    try:
        res = integrate_box(f, bounds, tol=tol)
    except NumericalFailure:  # NonConvergenceError included
        assert not 1e-280 < size < 1e280
        return
    # the closed forms are float expressions, good to about 1e-13 of int|g|
    assert abs(Fraction(res.value) - exact) <= (tol + 1e-13) * size + Fraction(res.error_estimate)
