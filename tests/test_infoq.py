import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from mekit import erlang, exponential, matfun
from mekit.infoq import (Type1Dist, Type2Dist, Type3Dist, entropy_numeric,
                         lloyd_max, mi_additive_channel,
                         panter_dite_mse)
from mekit.medist import ConstructionError
from conftest import (example2, example2_entropy_mpmath, numeric_convolve,
                      pdf_on_grid, quadpack)

EULER_GAMMA = 0.5772156649015329


class TestEntropy:
    def test_unit_exponential(self):
        assert abs(entropy_numeric(exponential(1.0)) - 1.0) < 1e-9

    def test_exponential_scale_shift(self):
        assert abs(entropy_numeric(exponential(2.0))
                   - (1.0 + math.log(2.0))) < 1e-9

    def test_gamma_shape_two(self):
        # shape m, scale S/m: h = m + ln(S (m-1)!/m) + (1-m) psi(m)
        d = erlang(2, mean=2.0)
        assert abs(entropy_numeric(d) - (1.0 + EULER_GAMMA)) < 1e-6

    def test_oscillatory_vs_trapezoid_oracle(self):
        d = example2()
        ts = np.linspace(0.0, 45.0, 600_001)
        f = np.maximum(pdf_on_grid(d, ts), 1e-300)
        ref = -np.trapezoid(f * np.log(f), ts)
        assert abs(entropy_numeric(d) - ref) < 1e-6

    def test_oscillatory_vs_mpmath(self):
        ref = example2_entropy_mpmath()
        assert abs(entropy_numeric(example2()) - ref) <= 5e-10 * abs(ref)


class TestMutualInformation:
    def test_iid_exponentials_vs_double_quadrature(self):
        dx = dw = exponential(1.0)
        I = mi_additive_channel(dx, dw)
        # independent oracle: numeric convolution + trapezoid entropies
        ts = np.arange(0.0, 90.0, 1e-3)
        fy = np.maximum(numeric_convolve(dx, dw, ts), 1e-300)
        h_y = -np.trapezoid(fy * np.log(fy), ts)
        I_ref = h_y - 1.0  # h(w) = 1 for the unit exponential
        assert abs(I - I_ref) < 1e-4
        assert abs(I - EULER_GAMMA) < 1e-6

    def test_asymmetric_means_vs_oracle(self):
        dx, dw = exponential(2.0), exponential(1.0)
        I = mi_additive_channel(dx, dw)
        ts = np.arange(0.0, 150.0, 1e-3)
        fy = np.maximum(numeric_convolve(dx, dw, ts), 1e-300)
        h_y = -np.trapezoid(fy * np.log(fy), ts)
        assert abs(I - (h_y - 1.0)) < 1e-4

    def test_large_ratio_approaches_log_ratio(self):
        I = mi_additive_channel(exponential(1000.0), exponential(1.0))
        assert abs(I - math.log(1000.0)) < 0.01

    def test_positive_and_dominates_components(self):
        dx, dw = erlang(2, mean=1.0), exponential(0.5)
        I = mi_additive_channel(dx, dw)
        assert I > 0.0

    def test_scale_invariance_of_entropy_gap(self):
        # scaling both inputs by c leaves h(y_um) - h(w_um) unchanged
        def gap(c):
            dx, dw = exponential(1.0 * c), exponential(2.0 * c)
            from mekit.algebra import convolve
            y = convolve(dx, dw)
            return (entropy_numeric(y.to_unit_mean())
                    - entropy_numeric(dw.to_unit_mean()))

        assert abs(gap(1.0) - gap(3.7)) < 1e-7


def grid_search_two_level(dist, t_hi=50.0, n=400_000):
    """Brute-force two-level quantizer: scan the threshold, compute cell
    means and distortion from interpolated cumulative trapezoid integrals
    (independent of the closed-form path)."""
    from scipy.integrate import cumulative_trapezoid
    ts = np.linspace(0.0, t_hi, n + 1)
    f = pdf_on_grid(dist, ts)
    C0 = cumulative_trapezoid(f, ts, initial=0.0)
    C1 = cumulative_trapezoid(ts * f, ts, initial=0.0)
    C2 = cumulative_trapezoid(ts ** 2 * f, ts, initial=0.0)

    def mse_of(l):
        m0a = np.interp(l, ts, C0)
        m1a = np.interp(l, ts, C1)
        m2a = np.interp(l, ts, C2)
        m0b, m1b, m2b = C0[-1] - m0a, C1[-1] - m1a, C2[-1] - m2a
        u0, u1 = m1a / m0a, m1b / m0b
        return (m2a - m1a ** 2 / m0a) + (m2b - m1b ** 2 / m0b), u0, u1

    ls = np.linspace(0.5, 4.0, 1401)
    vals = [mse_of(l)[0] for l in ls]
    i = int(np.argmin(vals))
    # parabolic refinement around the grid minimum
    l0, l1, l2 = ls[i - 1], ls[i], ls[i + 1]
    v0, v1, v2 = vals[i - 1], vals[i], vals[i + 1]
    l_star = l1 - 0.5 * ((l1 - l0) ** 2 * (v1 - v2) - (l1 - l2) ** 2 * (v1 - v0)) \
        / ((l1 - l0) * (v1 - v2) - (l1 - l2) * (v1 - v0))
    mse, u0, u1 = mse_of(l_star)
    return l_star, u0, u1, mse


def quad_cell_means(dist, edges):
    """Cell means from adaptive quadratures of t f and f (independent of the
    closed-form cell moments)."""
    means = []
    for a, b in zip(edges[:-1], edges[1:]):
        m0, _ = quadpack(dist.pdf, a, b, tol=1e-12)
        m1, _ = quadpack(lambda t: t * dist.pdf(t), a, b, tol=1e-12)
        means.append(m1 / m0)
    return np.array(means)


class TestLloydMax:
    def test_single_level_is_mean(self):
        res = lloyd_max(exponential(2.0), 1)
        assert abs(res.centroids[0] - 2.0) < 1e-12
        # distortion of the one-level quantizer is the variance
        assert abs(res.mse - 4.0) < 1e-10

    def test_two_levels_match_grid_search(self):
        res = lloyd_max(exponential(1.0), 2)
        l, u0, u1, mse = grid_search_two_level(exponential(1.0))
        assert abs(res.thresholds[0] - l) < 1e-4
        assert abs(res.centroids[0] - u0) < 1e-4
        assert abs(res.centroids[1] - u1) < 1e-4
        assert abs(res.mse - mse) < 1e-4

    def test_memoryless_upper_centroid(self):
        res = lloyd_max(exponential(1.0), 2)
        # exponential tail: E[T | T > l] = l + 1
        assert abs(res.centroids[1] - (res.thresholds[0] + 1.0)) < 1e-9

    def test_thresholds_are_midpoints(self):
        res = lloyd_max(example2(), 4)
        mid = 0.5 * (res.centroids[:-1] + res.centroids[1:])
        assert_allclose(res.thresholds, mid, rtol=0, atol=1e-9)

    def test_mse_decreases_with_levels(self):
        d = example2()
        assert lloyd_max(d, 4).mse < lloyd_max(d, 2).mse

    def test_empty_cell_reseeded(self):
        res = lloyd_max(exponential(1.0), 2,
                        initial_centroids=[50.0, 51.0], max_iter=500)
        assert any("re-seeded" in n for n in res.notes)
        ref = lloyd_max(exponential(1.0), 2)
        assert abs(res.mse - ref.mse) < 1e-6

    def test_mse_improves_from_bad_start(self):
        from mekit.infoq import _PartialMoments
        d = exponential(1.0)
        start = np.array([0.1, 0.2])
        pm = _PartialMoments(d)
        edges = [0.0, float(np.mean(start)), math.inf]
        mse0 = 0.0
        for q in range(2):
            m0, m1, m2 = pm.between(edges[q], edges[q + 1])
            mse0 += m2 - 2 * start[q] * m1 + start[q] ** 2 * m0
        res = lloyd_max(d, 2, initial_centroids=start)
        assert res.mse <= mse0 + 1e-12

    def test_max_iter_is_reported(self):
        with pytest.warns(matfun.AccuracyWarning, match="max_iter=5"):
            res = lloyd_max(exponential(1.0), 16, tol=1e-10, max_iter=5)
        assert res.iterations == 5
        assert any("max_iter=5" in n for n in res.notes)

    def test_rejects_bad_M(self):
        with pytest.raises(ValueError):
            lloyd_max(exponential(1.0), 0)

    @pytest.mark.parametrize("name, M", [("example2", 2), ("example2", 4),
                                         ("exponential", 16),
                                         ("exponential", 64)])
    def test_centroids_are_quadrature_cell_means(self, name, M):
        d = example2() if name == "example2" else exponential(1.0)
        res = lloyd_max(d, M)
        assert res.notes == ()
        # each evaluation is M - 1 exponentials; 50 keep M = 64 well under 1 s
        assert res.iterations <= 50
        edges = np.concatenate([[0.0], res.thresholds, [math.inf]])
        means = quad_cell_means(d, edges)
        assert np.max(np.abs(means - res.centroids) / res.centroids) < 1e-10

    def test_tight_tol_on_small_scale(self):
        # the distortion here is about 3e-8 and the descent stops near a
        # relative stationarity of 1e-11; the root polish has to finish
        lam = 1e3
        res = lloyd_max(exponential(1.0 / lam), 8, tol=1e-12)
        assert res.notes == ()
        a = np.concatenate([[0.0], res.thresholds])
        w = np.diff(a)
        # E[T | a < T < a + w]
        #     = 1/lam + (a - (a + w) e^{-lam w}) / (1 - e^{-lam w}),
        # and a + 1/lam on the last cell (a, inf)
        means = 1.0 / lam + np.append(
            (a[:-1] - a[1:] * np.exp(-lam * w)) / -np.expm1(-lam * w), a[-1])
        assert np.max(np.abs(means - res.centroids) / res.centroids) < 1e-12


class TestPartialMoments:
    @pytest.mark.parametrize("k", [4, 16])
    @pytest.mark.parametrize("a, b", [(0.8, 1.1), (1.0, 2.0), (3.0, 5.0),
                                      (2.0, math.inf)])
    def test_cell_moments_against_mpmath(self, k, a, b):
        # int_a^b t^m f(t) dt for the unit-mean Erlang-k (rate k) is
        # (k)_m / k^m (P(k + m, k b) - P(k + m, k a)), P the regularized
        # lower incomplete gamma; bulk and upper-tail cells, where the
        # antiderivatives do not cancel
        from mekit.infoq import _PartialMoments
        got = _PartialMoments(erlang(k)).between(a, b)
        with mpmath.workdps(40):
            hi = mpmath.inf if math.isinf(b) else k * mpmath.mpf(b)
            want = [float(mpmath.rf(k, m) / mpmath.mpf(k) ** m
                          * mpmath.gammainc(k + m, k * mpmath.mpf(a), hi,
                                            regularized=True))
                    for m in range(3)]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestPanterDite:
    def test_unit_exponential_closed_form(self):
        for M in (4, 16):
            assert abs(panter_dite_mse(exponential(1.0), M)
                       - 2.25 / M ** 2) < 1e-8

    def test_high_rate_ratio_to_lloyd(self):
        # stationarity tolerance 1e-7 is ample for a 5% distortion comparison
        M = 64
        approx = panter_dite_mse(exponential(1.0), M)
        res = lloyd_max(exponential(1.0), M, tol=1e-7)
        assert res.notes == ()
        assert abs(approx / res.mse - 1.0) < 0.05


class TestTypeOne:
    def test_scalar_is_gaussian(self):
        t1 = Type1Dist([1.0], [[-1.0]], [1.0])
        assert abs(t1.c - 1.0 / math.sqrt(math.pi)) < 1e-12
        assert abs(t1.pdf(0.7) - math.exp(-0.49) / math.sqrt(math.pi)) < 1e-12
        assert abs(t1.moment(2) - 0.5) < 1e-12

    def test_odd_moments_vanish(self):
        d = example2()
        t1 = Type1Dist(d.x, d.Y, d.z)
        assert t1.moment(1) == 0.0
        assert t1.moment(3) == 0.0

    def test_normalization_and_moments_by_quadrature(self):
        d = example2()
        t1 = Type1Dist(d.x, d.Y, d.z)
        L = math.sqrt(3.0 * d.t_max())
        mass, _ = quadpack(t1.pdf, -L, L, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7
        for n in (2, 4):
            ref, _ = quadpack(lambda t: t ** n * t1.pdf(t), -L, L,
                              tol=1e-12)
            assert abs(t1.moment(n) - ref) < 1e-7 * max(1.0, abs(ref))

    def test_rejects_non_normalizable(self):
        with pytest.raises(ConstructionError):
            Type1Dist([-1.0], [[-1.0]], [1.0])

    def test_fractional_moment_rejected(self):
        # E{T^n} needs (-Y)^{-(n+1)/2}, an integer or half-integer power
        # for integer n only
        with pytest.raises(ValueError, match="half-integer"):
            Type1Dist([1.0], [[-1.0]], [1.0]).moment(2.5)


class TestTypeTwo:
    def test_scalar_marginal_is_gaussian(self):
        t2 = Type2Dist([1.0], [[-1.0]], [1.0])
        for u in (0.0, 0.5, 1.5):
            assert abs(t2.marginal_pdf(u)
                       - math.exp(-u * u) / math.sqrt(math.pi)) < 1e-12

    def test_moments_match_quadrature(self):
        d = erlang(2, mean=1.0)
        t2 = Type2Dist(d.x, d.Y, d.z)
        ref, _ = quadpack(lambda u: u ** 2 * t2.marginal_pdf(u),
                          -np.inf, np.inf, tol=1e-12)
        assert abs(t2.moment(2, 0) - ref) < 1e-7
        assert t2.moment(1, 2) == 0.0

    def test_marginal_matches_inner_integral(self):
        d = erlang(2, mean=1.0)
        t2 = Type2Dist(d.x, d.Y, d.z)
        for u in (0.0, 0.4, 1.1):
            inner, _ = quadpack(lambda v: t2.pdf(u, v), -np.inf, np.inf,
                                tol=1e-12)
            assert abs(t2.marginal_pdf(u) - inner) < 1e-8

    def test_normalization_by_quadrature(self):
        d = erlang(2, mean=1.0)
        t2 = Type2Dist(d.x, d.Y, d.z)
        mass, _ = quadpack(t2.marginal_pdf, -np.inf, np.inf, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7

    def test_rejects_unnormalized_triple(self):
        with pytest.raises(ConstructionError):
            Type2Dist([0.5], [[-1.0]], [1.0])

    @pytest.mark.parametrize("n, m", [(0.5, 0.5), (0.5, 1.5), (1.5, 0.5)])
    def test_fractional_moment_rejected(self, n, m):
        # with n + m an integer, (-Y)^{-(n+m+2)/2} is an integer or
        # half-integer power and would give the absolute moment
        d = erlang(2, mean=1.0)
        with pytest.raises(ValueError, match="integers"):
            Type2Dist(d.x, d.Y, d.z).moment(n, m)


class TestTypeThree:
    def test_scalar_is_rayleigh(self):
        t3 = Type3Dist([1.0], [[-1.0]], [1.0])
        assert abs(t3.pdf(1.0) - 2.0 * math.exp(-1.0)) < 1e-12
        assert abs(t3.moment(2) - 1.0) < 1e-12
        assert abs(t3.moment(1) - math.sqrt(math.pi) / 2.0) < 1e-12

    def test_normalization_and_moments_by_quadrature(self):
        d = example2()
        t3 = Type3Dist(d.x, d.Y, d.z)
        L = math.sqrt(3.0 * d.t_max())
        mass, _ = quadpack(t3.pdf, 0.0, L, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7
        for n in (1, 2, 3):
            ref, _ = quadpack(lambda t: t ** n * t3.pdf(t), 0.0, L,
                              tol=1e-12)
            assert abs(t3.moment(n) - ref) < 1e-7 * max(1.0, abs(ref))

    def test_rejects_unnormalized_triple(self):
        with pytest.raises(ConstructionError):
            Type3Dist([2.0], [[-1.0]], [1.0])

    def test_fractional_moment_rejected(self):
        with pytest.raises(ValueError, match="half-integer"):
            Type3Dist([1.0], [[-1.0]], [1.0]).moment(0.5)


def test_moment_orders_beyond_gamma_refused():
    # the orders at which Gamma has a pole or overflows a double are
    # refused by name
    t = ([1.0], [[-1.0]], [1.0])
    assert math.isfinite(Type1Dist(*t).moment(342))
    with pytest.raises(ValueError, match="moment order 344 "):
        Type1Dist(*t).moment(344)
    with pytest.raises(ValueError, match="moment order 344 "):
        Type2Dist(*t).moment(0, 344)
    with pytest.raises(ValueError, match="moment order -2 "):
        Type3Dist(*t).moment(-2)
    with pytest.raises(ValueError, match="moment order 342 "):
        Type3Dist(*t).moment(342)


@pytest.mark.parametrize("cls", [Type1Dist, Type2Dist, Type3Dist])
@pytest.mark.parametrize("x", [[math.nan], [math.inf]])
def test_non_finite_triple_refused(cls, x):
    # the unit-mass test abs(mass - 1) > 1e-8 is False for NaN
    with pytest.raises(ConstructionError, match="non-finite"):
        cls(x, [[-1.0]], [1.0])


@pytest.mark.parametrize("call", [
    lambda t: Type1Dist(*t).moment(-2), lambda t: Type2Dist(*t).moment(-2, 0),
    lambda t: Type2Dist(*t).moment(0, -4), lambda t: Type3Dist(*t).moment(-1)])
def test_negative_moment_order_refused(call):
    with pytest.raises(ValueError, match=r"moment order -\d+ is negative"):
        call(([1.0], [[-1.0]], [1.0]))


@pytest.mark.parametrize("s", [1e-200, 1e-150, 1e150])
def test_even_moments_over_the_range(s):
    # the unit-mass triple (1/s, -1/s, 1): E T^2 = s for the Rayleigh-like
    # density, E T^4 = 2 s^2, and E U^2 = s/2 for the bivariate one;
    # inverse matrix powers gave 0.0 or inf here
    t = ([1.0 / s], [[-1.0 / s]], [1.0])
    for got, ref in ((Type3Dist(*t).moment(2), s),
                     (Type3Dist(*t).moment(4), 2.0 * s * s),
                     (Type2Dist(*t).moment(2, 0), 0.5 * s),
                     (Type2Dist(*t).moment(2, 2), 0.25 * s * s)):
        if 0.0 < ref < math.inf:
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)
