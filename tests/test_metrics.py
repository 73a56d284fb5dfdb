import math

import mpmath
import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from mekit import RationalLT, erlang, exponential, matfun, metrics
from mekit.algebra import (convolve, kfold_block, max_dist, min_dist,
                           standard_channel)
from mekit.bivariate import InterferenceScenario
from mekit.medist import ChannelSpec, MEDist
from conftest import (classic_cdf, example2, harq_persistent_erlang_shifted,
                      nakagami, quadpack, random_valid_dist,
                      rate_optimum_error, sdc, sdc_eff_capacity_mpmath)

RAY = exponential(1.0)
THETA_R1 = math.e - 1.0  # threshold for R = 1 nat


class TestOutage:
    def test_rayleigh_golden(self):
        res = metrics.outage(RAY, THETA_R1)
        assert abs(res.value - (1.0 - math.exp(1.0 - math.e))) < 1e-12
        assert res.path == "closed_form"

    def test_zero_threshold(self):
        assert metrics.outage(RAY, 0.0).value == 0.0

    def test_nakagami_golden(self):
        val = metrics.outage(nakagami(2), 1.0).value
        assert abs(val - (1.0 - 3.0 * math.exp(-2.0))) < 1e-12

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            metrics.outage(RAY, -0.5)

    def test_dense_z_triple(self):
        # closure triples carry non-basis z vectors
        c = min_dist(RAY, nakagami(2)).closure()
        assert abs(metrics.outage(c, 1.0).value - classic_cdf(c, 1.0)) < 1e-12

    def test_monotone_in_mean_snr(self):
        vals = [metrics.outage(exponential(S), THETA_R1).value
                for S in np.linspace(0.1, 10.0, 20)]
        assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("theta", [np.array([1.0, 2.0]), math.nan, math.inf],
                         ids=["array", "nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda d, th: d.cdf(th),
    lambda d, th: kfold_block(d, 3).partial_cdfs(th),
    lambda d, th: metrics.outage(d, th),
    lambda d, th: metrics.harq_truncated_throughput(d, 1.0, 3, th),
], ids=["cdf", "partial_cdfs", "outage", "harq_truncated"])
@pytest.mark.parametrize("d", [erlang(2, 1.0), example2()],
                         ids=["phase_type", "oscillatory"])
def test_threshold_refused_by_name_before_any_kernel(monkeypatch, d, call,
                                                     theta):
    def kernel(*args, **kwargs):
        pytest.fail("a kernel ran on a refused threshold")

    monkeypatch.setattr(matfun, "expm_integral", kernel)
    monkeypatch.setattr(matfun._JumpLaw, "_extend", kernel)
    monkeypatch.setattr(matfun._JumpLaw, "partial_cdfs", kernel)
    with pytest.raises(ValueError,
                       match=r"^(theta|t) must be a finite nonnegative scalar"):
        call(d, theta)


class TestOutageCapacity:
    def test_rayleigh_golden(self):
        q = 1.0 - math.exp(-1.0)
        res = metrics.outage_capacity(RAY, q)
        assert abs(res.value - math.log(2.0)) < 1e-9

    def test_small_target_small_capacity(self):
        assert metrics.outage_capacity(RAY, 1e-6).value < 1e-4

    def test_round_trip(self, rng):
        d = random_valid_dist(rng)
        q = 0.3
        C = metrics.outage_capacity(d, q).value
        assert abs(metrics.outage(d, math.expm1(C)).value - q) < 1e-9

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            metrics.outage_capacity(RAY, 1.5)

    @pytest.mark.parametrize("S", [0.2, 1.5, 6.0, 1000.0])
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9])
    def test_closed_forms(self, S, q):
        # Rayleigh ln(1 - S ln(1-q)); SDC-N ln(1 - S ln(1 - q^{1/N}))
        C = metrics.outage_capacity(exponential(S), q).value
        assert C == pytest.approx(math.log(1.0 - S * math.log1p(-q)), rel=1e-13)
        for N in (3, 6, 16):
            C = metrics.outage_capacity(sdc(N, S), q).value
            expect = math.log(1.0 - S * math.log1p(-q ** (1.0 / N)))
            assert C == pytest.approx(expect, rel=1e-13)


    @pytest.mark.parametrize("k", range(1, 17))
    @pytest.mark.parametrize("q", [1e-3, 0.1, 0.5, 0.9])
    def test_erlang_against_gammaincinv(self, k, q):
        # the q-quantile of Erlang-k with mean 1.5 is gammaincinv(k, q) 1.5/k
        C = metrics.outage_capacity(erlang(k, 1.5), q).value
        expect = math.log1p(scipy.special.gammaincinv(k, q) * 1.5 / k)
        assert C == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_pair_is_the_cdf_and_the_density(self):
        # (F, f) of the Newton steps on both routes: the law (E16 at small
        # theta) and the augmented rows (past the size rule, and non-PH)
        for d, th in ((erlang(16), 0.2), (erlang(16), 3.0),
                      (example2(), 1.3), (RAY, 0.7)):
            F, f = d._cdf_pdf(th)
            assert F == pytest.approx(d.cdf(th), rel=1e-14)
            assert f == pytest.approx(d.pdf(th), rel=1e-13)

    @pytest.mark.parametrize("node", [max_dist, min_dist])
    @pytest.mark.parametrize("q", [1e-3, 0.5, 0.9])
    def test_unclosed_node_matches_its_closure(self, node, q):
        # max/min nodes read (F, f) by the product rule, with no closure
        n = node(erlang(2), exponential(1.0))
        C = metrics.outage_capacity(n, q).value
        want = metrics.outage_capacity(n.closure(), q).value
        assert C == pytest.approx(want, rel=1e-13, abs=0.0)
        F, f = n._cdf_pdf(0.7)
        assert F == pytest.approx(n.cdf(0.7), rel=1e-14)
        assert f == pytest.approx(n.closure().pdf(0.7), rel=1e-13)

    def test_unattainable_target_refused(self):
        # a defective law (mass 1/2) never reaches q = 0.9
        half = MEDist(0.5 * RAY.x, RAY.Y, RAY.z)
        with pytest.raises(ValueError, match="unattainable"):
            metrics.outage_capacity(half, 0.9)

    def test_leaves_scipy_optimize_unloaded(self):
        from conftest import run_fresh
        code = ("import sys; from mekit import erlang, exponential, metrics; "
                "from mekit.algebra import max_dist; "
                "metrics.outage_capacity(erlang(16, 2.0), 0.1); "
                "metrics.outage_capacity(exponential(3.0), 0.9); "
                "metrics.outage_capacity(max_dist(erlang(2), exponential(1.0))"
                ".closure(), 0.5); "
                "metrics.outage_capacity(max_dist(erlang(2), exponential(1.0)),"
                " 0.5); "
                "print('scipy.optimize' in sys.modules)")
        assert run_fresh(code).strip() == "False"


class TestArq:
    def test_rayleigh_golden(self):
        res = metrics.arq_throughput(RAY, 1.0, THETA_R1)
        assert abs(res.value - math.exp(1.0 - math.e)) < 1e-12

    def test_vanishes_with_rate(self):
        assert metrics.arq_throughput(RAY, 1e-9, math.expm1(1e-9)).value < 1e-8

    def test_high_snr_approaches_rate(self):
        d = exponential(1e6)
        val = metrics.arq_throughput(d, 1.0, THETA_R1).value
        assert abs(val - 1.0) < 1e-5

    def test_paths_agree(self, rng):
        for _ in range(20):
            d = random_valid_dist(rng)
            R = float(rng.uniform(0.2, 2.0))
            th = float(rng.uniform(0.1, 3.0))
            a = metrics.arq_throughput(d, R, th).value
            b = R * (1.0 - classic_cdf(d, th))
            assert abs(a - b) < 1e-10

    def test_throughput_bounds(self, rng):
        for _ in range(10):
            d = random_valid_dist(rng)
            R = float(rng.uniform(0.1, 3.0))
            th = float(rng.uniform(0.0, 4.0))
            T = metrics.arq_throughput(d, R, th).value
            assert -1e-12 <= T <= R + 1e-12


class TestHarqTruncated:
    def test_k1_equals_arq(self, rng):
        for _ in range(5):
            d = random_valid_dist(rng)
            th = float(rng.uniform(0.2, 2.0))
            a = metrics.harq_truncated_throughput(d, 1.3, 1, th).value
            b = metrics.arq_throughput(d, 1.3, th).value
            assert abs(a - b) < 1e-12

    def test_rayleigh_k2_golden(self):
        res = metrics.harq_truncated_throughput(RAY, 1.0, 2, THETA_R1)
        assert abs(res.value - 0.2678141033937456) < 1e-10

    def test_converges_to_persistent(self):
        big = metrics.harq_truncated_throughput(RAY, 1.0, 64, THETA_R1).value
        persistent = metrics.harq_persistent_throughput(
            RationalLT([1.0], [1.0]), 1.0, THETA_R1).value
        assert abs(big - persistent) < 1e-10

    def test_monotone_in_K(self):
        vals = [metrics.harq_truncated_throughput(RAY, 1.0, K, THETA_R1).value
                for K in (1, 2, 3, 5, 8)]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_renewal_identity(self, rng):
        # throughput == R * P_succ / E[transmissions] from the partial cdfs
        d = random_valid_dist(rng)
        R, K, th = 0.9, 4, 1.1
        F = kfold_block(d, K).partial_cdfs(th)
        mean_tx = 1.0 + float(np.sum(F[:-1]))
        expect = R * (1.0 - F[-1]) / mean_tx
        got = metrics.harq_truncated_throughput(d, R, K, th).value
        assert abs(got - expect) < 1e-12


def erlang_renewal_throughput(m, S, R, N, theta):
    """R / (1 + sum_k P(k m N, m theta / S)): persistent HARQ over the
    N-fold sum of Erlang-m channels of mean S, by the renewal sum of
    regularized incomplete gamma functions."""
    total, k = 0.0, 1
    while True:
        term = scipy.special.gammainc(k * m * N, m * theta / S)
        total += term
        if term < 1e-18:
            return R / (1.0 + total)
        k += 1


class TestHarqPersistent:
    def test_rayleigh_golden(self):
        res = metrics.harq_persistent_throughput(
            RationalLT([1.0], [1.0]), 1.0, THETA_R1)
        assert abs(res.value - 1.0 / math.e) < 1e-12

    def test_accepts_distribution_input(self):
        res = metrics.harq_persistent_throughput(RAY, 1.0, THETA_R1)
        assert abs(res.value - 1.0 / math.e) < 1e-10

    def test_mean_transmissions_is_exp_theta(self):
        # mean transmission count for the unit exponential is 1 + theta
        val = metrics.harq_persistent_throughput(
            RationalLT([1.0], [1.0]), 1.0, THETA_R1).value
        assert abs(1.0 / val - math.e) < 1e-12

    def test_negative_theta_rejected(self):
        for method in ("companion", "roots_of_unity"):
            with pytest.raises(ValueError, match="nonnegative"):
                metrics.harq_persistent_throughput(RAY, 1.0, -0.5,
                                                   method=method)
            # at theta = 0 the first transmission always succeeds
            res = metrics.harq_persistent_throughput(RAY, 1.0, 0.0,
                                                     method=method)
            assert res.value == 1.0

    def test_diversity_two_paths_agree(self):
        lt = RationalLT([1.0], [1.0])
        a = metrics.harq_persistent_throughput(lt, 1.0, THETA_R1, diversity=2,
                                               method="companion").value
        b = metrics.harq_persistent_throughput(lt, 1.0, THETA_R1, diversity=2,
                                               method="roots_of_unity").value
        assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("method", ["companion", "roots_of_unity"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_shifted_form_agrees(self, N, method):
        lt = RationalLT([1.0], [1.0])
        a = metrics.harq_persistent_throughput(lt, 1.0, THETA_R1,
                                               diversity=N, method=method).value
        b = harq_persistent_erlang_shifted(N, 1.0, THETA_R1)
        assert abs(a - b) < 1e-9

    @pytest.mark.parametrize("method", ["companion", "roots_of_unity"])
    def test_erlang10_vs_renewal_sum(self, method):
        th = math.expm1(1.0)
        got = metrics.harq_persistent_throughput(erlang(10, mean=0.5), 1.0, th,
                                                 method=method).value
        assert abs(got - erlang_renewal_throughput(10, 0.5, 1.0, 1, th)) < 1e-12

    @pytest.mark.parametrize("method", ["companion", "roots_of_unity"])
    @pytest.mark.parametrize("N", [6, 7, 8])
    def test_nakagami_diversity_vs_renewal_sum(self, N, method):
        th = math.expm1(1.5)
        got = metrics.harq_persistent_throughput(nakagami(3, 1.5), 1.5, th,
                                                 diversity=N, method=method).value
        assert abs(got - erlang_renewal_throughput(3, 1.5, 1.5, N, th)) < 1e-12

    def test_nakagami16_roots_of_unity(self):
        th = math.expm1(1.0)
        res = metrics.harq_persistent_throughput(nakagami(16), 1.0, th,
                                                 method="roots_of_unity")
        assert res.path == "roots_of_unity"
        assert abs(res.value - erlang_renewal_throughput(16, 1.0, 1.0, 1, th)) < 1e-12

    def test_nilpotent_compensated_block(self):
        # p and q coefficient vectors coincide (the exponential): the
        # compensated denominator is s^d, a pure shift block, and the mean
        # transmission count grows polynomially but stays well defined
        val = metrics.harq_persistent_throughput(
            RationalLT([1.0], [1.0]), 1.0, 3.0).value
        assert abs(val - 1.0 / 4.0) < 1e-12


class TestNcbr:
    def test_symmetric_rayleigh_golden(self):
        links = {k: RAY for k in ("13", "32", "23", "31")}
        res = metrics.ncbr_throughput(links, 1.0, 1.0)
        expect = 2.0 * math.exp(2.0 * (1.0 - math.e)) / 3.0
        assert abs(res.value - expect) < 1e-12
        assert abs(res.value - 0.02145004008111824) < 1e-6

    def test_perfect_direction_contributes_third(self):
        links = {"13": exponential(1e9), "32": exponential(1e9),
                 "23": RAY, "31": RAY}
        res = metrics.ncbr_throughput(links, 1.0, 1.0)
        contrib_21 = 1.0 * math.exp(2.0 * (1.0 - math.e)) / 3.0
        assert abs(res.value - (1.0 / 3.0 + contrib_21)) < 1e-6

    def test_direction_outage_is_min_of_hops(self, rng):
        d1, d2 = random_valid_dist(rng), random_valid_dist(rng)
        th = 1.3
        E1 = metrics.outage(d1, th).value
        E2 = metrics.outage(d2, th).value
        Qdir = 1.0 - (1.0 - E1) * (1.0 - E2)
        assert abs(Qdir - min_dist(d1, d2).cdf(th)) < 1e-10

    def test_rejects_missing_link(self):
        with pytest.raises(ValueError, match="keys"):
            metrics.ncbr_throughput({"13": RAY}, 1.0, 1.0)

    def test_rare_success_keeps_its_digits(self):
        # theta/S = 9.2 at R = 2: each hop succeeds with e^{-9.2} ~ 1e-4,
        # and T = R e^{-2 theta/S} 2/3; forming the outage 1 - product of
        # the direction first and reading 1 - Q back cost 4.6e-9 relative
        R = 2.0
        S = math.expm1(R) / 9.2
        links = {k: exponential(S) for k in ("13", "32", "23", "31")}
        res = metrics.ncbr_throughput(links, R, R)
        assert res.value == pytest.approx(R * math.exp(-18.4) * 2.0 / 3.0,
                                          rel=1e-10, abs=0.0)


class TestEffCapacityMERate:
    def test_exponential_golden(self):
        res = metrics.eff_capacity_me_rate(RAY, 1.0)
        assert abs(res.value - math.log(2.0)) < 1e-12

    def test_small_theta_approaches_mean(self):
        val = metrics.eff_capacity_me_rate(RAY, 1e-4).value
        assert abs(val - 1.0) < 1e-4

    def test_erlang_golden(self):
        d = erlang(2, mean=1.0)
        res = metrics.eff_capacity_me_rate(d, 1.0)
        assert abs(res.value - 2.0 * math.log(1.5)) < 1e-12

    @pytest.mark.parametrize("name", ["E1", "E4", "E16", "E64", "ex2"])
    def test_small_theta_against_mpmath(self, name):
        # -ln L(theta) / theta from L alone was off by 5.0e-4 on E16 and
        # 5.2e-3 on E64 at theta = 1e-12, and -0.0 everywhere at 1e-300
        if name == "ex2":
            d = example2()

            def ref(s):  # L(s) = 50 / (s^3 + 3 s^2 + 52 s + 50)
                return mpmath.log1p((s ** 3 + 3 * s ** 2 + 52 * s) / 50) / s
        else:
            k = int(name[1:])
            d = erlang(k, 3.0)

            def ref(s):  # L(s) = (1 + 3 s / k)^-k
                return k * mpmath.log1p(3 * s / k) / s
        with mpmath.workdps(40):
            for th in np.geomspace(1e-300, 1e3, 61):
                want = float(ref(mpmath.mpf(float(th))))
                got = metrics.eff_capacity_me_rate(d, float(th)).value
                assert abs(got - want) <= 1e-14 * want

    def test_eigenvalue_collision_rejected(self):
        bad = MEDist([1.0], [[1.0]], [1.0])  # generator with eigenvalue +1
        with pytest.raises(np.linalg.LinAlgError):
            metrics.eff_capacity_me_rate(bad, 1.0)


class TestEffCapacityShannon:
    def test_rayleigh_golden(self):
        res = metrics.eff_capacity_shannon(RAY, 1.0)
        expect = -math.log(math.e * scipy.special.exp1(1.0))
        assert abs(res.value - expect) < 1e-10
        assert abs(res.value - 0.516931) < 1e-5

    @pytest.mark.parametrize("theta", [171.0, 1e3])
    def test_theta_beyond_gamma_refused(self, theta):
        # Gamma(theta + 1) overflows a double there
        with pytest.raises(ValueError, match=f"theta = {theta} overflows"):
            metrics.eff_capacity_shannon(RAY, theta)

    def test_scalar_spectral_factor(self):
        # lambda = -1, theta = 1: E{(1+z)^{-1}} = e Gamma(0, 1) = e E1(1)
        neg_log_E, _ = metrics._shannon_expectation_quad(RAY, 1.0)
        ref = math.e * scipy.special.exp1(1.0)
        assert abs(neg_log_E + math.log(ref)) < 1e-10

    @pytest.mark.parametrize("S", [0.001, 0.01, 1.0, 1000.0])
    def test_rayleigh_expectation_against_mpmath(self, S):
        # Rayleigh (k = 1) and Nakagami-k SNR, Z ~ Erlang(k, mean S):
        # E{(1+Z)^{-theta}} = a^k U(k, k + 1 - theta, a), a = k/S; mean
        # 1e-3 is decay rate 1000 at k = 1, and k > 1 is a defective
        # generator.  The peeled-off 1/Gamma(theta + 1) is rounded once,
        # which bounds the absolute error in E where the rest cancels it
        for k in (1, 2, 4):
            for th in (1e-5, 1e-2, 0.5, 0.99, 3.0, 20.0):
                with mpmath.workdps(40):
                    a, t = mpmath.mpf(k) / S, mpmath.mpf(th)
                    ref = float(a ** k * mpmath.hyperu(k, k + 1 - t, a))
                neg_log_E, _ = metrics._shannon_expectation_quad(
                    erlang(k, S), th)
                floor = 4.0 * np.finfo(float).eps / math.gamma(th + 1.0)
                assert (abs(neg_log_E + math.log(ref))
                        <= 1e-13 + floor / ref), (S, k, th)

    def test_whole_accepted_theta_range(self):
        # -ln(a^k U(k, k + 1 - theta, a))/theta, a = k/S, for theta up to
        # the Gamma(theta + 1) overflow; the tiny theta need the digits
        # that cancel in -ln E
        for k in (1, 4):
            for S in (0.1, 1.0, 10.0, 1000.0):
                for th in (1e-300, 1e-12, 1e-8, 1e-6, 1e-5, 2e-5, 1e-3, 9e-3,
                           1.1e-2, 0.5, 10.0, 100.0, 169.0, 170.5):
                    with mpmath.workdps(50 if th > 1e-20 else 360):
                        a, t = mpmath.mpf(k) / S, mpmath.mpf(th)
                        ref = float(-mpmath.log(
                            a ** k * mpmath.hyperu(k, k + 1 - t, a)) / t)
                    got = metrics.eff_capacity_shannon(erlang(k, S), th).value
                    assert abs(got - ref) <= 1e-11 * ref, (k, S, th)

    def test_paths_agree(self, rng):
        # the quadrature path against mpmath on the closed-form
        # selection-diversity density
        for _ in range(10):
            N, S = int(rng.integers(2, 5)), float(rng.uniform(0.5, 2.0))
            th = float(rng.uniform(0.05, 0.95))
            res = metrics.eff_capacity_shannon(sdc(N, S), th)
            assert res.path == "quadrature"
            assert abs(res.value - sdc_eff_capacity_mpmath(N, S, th)) < 1e-12

    def test_ergodic_capacity_golden(self):
        res = metrics.ergodic_capacity(RAY)
        expect = math.e * scipy.special.exp1(1.0)
        assert abs(res.value - expect) < 1e-6
        assert abs(res.value - 0.596347) < 1e-5

    @pytest.mark.parametrize("S", [0.2, 1.5, 6.0, 1000.0])
    def test_ergodic_capacity_rayleigh_closed_form(self, S):
        res = metrics.ergodic_capacity(exponential(S))
        expect = math.exp(1.0 / S) * scipy.special.exp1(1.0 / S)
        assert abs(res.value - expect) < 1e-13
        assert res.quad_error is not None

    @pytest.mark.parametrize("S", [1e-300, 1e-30, 1e-8, 1e-4, 0.5, 6.0, 1e3])
    def test_ergodic_capacity_rayleigh_against_mpmath(self, S):
        # the transform form (1 - L(u))/u cancelled where uS << 1, and an
        # absolute quadrature floor of 1e-10 swamped a value near S
        with mpmath.workdps(50):
            a = 1 / mpmath.mpf(S)
            want = mpmath.exp(a) * mpmath.e1(a)
        got = metrics.ergodic_capacity(exponential(S)).value
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    def test_ergodic_capacity_tiny_mean_erlang_against_mpmath(self):
        k, S = 64, 1e-6
        with mpmath.workdps(40):
            b = k / mpmath.mpf(S)
            want = mpmath.quad(lambda z: mpmath.log1p(z) * b ** k
                               * z ** (k - 1) * mpmath.exp(-b * z)
                               / mpmath.factorial(k - 1),
                               [0, S, 2 * S, 10 * S, mpmath.inf])
        got = metrics.ergodic_capacity(erlang(k, S)).value
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


def coherent_ber_mpmath(cdf, a, mean):
    """E{Q(sqrt(2 a Z))} = int_0^inf F(z) sqrt(a/(4 pi z)) e^{-a z} dz (by
    parts against the derivative of Q) by mpmath at 40 digits, from an
    mpmath cdf F of mean ``mean``."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        pts = sorted({0, mpmath.mpf(mean), 1 / a, 10 / a, 50 / a})
        return float(mpmath.quad(
            lambda z: cdf(z) * mpmath.sqrt(a / (4 * mpmath.pi * z))
            * mpmath.exp(-a * z), pts + [mpmath.inf]))


class TestBer:
    def test_dbpsk_golden(self):
        assert abs(metrics.ber_noncoherent(RAY, 1.0).value - 0.25) < 1e-12

    def test_noncoherent_fsk_value(self):
        # (1/2) F(a) = (1/2)/(1 + a S) = 1/3 at a = 1/2, S = 1
        val = metrics.ber_noncoherent(RAY, 0.5).value
        assert abs(val - 1.0 / 3.0) < 1e-12
        oracle, _ = quadpack(
            lambda z: 0.5 * math.exp(-0.5 * z) * math.exp(-z), 0.0, np.inf)
        assert abs(val - oracle) < 1e-10

    def test_noncoherent_vanishes_at_high_snr(self):
        vals = [metrics.ber_noncoherent(exponential(S), 1.0).value
                for S in (1.0, 10.0, 100.0, 1e4)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] < 1e-4

    def test_bpsk_golden(self):
        val = metrics.ber_coherent(RAY, 1.0).value
        assert abs(val - 0.5 * (1.0 - math.sqrt(0.5))) < 1e-12

    def test_coherent_tail_against_mpmath(self):
        # Nakagami-k BPSK closed form ((1-mu)/2)^k sum_j C(k-1+j, j)
        # ((1+mu)/2)^j, mu = sqrt(g/(1+g)), g = a S/k, deep in the tail
        for k, S, a in ((4, 1e4, 1.0), (8, 1e3, 1.0), (4, 1e2, 0.5)):
            with mpmath.workdps(40):
                g = mpmath.mpf(a) * S / k
                mu = mpmath.sqrt(g / (1 + g))
                ref = float(((1 - mu) / 2) ** k * mpmath.fsum(
                    mpmath.binomial(k - 1 + j, j) * ((1 + mu) / 2) ** j
                    for j in range(k)))
            val = metrics.ber_coherent(erlang(k, S), a).value
            assert abs(val - ref) <= 1e-13 * ref, (k, S, a, val, ref)
        # max(E4, E4) at component mean 1e3: 4.27e-19
        G = lambda z: mpmath.gammainc(4, 0, 4 * z / 1e3, regularized=True)
        ref = coherent_ber_mpmath(lambda z: G(z) ** 2, 1.0, 1e3)
        val = metrics.ber_coherent(
            max_dist(erlang(4, 1e3), erlang(4, 1e3)).closure(), 1.0).value
        assert abs(ref - 4.2669e-19) < 1e-23
        assert abs(val - ref) <= 1e-13 * ref, (val, ref)

    def test_coherent_families_against_mpmath(self):
        e = lambda z, m: mpmath.exp(-z / m)
        for S in (1.5, 6.0, 1e3):
            m1, m2 = 0.4 * S, 2.2 * S
            hypo = lambda z: 1 - (m2 * e(z, m2) - m1 * e(z, m1)) / (
                mpmath.mpf(m2) - m1)
            cases = {
                "sdc3": (sdc(3, S), lambda z: (1 - e(z, S)) ** 3),
                "mrc2": (convolve(exponential(m1), exponential(m2)), hypo),
                "max": (max_dist(exponential(S / 2), exponential(S)).closure(),
                        lambda z: (1 - e(z, S / 2)) * (1 - e(z, S))),
                "min": (min_dist(exponential(2 * S), sdc(2, S)).closure(),
                        lambda z: 1 - e(z, 2 * S) * (1 - (1 - e(z, S)) ** 2)),
            }
            for name, (d, cdf) in cases.items():
                for a in (0.5, 1.0):
                    ref = coherent_ber_mpmath(cdf, a, S)
                    val = metrics.ber_coherent(d, a).value
                    assert abs(val - ref) <= 1e-13 * ref, (name, S, a, val, ref)

    def test_coherent_limit_uses_total_mass(self, rng):
        d = random_valid_dist(rng)
        # x Y^{-1} z = -1 for any unit-mass density
        assert abs(float(d.x @ np.linalg.solve(d.Y, d.z)) + 1.0) < 1e-9
        assert metrics.ber_coherent(d, 1e8).value < 1e-3


class TestPep:
    def test_single_branch_reduces_to_coherent_ber(self, rng):
        # pep is the Craig quadrature, independent of the closed form's
        # matrix square root; the Nakagami generators and the max (order
        # 24) and min (order 64) closures of them are defective
        cases = [(random_valid_dist(rng), float(rng.uniform(0.3, 2.0)))
                 for _ in range(3)]
        cases += [(nakagami(2), 1.0),
                  (max_dist(nakagami(4), nakagami(4)).closure(), 1.0),
                  (min_dist(nakagami(8), nakagami(8)).closure(), 0.5)]
        for d, a in cases:
            assert abs(metrics.pep([(d, a)]).value
                       - metrics.ber_coherent(d, a).value) < 1e-8

    def test_weak_branch_gives_half(self):
        val = metrics.pep([(exponential(1e-9), 1.0)]).value
        assert abs(val - 0.5) < 1e-4

    def test_two_branch_value_against_monte_carlo(self):
        from mekit import oracle
        cfg = oracle.RngConfig(seed=5, n=400_000)
        z = (oracle.sample(RAY, cfg, worker=0)
             + oracle.sample(RAY, cfg, worker=1))
        emp = float(np.mean(0.5 * scipy.special.erfc(np.sqrt(z))))
        closed = metrics.pep([(RAY, 1.0), (RAY, 1.0)]).value
        sigma = float(np.std(0.5 * scipy.special.erfc(np.sqrt(z)))
                      / math.sqrt(cfg.n))
        assert abs(closed - emp) < 3.0 * sigma

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            metrics.pep([])


class TestDiversityGain:
    @pytest.mark.parametrize("channel_um, expect", [
        (exponential(1.0), 1),
        (nakagami(2), 2),
        (nakagami(3), 3),
    ])
    def test_degree_and_slope(self, channel_um, expect):
        assert metrics.diversity_gain(channel_um) == expect
        slope = metrics.diversity_gain_numeric(channel_um)
        assert abs(slope - expect) < 0.05

    def test_ostbc_2x2(self):
        ch = standard_channel(ChannelSpec(
            "ostbc_mrc", {"N_tx": 2, "N_rx": 2, "R_stc": 1.0, "S": 1.0})).dist
        assert metrics.diversity_gain(ch) == 4
        slope = metrics.diversity_gain_numeric(ch.to_unit_mean())
        assert abs(slope - 4) < 0.05


class TestOptimizeRate:
    def test_known_auxiliary_value(self):
        # Rayleigh ARQ: g = 1/theta, so theta = 0.5 gives g = 2 and
        # R* = 2 + W0(-2 e^{-2})
        rows = metrics.optimize_rate("arq", RAY, [0.5])
        r = rows[0]
        assert abs(r.g - 2.0) < 1e-10
        assert abs(r.R_opt - 1.5936242600400401) < 1e-9
        assert not r.boundary

    @pytest.mark.parametrize("theta", [0.999, 0.99, 0.9, 0.8, 0.5, 0.2])
    def test_arq_optimum_against_mpmath(self, theta):
        # Rayleigh ARQ: g = 1/theta, from 1.001 to 5
        r = metrics.optimize_rate("arq", RAY, [theta])[0]
        assert rate_optimum_error(r.g, r.R_opt) <= 1.0

    def test_root_against_mpmath(self):
        for g in np.concatenate([1.0 + np.logspace(-11.0, -1.0, 60),
                                 np.linspace(1.1, 50.0, 400)]):
            r = metrics._optimum_from_g(1.0, float(g), 1.0)
            assert rate_optimum_error(r.g, r.R_opt) <= 1.0, g

    def test_branch_point_flagged(self):
        rows = metrics.optimize_rate("arq", RAY, [1.0, 2.0])
        assert all(r.boundary for r in rows)

    def test_arq_stationarity(self):
        rows = metrics.optimize_rate("arq", RAY, np.linspace(0.1, 0.9, 5))

        def T(R, S):
            return metrics.arq_throughput(
                RAY, R, metrics.theta_unit_mean(R, S)).value

        for r in rows:
            assert not r.boundary
            h = 1e-5 * max(r.R_opt, 1.0)
            dT = (T(r.R_opt + h, r.S) - T(r.R_opt - h, r.S)) / (2.0 * h)
            assert abs(dT) < 1e-4 * r.T_opt
            assert abs(T(r.R_opt, r.S) - r.T_opt) < 1e-10

    def test_persistent_stationarity(self):
        lt = RationalLT([1.0], [1.0])
        rows = metrics.optimize_rate("harq_persistent", lt,
                                     np.linspace(0.2, 1.5, 5))

        def T(R, S):
            return metrics.harq_persistent_throughput(
                lt, R, metrics.theta_unit_mean(R, S)).value

        for r in rows:
            assert not r.boundary
            h = 1e-5 * max(r.R_opt, 1.0)
            dT = (T(r.R_opt + h, r.S) - T(r.R_opt - h, r.S)) / (2.0 * h)
            assert abs(dT) < 1e-4 * r.T_opt

    def test_persistent_stationarity_high_order(self):
        d = erlang(16)
        rows = metrics.optimize_rate("harq_persistent", d, [0.5, 0.6, 0.7, 0.8])

        def T(R, S):
            return metrics.harq_persistent_throughput(
                d, R, metrics.theta_unit_mean(R, S)).value

        for r in rows:
            assert not r.boundary
            h = 1e-5 * max(r.R_opt, 1.0)
            dT = (T(r.R_opt + h, r.S) - T(r.R_opt - h, r.S)) / (2.0 * h)
            assert abs(dT) < 1e-4 * r.T_opt
            assert abs(T(r.R_opt, r.S) - r.T_opt) < 1e-10

    def test_negative_theta_rejected(self):
        for metric in ("arq", "harq_persistent"):
            with pytest.raises(ValueError, match="theta must be positive"):
                metrics.optimize_rate(metric, RAY, [0.5, -0.5])

    @pytest.mark.parametrize("metric", ["arq", "harq_persistent",
                                        "arq_interference"])
    def test_zero_theta_rejected_by_name(self, metric):
        # g = f/(theta f') has no value at theta = 0
        channel = RAY
        if metric == "arq_interference":
            channel = InterferenceScenario(signal=RAY,
                                           interferers=(exponential(0.6),))
        with pytest.raises(ValueError, match="theta must be positive"):
            metrics.optimize_rate(metric, channel, [0.5, 0.0])

    def test_requires_unit_mean(self):
        with pytest.raises(ValueError, match="unit-mean"):
            metrics.optimize_rate("arq", exponential(2.0), [0.5])


class TestMimoHighSnr:
    def test_zero_rate_limit(self):
        assert metrics.mimo_high_snr_outage(2, 1e-12, 100.0).value < 1e-12

    def test_printed_block_matrix(self):
        expect = np.array([
            [0, 1, 0, 0, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 2, 1, 0],
            [0, 0, 0, 2, 1],
            [0, 0, 0, 0, 3]], dtype=float)
        assert_allclose(metrics.mimo_asymptote_generator(2), expect)

    def test_partial_fraction_oracle(self):
        # 1/((s-1)(s-2)^2(s-3)) = -1/2/(s-1) - 1/(s-2)^2 + 1/2/(s-3)
        R, t = 1.0, 100.0
        f = lambda u: (-0.5 * math.exp(u) - u * math.exp(2 * u)
                       + 0.5 * math.exp(3 * u))
        oracle, _ = quadpack(f, 0.0, R, tol=1e-14)
        got = metrics.mimo_high_snr_outage(2, R, t).value
        assert abs(got - t ** -4 * oracle) < 1e-9 * abs(got)

    def test_n3_pole_count(self):
        g = metrics.mimo_asymptote_generator(3)
        assert g.shape == (10, 10)  # N^2 poles + augmented row
        assert_allclose(np.diag(g)[1:], [1, 2, 2, 3, 3, 3, 4, 4, 5])


class TestMetricResult:
    def test_imaginary_residual_guard(self):
        with pytest.raises(ValueError, match="imaginary residual"):
            metrics._result(1.0 + 1e-3j, "closed_form")

    def test_float_conversion(self):
        assert float(metrics.outage(RAY, 1.0)) == metrics.outage(RAY, 1.0).value

