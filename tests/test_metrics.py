import math

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from mekit import RationalLT, erlang, exponential, metrics
from mekit.algebra import kfold_block, max_dist, min_dist, standard_channel
from mekit.medist import ChannelSpec, MEDist
from conftest import (classic_cdf, nakagami, quadpack, random_valid_dist,
                      sdc)

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
        b = metrics.harq_persistent_erlang_shifted(N, 1.0, THETA_R1).value
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
        assert res.path == "eigen"
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

    def test_scalar_spectral_factor(self):
        # lambda = -1, theta = 1: E{(1+z)^{-1}} = e Gamma(0, 1) = e E1(1)
        E, _ = metrics._shannon_expectation_quad(RAY, 1.0)
        assert abs(E - math.e * scipy.special.exp1(1.0)) < 1e-10

    def test_paths_agree(self, rng):
        for _ in range(20):
            # distinct real negative eigenvalues: selection-diversity channels
            d = sdc(int(rng.integers(2, 5)), S=float(rng.uniform(0.5, 2.0)))
            th = float(rng.uniform(0.05, 0.95))
            a = metrics.eff_capacity_shannon(d, th, method="quadrature").value
            b = metrics.eff_capacity_shannon(d, th, method="eigen").value
            assert abs(a - b) < 1e-7

    def test_eigen_falls_back_on_extreme_rates(self):
        # decay rate 1000 overflows e^{-lambda}; must reroute to quadrature
        d = exponential(1e-3)
        res = metrics.eff_capacity_shannon(d, 0.5, method="eigen")
        assert res.path == "quadrature"
        assert np.isfinite(res.value)
        assert res.notes == ("eigen path unavailable (decay rate 1e+03 >= 700)",)

    def test_eigen_falls_back_on_defective(self):
        d = erlang(2, mean=1.0)  # repeated eigenvalue, defective generator
        res = metrics.eff_capacity_shannon(d, 0.5, method="eigen")
        assert res.path == "quadrature"
        assert any("eigen path unavailable" in n for n in res.notes)

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
        slope = metrics.diversity_gain_numeric(channel_um, "noncoherent")
        assert abs(slope - expect) < 0.05

    def test_ostbc_2x2(self):
        ch = standard_channel(ChannelSpec(
            "ostbc_mrc", {"N_tx": 2, "N_rx": 2, "R_stc": 1.0, "S": 1.0})).dist
        assert metrics.diversity_gain(ch) == 4
        slope = metrics.diversity_gain_numeric(ch.to_unit_mean(), "noncoherent")
        assert abs(slope - 4) < 0.05


class TestLambertW:
    def test_matches_scipy(self):
        for v in np.linspace(-math.exp(-1.0) + 1e-9, 10.0, 200):
            w = metrics.lambert_w0(float(v))
            assert abs(w - scipy.special.lambertw(v).real) < 1e-10

    def test_residual_bound(self):
        for g in (1.01, 1.5, 2.0, 3.7, 8.0):
            v = -g * math.exp(-g)
            w = metrics.lambert_w0(v)
            assert abs(w * math.exp(w) - v) < 1e-12

    def test_branch_point(self):
        assert metrics.lambert_w0(-math.exp(-1.0)) == -1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            metrics.lambert_w0(-1.0)


class TestOptimizeRate:
    def test_known_auxiliary_value(self):
        # Rayleigh ARQ: g = 1/theta, so theta = 0.5 gives g = 2 and
        # R* = 2 + W0(-2 e^{-2})
        rows = metrics.optimize_rate("arq", RAY, [0.5])
        r = rows[0]
        assert abs(r.g - 2.0) < 1e-10
        assert abs(r.R_opt - 1.5936242600400401) < 1e-9
        assert not r.boundary

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

    def test_link_params_validation(self):
        with pytest.raises(ValueError):
            metrics.LinkParams(R=-1.0)
        lp = metrics.LinkParams(R=1.0, S=2.0)
        assert abs(lp.theta_abs() - THETA_R1) < 1e-12
        assert abs(lp.theta_um() - THETA_R1 / 2.0) < 1e-12
