"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line on success.  Golden values are derived
from sources independent of the code paths they check (hand algebra,
textbook formulas, quadrature, Monte Carlo).
"""

import math
import time

import numpy as np

from mekit import (RationalLT, erlang, exponential, metrics, oracle,
                   to_rational_lt)
from mekit.algebra import convolve, max_dist, min_dist
from mekit.bivariate import (InterferenceScenario, arq_interference_throughput,
                             integral_sylvester, sm_mimo_2x2_outage,
                             wishart2x2_bivme)
from mekit.infoq import (Type1Dist, Type2Dist, Type3Dist, entropy_numeric,
                         lloyd_max)
from conftest import (classic_cdf, classic_pdf, example2, example2_pdf,
                      harq_persistent_erlang_shifted, nakagami,
                      product_integral_ref, quadpack, random_valid_dist,
                      rate_optimum_error, sdc,
                      sdc_eff_capacity_mpmath, standard_five,
                      wishart_region_outage_quad)

EULER_GAMMA = 0.5772156649015329


def report(n, label):
    print(f"ACCEPTANCE {n}: PASS - {label}")


class TestAcceptance:
    def test_criterion_1_oscillatory_round_trip(self):
        start = time.monotonic()
        d = example2()
        ts = np.linspace(0.0, 25.0, 200)
        err = max(abs(d.pdf(float(t)) - example2_pdf(float(t))) for t in ts)
        elapsed = time.monotonic() - start
        assert err < 1e-10, f"max abs error {err}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
        report(1, f"degree-3 oscillatory density round trip ({err:.2e})")

    def test_criterion_2_closure_suite(self):
        start = time.monotonic()
        chans = standard_five()
        pairs = [("exponential", "example2"), ("erlang2", "nakagami3"),
                 ("example2", "sdc3")]
        n = 10 ** 6
        ks_limit = 1.63 / math.sqrt(n)
        for i, (ka, kb) in enumerate(pairs):
            a, b = chans[ka], chans[kb]
            cfg = oracle.RngConfig(seed=100 + i, n=n)
            sa = oracle.sample(a, cfg, worker=0)
            sb = oracle.sample(b, cfg, worker=1)
            # --- convolution: quadrature oracle + empirical KS
            c = convolve(a, b)
            for t in (0.5, 1.5, 3.0):
                ref, _ = quadpack(lambda u: a.pdf(u) * b.pdf(t - u), 0.0, t,
                                  tol=1e-12)
                assert abs(c.pdf(t) - ref) < 1e-8
            assert self._ks(sa + sb, c) < ks_limit
            # --- maximum: survival-product oracle + empirical KS
            m = max_dist(a, b).closure()
            for t in (0.5, 1.5, 3.0):
                assert abs(m.cdf(t) - classic_cdf(a, t) * classic_cdf(b, t)) < 1e-8
            assert self._ks(np.maximum(sa, sb), m) < ks_limit
            # --- minimum
            mn = min_dist(a, b).closure()
            for t in (0.5, 1.5, 3.0):
                ref = 1.0 - (1.0 - classic_cdf(a, t)) * (1.0 - classic_cdf(b, t))
                assert abs(mn.cdf(t) - ref) < 1e-8
            assert self._ks(np.minimum(sa, sb), mn) < ks_limit
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s"
        report(2, f"closure suite over 3 channel pairs ({elapsed:.1f}s)")

    @staticmethod
    def _ks(samples, dist):
        ts, F = dist.cdf_grid(1 << 14)
        s = np.sort(samples)
        Fs = np.interp(s, ts, F)
        n = s.size
        hi = np.max(np.abs(Fs - np.arange(1, n + 1) / n))
        lo = np.max(np.abs(Fs - np.arange(0, n) / n))
        return max(hi, lo)

    def test_criterion_3_metric_golden_values(self):
        ray = exponential(1.0)
        th = math.e - 1.0
        checks = []
        checks.append(("outage", metrics.outage(ray, th).value,
                       1.0 - math.exp(1.0 - math.e), 1e-9))
        checks.append(("arq", metrics.arq_throughput(ray, 1.0, th).value,
                       math.exp(1.0 - math.e), 1e-9))
        # truncated HARQ from hand-computed Erlang cdfs
        F1 = 1.0 - math.exp(-th)
        F2 = 1.0 - math.exp(-th) * (1.0 + th)
        checks.append(("harq K=2",
                       metrics.harq_truncated_throughput(ray, 1.0, 2, th).value,
                       (1.0 - F2) / (1.0 + F1), 1e-9))
        checks.append(("harq K=2 stated", metrics.harq_truncated_throughput(
            ray, 1.0, 2, th).value, 0.267814, 1e-6))
        checks.append(("persistent", metrics.harq_persistent_throughput(
            RationalLT([1.0], [1.0]), 1.0, th).value, 1.0 / math.e, 1e-9))
        checks.append(("dbpsk", metrics.ber_noncoherent(ray, 1.0).value,
                       0.25, 1e-9))
        checks.append(("bpsk", metrics.ber_coherent(ray, 1.0).value,
                       0.5 * (1.0 - math.sqrt(0.5)), 1e-9))
        checks.append(("eff capacity", metrics.eff_capacity_me_rate(ray, 1.0).value,
                       math.log(2.0), 1e-9))
        scn = InterferenceScenario(signal=ray, interferers=(ray,))
        checks.append(("interference", arq_interference_throughput(scn, 1.0).value,
                       math.exp(-math.e), 1e-9))
        links = {k: ray for k in ("13", "32", "23", "31")}
        checks.append(("ncbr", metrics.ncbr_throughput(links, 1.0, 1.0).value,
                       2.0 * math.exp(2.0 * (1.0 - math.e)) / 3.0, 1e-9))
        checks.append(("ncbr stated", metrics.ncbr_throughput(
            links, 1.0, 1.0).value, 0.021450, 1e-6))
        for name, got, want, tol in checks:
            assert abs(got - want) < tol, f"{name}: {got} vs {want}"
        report(3, f"{len(checks)} closed-form golden values")

    def test_criterion_4_multi_path_agreement(self, rng):
        start = time.monotonic()
        # ARQ: augmented row vs the classic cdf
        for _ in range(20):
            d = random_valid_dist(rng)
            R, th = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0))
            assert abs(metrics.arq_throughput(d, R, th).value
                       - R * (1.0 - classic_cdf(d, th))) < 1e-8
        # truncated HARQ at K = 1 vs ARQ
        for _ in range(20):
            d = random_valid_dist(rng)
            R, th = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 3.0))
            assert abs(metrics.harq_truncated_throughput(d, R, 1, th).value
                       - metrics.arq_throughput(d, R, th).value) < 1e-8
        # persistent HARQ: companion vs roots-of-unity vs shifted form
        for k in range(20):
            if k % 2 == 0:
                lt = to_rational_lt(exponential(float(rng.uniform(0.4, 2.0))))
            else:
                lt = to_rational_lt(erlang(2, mean=float(rng.uniform(0.5, 2.0))))
            N = int(rng.integers(2, 4))
            th = float(rng.uniform(0.2, 2.5))
            a = metrics.harq_persistent_throughput(lt, 1.0, th, diversity=N,
                                                   method="companion").value
            b = metrics.harq_persistent_throughput(lt, 1.0, th, diversity=N,
                                                   method="roots_of_unity").value
            assert abs(a - b) < 1e-8
        for N in (1, 2, 3):
            for th in (0.3, 1.0, 2.2):
                a = metrics.harq_persistent_throughput(
                    RationalLT([1.0], [1.0]), 1.0, th, diversity=N).value
                b = harq_persistent_erlang_shifted(N, 1.0, th)
                assert abs(a - b) < 1e-8
        # Shannon effective capacity: quadrature vs mpmath on the closed-form
        # selection-diversity density
        for _ in range(20):
            N, S = int(rng.integers(2, 5)), float(rng.uniform(0.5, 2.0))
            th = float(rng.uniform(0.05, 0.95))
            assert abs(metrics.eff_capacity_shannon(sdc(N, S), th).value
                       - sdc_eff_capacity_mpmath(N, S, th)) < 1e-12
        # interference: Kronecker vs Sylvester vs QUADPACK over the
        # interferer density against the signal's survival function
        for _ in range(20):
            sig = random_valid_dist(rng, allow_oscillatory=False)
            intf = random_valid_dist(rng, allow_oscillatory=False)
            scn = InterferenceScenario(signal=sig, interferers=(intf,))
            R = float(rng.uniform(0.3, 1.5))
            th = math.expm1(R)
            P, _ = quadpack(lambda zi: classic_pdf(intf, zi)
                            * (1.0 - classic_cdf(sig, th * (1.0 + zi))),
                            0.0, np.inf)
            vals = [arq_interference_throughput(scn, R, path=p).value
                    for p in ("kron", "sylvester")] + [R * P]
            assert max(vals) - min(vals) < 1e-8
        # product-density integrals: Sylvester vs QUADPACK on (0, b) and vs
        # the Kronecker-sum solve on (0, inf)
        for _ in range(20):
            d1 = random_valid_dist(rng)
            d2 = random_valid_dist(rng)
            X12 = np.outer(d1.z, d2.x)
            b = float(rng.uniform(0.5, 4.0))
            s_fin, _ = integral_sylvester(0.0, b, d1.x, d1.Y, X12, d2.Y, d2.z)
            q_fin, _ = quadpack(lambda t: classic_pdf(d1, t) * classic_pdf(d2, t),
                                0.0, b)
            assert abs(s_fin - q_fin) < 1e-8
            s_inf, _ = integral_sylvester(0.0, math.inf, d1.x, d1.Y, X12,
                                          d2.Y, d2.z)
            assert abs(s_inf - product_integral_ref(d1, d2)) < 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s"
        report(4, f"six families x 20 instances against independent references "
               f"({elapsed:.1f}s)")

    def test_criterion_5_monte_carlo_cross_validation(self):
        start = time.monotonic()
        ray = exponential(1.0)
        th = math.e - 1.0
        cfg = oracle.RngConfig(seed=42, n=10 ** 6)
        modes = []
        modes.append(("outage", {"dist": ray, "theta": th},
                      metrics.outage(ray, th).value))
        modes.append(("arq", {"dist": ray, "R": 1.0, "theta": th},
                      metrics.arq_throughput(ray, 1.0, th).value))
        modes.append(("harq_truncated",
                      {"dist": ray, "R": 1.0, "theta": th, "K": 2},
                      metrics.harq_truncated_throughput(ray, 1.0, 2, th).value))
        modes.append(("harq_persistent", {"dist": ray, "R": 1.0, "theta": th},
                      1.0 / math.e))
        links = {k: ray for k in ("13", "32", "23", "31")}
        modes.append(("ncbr", {"links": links, "R12": 1.0, "R21": 1.0},
                      metrics.ncbr_throughput(links, 1.0, 1.0).value))
        modes.append(("arq_interference",
                      {"signal": ray, "interferers": [ray], "R": 1.0},
                      math.exp(-math.e)))
        modes.append(("ber", {"dist": ray, "a": 1.0,
                              "detection": "noncoherent"}, 0.25))
        modes.append(("ber", {"dist": ray, "a": 1.0, "detection": "coherent"},
                      metrics.ber_coherent(ray, 1.0).value))
        # an inverse-cdf-sampled channel as well
        e2 = example2()
        modes.append(("outage", {"dist": e2, "theta": 1.0},
                      metrics.outage(e2, 1.0).value))
        zs = []
        for kind, scenario, closed in modes:
            est = oracle.mc_metric(kind, scenario, cfg)
            z = est.z_score(closed)
            zs.append(abs(z))
            assert abs(z) < 4.0, f"{kind}: z = {z:.2f}"
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s"
        report(5, f"{len(modes)} Monte Carlo modes, max |z| = {max(zs):.2f} "
                  f"({elapsed:.1f}s)")

    def test_criterion_6_diversity_gain(self):
        from mekit.algebra import standard_channel
        from mekit.medist import ChannelSpec
        cases = [(exponential(1.0), 1), (nakagami(2), 2)]
        ostbc = standard_channel(ChannelSpec(
            "ostbc_mrc", {"N_tx": 2, "N_rx": 2, "R_stc": 1.0, "S": 1.0}))
        cases.append((ostbc.dist.to_unit_mean(), 4))
        for d, want in cases:
            assert metrics.diversity_gain(d) == want
            slope = metrics.diversity_gain_numeric(d)
            assert abs(slope - want) < 0.05, f"slope {slope} vs {want}"
        report(6, "log-log BER slopes match transform degrees 1, 2, 4")

    def test_criterion_7_optimization(self):
        ray = exponential(1.0)
        rows = metrics.optimize_rate("arq", ray, np.linspace(0.1, 0.9, 9))
        for r in rows:
            assert not r.boundary

            def T(R, S):
                return metrics.arq_throughput(
                    ray, R, metrics.theta_unit_mean(R, S)).value

            h = 1e-5 * max(r.R_opt, 1.0)
            dT = (T(r.R_opt + h, r.S) - T(r.R_opt - h, r.S)) / (2.0 * h)
            assert abs(dT) < 1e-4 * r.T_opt
            assert rate_optimum_error(r.g, r.R_opt) <= 1.0
        report(7, "parametric optima stationary; R* within max(4, 1/(g - 1)) "
                  "eps of mpmath")

    def test_criterion_8_bivariate(self):
        w = wishart2x2_bivme()
        worst = 0.0
        for z1 in np.linspace(0.0, 6.0, 16):
            for z2 in np.linspace(0.0, 7.0, 16):
                if z1 > z2:
                    continue
                expect = math.exp(-z1 - z2) * (z1 - z2) ** 2
                worst = max(worst, abs(w.pdf(float(z1), float(z2)) - expect))
        assert worst < 1e-10
        got = sm_mimo_2x2_outage(1.0).value
        ref = wishart_region_outage_quad(1.0)
        assert abs(got - ref) < 1e-6
        report(8, f"Wishart grid {worst:.1e}; spatial-multiplexing outage "
                  f"vs region quadrature {abs(got - ref):.1e}")

    def test_criterion_9_information_quantization(self):
        # gamma entropy, shape 2 scale 1: 1 + Euler-Mascheroni
        h = entropy_numeric(erlang(2, mean=2.0))
        assert abs(h - (1.0 + EULER_GAMMA)) < 1e-6
        # two-level quantizer vs brute-force grid search
        from test_infoq import grid_search_two_level
        res = lloyd_max(exponential(1.0), 2)
        l, u0, u1, mse = grid_search_two_level(exponential(1.0))
        assert abs(res.thresholds[0] - l) < 1e-4
        assert abs(res.centroids[0] - u0) < 1e-4
        assert abs(res.centroids[1] - u1) < 1e-4
        # generalized densities: normalization and moments by quadrature
        d = erlang(2, mean=1.0)
        t1 = Type1Dist(d.x, d.Y, d.z)
        L = math.sqrt(3.0 * d.t_max())
        mass, _ = quadpack(t1.pdf, -L, L, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7
        ref, _ = quadpack(lambda t: t * t * t1.pdf(t), -L, L, tol=1e-12)
        assert abs(t1.moment(2) - ref) < 1e-7
        t2 = Type2Dist(d.x, d.Y, d.z)
        mass, _ = quadpack(t2.marginal_pdf, -L, L, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7
        ref, _ = quadpack(lambda u: u * u * t2.marginal_pdf(u), -L, L,
                          tol=1e-12)
        assert abs(t2.moment(2, 0) - ref) < 1e-7
        t3 = Type3Dist(d.x, d.Y, d.z)
        mass, _ = quadpack(t3.pdf, 0.0, L, tol=1e-12)
        assert abs(mass - 1.0) < 1e-7
        ref, _ = quadpack(lambda t: t * t * t3.pdf(t), 0.0, L, tol=1e-12)
        assert abs(t3.moment(2) - ref) < 1e-7
        report(9, "entropy, quantizer and generalized-density checks")
