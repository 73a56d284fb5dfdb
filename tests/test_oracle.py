import math
import warnings

import numpy as np
import pytest
import scipy.special
from numpy.testing import assert_allclose

from mekit import (ChannelSpec, RationalLT, erlang, exponential,
                   from_rational_lt, metrics, oracle, standard_channel)
from mekit.algebra import convolve, max_dist
from mekit.medist import MEDist
from mekit.oracle import (RngConfig, mc_metric, sample, _inverse_cdf_grid,
                          _partial_sum_transmissions, _recognize_erlang)
from conftest import (classic_cdf, example2, example2_pdf, nakagami,
                      numeric_convolve, pdf_on_grid, run_fresh, sdc,
                      wishart_region_outage_quad)

RAY = exponential(1.0)


def ks_statistic(samples, cdf_grid_fn, n_grid=1 << 14):
    """Kolmogorov-Smirnov statistic of samples against a model cdf, with
    the model evaluated on a fine grid and interpolated."""
    ts, F = cdf_grid_fn(n_grid)
    s = np.sort(samples)
    Fs = np.interp(s, ts, F)
    n = s.size
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(Fs - emp_hi)), np.max(np.abs(Fs - emp_lo))))


def defective():
    """E(mean 1) + Erlang-2(mean 1): eigenvalues {-1, -2, -2}, a Jordan
    block, so neither a pure gamma nor diagonalizable."""
    return convolve(exponential(1.0), erlang(2, mean=1.0))


def _defective_cdf(t):
    # Exp(1) + Gamma(2, 2) by convolving the densities
    return 1.0 - 4.0 * np.exp(-t) + np.exp(-2.0 * t) * (3.0 + 2.0 * t)


def stiff_mrc():
    """MRC of Nakagami-2 with mean 0.02 and Rayleigh with mean 100: a
    defective generator whose rates differ by 10^4."""
    parts = [{"kind": "nakagami", "params": {"m": 2, "S": 0.02}},
             {"kind": "rayleigh", "params": {"S": 100.0}}]
    return standard_channel(ChannelSpec("mrc_list", {"components": parts})).dist


def cos40():
    """Density (1601/1600)(1 - cos 40t) e^{-t}: transform
    1601 / ((s + 1)(s^2 + 2s + 1601))."""
    return from_rational_lt(RationalLT(p=[1601.0], q=[1601.0, 1603.0, 3.0]))


def _stiff_mrc_cdf(t, lam=100.0, mu=0.01):
    # Gamma(2, lam) + Exp(mu): F_Y(t) - e^{-mu t} int_0^t lam^2 y e^{-(lam-mu) y} dy
    a = lam - mu
    return (-np.expm1(-lam * t) - lam * t * np.exp(-lam * t)
            - np.exp(-mu * t) * (lam / a) ** 2
            * (-np.expm1(-a * t) - a * t * np.exp(-a * t)))


# (channel, independent closed-form cdf) for the inverse-cdf residuals.
# The first three ids are kept from the cdf surrogates these channels
# once took: real_spectral is diagonalizable with real eigenvalues,
# complex_spectral has complex ones and pchip is defective.
CHANNELS = {
    "real_spectral": (lambda: sdc(4), lambda t: (-np.expm1(-t)) ** 4),
    "complex_spectral": (
        example2, lambda t: 1.0 - 50.0 / 49.0 * np.exp(-t)
        * (1.0 - (np.cos(7.0 * t) - 7.0 * np.sin(7.0 * t)) / 50.0)),
    "pchip": (defective, _defective_cdf),
    "sdc16_S1": (lambda: sdc(16, 1.0), lambda t: (-np.expm1(-t)) ** 16),
    "sdc16_S0.1": (lambda: sdc(16, 0.1), lambda t: (-np.expm1(-t / 0.1)) ** 16),
    "stiff_mrc": (stiff_mrc, _stiff_mrc_cdf),
    "cos40": (cos40, lambda t: 1.0 - 1601.0 / 1600.0 * np.exp(-t)
              * (1.0 - (np.cos(40.0 * t) - 40.0 * np.sin(40.0 * t)) / 1601.0)),
    # order 80: the max closure of two Erlang-8 with mean 1
    "max_erlang8": (lambda: max_dist(erlang(8), erlang(8)).closure(),
                    lambda t: scipy.special.gammainc(8, 8.0 * t) ** 2),
}


class TestRngConfig:
    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            RngConfig(seed=1, n=0)

    def test_repeatable_streams(self):
        cfg = RngConfig(seed=42, n=1000)
        assert_allclose(sample(RAY, cfg), sample(RAY, cfg))

    def test_workers_give_distinct_streams(self):
        cfg = RngConfig(seed=42, n=1000)
        a = sample(RAY, cfg, worker=0)
        b = sample(RAY, cfg, worker=1)
        assert not np.allclose(a, b)


class TestSample:
    def test_exponential_recognized_and_unbiased(self):
        assert _recognize_erlang(RAY) == 1.0
        cfg = RngConfig(seed=3, n=10 ** 6)
        s = sample(RAY, cfg)
        assert abs(s.mean() - 1.0) < 3.0 / math.sqrt(cfg.n)

    def test_exponential_draw_is_the_exponential_stream(self):
        # the exponential goes through rng.gamma(shape=1), which numpy
        # draws bit for bit as rng.exponential
        cfg = RngConfig(seed=8, n=10_000)
        ref = cfg.generator().exponential(scale=2.0, size=cfg.n)
        assert np.array_equal(sample(exponential(2.0), cfg), ref)

    def test_gamma_recognized(self):
        d = nakagami(3)
        assert _recognize_erlang(d) == pytest.approx(3.0)
        cfg = RngConfig(seed=4, n=200_000)
        s = sample(d, cfg)
        assert abs(s.mean() - 1.0) < 4.0 * math.sqrt(1.0 / 3.0 / cfg.n)

    def test_gamma_direct_sampler_ks(self):
        d = nakagami(3)
        cfg = RngConfig(seed=9, n=200_000)
        ks = ks_statistic(sample(d, cfg), d.cdf_grid)
        assert ks < 1.63 / math.sqrt(cfg.n)

    def test_oscillatory_inverse_cdf_ks(self):
        d = example2()
        cfg = RngConfig(seed=5, n=200_000)
        s = sample(d, cfg)
        ks = ks_statistic(s, d.cdf_grid)
        assert ks < 1.63 / math.sqrt(cfg.n)

    def test_defective_generator_interpolated_path(self):
        d = defective()
        cfg = RngConfig(seed=6, n=100_000)
        s = sample(d, cfg)
        ks = ks_statistic(s, d.cdf_grid)
        assert ks < 1.63 / math.sqrt(cfg.n)

    def test_invalid_density_rejected(self):
        bad = MEDist([1.0, 1.0], [[-1.0, 1.0], [0.0, -2.0]], [1.0, -1.0])
        with pytest.raises(ValueError):
            sample(bad, RngConfig(seed=1, n=100))
        with pytest.raises(ValueError):
            _inverse_cdf_grid(bad, np.linspace(0.01, 0.99, 50))


class TestInverseCdf:
    @pytest.mark.parametrize("name", list(CHANNELS))
    def test_residual(self, name):
        make, cdf = CHANNELS[name]
        d = make()
        # random probabilities plus both tails, where F or 1 - F is tiny
        u = np.concatenate([np.random.default_rng(11).random(100_000),
                            np.geomspace(1e-12, 1e-2, 200),
                            1.0 - np.geomspace(1e-11, 1e-2, 200)])
        t = _inverse_cdf_grid(d, u)
        assert np.max(np.abs(cdf(t) - u)) <= 1e-10
        # against the scipy-expm cdf too, independent of the closed form
        exact = np.array([classic_cdf(d, x) for x in t[:300]])
        assert np.max(np.abs(exact - u[:300])) <= 1e-10

    def test_residual_800k_probabilities(self):
        # about a hundred Newton blocks (2^13 of the sorted probabilities
        # each), as in one transmission round of a HARQ simulation of
        # 8 * 10^5 packets; the check covers every probability, on both
        # sides of each block boundary
        u = np.random.default_rng(12).random(800_000)
        t = _inverse_cdf_grid(sdc(4), u)
        assert np.max(np.abs((-np.expm1(-t)) ** 4 - u)) <= 1e-10

    def test_roots_at_density_zeros(self):
        # (1 + 1/49)(1 - cos 7t) e^{-t} vanishes at t_k = 2 pi k / 7, where
        # F(t_k) = 1 - e^{-t_k}; the density there is zero, so Newton has
        # no slope and bisection takes over
        d = example2()
        tk = 2.0 * np.pi * np.arange(1, 8) / 7.0
        p = -np.expm1(-tk)
        assert np.max(example2_pdf(tk)) < 1e-15
        t = _inverse_cdf_grid(d, p)
        exact = np.array([classic_cdf(d, x) for x in t])
        assert np.max(np.abs(exact - p)) <= 1e-10
        # F - p grows like (t - t_k)^3 there, so 1e-11 in F is ~1e-3 in t
        assert np.max(np.abs(t - tk)) < 2e-3

    def test_defective_draws_solved_to_tolerance(self):
        # sample() on the defective generator returns the quantiles of its
        # own uniform stream, each within 1e-10 of the closed-form cdf
        cfg = RngConfig(seed=13, n=100_000)
        t = sample(defective(), cfg)
        u = cfg.generator().random(cfg.n)
        assert np.max(np.abs(_defective_cdf(t) - u)) <= 1e-10

    @pytest.mark.parametrize("name", ["real_spectral", "complex_spectral", "pchip"])
    def test_probabilities_clipped_to_the_table(self, name):
        # below F(0) the quantile is 0; at and above F(T) it is the
        # quantile of F(T) - 1e-12, near the horizon T
        d = CHANNELS[name][0]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = _inverse_cdf_grid(d, np.array([-0.5, -1e-3, 1.0, 1.5, 2.0]))
        assert t[0] == t[1] == 0.0
        assert t[2] == t[3] == t[4]
        assert 1.0 - 1e-9 <= classic_cdf(d, t[2]) <= 1.0 + 1e-12
        assert t[2] > d.t_max() / 2


def test_inverse_sampling_leaves_scipy_optimize_unloaded():
    """The inverse-cdf sampler solves with its own Newton iteration on its
    own table, so first inverted draws in a fresh process, on a
    diagonalizable and on a defective generator, import no scipy module."""
    code = ("import sys; from mekit import ChannelSpec, convolve, erlang, "
            "exponential, oracle, standard_channel; "
            "d = standard_channel(ChannelSpec('sdc', {'N': 4, 'S': 1.0})).dist; "
            "e = convolve(exponential(1.0), erlang(2, mean=1.0)); "
            "assert oracle._recognize_erlang(d) is None; "
            "assert oracle._recognize_erlang(e) is None; "
            "oracle.sample(d, oracle.RngConfig(seed=1, n=1000)); "
            "oracle.sample(e, oracle.RngConfig(seed=1, n=1000)); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


class TestMcMetric:
    CFG = RngConfig(seed=42, n=200_000)

    def test_outage(self):
        est = mc_metric("outage", {"dist": RAY, "theta": math.e - 1.0}, self.CFG)
        closed = metrics.outage(RAY, math.e - 1.0).value
        assert abs(est.z_score(closed)) < 4.0

    def test_arq(self):
        est = mc_metric("arq", {"dist": RAY, "R": 1.0,
                                "theta": math.e - 1.0}, self.CFG)
        closed = metrics.arq_throughput(RAY, 1.0, math.e - 1.0).value
        assert abs(est.z_score(closed)) < 4.0

    def test_harq_truncated(self):
        est = mc_metric("harq_truncated",
                        {"dist": RAY, "R": 1.0, "theta": math.e - 1.0,
                         "K": 2}, self.CFG)
        closed = metrics.harq_truncated_throughput(RAY, 1.0, 2,
                                                   math.e - 1.0).value
        assert abs(est.z_score(closed)) < 4.0

    def test_harq_persistent(self):
        est = mc_metric("harq_persistent",
                        {"dist": RAY, "R": 1.0, "theta": math.e - 1.0},
                        self.CFG)
        assert abs(est.z_score(1.0 / math.e)) < 4.0

    def test_ncbr(self):
        links = {k: RAY for k in ("13", "32", "23", "31")}
        est = mc_metric("ncbr", {"links": links, "R12": 1.0, "R21": 1.0},
                        self.CFG)
        closed = metrics.ncbr_throughput(links, 1.0, 1.0).value
        assert abs(est.z_score(closed)) < 4.0

    def test_arq_interference(self):
        from mekit.bivariate import InterferenceScenario, \
            arq_interference_throughput
        scn = InterferenceScenario(signal=RAY, interferers=(RAY,))
        est = mc_metric("arq_interference",
                        {"signal": RAY, "interferers": [RAY], "R": 1.0},
                        self.CFG)
        assert abs(est.z_score(arq_interference_throughput(scn, 1.0).value)) < 4.0

    def test_ber_noncoherent(self):
        est = mc_metric("ber", {"dist": RAY, "a": 1.0,
                                "detection": "noncoherent"}, self.CFG)
        assert abs(est.z_score(0.25)) < 4.0

    def test_ber_coherent(self):
        est = mc_metric("ber", {"dist": RAY, "a": 1.0,
                                "detection": "coherent"}, self.CFG)
        closed = metrics.ber_coherent(RAY, 1.0).value
        assert abs(est.z_score(closed)) < 4.0

    def test_harq_on_inverse_cdf_channel(self):
        # exercises renewal accumulation with the root-finding sampler
        d = example2()
        th = 1.3
        cfg = RngConfig(seed=77, n=50_000)
        from mekit import to_rational_lt
        closed = metrics.harq_persistent_throughput(
            to_rational_lt(d), 1.0, th).value
        est = mc_metric("harq_persistent",
                        {"dist": d, "R": 1.0, "theta": th}, cfg)
        assert abs(est.z_score(closed)) < 4.0
        closed = metrics.harq_truncated_throughput(d, 1.0, 3, th).value
        est = mc_metric("harq_truncated",
                        {"dist": d, "R": 1.0, "theta": th, "K": 3}, cfg)
        assert abs(est.z_score(closed)) < 4.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mc_metric("pep", {}, self.CFG)

    @pytest.mark.parametrize("kind, arg, extra", [
        ("outage", "theta", {}),
        ("arq", "theta", {"R": 1.0}),
        ("arq", "R", {"theta": 1.0}),
        ("harq_truncated", "theta", {"R": 1.0, "K": 2}),
        ("harq_truncated", "R", {"theta": 1.0, "K": 2}),
        ("harq_persistent", "theta", {"R": 1.0}),
        ("harq_persistent", "R", {"theta": 1.0}),
        ("ber", "a", {}),
    ])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_scalars_refused_by_name(self, kind, arg, extra, value):
        # an outage at theta = NaN or -1 used to estimate 0.0, and an ARQ
        # at R = NaN to return NaN, with no error
        scn = {"dist": RAY, arg: value, **extra}
        with pytest.raises(ValueError, match=rf"^{arg}\b"):
            mc_metric(kind, scn, RngConfig(seed=1, n=100))

    @pytest.mark.parametrize("scn, arg", [
        ({"R12": math.nan, "R21": 1.0}, "R12"),
        ({"R12": 1.0, "R21": -1.0}, "R21"),
    ])
    def test_ncbr_rates_refused_by_name(self, scn, arg):
        links = {k: RAY for k in ("13", "32", "23", "31")}
        with pytest.raises(ValueError, match=rf"^{arg}\b"):
            mc_metric("ncbr", {"links": links, **scn},
                      RngConfig(seed=1, n=100))

    @pytest.mark.parametrize("scn, arg", [
        ({"R": math.nan}, "R"), ({"R": 1.0, "theta": -1.0}, "theta")])
    def test_arq_interference_scalars_refused_by_name(self, scn, arg):
        with pytest.raises(ValueError, match=rf"^{arg}\b"):
            mc_metric("arq_interference",
                      {"signal": RAY, "interferers": [RAY], **scn},
                      RngConfig(seed=1, n=100))

    def test_arq_interference_theta_zero_as_the_closed_form(self):
        # theta = 0 is in the scenario's domain: every packet decodes
        from mekit.bivariate import (InterferenceScenario,
                                     arq_interference_throughput)
        scn = InterferenceScenario(signal=RAY, interferers=(RAY,), theta=0.0)
        assert arq_interference_throughput(scn, 1.5).value == 1.5
        est = mc_metric("arq_interference", {"signal": RAY, "interferers":
                                             [RAY], "R": 1.5, "theta": 0.0},
                        RngConfig(seed=1, n=100))
        assert est.value == 1.5

    @pytest.mark.parametrize("K", [0, -1, 2.5])
    def test_harq_truncated_refuses_non_integer_K(self, K):
        scn = {"dist": RAY, "R": 1.0, "theta": math.e - 1.0, "K": K}
        with pytest.raises(ValueError, match="K"):
            mc_metric("harq_truncated", scn, RngConfig(seed=1, n=100))


class TestTransmissions:
    """The transmission count of the HARQ simulation against its law,
    apart from the closed forms: for Erlang-d SNRs with rate lam, the
    running sum first exceeds theta at N = floor(M / d) + 1 with
    M ~ Poisson(lam theta), the number of events of the underlying
    Poisson process in [0, theta]."""

    N = 200_000

    @staticmethod
    def _law(d, lam, theta, k):
        # P(N = k) = P((k - 1) d <= M < k d)
        mu = lam * theta
        return sum(math.exp(-mu) * mu ** m / math.factorial(m)
                   for m in range((k - 1) * d, k * d))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("K", [math.inf, 3])
    def test_pmf_of_transmissions(self, d, K):
        lam, theta = float(d), 2.0
        cfg = RngConfig(seed=20 + d, n=self.N)
        tx, success = _partial_sum_transmissions(erlang(d, mean=1.0), theta,
                                                 K, cfg)
        law = [self._law(d, lam, theta, k) for k in range(1, 7)]
        if K == 3:
            p = sum(law[:3])
            se = math.sqrt(p * (1.0 - p) / self.N)
            assert abs(np.mean(success) - p) < 4.0 * se
            # transmissions stop at K whether or not the packet got through
            law = law[:2] + [1.0 - sum(law[:2]), 0.0, 0.0, 0.0]
        else:
            assert success.all()
        for k, p in enumerate(law, start=1):
            got = np.mean(tx == k)
            if p == 0.0:
                assert got == 0.0
            else:
                assert abs(got - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.N), k

    @pytest.mark.parametrize("kind, make, scenario", [
        # R = 4 takes ~26 transmissions per packet
        ("harq_persistent", lambda: sdc(4, 1.0),
         {"R": 4.0, "theta": math.expm1(4.0)}),
        ("harq_truncated", example2, {"R": 1.0, "theta": 1.3, "K": 3}),
    ])
    def test_table_built_once(self, monkeypatch, kind, make, scenario):
        builds = []
        table = oracle._cdf_table
        monkeypatch.setattr(oracle, "_cdf_table",
                            lambda d: builds.append(d) or table(d))
        mc_metric(kind, {"dist": make(), **scenario},
                  RngConfig(seed=3, n=100_000))
        assert len(builds) == 1


class TestNumericConvolve:
    def test_erlang_values(self):
        ts = np.arange(0.0, 10.0, 1e-3)
        c = numeric_convolve(RAY, RAY, ts)
        assert np.max(np.abs(c - ts * np.exp(-ts))) < 1e-5

    def test_matches_closure_on_grid(self):
        a, b = example2(), nakagami(2)
        ts = np.arange(0.0, 10.0, 1e-3)
        closed = pdf_on_grid(convolve(a, b), ts)
        assert np.max(np.abs(numeric_convolve(a, b, ts) - closed)) < 1e-5

    def test_near_delta_is_identity(self):
        # adding an almost-deterministic tiny variable barely moves the pdf
        a = example2()
        c = convolve(a, exponential(1e-6))
        for t in (0.5, 1.0, 2.0, 4.0):
            assert abs(c.pdf(t) - a.pdf(t)) < 1e-3

    def test_symmetry(self):
        ts = np.arange(0.0, 8.0, 1e-3)
        a, b = exponential(0.7), nakagami(2)
        assert_allclose(numeric_convolve(a, b, ts),
                        numeric_convolve(b, a, ts), atol=1e-12)

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            pdf_on_grid(RAY, np.array([0.0, 0.1, 0.3]))


class TestRegionQuad:
    def test_wishart_region_value(self):
        # frozen from two independent evaluations of the 2-D quadrature
        assert abs(wishart_region_outage_quad(1.0) - 0.0678207557439) < 1e-10

    def test_small_rate_vanishes(self):
        assert wishart_region_outage_quad(1e-6) < 1e-12
