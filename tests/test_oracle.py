import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mekit import erlang, exponential, metrics
from mekit.algebra import convolve
from mekit.medist import MEDist
from mekit.oracle import (RngConfig, mc_metric, numeric_convolve,
                          pdf_on_grid, sample, wishart_region_outage_quad,
                          _inverse_cdf_grid, _pchip_cdf, _recognize_erlang,
                          _recognize_exponential, _spectral_cdf)
from conftest import example2, nakagami, sdc

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
        assert _recognize_exponential(RAY) == 1.0
        cfg = RngConfig(seed=3, n=10 ** 6)
        s = sample(RAY, cfg)
        assert abs(s.mean() - 1.0) < 3.0 / math.sqrt(cfg.n)

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
        # eigenvalues {-1, -2, -2} with a Jordan block: neither a pure
        # gamma nor spectrally invertible
        d = convolve(exponential(1.0), erlang(2, mean=1.0))
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
    # (distribution, spectral path expected, eigenvalues complex)
    PATHS = {
        "real_spectral": (lambda: sdc(4), True, False),
        "complex_spectral": (example2, True, True),
        "pchip": (lambda: convolve(exponential(1.0), erlang(2, mean=1.0)),
                  False, False),
    }

    @pytest.mark.parametrize("path", list(PATHS))
    def test_residual(self, path):
        make, spectral, complex_eigs = self.PATHS[path]
        d = make()
        cdf = _spectral_cdf(d)
        assert (cdf is not None) == spectral
        lam = np.linalg.eigvals(d.Y)
        assert bool(np.any(np.abs(lam.imag) > 1e-9)) == complex_eigs
        u = np.random.default_rng(11).random(100_000)
        t = _inverse_cdf_grid(d, u)
        cdf = cdf or _pchip_cdf(d)
        assert np.max(np.abs(cdf(t) - u)) <= 1e-10
        # against the closed-form cdf, independent of the surrogate
        exact = np.array([d.cdf(x) for x in t[:300]])
        assert np.max(np.abs(exact - u[:300])) <= 1e-10

    def test_residual_800k_probabilities(self):
        # more probabilities than one root-finding chunk, as in a
        # persistent-HARQ simulation
        d = sdc(4)
        u = np.random.default_rng(12).random(800_000)
        t = _inverse_cdf_grid(d, u)
        assert np.max(np.abs(_spectral_cdf(d)(t) - u)) <= 1e-10


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
