import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mekit.algebra import standard_channel
from mekit.medist import (ChannelSpec, ConstructionError, MEDist,
                          PointMassAtZeroError, RationalLT, erlang,
                          exponential, from_product_form, from_rational_lt,
                          to_rational_lt)
from conftest import (classic_cdf, example2, example2_pdf, quadpack,
                      random_valid_dist)


class TestConstructors:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda m: exponential(m), id="exponential"),
        pytest.param(lambda m: erlang(3, m), id="erlang")])
    @pytest.mark.parametrize("mean", [math.inf, math.nan, 0.0, -1.0])
    def test_mean_outside_the_domain_refused_by_name(self, make, mean):
        # an infinite mean used to build the zero generator
        with pytest.raises(ConstructionError, match="^mean"):
            make(mean)


class TestFromRationalLT:
    def test_exponential_triple(self):
        d = from_rational_lt(RationalLT(p=[0.5], q=[0.5]))  # mean 2
        assert d.d == 1
        assert_allclose(d.x, [0.5])
        assert_allclose(d.Y, [[-0.5]])
        assert_allclose(d.z, [1.0])

    def test_oscillatory_density_values(self):
        d = example2()
        assert d.d == 3
        t = np.pi / 7.0
        assert abs(d.pdf(t) - example2_pdf(t)) < 1e-10
        assert abs(d.pdf(t) - 1.3028457850328554) < 1e-10

    def test_oscillatory_density_zero_at_origin(self):
        assert abs(example2().pdf(0.0)) < 1e-12

    def test_transform_reproduced(self, rng):
        lt = RationalLT(p=[50.0], q=[50.0, 52.0, 3.0])
        d = from_rational_lt(lt)
        for _ in range(10):
            s = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
            assert abs(d.lt(s) - lt(s)) < 1e-10

    def test_rejects_improper_transform(self):
        with pytest.raises(ConstructionError, match="degree"):
            from_rational_lt(RationalLT(p=[1.0, 2.0, 3.0], q=[1.0, 1.0]))

    def test_padded_numerator_is_proper(self):
        # 1/(s + 1) and (2 + s)/(s^2 + 3s + 2) with zeros past the numerator
        # degree: both constructors and both spec kinds read the trimmed p
        for p, q in (([1.0, 0.0], [1.0]), ([2.0, 1.0, 0.0, 0.0], [2.0, 3.0])):
            lt = RationalLT(p, q)
            assert lt.check() == [] and lt.num_degree() == len(q) - 1
            ref = from_rational_lt(RationalLT(lt.numerator, q))
            specs = (ChannelSpec("rational_lt", {"p": p, "q": q}),
                     ChannelSpec("product_form",
                                 {"factors": [{"p": p, "q": q}]}))
            for d in (from_rational_lt(lt), from_product_form([lt]),
                      *(standard_channel(s).dist for s in specs)):
                for u, v in ((d.x, ref.x), (d.Y, ref.Y), (d.z, ref.z)):
                    assert np.array_equal(u, v)

    def test_rejects_constant_term_mismatch(self):
        with pytest.raises(PointMassAtZeroError):
            from_rational_lt(RationalLT(p=[1.0], q=[2.0, 1.0]))


class TestFromProductForm:
    def test_two_unit_exponentials_is_erlang(self):
        d = from_product_form([RationalLT([1.0], [1.0])] * 2)
        assert abs(d.pdf(1.0) - math.exp(-1.0)) < 1e-12

    def test_gamma_transform_values(self):
        d = from_product_form([RationalLT([2.0], [2.0])] * 2)  # shape 2, mean 1
        for s in (0.0, 1.0, 2.0):
            assert abs(d.lt(s) - (1.0 / (1.0 + s / 2.0)) ** 2) < 1e-12

    def test_single_factor_matches_companion(self):
        lt = RationalLT(p=[50.0], q=[50.0, 52.0, 3.0])
        a = from_product_form([lt])
        b = from_rational_lt(lt)
        assert_allclose(a.x, b.x)
        assert_allclose(a.Y, b.Y)
        assert_allclose(a.z, b.z)

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ConstructionError, match="empty"):
            from_product_form([])

    @pytest.mark.parametrize("lt", [
        RationalLT([1.0, 0.0, 2.0, 0.0], [1.0, 1.0]),
        RationalLT([1.0, 2.0, 3.0], [1.0, 1.0])])
    def test_improper_factor_refused_as_by_from_rational_lt(self, lt):
        # a numerator of degree deg(q) or more, with and without a
        # trailing zero
        for build in (from_rational_lt, lambda f: from_product_form([f]),
                      lambda f: from_product_form([RationalLT([2.0], [2.0]),
                                                   f])):
            with pytest.raises(ConstructionError, match="degree"):
                build(lt)

    def test_transform_is_product_of_factors(self, rng):
        # the factors' own rational functions, evaluated as polynomials,
        # against the resolvent of the assembled triple
        for _ in range(20):
            fs = []
            for _ in range(rng.integers(1, 6)):
                q = rng.uniform(0.2, 3.0, rng.integers(1, 5))
                p = rng.uniform(-1.0, 2.0, rng.integers(1, len(q) + 1))
                p[0] = q[0]
                fs.append(RationalLT(p, q))
            d = from_product_form(fs)
            assert d.d == sum(f.degree for f in fs)
            for _ in range(5):
                s = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
                ref = math.prod(f(s) for f in fs)
                assert abs(d.lt(s) - ref) <= 1e-10 * max(1.0, abs(ref))


class TestEvaluation:
    def test_pdf_at_zero_exponential(self):
        assert abs(exponential(1.0).pdf(0.0) - 1.0) < 1e-14

    def test_pdf_rejects_negative_argument(self):
        with pytest.raises(ValueError, match="t >= 0"):
            exponential(1.0).pdf(-0.1)

    def test_erlang_pdf(self):
        assert abs(erlang(2, mean=2.0).pdf(1.0) - math.exp(-1.0)) < 1e-12

    def test_cdf_exponential_median(self):
        assert abs(exponential(1.0).cdf(math.log(2.0)) - 0.5) < 1e-12

    def test_cdf_zero_no_point_mass(self, rng):
        for _ in range(5):
            d = random_valid_dist(rng)
            assert abs(d.cdf(0.0)) < 1e-12

    def test_cdf_rayleigh_snr_value(self):
        d = exponential(1.0)
        t = math.e - 1.0
        assert abs(d.cdf(t) - (1.0 - math.exp(1.0 - math.e))) < 1e-12

    def test_cdf_paths_agree(self, rng):
        for _ in range(8):
            d = random_valid_dist(rng)
            t = float(rng.uniform(0.05, 4.0))
            assert abs(d.cdf(t) - classic_cdf(d, t)) < 1e-10

    def test_lt_exponential(self):
        assert abs(exponential(1.0).lt(1.0) - 0.5) < 1e-14

    def test_lt_selection_diversity(self):
        # max of two unit exponentials: transform 2/((1+s)(2+s))
        from conftest import sdc
        d = sdc(2)
        for s in (0.0, 0.7, 2.0):
            assert abs(d.lt(s) - 2.0 / ((1.0 + s) * (2.0 + s))) < 1e-12

    def test_lt_at_zero_is_one(self):
        assert abs(example2().lt(0.0) - 1.0) < 1e-12

    def test_lt_rejects_eigenvalue(self):
        with pytest.raises(np.linalg.LinAlgError):
            exponential(1.0).lt(-1.0)

    def test_moments_exponential(self):
        assert abs(exponential(3.0).moment(1) - 3.0) < 1e-12
        assert abs(exponential(1.0).moment(2) - 2.0) < 1e-12

    def test_moment_erlang_mean(self):
        assert abs(erlang(2, mean=2.0).moment(1) - 2.0) < 1e-12

    @pytest.mark.parametrize("S, k", [
        (S, k) for S in (1e-300, 1e-150, 1e-8, 1.0, 1e160, 1e300) for k in (1, 2)
        # where k! S^k is a normal double
        if -307.0 < math.log10(math.factorial(k)) + k * math.log10(S) < 308.0])
    def test_moment_exponential_over_the_range(self, S, k):
        # forming Y^{-(k+1)} gave mean 0.0 at S = 1e-300, inf at S = 1e160
        # and 1e300, and a second moment 0.0 at S = 1e-150
        ref = math.factorial(k) * S ** k
        assert abs(exponential(S).moment(k) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("S, k", [(1e-3, 171), (1e-2, 200), (1e-3, 300)])
    def test_moment_past_the_factorial_range(self, S, k):
        # k! overflows a double from k = 171 on, the moment need not: the
        # exact k!/rate^k, rate the rounded 1/S the channel holds
        ref = float(Fraction(math.factorial(k)) / Fraction(1.0 / S) ** k)
        assert abs(exponential(S).moment(k) - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("k", [171, 400])
    def test_moment_past_the_double_range_refused_by_name(self, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^k = {k}: the moment"):
                exponential(1.0).moment(k)

    def test_unit_mean_of_a_tiny_exponential(self):
        assert exponential(1e-300).to_unit_mean().mean == pytest.approx(
            1.0, rel=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_moment_erlang4_small_mean(self, k):
        # E Z^k = 4 (4 + 1) ... (4 + k - 1) / rate^k, rate 4e6
        ref = math.prod(range(4, 4 + k)) / 4e6 ** k
        assert abs(erlang(4, mean=1e-6).moment(k) - ref) <= 1e-14 * ref

    def test_moment_vs_quadrature(self, rng):
        for _ in range(3):
            d = random_valid_dist(rng)
            for k in (1, 2, 3):
                val, _ = quadpack(lambda t: t ** k * d.pdf(t),
                                  0.0, d.t_max())
                assert abs(d.moment(k) - val) < 1e-7 * max(1.0, abs(val))

    def test_array_pdf_and_lt_match_scalar_calls(self, rng):
        for _ in range(4):
            d = random_valid_dist(rng)
            ts = np.linspace(0.0, d.t_max(), 17)
            pv = d.pdf(ts)
            assert pv.shape == ts.shape
            assert_allclose(pv, [d.pdf(t) for t in ts], rtol=1e-14,
                            atol=1e-16)
            for s in (np.logspace(-3, 3, 9), np.array([0.5 + 2j, 3.0 - 1j])):
                lv = d.lt(s)
                assert lv.dtype == s.dtype
                assert_allclose(lv, [d.lt(x) for x in s], rtol=1e-14,
                                atol=1e-16)
        assert isinstance(d.pdf(1.0), float) and isinstance(d.lt(1.0), float)
        assert isinstance(d.lt(1.0 + 1j), complex)

    def test_grids_match_scalar_calls(self, rng):
        dists = [random_valid_dist(rng) for _ in range(3)] + [example2()]
        for d in dists:
            for n in (64, 4096):
                ts, F = d.cdf_grid(n)
                _, f = d.pdf_grid(n)
                for i in np.linspace(0, n - 1, 25).astype(int):
                    assert abs(F[i] - d.cdf(ts[i])) < 1e-12
                    assert abs(f[i] - d.pdf(ts[i])) < 1e-12

    def test_grids_are_table_columns(self, rng):
        for d in (random_valid_dist(rng), example2()):
            T = d.t_max()
            ts, F, f = d._table((0.0, T), (99,))
            assert ts.size == 100 and ts[-1] == T
            for got, want in ((d.cdf_grid(100), F), (d.pdf_grid(100), f)):
                assert np.array_equal(got[0], ts)
                assert np.array_equal(got[1], want)

    @pytest.mark.parametrize("grid", ["pdf_grid", "cdf_grid"])
    @pytest.mark.parametrize("n, t_max, arg", [
        (1, None, "n"), (0, None, "n"), (-3, None, "n"), (2.5, None, "n"),
        (math.nan, None, "n"), (8, -1.0, "t_max"), (8, 0.0, "t_max"),
        (8, math.nan, "t_max"), (8, math.inf, "t_max"),
        (8, np.array([1.0, 2.0]), "t_max")])
    def test_grids_refuse_their_domain_by_name(self, grid, n, t_max, arg):
        # n = 1 divided by zero and t_max = -1 read "densities" on t < 0
        with pytest.raises(ValueError, match=rf"^{arg}\b"):
            getattr(erlang(2), grid)(n, t_max)

    @pytest.mark.parametrize("k", [1, 4])
    def test_table_density_matches_pdf(self, k):
        # the sampler's table on Erlang-k: f is the row [0, x] of e^{tA},
        # so it keeps its relative accuracy deep into the tail
        from mekit.oracle import _cdf_table
        d = erlang(k)
        ts, F, f = _cdf_table(d)
        pv = d.pdf(ts)
        live = pv > 1e-300
        assert np.count_nonzero(live) > 1000
        assert np.max(np.abs(f[live] - pv[live]) / pv[live]) <= 1e-12

    def test_pdf_is_cdf_derivative(self, rng):
        for _ in range(5):
            d = random_valid_dist(rng)
            t = float(rng.uniform(0.2, 3.0))
            h = 1e-5
            num = (d.cdf(t + h) - d.cdf(t - h)) / (2.0 * h)
            assert abs(num - d.pdf(t)) < 1e-7 * max(1.0, d.pdf(t)) + 1e-7


class TestScaling:
    def test_scale_unit_exponential(self):
        d = exponential(1.0).scale_mean(3.0)
        assert_allclose(d.x, [1.0 / 3.0])
        assert_allclose(d.Y, [[-1.0 / 3.0]])
        assert abs(d.mean - 3.0) < 1e-12

    def test_scale_gamma_transform(self):
        um = erlang(2, mean=1.0)
        d = um.scale_mean(2.0)
        for s in (0.5, 1.0):
            assert abs(d.lt(s) - (1.0 / (1.0 + s)) ** 2) < 1e-12

    def test_scale_by_one_is_identity(self):
        um = erlang(2, mean=1.0)
        d = um.scale_mean(1.0)
        assert_allclose(d.Y, um.Y)

    def test_requires_unit_mean(self):
        with pytest.raises(ValueError, match="unit-mean"):
            exponential(2.0).scale_mean(3.0)

    def test_to_unit_mean_roundtrip(self, rng):
        d = random_valid_dist(rng)
        um = d.to_unit_mean()
        assert abs(um.mean - 1.0) < 1e-10


class TestValidation:
    def test_exponential_all_pass(self):
        rep = exponential(1.0).validate()
        assert rep.ok and not rep.failures

    def test_oscillatory_all_pass(self):
        assert example2().validate().ok

    def test_repeated_eigenvalue_horizon(self):
        # Erlang-16 decays like t^15 e^{-16t}: 40 / rate = 2.5 leaves
        # 1 - cdf = 5.5e-6, so the horizon must grow until the state decays
        d = erlang(16)
        rep = d.validate()
        assert rep.ok, rep.failures
        assert d.sf(d.t_max()) < 1e-12

    def test_constant_term_mismatch_reported(self):
        problems = RationalLT(p=[1.0], q=[2.0, 1.0]).check()
        assert any(p.startswith("p1 != q1") for p in problems)

    def test_large_closure_validates_without_warnings(self):
        # order 288: the Faddeev-LeVerrier recursion of to_rational_lt
        # overflows here, so validate must not depend on it
        from mekit.algebra import max_dist
        c = max_dist(erlang(16, 4.0), erlang(16, 6.0)).closure()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = c.validate()
        assert not [w for w in caught if w.category is RuntimeWarning]
        assert rep.ok and rep.p1_eq_q1, rep.failures
        with np.errstate(all="ignore"):
            assert "non-finite coefficients" in to_rational_lt(c).check()

    def test_non_finite_coefficients_reported(self):
        problems = RationalLT(p=[math.nan], q=[1.0]).check()
        assert "non-finite coefficients" in problems

    def test_invalid_triple_flagged(self):
        # mass 0.5 at lt(0): x halved
        d = MEDist([0.5], [[-1.0]], [1.0])
        rep = d.validate()
        assert not rep.lt_at_zero_is_one
        assert not rep.ok
        assert rep.failures

    def test_negative_density_flagged(self):
        # valid transform shape but sign-flipped numerator tail
        d = MEDist([1.0, -0.5], [[-1.0, 1.0], [0.0, -2.0]], [0.0, 1.0])
        rep = d.validate()
        assert not rep.nonneg_on_grid


class TestRationalRoundTrip:
    def test_transform_matches_polynomials(self, rng):
        d = random_valid_dist(rng)
        lt = to_rational_lt(d)
        for _ in range(20):
            s = complex(rng.uniform(0.05, 6.0), rng.uniform(-4.0, 4.0))
            assert abs(d.lt(s) - lt(s)) < 1e-10

    def test_companion_coefficients_recovered(self):
        lt0 = RationalLT(p=[50.0], q=[50.0, 52.0, 3.0])
        lt = to_rational_lt(from_rational_lt(lt0))
        assert_allclose(lt.p, [50.0, 0.0, 0.0], atol=1e-10)
        assert_allclose(lt.q, lt0.q, atol=1e-10)


class TestSerialization:
    def test_medist_roundtrip(self, rng):
        d = random_valid_dist(rng)
        d2 = MEDist.from_json(d.to_json())
        assert_allclose(d2.x, d.x)
        assert_allclose(d2.Y, d.Y)
        assert_allclose(d2.z, d.z)

    def test_channel_spec_roundtrip(self):
        spec = ChannelSpec("nakagami", {"m": 2, "S": 1.5})
        spec2 = ChannelSpec.from_json(spec.to_json())
        assert spec2 == spec

    def test_channel_spec_nested_roundtrip(self):
        spec = ChannelSpec("mrc_list", {"components": [
            {"kind": "rayleigh", "params": {"S": 1.0}},
            {"kind": "sdc", "params": {"N": 2, "S": 0.5}}]})
        assert ChannelSpec.from_json(spec.to_json()) == spec

    def test_channel_spec_rejects_unknown_kind(self):
        with pytest.raises(ConstructionError, match="unknown channel kind"):
            ChannelSpec("rician", {})

    def test_channel_spec_rejects_bad_params(self):
        with pytest.raises(ConstructionError):
            ChannelSpec("nakagami", {"m": 1.5, "S": 1.0})
        with pytest.raises(ConstructionError):
            ChannelSpec("rayleigh", {"S": -1.0})

    def test_channel_spec_rejects_missing_kind(self):
        with pytest.raises(ConstructionError, match="kind"):
            ChannelSpec.from_json(json.dumps({"params": {}}))
