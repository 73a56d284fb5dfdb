import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mekit import erlang, exponential, matfun
from mekit.bivariate import (BivME, InterferenceScenario,
                             arq_interference_throughput, independent_bivme,
                             integral_sylvester, interference_g_theta,
                             sm_mimo_2x2_outage, wishart2x2_bivme)
from mekit.medist import ConstructionError
from mekit import metrics
from conftest import (classic_cdf, classic_pdf, nakagami,
                      product_integral_ref, quadpack, random_stable_matrix,
                      random_valid_dist, vectorized_integral,
                      wishart_region_outage_quad)

RAY = exponential(1.0)


def product_integral(d1, d2, b=math.inf):
    """int_0^b f1 f2 dt: the Sylvester integral with coupling z1 x2^T."""
    val, _ = integral_sylvester(0.0, b, d1.x, d1.Y, np.outer(d1.z, d2.x),
                                d2.Y, d2.z)
    return val


def mixture_joint(w=0.6):
    """Dependent (rank-2 coupling) joint density: a mixture of two product
    densities, exact by block-diagonal stacking."""
    a, b = exponential(1.0), nakagami(2)
    c, d = erlang(2, mean=1.0), exponential(0.5)
    p1 = np.concatenate([w * a.x, (1 - w) * c.x])
    Q1 = np.block([[a.Y, np.zeros((a.d, c.d))],
                   [np.zeros((c.d, a.d)), c.Y]])
    P12 = np.block([[np.outer(a.z, b.x), np.zeros((a.d, d.d))],
                    [np.zeros((c.d, b.d)), np.outer(c.z, d.x)]])
    Q2 = np.block([[b.Y, np.zeros((b.d, d.d))],
                   [np.zeros((d.d, b.d)), d.Y]])
    r2 = np.concatenate([b.z, d.z])
    return BivME(p1, Q1, P12, Q2, r2), (w, a, b, c, d)


class TestBivME:
    def test_independent_marginals_match_factors(self):
        j = independent_bivme(RAY, nakagami(2))
        m1, m2 = j.marginal(1), j.marginal(2)
        for t in (0.2, 0.9, 2.4):
            assert abs(m1.pdf(t) - RAY.pdf(t)) < 1e-10
            assert abs(m2.pdf(t) - nakagami(2).pdf(t)) < 1e-10

    def test_transform_at_origin_is_one(self):
        j = independent_bivme(RAY, nakagami(2))
        assert abs(j.lt(0.0, 0.0) - 1.0) < 1e-8
        assert abs(j.normalization() - 1.0) < 1e-8

    def test_mixture_joint_is_valid(self):
        j, _ = mixture_joint()
        rep = j.validate()
        assert rep["nonneg_on_grid"] and rep["mass_is_one"]

    def test_ordered_density_is_valid(self):
        rep = wishart2x2_bivme().validate()
        assert rep["nonneg_on_grid"] and rep["mass_is_one"]
        # 2 (z2 - z1) e^{-z1-z2} is a density on the wedge only: the grid
        # check must skip z1 > z2 when ordered and see the negative part
        # when not
        Q = np.array([[-1.0, 1.0], [0.0, -1.0]])
        args = ([1.0, 0.0], Q, np.diag([2.0, -2.0]), Q, [0.0, 1.0])
        rep = BivME(*args, ordered=True).validate()
        assert rep["nonneg_on_grid"] and rep["mass_is_one"]
        assert not BivME(*args).validate()["nonneg_on_grid"]

    def test_mixture_pdf_values(self):
        j, (w, a, b, c, d) = mixture_joint()
        for z1, z2 in ((0.3, 0.7), (1.2, 0.1)):
            expect = (w * a.pdf(z1) * b.pdf(z2)
                      + (1 - w) * c.pdf(z1) * d.pdf(z2))
            assert abs(j.pdf(z1, z2) - expect) < 1e-12

    def test_marginal_with_singular_inner_generator(self):
        Q2 = np.array([[0.0, 0.0], [0.0, -1.0]])  # singular
        j = BivME(RAY.x, RAY.Y, np.array([[0.0, 1.0]]), Q2, [0.0, 1.0])
        m = j.marginal(1)
        assert abs(m.pdf(0.5) - RAY.pdf(0.5)) < 1e-10

    def test_marginal_with_divergent_inner_integral_raises(self):
        # r2 reaches the null mode of Q2, so int_0^inf e^{tQ2} r2 dt diverges
        Q2 = np.array([[0.0, 0.0], [0.0, -1.0]])
        j = BivME(RAY.x, RAY.Y, np.array([[0.5, 0.5]]), Q2, [1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError, match="diverges"):
            j.marginal(1)

    def test_json_roundtrip(self):
        j = wishart2x2_bivme()
        j2 = BivME.from_json(j.to_json())
        assert_allclose(j2.P12, j.P12)
        assert j2.ordered

    def test_shape_validation(self):
        with pytest.raises(ConstructionError):
            BivME([1.0], [[-1.0]], [[1.0, 0.0]], [[-1.0]], [1.0])


class TestProductIntegrals:
    def test_scalar_infinite(self):
        assert abs(product_integral(RAY, RAY) - 0.5) < 1e-14

    def test_erlang_squared_vs_quadrature(self):
        d = erlang(2, mean=2.0)
        val = product_integral(d, d)
        q, _ = quadpack(lambda t: classic_pdf(d, t) ** 2, 0.0, np.inf)
        assert abs(val - q) < 1e-9

    def test_linear_in_weight(self):
        d = exponential(1.0)
        scaled = type(d)(3.0 * d.x, d.Y, d.z)
        assert abs(product_integral(scaled, d)
                   - 3.0 * product_integral(d, d)) < 1e-12

    def test_large_erlang_pair_closed_form(self):
        # order-576 pair; the integral is
        # l1^k l2^k Gamma(2k-1) / ((k-1)!^2 (l1+l2)^(2k-1))
        k, l1, l2 = 24, 24 / 2000.0, 24 / 3000.0
        exact = math.exp(k * math.log(l1 * l2) + math.lgamma(2 * k - 1)
                         - 2 * math.lgamma(k) - (2 * k - 1) * math.log(l1 + l2))
        val = product_integral(erlang(k, 2000.0), erlang(k, 3000.0))
        assert abs(val - exact) < 1e-12 * exact

    def test_finite_zero_interval(self):
        assert product_integral(RAY, RAY, 0.0) == 0.0

    def test_finite_interval_antiderivative(self):
        val = product_integral(RAY, RAY, 1.0)
        assert abs(val - (1.0 - math.exp(-2.0)) / 2.0) < 1e-12

    def test_finite_limit_matches_infinite(self):
        d1, d2 = erlang(2, 2.0), nakagami(2)
        lam = min(np.abs(np.linalg.eigvals(d1.Y).real).min(),
                  np.abs(np.linalg.eigvals(d2.Y).real).min())
        val_b = product_integral(d1, d2, 40.0 / lam)
        assert abs(val_b - product_integral_ref(d1, d2)) < 1e-8


class TestSylvesterIntegral:
    def test_scalar_infinite(self):
        val, X = integral_sylvester(0.0, math.inf, [1.0], [[-1.0]],
                                    [[1.0]], [[-1.0]], [1.0])
        assert abs(val - 0.5) < 1e-14
        assert_allclose(X, [[0.5]])

    def test_rank_one_reduces_to_independent_product(self, rng):
        d1, d2 = random_valid_dist(rng), random_valid_dist(rng)
        X12 = np.outer(d1.z, d2.x)
        val, _ = integral_sylvester(0.0, math.inf, d1.x, d1.Y, X12, d2.Y, d2.z)
        assert abs(val - product_integral_ref(d1, d2)) < 1e-10

    def test_finite_interval_vs_quadrature(self, rng):
        Y1 = random_stable_matrix(rng, 3)
        Y2 = random_stable_matrix(rng, 2)
        X12 = rng.normal(size=(3, 2))
        x1 = rng.normal(size=3)
        z2 = rng.normal(size=2)
        val, X = integral_sylvester(0.0, 1.4, x1, Y1, X12, Y2, z2)
        q, _ = quadpack(
            lambda t: float(x1 @ matfun.expm(t * Y1) @ X12
                            @ matfun.expm(t * Y2) @ z2), 0.0, 1.4)
        assert abs(val - q) < 1e-8
        res = Y1 @ X + X @ Y2 - (matfun.expm(1.4 * Y1) @ X12 @ matfun.expm(1.4 * Y2)
                                 - X12)
        assert np.max(np.abs(res)) <= 1e-10 * max(np.max(np.abs(X)), 1.0) * (
            np.linalg.norm(Y1) + np.linalg.norm(Y2))

    def test_collision_raises(self):
        with pytest.raises(matfun.SpectralCollisionError):
            integral_sylvester(0.0, 1.0, [1.0], [[-1.0]], [[1.0]],
                               [[1.0]], [1.0])


class TestVectorizedIntegral:
    """The Sylvester integral against the vectorized (Kronecker-sum) closed
    form written out in the tests' conftest."""

    def test_scalar_finite(self):
        val, _ = integral_sylvester(0.0, 1.0, [1.0], [[-1.0]], [[1.0]],
                                    [[-1.0]], [1.0])
        assert abs(val - (1.0 - math.exp(-2.0)) / 2.0) < 1e-12

    def test_infinite_matches_closed_form(self, rng):
        Y1 = random_stable_matrix(rng, 3)
        Y2 = random_stable_matrix(rng, 2)
        X12 = rng.normal(size=(3, 2))
        x1 = rng.normal(size=3)
        z2 = rng.normal(size=2)
        syl, _ = integral_sylvester(0.0, math.inf, x1, Y1, X12, Y2, z2)
        assert abs(syl - vectorized_integral(x1, Y1, X12, Y2, z2)) < 1e-10

    def test_zero_coupling(self):
        val, _ = integral_sylvester(0.0, 1.0, [1.0], [[-1.0]], [[0.0]],
                                    [[-1.0]], [1.0])
        assert val == 0.0


class TestPathAgreement:
    def test_four_paths_random_instances(self, rng):
        # Sylvester, the vectorized solve on the general coupling, the
        # Kronecker-sum solve on the product and QUADPACK
        for _ in range(20):
            d1 = random_valid_dist(rng)
            d2 = random_valid_dist(rng)
            X12 = np.outer(d1.z, d2.x)
            syl, _ = integral_sylvester(0.0, math.inf, d1.x, d1.Y, X12,
                                        d2.Y, d2.z)
            vec = vectorized_integral(d1.x, d1.Y, X12, d2.Y, d2.z)
            kro = float(-np.kron(d1.x, d2.x) @ np.linalg.solve(
                np.kron(d1.Y, np.eye(d2.d)) + np.kron(np.eye(d1.d), d2.Y),
                np.kron(d1.z, d2.z)))
            q, _ = quadpack(lambda t: classic_pdf(d1, t) * classic_pdf(d2, t),
                            0.0, np.inf)
            assert abs(syl - kro) < 1e-8
            assert abs(vec - kro) < 1e-8
            assert abs(syl - q) < 1e-8


class TestInterferenceThroughput:
    def test_exponential_golden(self):
        scn = InterferenceScenario(signal=RAY, interferers=(RAY,))
        res = arq_interference_throughput(scn, 1.0)
        assert abs(res.value - math.exp(-math.e)) < 1e-12

    def test_all_paths_agree(self, rng):
        # both closed paths and QUADPACK over the interferer density
        # against the signal's survival function
        for _ in range(8):
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
            assert np.max(vals) - np.min(vals) < 1e-9

    def test_closed_form_with_exponential_interferer(self):
        # ME signal, exponential interference: the z-integral closes to
        # -p Q^{-1} e^{theta Q} (I - theta S_I Q)^{-1} r
        sig = nakagami(2)
        SI = 0.8
        scn = InterferenceScenario(signal=sig, interferers=(exponential(SI),))
        R = 0.9
        theta = math.expm1(R)
        closed = -float(sig.x @ np.linalg.solve(sig.Y, matfun.expm(theta * sig.Y))
                        @ np.linalg.solve(np.eye(2) - theta * SI * sig.Y, sig.z))
        res = arq_interference_throughput(scn, R)
        assert abs(res.value - R * closed) < 1e-10

    def test_kron_deep_tail(self):
        # theta |lambda| = 720 for a Nakagami-16 signal at R = ln 46, where
        # e^{-theta Y} overflows a double
        scn = InterferenceScenario(signal=nakagami(16),
                                   interferers=(exponential(0.3),))
        kron, syl = (arq_interference_throughput(scn, math.log(46.0),
                                                 path=p).value
                     for p in ("kron", "sylvester"))
        assert math.isfinite(kron) and kron > 0.0
        assert abs(kron - syl) <= 1e-12 * syl

    def test_quadrature_oracle(self):
        sig, intf = nakagami(2), exponential(0.7)
        scn = InterferenceScenario(signal=sig, interferers=(intf,))
        R = 0.9
        theta = math.expm1(R)
        P, _ = quadpack(
            lambda zi: intf.pdf(zi) * (1.0 - sig.cdf(theta * (1.0 + zi))),
            0.0, np.inf)
        assert abs(arq_interference_throughput(scn, R).value - R * P) < 1e-9

    def test_vanishing_interference_limit(self):
        scn = InterferenceScenario(signal=RAY, interferers=(exponential(1e-8),))
        res = arq_interference_throughput(scn, 1.0)
        expect = 1.0 - metrics.outage(RAY, THETA := math.e - 1.0).value
        assert abs(res.value - expect) < 1e-6

    def test_collision_raises(self):
        # For stable generators eigenvalue sums stay negative, so a true
        # collision cannot occur; an unstable first block makes one.  The
        # near collision is a joint of mass -1, which must not be turned
        # into a throughput
        for q in (1.0 - 1e-13, 1.0):
            j = BivME([1.0], [[q]], [[1.0]], [[-1.0]], [1.0])
            scn = InterferenceScenario(joint=j, theta=1.0)
            for path in ("auto", "sylvester"):
                with pytest.raises(matfun.SpectralCollisionError):
                    arq_interference_throughput(scn, 1.0, path=path)

    def test_unknown_path_rejected(self):
        scn = InterferenceScenario(signal=RAY, interferers=(RAY,))
        with pytest.raises(ValueError, match="unknown path"):
            arq_interference_throughput(scn, 1.0, path="vectorized")

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            InterferenceScenario(signal=RAY, interferers=(RAY,), theta=-0.5)
        j, _ = mixture_joint()
        with pytest.raises(ValueError, match="nonnegative"):
            InterferenceScenario(joint=j, theta=-2.0)
        scn = InterferenceScenario(signal=RAY, interferers=(exponential(0.6),))
        for theta in (-0.5, 0.0):
            with pytest.raises(ValueError, match="theta must be positive"):
                interference_g_theta(scn, theta)
        # at theta = 0 every packet gets through
        scn = InterferenceScenario(signal=nakagami(2),
                                   interferers=(exponential(0.6),), theta=0.0)
        for path in ("kron", "sylvester"):
            assert abs(arq_interference_throughput(scn, 0.7, path=path).value
                       - 0.7) < 1e-14

    def test_dependent_joint_paths_agree(self):
        # the mixture joint is exactly the w, 1 - w mixture of two
        # independent scenarios, each on the Kronecker path
        j, (w, a, b, c, d) = mixture_joint()
        scn = InterferenceScenario(joint=j)
        syl = arq_interference_throughput(scn, 0.8, path="sylvester").value
        kron = [arq_interference_throughput(
            InterferenceScenario(signal=sig, interferers=(intf,)), 0.8,
            path="kron").value for intf, sig in ((a, b), (c, d))]
        assert abs(syl - (w * kron[0] + (1 - w) * kron[1])) < 1e-14

    def test_kron_requires_independence(self):
        j, _ = mixture_joint()
        with pytest.raises(ValueError, match="independence"):
            arq_interference_throughput(InterferenceScenario(joint=j), 1.0,
                                        path="kron")

    def test_scenario_requires_inputs(self):
        with pytest.raises(ConstructionError):
            InterferenceScenario()

    def test_optimizer_stationarity(self):
        scn = InterferenceScenario(signal=RAY, interferers=(exponential(0.6),))
        rows = metrics.optimize_rate("arq_interference", scn, [0.3, 0.6])
        for r in rows:
            assert not r.boundary

            def T(R, S):
                th = metrics.theta_unit_mean(R, S)
                s = InterferenceScenario(signal=RAY,
                                         interferers=(exponential(0.6),),
                                         theta=th)
                return arq_interference_throughput(s, R).value

            h = 1e-5 * max(r.R_opt, 1.0)
            dT = (T(r.R_opt + h, r.S) - T(r.R_opt - h, r.S)) / (2.0 * h)
            assert abs(dT) < 1e-4 * r.T_opt


class TestWishart:
    def test_equal_eigenvalues_vanish(self):
        assert abs(wishart2x2_bivme().pdf(1.0, 1.0)) < 1e-14

    def test_density_values(self):
        w = wishart2x2_bivme()
        assert abs(w.pdf(1.0, 2.0) - math.exp(-3.0)) < 1e-12
        assert abs(w.pdf(0.0, 3.0) - 9.0 * math.exp(-3.0)) < 1e-12

    def test_density_grid_matches_closed_form(self):
        w = wishart2x2_bivme()
        for z1 in np.linspace(0.0, 5.0, 9):
            for z2 in np.linspace(z1, 6.0, 9):
                expect = math.exp(-z1 - z2) * (z1 - z2) ** 2
                assert abs(w.pdf(float(z1), float(z2)) - expect) < 1e-10

    def test_ordered_mass_is_one(self):
        assert abs(wishart2x2_bivme().normalization() - 1.0) < 1e-10

    def test_ordered_marginal_integrates_to_one(self):
        w = wishart2x2_bivme()
        val, _ = quadpack(lambda z: w.marginal_pdf(1, z), 0.0, 60.0)
        assert abs(val - 1.0) < 1e-8


class TestSmMimo:
    def test_small_rate_limit(self):
        assert sm_mimo_2x2_outage(1e-9).value < 1e-8

    def test_total_probability_limit(self):
        assert abs(sm_mimo_2x2_outage(8.0).value - 1.0) < 1e-6

    def test_matches_region_quadrature(self):
        got = sm_mimo_2x2_outage(1.0).value
        ref = wishart_region_outage_quad(1.0)
        assert abs(got - ref) < 1e-6
        for R in (0.5, 2.0):
            assert abs(sm_mimo_2x2_outage(R).value
                       - wishart_region_outage_quad(R)) < 1e-6
