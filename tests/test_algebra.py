import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammainc

from mekit import ChannelSpec, algebra, erlang, exponential, matfun
from mekit.algebra import (EffectiveChannel, convolve, kfold_block, max_dist,
                           min_dist, standard_channel)
from mekit.medist import ConstructionError, MEDist
from mekit import metrics, oracle
from conftest import (example2, example2_pdf, nakagami, numeric_convolve,
                      pdf_on_grid, random_valid_dist, sdc)


def _max_erlang_ber_mpmath(k, lam):
    """DBPSK BER (1/2) E{e^{-Z}} of Z = max of two iid Erlang(k, lam) at
    80 digits, from the closed form
    2 (lam/(lam+1))^k - 2 sum_{j<k} C(k-1+j, j) lam^{k+j} / (1+2 lam)^{k+j}
    of E{e^{-Z}}, with its leading term C(2k, k) lam^{2k} / 2 as lam -> 0."""
    with mpmath.workdps(80):
        lam = mpmath.mpf(lam)
        lt = 2 * (lam / (lam + 1)) ** k - 2 * sum(
            mpmath.binomial(k - 1 + j, j) * lam ** (k + j)
            / (1 + 2 * lam) ** (k + j) for j in range(k))
        return float(lt / 2), float(mpmath.binomial(2 * k, k) * lam ** (2 * k) / 2)


class TestConvolve:
    def test_two_unit_exponentials_is_erlang(self):
        d = convolve(exponential(1.0), exponential(1.0))
        assert abs(d.pdf(1.0) - math.exp(-1.0)) < 1e-12

    def test_mean_is_additive(self, rng):
        a = random_valid_dist(rng)
        b = random_valid_dist(rng)
        assert abs(convolve(a, b).mean - (a.mean + b.mean)) < 1e-9

    def test_transform_is_product(self, rng):
        a = random_valid_dist(rng)
        b = random_valid_dist(rng)
        c = convolve(a, b)
        for _ in range(5):
            s = complex(rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0))
            assert abs(c.lt(s) - a.lt(s) * b.lt(s)) < 1e-10

    def test_commutative_in_distribution(self, rng):
        a = random_valid_dist(rng)
        b = random_valid_dist(rng)
        ab, ba = convolve(a, b), convolve(b, a)
        for _ in range(20):
            s = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
            assert abs(ab.lt(s) - ba.lt(s)) < 1e-10

    def test_closure_output_is_valid(self, rng):
        d = convolve(random_valid_dist(rng), random_valid_dist(rng))
        assert d.validate().ok

    def test_pdf_matches_numeric_convolution(self):
        a, b = exponential(1.0), example2()
        c = convolve(a, b)
        ts = np.arange(0.0, 8.0, 1e-3)
        grid = numeric_convolve(a, b, ts)
        closed = pdf_on_grid(c, ts)
        assert np.max(np.abs(grid - closed)) < 1e-5


class TestKFold:
    def test_k1_reduces_to_cdf(self, rng):
        d = random_valid_dist(rng)
        block = kfold_block(d, 1)
        th = 1.3
        assert abs(block.partial_cdfs(th)[0] - d.cdf(th)) < 1e-12

    def test_erlang_partial_sum(self):
        th = math.e - 1.0
        F = kfold_block(exponential(1.0), 2).partial_cdfs(th)
        expect2 = 1.0 - math.exp(-th) * (1.0 + th)
        assert abs(F[1] - expect2) < 1e-12
        assert abs(F[1] - 0.5124107012872858) < 1e-10

    def test_leading_block_unchanged_by_K(self, rng):
        d = random_valid_dist(rng)
        E3 = matfun.expm(kfold_block(d, 3).Q_block)
        assert_allclose(E3[:d.d, :d.d], matfun.expm(d.Y), rtol=1e-12, atol=1e-14)

    def test_dense_z_base_partial_sums(self):
        # closure triples carry dense z vectors; partial sums must still
        # match iterated convolution
        base = min_dist(exponential(1.0), nakagami(2)).closure()
        block = kfold_block(base, 2)
        th = 1.7
        F = block.partial_cdfs(th)
        assert abs(F[0] - base.cdf(th)) < 1e-10
        assert abs(F[1] - convolve(base, base).cdf(th)) < 1e-10

    @pytest.mark.parametrize("m", [2, 4])
    def test_erlang_partial_sums_vs_gammainc(self, m):
        # the k-fold sum of Erlang-m is Erlang-mk.  Most ratios take the
        # uniformized sum; the largest ones at m = 2 exceed the size rule
        # and run the Pade row of the order-129 block, whose last squarings
        # are row products.  Near F = 1e-10 the dense Pade kernel itself is
        # good to 3.9e-12 relative (4e-22 absolute)
        S = 2.0
        block = kfold_block(erlang(m, S), 64)
        k = np.arange(1, 65)
        for ratio in np.geomspace(0.5, 80.0, 33):
            got = block.partial_cdfs(ratio * S)
            ref = gammainc(m * k, m * ratio)
            assert np.all(np.abs(got - ref) <= 1e-13)
            big = ref >= 1e-10
            assert np.all(np.abs(got - ref)[big] <= 5e-12 * ref[big])

    def test_rejects_zero_K(self):
        with pytest.raises(ValueError):
            kfold_block(exponential(1.0), 0)

    def test_repeated_pair_couples_once(self, monkeypatch):
        # the chain matches pairs by identity: K copies of one base form
        # their coupling z x once, and an equal but distinct part its own
        outer, calls = np.outer, []
        monkeypatch.setattr(np, "outer",
                            lambda a, b: calls.append(1) or outer(a, b))
        b = erlang(2, 1.0)
        kfold_block(b, 64)
        assert len(calls) == 1
        convolve(b, b, erlang(2, 1.0), b)
        assert len(calls) == 4

    @pytest.mark.parametrize("K", [1, 2, 3, 8])
    def test_block_transform_is_power_of_base(self, rng, K):
        # with the base z in the last block the block is the K-fold sum, so
        # its transform is L(s)^K of the base's own resolvent
        for base in (random_valid_dist(rng), example2(), erlang(3, 2.0)):
            block = kfold_block(base, K)
            z = np.zeros(K * base.d)
            z[-base.d:] = base.z
            total = MEDist(block.p_block, block.Q_block, z)
            for _ in range(5):
                s = complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))
                ref = base.lt(s) ** K
                assert abs(total.lt(s) - ref) <= 1e-10 * max(1.0, abs(ref))


class TestMax:
    def test_iid_exponentials_median_product(self):
        m = max_dist(exponential(1.0), exponential(1.0))
        assert abs(m.cdf(math.log(2.0)) - 0.25) < 1e-12

    def test_cdf_is_product_below_min(self, rng):
        a, b = random_valid_dist(rng), random_valid_dist(rng)
        m = max_dist(a, b)
        for t in (0.3, 1.0, 2.7):
            F1, F2 = a.cdf(t), b.cdf(t)
            assert abs(m.cdf(t) - F1 * F2) < 1e-10
            assert m.cdf(t) <= min(F1, F2) + 1e-12

    def test_closure_matches_functional_on_grid(self):
        a, b = exponential(1.0), nakagami(2)
        m = max_dist(a, b)
        closed = m.closure()
        ts = np.linspace(0.0, 6.0, 50)
        diff = max(abs(closed.cdf(float(t)) - m.cdf(float(t))) for t in ts)
        assert diff < 1e-9

    def test_functional_paths_agree(self, rng):
        a, b = random_valid_dist(rng), random_valid_dist(rng)
        m = max_dist(a, b)
        closed = m.closure()
        for t in (0.5, 1.5):
            assert abs(closed.cdf(t) - m.cdf(t)) < 1e-10

    def test_closure_output_is_valid(self):
        assert max_dist(exponential(1.0), erlang(2, 2.0)).closure().validate().ok

    def test_large_closure_transform_at_zero(self):
        # order 288: det(Y) underflows to 0 although Y is nonsingular
        c = max_dist(erlang(16, 600.0), erlang(16, 900.0)).closure()
        assert c.d == 288
        assert abs(c.lt(0.0) - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [2, 4, 8])
    @pytest.mark.parametrize("ratio", [1e-2, 1e-3])
    def test_closure_outage_tail_relative(self, k, ratio):
        # F = P(k, k theta)^2 falls to 1.7e-43 at k = 8, theta = 1e-3 S: the
        # closure must carry the cdf's zero of order 2k, not cancel O(1) terms
        S = 3.0
        c = max_dist(erlang(k, S), erlang(k, S)).closure()
        ref = gammainc(k, k * ratio) ** 2
        assert c.d == k * k + 2 * k
        assert abs(metrics.outage(c, ratio * S).value - ref) <= 1e-11 * ref

    def test_closure_outage_bulk_order_288(self):
        # order 288: the uniformized sum carries the bulk of the cdf to the
        # last digits
        c = max_dist(erlang(16, 4.0), erlang(16, 6.0)).closure()
        assert c.d == 288
        for ratio in np.geomspace(0.3, 3.0, 7):
            th = 6.0 * ratio
            ref = gammainc(16, 4.0 * th) * gammainc(16, 16.0 * th / 6.0)
            assert abs(metrics.outage(c, th).value - ref) <= 1e-13 * ref

    def test_closure_outage_tail_oscillatory(self):
        theta = 1e-3
        c = max_dist(erlang(2, 1.0), example2()).closure()
        with mpmath.workdps(30):
            F2 = mpmath.quad(lambda t: example2_pdf(t, mpmath.mp), [0, theta])
        ref = gammainc(2, 2.0 * theta) * float(F2)
        assert abs(metrics.outage(c, theta).value - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_closure_ber_tail_relative(self, k):
        # components of mean S = 1e5: the BER is 2.3e-34 at k = 4 and
        # 1.8e-62 at k = 8, far below the O(1) terms of a cancelling form
        S = 1e5
        c = max_dist(erlang(k, S), erlang(k, S)).closure()
        ref, lead = _max_erlang_ber_mpmath(k, k / S)
        assert abs(ref / lead - 1.0) < 1e-2
        ber = metrics.ber_noncoherent(c, 1.0).value
        assert ber > 0.0
        assert abs(ber - ref) <= 1e-12 * ref


def _kron_max(a, b):
    """The max closure assembled from identity Kronecker products."""
    n, N = a.d * b.d, a.d * b.d + a.d + b.d
    Y = np.zeros((N, N))
    Y[:n, :n] = np.kron(a.Y, np.eye(b.d)) + np.kron(np.eye(a.d), b.Y)
    Y[:n, n:n + a.d] = np.kron(np.eye(a.d), b.z[:, None])
    Y[:n, n + a.d:] = np.kron(a.z[:, None], np.eye(b.d))
    Y[n:n + a.d, n:n + a.d] = a.Y
    Y[n + a.d:, n + a.d:] = b.Y
    return (np.concatenate([np.kron(a.x, b.x), np.zeros(a.d + b.d)]), Y,
            np.concatenate([np.zeros(n), a.z, b.z]))


def _kron_min(a, b):
    """The min closure assembled from identity Kronecker products."""
    s1 = -np.linalg.solve(a.Y, a.z)
    s2 = -np.linalg.solve(b.Y, b.z)
    return (np.kron(a.x, b.x),
            np.kron(a.Y, np.eye(b.d)) + np.kron(np.eye(a.d), b.Y),
            np.kron(s1, b.z) + np.kron(a.z, s2))


@pytest.mark.parametrize("a, b", [
    pytest.param(erlang(16, 4.0), erlang(16, 6.0), id="E16-E16"),
    pytest.param(sdc(4, 2.0), nakagami(2, 1.5), id="sdc4-nakagami2"),
    pytest.param(example2(), exponential(2.0), id="example2-exp"),
    pytest.param(max_dist(nakagami(2), sdc(3)).closure(), erlang(3, 2.0),
                 id="max-of-max")])
def test_closures_are_their_identity_product_forms(a, b):
    for node, ref in ((max_dist(a, b), _kron_max(a, b)),
                      (min_dist(a, b), _kron_min(a, b))):
        c = node.closure()
        assert all(np.array_equal(u, v) for u, v in zip((c.x, c.Y, c.z), ref))


class TestMin:
    def test_iid_exponentials_is_rate_two(self):
        m = min_dist(exponential(1.0), exponential(1.0))
        assert abs(m.cdf(math.log(2.0) / 2.0) - 0.5) < 1e-12

    def test_min_with_self_at_median(self, rng):
        d = random_valid_dist(rng)
        from mekit.oracle import _inverse_cdf_grid
        median = float(_inverse_cdf_grid(d, np.array([0.5]))[0])
        m = min_dist(d, d)
        assert abs(m.cdf(median) - 0.75) < 1e-8

    def test_closure_normalized(self):
        c = min_dist(exponential(1.0), nakagami(2)).closure()
        assert abs(c.lt(0.0) - 1.0) < 1e-9

    def test_min_closure_output_is_valid(self):
        assert min_dist(exponential(1.0), erlang(2, 2.0)).closure().validate().ok

    def test_closure_matches_survival_product(self, rng):
        a, b = random_valid_dist(rng), random_valid_dist(rng)
        m = min_dist(a, b)
        c = m.closure()
        for t in (0.4, 1.1, 2.5):
            assert abs(c.cdf(t) - m.cdf(t)) < 1e-9

    @pytest.mark.parametrize("k, S1, S2", [(8, 2.0, 3.0), (16, 1.0, 4.0)])
    def test_lower_tail_against_gammainc(self, k, S1, S2):
        # at theta = 0.01 the cdf is 1.6e-16 (k = 8) and 7.6e-27 (k = 16):
        # 1 - (1 - F1)(1 - F2) would cancel to noise or to 0 there
        th = 0.01
        m = min_dist(erlang(k, S1), erlang(k, S2))
        with mpmath.workdps(40):
            F1 = mpmath.gammainc(k, 0, k / S1 * th, regularized=True)
            F2 = mpmath.gammainc(k, 0, k / S2 * th, regularized=True)
            ref = float(F1 + F2 - F1 * F2)
        assert abs(m.cdf(th) - ref) <= 1e-11 * ref
        assert abs(m.closure().cdf(th) - ref) <= 1e-11 * ref


class TestStandardChannels:
    def test_sdc_transform_value(self):
        d = sdc(3)
        assert abs(d.lt(1.0) - 0.25) < 1e-12  # 6/(2*3*4)

    def test_sdc_is_convolution_of_scaled_exponentials(self, rng):
        N, S = 3, 1.7
        d = sdc(N, S)
        factors = [exponential(S / n) for n in range(1, N + 1)]
        conv = factors[0]
        for f in factors[1:]:
            conv = convolve(conv, f)
        for _ in range(10):
            s = complex(rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0))
            assert abs(d.lt(s) - conv.lt(s)) < 1e-10

    def test_sdc_outage_large_N(self):
        # P(max of N iid exponentials <= theta) = (1 - e^{-theta/S})^N
        for N in (8, 16, 24, 48, 64):
            for S in (0.1, 1.0, 10.0, 1000.0):
                d = sdc(N, S)
                for R in (0.25, 1.0, 3.0):
                    th = math.expm1(R)
                    exact = (-math.expm1(-th / S)) ** N
                    assert abs(metrics.outage(d, th).value - exact) < 1e-12

    def test_ostbc_mrc_transform(self):
        ch = standard_channel(ChannelSpec("ostbc_mrc",
                                          {"N_tx": 2, "N_rx": 2,
                                           "R_stc": 1.0, "S": 1.0}))
        for s in (0.5, 1.0, 3.0):
            assert abs(ch.dist.lt(s) - (1.0 / (1.0 + s / 2.0)) ** 4) < 1e-12

    def test_nakagami_m1_is_rayleigh(self):
        a = standard_channel(ChannelSpec("nakagami", {"m": 1, "S": 2.0})).dist
        b = standard_channel(ChannelSpec("rayleigh", {"S": 2.0})).dist
        assert_allclose(a.x, b.x)
        assert_allclose(a.Y, b.Y)
        assert_allclose(a.z, b.z)

    def test_nakagami_requires_integer_m(self):
        with pytest.raises(ConstructionError):
            ChannelSpec("nakagami", {"m": 2.5, "S": 1.0})
        with pytest.raises(ConstructionError):
            ChannelSpec("nakagami", {"m": 0, "S": 1.0})
        # integer-valued floats are accepted
        standard_channel(ChannelSpec("nakagami", {"m": 2.0, "S": 1.0}))

    def test_zf_mimo_requires_explicit_exponent(self):
        with pytest.raises(ConstructionError, match="exponent"):
            standard_channel(ChannelSpec("zf_mimo",
                                         {"N_rx": 4, "N_tx": 2, "S": 1.0}))
        ch = standard_channel(ChannelSpec(
            "zf_mimo", {"N_rx": 4, "N_tx": 2, "S": 1.0, "exponent": 3}))
        assert abs(ch.dist.lt(1.0) - 2.0 ** -3) < 1e-12

    def test_sum_interference_matches_mrc(self):
        comps = [{"kind": "rayleigh", "params": {"S": 1.0}},
                 {"kind": "nakagami", "params": {"m": 2, "S": 0.5}}]
        a = standard_channel(ChannelSpec("sum_interference",
                                         {"components": comps})).dist
        b = standard_channel(ChannelSpec("mrc_list",
                                         {"components": comps})).dist
        assert_allclose(a.Y, b.Y)

    def test_standard_outputs_are_valid(self):
        specs = [ChannelSpec("rayleigh", {"S": 0.7}),
                 ChannelSpec("nakagami", {"m": 3, "S": 2.0}),
                 ChannelSpec("sdc", {"N": 3, "S": 1.2}),
                 ChannelSpec("ostbc_mrc", {"N_tx": 2, "N_rx": 1,
                                           "R_stc": 0.75, "S": 1.0}),
                 ChannelSpec("oscillatory_ex2", {})]
        for spec in specs:
            assert standard_channel(spec).dist.validate().ok, spec.kind

    def test_repeated_components_are_built_once(self, monkeypatch):
        groups = [{"kind": "nakagami", "params": {"m": 2, "S": s}}
                  for s in (1.0, 1.3, 1.7, 2.2)]
        comps = groups * 8
        ref = convolve(*[standard_channel(ChannelSpec(c["kind"], c["params"]))
                         .dist for c in comps])
        built, erl = [], algebra._erlang
        monkeypatch.setattr(algebra, "_erlang",
                            lambda k, r: built.append((k, r)) or erl(k, r))
        # equal components that are distinct objects are merged too
        for cs in (comps, [dict(c, params=dict(c["params"])) for c in comps]):
            built.clear()
            ch = standard_channel(ChannelSpec("mrc_list", {"components": cs}))
            assert len(built) == 4
            assert all(np.array_equal(u, v) for u, v in
                       ((ch.dist.x, ref.x), (ch.dist.Y, ref.Y),
                        (ch.dist.z, ref.z)))
            assert len(ch.provenance["children"]) == 32

    @pytest.mark.parametrize("other", [{"m": 2, "S": 1.5}, {"m": 3, "S": 1.0}],
                             ids=["S", "m"])
    def test_components_that_differ_are_not_merged(self, monkeypatch, other):
        comps = [{"kind": "nakagami", "params": {"m": 2, "S": 1.0}},
                 {"kind": "nakagami", "params": other}] * 2
        ref = convolve(*[nakagami(c["params"]["m"], c["params"]["S"])
                         for c in comps])
        built, erl = [], algebra._erlang
        monkeypatch.setattr(algebra, "_erlang",
                            lambda k, r: built.append((k, r)) or erl(k, r))
        d = standard_channel(ChannelSpec("sum_interference",
                                         {"components": comps})).dist
        assert len(built) == 2 and built[0] != built[1]
        assert all(np.array_equal(u, v)
                   for u, v in ((d.x, ref.x), (d.Y, ref.Y), (d.z, ref.z)))

    def test_provenance_tree(self):
        comps = [{"kind": "rayleigh", "params": {"S": 1.0}}] * 2
        ch = standard_channel(ChannelSpec("mrc_list", {"components": comps}))
        assert isinstance(ch, EffectiveChannel)
        assert ch.provenance["op"] == "mrc_list"
        assert len(ch.provenance["children"]) == 2
        assert "rayleigh" in ch.describe()


class TestMixedExpressions:
    def test_sum_of_max_matches_monte_carlo(self):
        # Z = G1 + max(G2, G3)
        g1 = exponential(1.0)
        g2 = nakagami(2)
        g3 = exponential(0.5)
        z = convolve(g1, max_dist(g2, g3).closure())
        cfg = oracle.RngConfig(seed=11, n=200_000)
        s = (oracle.sample(g1, cfg, worker=0)
             + np.maximum(oracle.sample(g2, cfg, worker=1),
                          oracle.sample(g3, cfg, worker=2)))
        for t in np.linspace(0.5, 5.0, 10):
            F = z.cdf(float(t))
            emp = float(np.mean(s <= t))
            sigma = math.sqrt(F * (1.0 - F) / cfg.n)
            assert abs(emp - F) < 3.0 * sigma + 1e-9


def _one(kind, **params):
    return {"kind": kind, "params": params}


# one spec of order 4097 per kind that can grow
OVERSIZED = [
    _one("nakagami", m=4097, S=1.0),
    _one("sdc", N=4097, S=1.0),
    _one("ostbc_mrc", N_tx=17, N_rx=241, S=1.0),
    _one("zf_mimo", N_rx=2, N_tx=1, S=1.0, exponent=4097),
    _one("rational_lt", p=[1.0], q=[1.0] + [0.0] * 4096),
    _one("product_form", factors=[{"p": [1.0], "q": [1.0]}] * 4097),
    _one("mrc_list", components=[_one("nakagami", m=4096, S=1.0),
                                 _one("rayleigh", S=1.0)]),
    _one("sum_interference", components=[_one("sdc", N=2048, S=1.0),
                                         _one("sdc", N=2049, S=1.0)]),
]


def _diagonal(d):
    """Order-d triple with density e^{-t}."""
    return MEDist(np.eye(1, d)[0], -np.eye(d), np.ones(d))


class TestDegreeGuard:
    def test_convolve_refuses_oversized_result(self):
        with pytest.raises(ConstructionError,
                           match="degree 4097 exceeds the guard 4096"):
            convolve(_diagonal(2048), _diagonal(2049))
        assert convolve(_diagonal(2), _diagonal(3)).d == 5

    def test_closure_ops_refuse_oversized_result(self):
        with pytest.raises(ConstructionError,
                           match="degree 4097 exceeds the guard 4096"):
            kfold_block(erlang(2), 2048)
        with pytest.raises(ConstructionError, match="guard"):
            max_dist(erlang(64), erlang(63)).closure()  # order 4159
        with pytest.raises(ConstructionError, match="guard"):
            min_dist(erlang(64), erlang(65)).closure()  # order 4160

    def test_guard_boundary(self):
        algebra._guard_degree(4096)
        with pytest.raises(ConstructionError, match="guard"):
            algebra._guard_degree(4097)

    @pytest.mark.parametrize("spec", OVERSIZED, ids=lambda s: s["kind"])
    def test_spec_refused_before_construction(self, monkeypatch, spec):
        def built(*args):
            pytest.fail("an oversized channel was constructed")

        for name in ("from_product_form", "from_rational_lt", "_erlang",
                     "exponential", "_sdc"):
            monkeypatch.setattr(algebra, name, built)
        with pytest.raises(ConstructionError,
                           match="degree 4097 exceeds the guard 4096"):
            standard_channel(ChannelSpec(spec["kind"], spec["params"]))

    @pytest.mark.parametrize("spec", [
        _one("rayleigh", S=2.0), _one("nakagami", m=3, S=1.0),
        _one("sdc", N=4, S=1.0), _one("ostbc_mrc", N_tx=2, N_rx=3, S=1.0),
        _one("zf_mimo", N_rx=3, N_tx=2, S=1.0, exponent=2),
        _one("rational_lt", p=[2.0, 1.0], q=[2.0, 3.0]),
        _one("product_form", factors=[{"p": [1.0], "q": [1.0]},
                                      {"p": [2.0], "q": [2.0, 3.0]}]),
        _one("mrc_list", components=[_one("nakagami", m=2, S=1.0),
                                     _one("sdc", N=3, S=2.0)]),
        _one("oscillatory_ex2"),
    ], ids=lambda s: s["kind"])
    def test_spec_order_is_built_order(self, spec):
        cs = ChannelSpec(spec["kind"], spec["params"])
        assert algebra._spec_order(cs) == standard_channel(cs).dist.d
