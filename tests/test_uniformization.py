"""Uniformized cdfs of phase-type triples (``matfun._JumpLaw``) and the
route rule, :meth:`matfun._JumpLaw.takes`, that ``MEDist.cdf``,
``MEDist.pdf`` and ``KFoldConvolution.partial_cdfs`` ask of them."""

import math

import mpmath
import numpy as np
import pytest

from mekit import (ChannelSpec, RationalLT, erlang, matfun, medist, metrics,
                   standard_channel)
from mekit.algebra import convolve, kfold_block, max_dist, min_dist
from mekit.bivariate import InterferenceScenario
from mekit.medist import MEDist, _erlang, from_product_form
from mekit.matfun import _poisson_tails
from conftest import example2, random_valid_dist


def _gammainc(k, x):
    """Regularized lower incomplete gamma P(k, x) at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.gammainc(k, 0, x, regularized=True))


def _pade_cdf(d, t):
    """The augmented-row cdf, the route every triple took before."""
    return float(matfun.expm_integral(d.x, d.Y, t)[0] @ d.z)


def _rate(d):
    """max|y_ii|, the rate of the uniformized chain."""
    return float(np.abs(np.diagonal(d.Y)).max())


def _takes(d, th, K=1, N=1):
    """Whether d's jump law takes the read; never where d has none."""
    return d._law is not None and d._law.takes(th, K, N)


def _fresh_cdfs(d, th, K=1):
    """One read of a fresh jump law of d."""
    return matfun._JumpLaw(d.x, d.Y, d.z).partial_cdfs(th, K)


@pytest.mark.parametrize("k", [1, 4, 16, 32, 64, 100])
@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 3.0])
def test_erlang_cdf_against_gammainc(k, ratio):
    # E64 at 0.01 S is 1.7e-102 and E100 at 0.01 S is 4.0e-159
    S = 2.5
    d = erlang(k, S)
    ref = _gammainc(k, k * ratio)
    assert abs(d.cdf(ratio * S) - ref) <= 1e-13 * ref


def test_deep_tail_takes_the_uniformized_route():
    d = erlang(32, 1.0)
    assert d.phase_type and _takes(d, 0.01)
    assert not _takes(erlang(1, 1.0), 0.01)


@pytest.mark.parametrize("k", [4, 16])
@pytest.mark.parametrize("th", [1e-3, 0.05, 1.0, 5.0])
def test_max_min_closures_against_gammainc_products(k, th):
    S1, S2 = 4.0, 6.0
    F1, F2 = _gammainc(k, k / S1 * th), _gammainc(k, k / S2 * th)
    cmax = max_dist(erlang(k, S1), erlang(k, S2)).closure()
    cmin = min_dist(erlang(k, S1), erlang(k, S2)).closure()
    assert abs(cmax.cdf(th) - F1 * F2) <= 1e-13 * F1 * F2
    lo = F1 + F2 - F1 * F2
    assert abs(cmin.cdf(th) - lo) <= 1e-13 * lo


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("K", [32, 64])
def test_partial_cdfs_against_gammainc(m, K):
    S = 2.0
    block = kfold_block(erlang(m, S), K)
    k = np.arange(1, K + 1)
    smallest = 1.0
    for th in (0.02 * K, 0.05 * K, K / 8, K / 3, 2 * K / 3, K * S):
        got = block.partial_cdfs(th)
        ref = np.array([_gammainc(m * j, m / S * th) for j in k])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref)
        smallest = min(smallest, ref[ref > 0].min())
    assert smallest < 1e-100


def _ph_channels():
    rng = np.random.default_rng(7)
    out = [random_valid_dist(rng, allow_oscillatory=False) for _ in range(6)]
    out += [standard_channel(ChannelSpec("sdc", {"N": 6, "S": 1.3})).dist,
            standard_channel(ChannelSpec("mrc_list", {"components": [
                {"kind": "nakagami", "params": {"m": 2, "S": s}}
                for s in (0.5, 1.0, 2.0)]})).dist,
            convolve(max_dist(erlang(2, 1.0), erlang(2, 1.0)).closure(),
                     erlang(3, 1.0)),
            min_dist(erlang(8, 3.0), erlang(8, 5.0)).closure()]
    return out


@pytest.mark.parametrize("d", _ph_channels(), ids=lambda d: f"d{d.d}")
def test_routes_agree_where_both_are_accurate(d):
    assert d.phase_type
    for th in np.geomspace(0.05, 20.0, 12) * d.mean:
        for K in (1, 3):
            uni = _fresh_cdfs(d, th, K)
            block = kfold_block(d, K)
            row = matfun.expm_integral(block.p_block, block.Q_block, th)[0]
            pade = row.reshape(K, d.d) @ d.z
            big = pade > 1e-6
            assert np.all(np.abs(uni - pade)[big] <= 1e-13 * pade[big])


@pytest.mark.parametrize("lam", [1e-3, 700.0, 800.0, 2000.0])
def test_poisson_tails_bounded_and_nonincreasing(lam):
    n = int(lam + 9.0 * math.sqrt(lam)) + 16
    tails = _poisson_tails(lam, n)
    assert tails.size > n
    assert np.all(np.isfinite(tails))
    assert np.all((tails >= 0.0) & (tails <= 1.0))
    assert np.all(np.diff(tails) <= 0.0)
    for j in (0, int(lam), n):
        ref = _gammainc(j + 1, lam)
        assert abs(tails[j] - ref) <= 1e-14 * ref


def test_refuses_inputs_without_a_uniformization():
    # a negative or NaN threshold, a NaN row, a zero diagonal (no rate)
    d = erlang(2, 1.0)
    no_rate = d.Y - np.diag(np.diag(d.Y))
    for x, Y, th in ((d.x, d.Y, -1.0), (d.x, d.Y, math.nan),
                     (d.x * math.nan, d.Y, 1.0), (d.x, no_rate, 1.0)):
        with pytest.raises(ValueError, match="a jump law needs"):
            matfun._JumpLaw(x, Y, d.z).partial_cdfs(th)


def test_zero_threshold_and_zero_density():
    d = erlang(16, 1.0)
    assert np.all(_fresh_cdfs(d, 0.0, 4) == 0.0)
    zero = matfun._JumpLaw(0 * d.x, d.Y, d.z)
    assert np.all(zero.partial_cdfs(1.0, 2) == 0.0)


@pytest.mark.parametrize("d", [
    example2(),
    standard_channel(ChannelSpec(
        "rational_lt", {"p": [6.0, 3.0], "q": [6.0, 11.0, 6.0]})).dist,
], ids=["oscillatory_ex2", "rational_lt"])
def test_non_phase_type_keeps_the_pade_row(d):
    # bit-identical to the augmented row, the only route before
    assert not d.phase_type
    for t in (0.01, 0.3, 2.0, 9.0):
        assert d.cdf(t) == _pade_cdf(d, t)
        block = kfold_block(d, 3)
        row = matfun.expm_integral(block.p_block, block.Q_block, t)[0]
        assert np.array_equal(block.partial_cdfs(t), row.reshape(3, d.d) @ d.z)


@pytest.mark.parametrize("name, dist, r", [
    ("max(E1,E1)", lambda: max_dist(erlang(1), erlang(1)).closure(), 2),
    ("max(E4,E4)", lambda: max_dist(erlang(4), erlang(4)).closure(), 8),
    ("min(E4,E4)", lambda: min_dist(erlang(4), erlang(4)).closure(), 4),
    ("conv(max(E2,E2),E3)", lambda: convolve(
        max_dist(erlang(2), erlang(2)).closure(), erlang(3)), 7),
    ("SDC-6", lambda: standard_channel(
        ChannelSpec("sdc", {"N": 6, "S": 1.0})).dist, 6),
    ("max(E16,E16)", lambda: max_dist(erlang(16), erlang(16)).closure(), 32),
])
def test_diversity_gain_of_phase_type_closures(name, dist, r):
    d = dist().to_unit_mean()
    assert metrics.diversity_gain(d) == r
    assert abs(metrics.diversity_gain_numeric(d) / r - 1.0) < 0.01


def test_diversity_gain_of_other_triples_is_the_order():
    assert metrics.diversity_gain(example2()) == 3


# -- the sparse step on the nonzeros of P ---------------------------------


MAX16 = max_dist(erlang(16, 4.0), erlang(16, 6.0))


@pytest.mark.parametrize("d", [
    MAX16.closure(), min_dist(erlang(16, 3.0), erlang(16, 5.0)).closure(),
], ids=["max16_d288", "min16_d256"])
def test_sparse_and_dense_steps_agree(monkeypatch, d):
    sparse_order = matfun._SPARSE_ORDER

    def read(th, K, dense):
        # an order past d's keeps a fresh law on the dense step
        monkeypatch.setattr(matfun, "_SPARSE_ORDER",
                            d.d + 1 if dense else sparse_order)
        return _fresh_cdfs(d, th, K)

    assert d._law._jumps is not None
    smallest = 1.0
    for th in np.geomspace(1e-3, 3.0, 30) * d.mean:
        for K in (1, 3):
            dense = read(th, K, True)
            sparse = read(th, K, False)
            assert np.all(np.abs(sparse - dense) <= 2e-15 * dense)
            smallest = min(smallest, dense.min())
    assert smallest < 1e-140


def test_max_closure_deep_tail_is_the_product_of_its_factors():
    c = MAX16.closure()
    smallest = 1.0
    for th in np.geomspace(1.5e-3, 40.0, 20):
        ref = _gammainc(16, 4.0 * th) * _gammainc(16, 16.0 / 6.0 * th)
        assert abs(c.cdf(th) - ref) <= 1e-13 * ref
        smallest = min(smallest, ref)
    assert smallest < 1e-100


def test_sparse_rule_by_order_and_fill():
    # the dense and sparse steps tie below order 64 and the sparse step
    # loses once P holds more than about one entry in 25 (CHANGES.md)
    assert MAX16.closure()._law._jumps is not None
    assert (min_dist(erlang(8, 3.0), erlang(8, 5.0)).closure()._law._jumps
            is not None)
    assert (max_dist(erlang(6, 3.0), erlang(6, 5.0)).closure()._law._jumps
            is None)
    for m in (2, 4):
        assert erlang(m, 2.0)._law._jumps is None
    # order 128 with about one entry in 10 of Y off its diagonal
    rng = np.random.default_rng(1)
    M = rng.random((128, 128)) * (rng.random((128, 128)) < 0.1)
    np.fill_diagonal(M, 0.0)
    full = MEDist(np.full(128, 1 / 128), M - np.diag(M.sum(1) + 1.0),
                  np.ones(128))
    assert full.phase_type and full._law._jumps is None


@pytest.mark.parametrize("th", [30.0, 40.0])
def test_uniformized_cdf_is_at_most_one(th):
    # a sum of nonnegative terms rounded to 1 + 3e-15 here before the clip
    c = MAX16.closure()
    assert _takes(c, th)
    assert c.cdf(th) == 1.0
    assert c.sf(th) == 0.0
    assert metrics.arq_throughput(c, 1.0, th).value == 0.0


@pytest.mark.parametrize("m, K", [(2, 32), (4, 64)])
def test_truncated_harq_builds_no_block_on_a_phase_type_base(monkeypatch,
                                                             m, K):
    d, R = erlang(m, 2.0), 1.0
    block = kfold_block(d, K)
    built, chain = [], medist._chain
    monkeypatch.setattr(medist, "_chain",
                        lambda parts: built.append(len(parts)) or chain(parts))
    for th in (K / 8, K / 3, 2 * K / 3):
        assert _takes(d, th, K)
        got = metrics.harq_truncated_throughput(d, R, K, th).value
        row = matfun.expm_integral(block.p_block, block.Q_block, th)[0]
        F = row.reshape(K, d.d) @ d.z
        ref = R * (1.0 - F[-1]) / (1.0 + F[:-1].sum())
        assert abs(got - ref) <= 1e-12 * ref
    assert built == []
    # the Pade route still builds its block, through the counted assembler
    metrics.harq_truncated_throughput(example2(), R, 3, 1.0)
    assert built == [3]


def test_one_pass_constructions_are_bit_identical():
    parts = [erlang(2, g) for g in (1.0, 1.3, 1.7, 2.2)] * 8
    chain = parts[0]
    for p in parts[1:]:
        chain = convolve(chain, p)
    for a, b in ((convolve(*parts), chain),
                 (InterferenceScenario(signal=parts[0],
                                       interferers=parts).interference(),
                  chain)):
        assert all(np.array_equal(u, v)
                   for u, v in ((a.x, b.x), (a.Y, b.Y), (a.z, b.z)))
    for k in (1, 2, 5, 16):
        for rate in (0.37, 1.0, 12.5):
            a = _erlang(k, rate)
            b = from_product_form([RationalLT(p=[rate], q=[rate])] * k)
            assert all(np.array_equal(u, v)
                       for u, v in ((a.x, b.x), (a.Y, b.Y), (a.z, b.z)))
    for b in (erlang(3, 1.4), example2(), MAX16.closure()):
        for K in (1, 2, 3):
            block, c = kfold_block(b, K), convolve(*[b] * K)
            assert np.array_equal(block.p_block, c.x)
            assert np.array_equal(block.Q_block, c.Y)


@pytest.mark.parametrize("th, uniformized", [(0.01, True), (1.0, False)])
def test_one_fold_is_the_cdf_bit_for_bit(th, uniformized):
    # the K = 1 edge of truncated HARQ and of the block is ARQ and the cdf,
    # on a phase-type channel on both sides of the size rule and on an
    # oscillatory one
    for d in (erlang(16, 1.0), example2()):
        if d.phase_type:
            assert _takes(d, th) == uniformized
        assert kfold_block(d, 1).partial_cdfs(th)[0] == d.cdf(th)
        assert (metrics.harq_truncated_throughput(d, 0.8, 1, th).value
                == metrics.arq_throughput(d, 0.8, th).value)


# -- the cached jump law ---------------------------------------------------


@pytest.mark.parametrize("d, K, ths", [
    pytest.param(erlang(4, 2.0), 1, np.geomspace(1e-27, 40.0, 24),
                 id="erlang4"),
    pytest.param(kfold_block(erlang(4, 2.0), 8).base, 8,
                 np.geomspace(1e-3, 80.0, 24), id="kfold8"),
    pytest.param(MAX16.closure(), 1, np.geomspace(1.5e-3, 40.0, 24),
                 id="max16_d288")])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_cached_law_is_independent_of_call_order(d, K, ths, order):
    ths = {"ascending": ths, "descending": ths[::-1],
           "shuffled": np.random.default_rng(3).permutation(ths)}[order]
    law = matfun._JumpLaw(d.x, d.Y, d.z)
    smallest = 1.0
    for th in ths:
        got = law.partial_cdfs(th, K)
        ref = _fresh_cdfs(d, th, K)
        if law._jumps is not None:
            assert np.array_equal(got, ref)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)
        smallest = min(smallest, ref.min())
    assert smallest < 1e-100


def test_one_powers_table_serves_every_smaller_fold():
    # row k of the table is a^(k) whatever K it was built for, so a read of
    # fewer folds at a lower threshold reads the table it finds; a read of
    # more folds or more terms rebuilds it over both
    d = erlang(2, 1.0)
    law = matfun._JumpLaw(d.x, d.Y, d.z)
    for K, th, kept, rebuilt in ((8, 12.0, 8, True), (3, 2.0, 8, False),
                                 (5, 9.0, 8, False), (12, 0.5, 12, True),
                                 (2, 1.0, 12, False), (7, 6.0, 12, False),
                                 (4, 40.0, 12, True)):
        before = law._state.powers
        got = law.partial_cdfs(th, K)
        ref = _fresh_cdfs(d, th, K)
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)
        assert law._state.powers.shape[0] == kept
        assert (law._state.powers is not before) == rebuilt


def test_cached_law_steps_no_term_twice(monkeypatch):
    # the sparse step is one bincount; a read that needs more terms than
    # the law holds steps on from its last vector
    c = MAX16.closure()
    steps, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda *a, **k: steps.append(1) or bincount(*a, **k))
    for th in (0.01, 0.3):
        assert _takes(c, th)
        c.cdf(th)
    n = c._law._state.a.size
    assert 0 < len(steps) <= n // 2 + 1


def test_channels_build_no_law_until_read():
    specs = [ChannelSpec("rational_lt", {"p": [2.0], "q": [2.0, 3.0]}),
             ChannelSpec("product_form", {"factors": [
                 {"p": [1.0], "q": [1.0]}, {"p": [2.0], "q": [2.0]}]}),
             ChannelSpec("rayleigh", {"S": 1.0}),
             ChannelSpec("nakagami", {"m": 32, "S": 1.0}),
             ChannelSpec("sdc", {"N": 4, "S": 1.0}),
             ChannelSpec("ostbc_mrc", {"N_tx": 2, "N_rx": 2, "S": 1.0}),
             ChannelSpec("zf_mimo", {"N_rx": 4, "N_tx": 2, "S": 1.0,
                                     "exponent": 3}),
             ChannelSpec("mrc_list", {"components": [
                 {"kind": "rayleigh", "params": {"S": s}} for s in (1, 2)]}),
             ChannelSpec("sum_interference", {"components": [
                 {"kind": "rayleigh", "params": {"S": 1.0}}] * 2}),
             ChannelSpec("oscillatory_ex2", {})]
    assert set(ChannelSpec.KINDS) == {s.kind for s in specs}
    dists = [standard_channel(s).dist for s in specs]
    dists += [MAX16.closure(),
              min_dist(erlang(8, 3.0), erlang(8, 5.0)).closure(),
              kfold_block(erlang(4, 2.0), 8).base]
    for d in dists:
        assert "_law" not in vars(d)
    c = dists[-3]
    c.cdf(1.0)
    assert "_law" in vars(c)


def test_shared_law_across_threads_matches_a_serial_run():
    import sys
    import threading
    ths = np.geomspace(1.5e-3, 40.0, 40)
    serial = MAX16.closure()
    want = {th: (serial.cdf(th), serial._partial_cdfs(th, 3)) for th in ths}
    shared, got, errors = MAX16.closure(), [], []

    def read(seed):
        try:
            for th in np.random.default_rng(seed).permutation(ths):
                got.append((th, shared.cdf(th), shared._partial_cdfs(th, 3)))
        except Exception as exc:  # reported below by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(got) == 4 * ths.size
    for th, F, F3 in got:
        assert F == want[th][0]
        assert np.all(np.abs(F3 - want[th][1]) <= 1e-14 * want[th][1])


# -- the size rule on the sparse step ----------------------------------------


def _old_rule(d, th, K):
    """The size rule alone, as it stood before the sparse step's K = 1
    bound: at most about twice the order Kd + 1 of the Pade row."""
    return (d._law is not None
            and matfun._ph_terms(_rate(d) * th) <= 2 * (K * d.d + 1))


def _theta_for_terms(d, n):
    """The threshold whose uniformized sum at d's rate needs n terms: the
    root of lam + 9 sqrt(lam) + 16 = n, over the rate."""
    root = (-9.0 + math.sqrt(81.0 + 4.0 * (n - 16.0))) / 2.0
    return root * root / _rate(d)


def _mrc64():
    # 32 Nakagami-2 branches in 4 mean groups: order 64, sparse step
    return standard_channel(ChannelSpec("mrc_list", {"components": [
        {"kind": "nakagami", "params": {"m": 2, "S": s}}
        for s in (1.0, 1.3, 1.7, 2.2)] * 8})).dist


def _min8():
    return min_dist(erlang(8, 3.0), erlang(8, 5.0)).closure()


def _between(d, count=5):
    """Thresholds past the old rule at K = 1 and within (d + 1)^2 / 16."""
    lo = _theta_for_terms(d, 2 * (d.d + 1))
    hi = _theta_for_terms(d, (d.d + 1) ** 2 / 16)
    return np.geomspace(1.01 * lo, 0.99 * hi, count)


# on the order-288 max the Pade row itself drifts from the exact 1 by up to
# 4.5e-13 at these thresholds, so that channel is checked against its
# gammainc product below instead
@pytest.mark.parametrize("make", [_mrc64, _min8], ids=["mrc32_d64", "min8_d64"])
def test_sparse_step_reads_the_law_past_the_old_rule(monkeypatch, make):
    d = make()
    assert d._law._jumps is not None
    ths = _between(d)
    pade = [float(matfun.expm_integral(d.x, d.Y, th)[0] @ d.z) for th in ths]
    monkeypatch.setattr(matfun, "expm_integral", None)
    for th, ref in zip(ths, pade):
        assert not _old_rule(d, th, 1) and _takes(d, th)
        F = d.cdf(th)
        if ref >= 1e-6:
            assert abs(F - ref) <= 1e-13 * ref
    # the law grew to what the reads needed, at most twice that
    need = int(matfun._ph_terms(_rate(d) * ths[-1]))
    assert need <= d._law._state.a.size <= 2 * (d.d + 1) ** 2 / 16


@pytest.mark.parametrize("node, k, S1, S2", [
    (max_dist, 16, 4.0, 6.0), (min_dist, 8, 3.0, 5.0),
    (min_dist, 16, 0.5, 0.8)])
def test_wider_rule_keeps_the_gammainc_products(monkeypatch, node, k, S1,
                                                S2):
    c = node(erlang(k, S1), erlang(k, S2)).closure()
    assert c._law._jumps is not None
    monkeypatch.setattr(matfun, "expm_integral", None)
    for th in _between(c, 4):
        assert _takes(c, th) and not _old_rule(c, th, 1)
        F1, F2 = _gammainc(k, k / S1 * th), _gammainc(k, k / S2 * th)
        ref = F1 * F2 if node is max_dist else F1 + F2 - F1 * F2
        assert abs(c.cdf(th) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("make", [MAX16.closure, _mrc64, _min8],
                         ids=["max16_d288", "mrc32_d64", "min8_d64"])
def test_route_does_not_read_the_law_length(make):
    d = make()
    bound = _theta_for_terms(d, (d.d + 1) ** 2 / 16)
    ths = np.geomspace(1e-3 * bound, 3.0 * bound, 25)
    before = [_takes(d, th, K) for th in ths for K in (1, 2, 4)]
    assert d._law._state.a.size == 0
    # a direct read far past the bound makes the law longer than any
    # routed read would
    d._law.partial_cdfs(3.0 * bound)
    assert d._law._state.a.size > 2 * (d.d + 1) ** 2 / 16
    assert [_takes(d, th, K) for th in ths for K in (1, 2, 4)] == before


def test_past_the_bound_and_above_one_fold_keep_the_pade_row(monkeypatch):
    d = _mrc64()
    calls, expm_integral = [], matfun.expm_integral
    monkeypatch.setattr(matfun, "expm_integral",
                        lambda *a: calls.append(a[1].shape) or expm_integral(*a))
    past = 1.1 * _theta_for_terms(d, (d.d + 1) ** 2 / 16)
    assert not _takes(d, past)
    d.cdf(past)
    assert calls == [(64, 64)] and d._law._state.a.size == 0
    # 262 terms: inside the K = 1 bound of 264, past the K = 2 rule of 258
    th = _theta_for_terms(d, 262)
    assert _takes(d, th) and not _takes(d, th, 2)
    d._partial_cdfs(th, 2)
    assert calls == [(64, 64), (128, 128)] and d._law._state.a.size == 0
    c = MAX16.closure()
    for th in _between(c, 6)[-3:]:
        assert _takes(c, th)
        assert not any(_takes(c, th, K) for K in (2, 3))


@pytest.mark.parametrize("k", [289, 1024])
def test_sparse_step_past_order_288_keeps_the_old_rule(k):
    # a read keeps n / 2 stacked vectors of length 2d, so the wider bound
    # would hold ~d^3 / 2 bytes at large orders: the rule stays 2(Kd + 1)
    d = erlang(k, 1.3)
    assert d._law._jumps is not None
    for n in np.geomspace(20, 4 * (k + 1) ** 2 / 16, 40):
        th = _theta_for_terms(d, n)
        for K in (1, 2):
            assert _takes(d, th, K) == _old_rule(d, th, K)
    assert d._law._state.a.size == 0


def _dense_step_channels():
    rng = np.random.default_rng(1)
    M = rng.random((128, 128)) * (rng.random((128, 128)) < 0.1)
    np.fill_diagonal(M, 0.0)
    full = MEDist(np.full(128, 1 / 128), M - np.diag(M.sum(1) + 1.0),
                  np.ones(128))
    return [erlang(k, 1.7) for k in (1, 4, 16, 32, 63)] + [
        max_dist(erlang(6, 3.0), erlang(6, 5.0)).closure(),
        min_dist(erlang(4, 1.0), erlang(4, 2.0)).closure(),
        standard_channel(ChannelSpec("sdc", {"N": 6, "S": 1.3})).dist,
        example2(), full]


@pytest.mark.parametrize("d", _dense_step_channels(), ids=lambda d: f"d{d.d}")
def test_dense_step_keeps_the_old_rule(d):
    assert d._law is None or d._law._jumps is None
    for lam in np.geomspace(1e-3, 1e4, 60):
        th = lam / _rate(d)
        for K in (1, 2, 5):
            assert _takes(d, th, K) == _old_rule(d, th, K)


@pytest.mark.parametrize("make", [MAX16.closure, _mrc64, _min8],
                         ids=["max16_d288", "mrc32_d64", "min8_d64"])
def test_sparse_step_only_widens_the_one_fold_route(make):
    d = make()
    for lam in np.geomspace(1e-3, 1e5, 80):
        th = lam / _rate(d)
        assert _takes(d, th) >= _old_rule(d, th, 1)
        for K in (2, 5):
            assert _takes(d, th, K) == _old_rule(d, th, K)


# -- the density on the law ----------------------------------------------------


def _erlang_pdf(k, mean, t):
    """Erlang-k density with mean ``mean`` at t, at 40 digits."""
    with mpmath.workdps(40):
        r = mpmath.mpf(k) / mean
        return float(r * mpmath.exp(-r * t) * (r * t) ** (k - 1)
                     / mpmath.factorial(k - 1))


@pytest.mark.parametrize("k", [8, 32, 64])
@pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 3.0])
def test_law_density_against_mpmath(k, ratio):
    # the Pade row was off by 3.0e-4 on E32 at 0.01, 2.8e13 on E64 at 0.01
    # and 4.7e-8 on E64 at 0.1; pdf reads the law at those points
    S = 2.5
    d = erlang(k, S)
    ref = _erlang_pdf(k, S, ratio * S)
    assert abs(d._law.density(ratio * S, d._u) - ref) <= 1e-13 * ref
    assert abs(d.pdf(ratio * S) - ref) <= 1e-13 * ref
    many = d._law.density(np.array([ratio * S, 0.0, ratio * S]), d._u)
    assert many[1] == 0.0
    assert abs(many[0] - ref) <= 1e-13 * ref and many[2] == many[0]


def test_law_density_of_a_full_law_against_mpmath():
    # a hypoexponential law, every a_j > 0, over its bulk and both tails
    # (down to 1e-13 at t = 1e-4), against x e^{tY} z at 40 digits
    d = convolve(*[medist.exponential(m) for m in (0.5, 0.8, 1.3, 2.0)])
    ts = np.concatenate([[0.0], np.geomspace(1e-4, 80.0, 25)])
    got = d._law.density(ts, d._u)
    with mpmath.workdps(40):
        Y = mpmath.matrix(d.Y.tolist())
        x, z = mpmath.matrix([d.x.tolist()]), mpmath.matrix(d.z.tolist())
        want = [float((x * mpmath.expm(mpmath.mpf(float(t)) * Y) * z)[0])
                for t in ts[1:]]
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - want) <= 1e-13 * np.abs(want))


def test_density_read_ends_without_a_mass_bound():
    # -Y singular, so no remaining mass bounds the terms left out (here
    # f = 1 - e^{-t}, every a_j = 1 from j = 1 on): the read stops where
    # P(N = n) falls below the least weight, e^-700; at q t = 2000 each
    # weight is good to about eps q t ln(q t), 2e-12
    d = MEDist([1.0, 0.0], [[-1.0, 1.0], [0.0, 0.0]], [0.0, 1.0])
    ts = np.array([0.0, 1e-3, 1.0, 2000.0])
    assert np.allclose(d._law.density(ts, None), -np.expm1(-ts), rtol=2e-12, atol=0)


def test_array_pdf_matches_scalar_calls_on_a_closure():
    # the array reads the law; past q t = 9 the lone points take the Pade
    # row, and out to pdf = 1e-29 at t_max each route is within 3e-14 of
    # x e^{tY} z at 50 digits
    c = max_dist(erlang(4), erlang(4)).closure()
    ts = np.linspace(0.0, c.t_max(), 57)
    assert _takes(c, ts.max(), N=ts.size)
    pv = c.pdf(ts)
    assert np.allclose(pv, [c.pdf(t) for t in ts], rtol=1e-13, atol=0.0)


def test_entropy_on_erlang_makes_no_stacked_exponential(monkeypatch):
    from mekit import infoq
    d = erlang(4)
    want = infoq.entropy_numeric(MEDist(d.x, d.Y, d.z))

    def refuse(M):
        raise AssertionError("stacked matfun.expm called")

    monkeypatch.setattr(matfun, "expm", refuse)
    assert infoq.entropy_numeric(d) == pytest.approx(want, rel=1e-9)


def test_density_route_on_the_dense_step():
    # N points widen the term bound to 64 (d + 1) + 8192 / N up to order
    # 32; a lone point keeps the cdf's rule; non-PH triples and orders past
    # 32 do not widen
    d = erlang(4)
    t = 60.0  # q t = 240, 240 + 9 sqrt(240) + 16 = 395 terms
    assert not _takes(d, t) and not _takes(d, t, N=1000)
    assert _takes(d, t, N=100) and _takes(d, t, N=21)
    assert not _takes(example2(), 0.1, N=1000)
    # q t = 150 needs 276 terms: past 2 (d + 1) at both orders
    assert _takes(erlang(32), 150 / 32, N=2)
    assert not _takes(erlang(33), 150 / 33, N=2)
    assert not _takes(erlang(33), 150 / 33, N=168)


def test_density_reads_extend_the_law_and_share_it():
    d = erlang(16, 2.0)
    d.pdf(np.linspace(0.0, 5.0, 50))
    L = d._law._state.a.size
    d.pdf(np.linspace(0.0, 5.0, 50))
    assert d._law._state.a.size == L
    assert abs(d.cdf(3.0) - _gammainc(16, 8 * 3.0)) <= 1e-13 * d.cdf(3.0)
