"""Public names: every ``__all__`` entry resolves, and every name the
benchmark tracer wraps exists, so a deletion that leaves a stale export or
a stale trace target fails here.  Every scalar argument of a public entry
point is refused by name outside its domain, and every such argument of
``metrics``, ``bivariate``, ``infoq`` and ``oracle`` is in that table.
Every channel argument of ``metrics``, ``algebra``, ``infoq`` and
``bivariate`` reads each channel form as the triple it stands for and
refuses anything else by name, and every such argument is in that table."""

import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
import re
import time
from pathlib import Path

import numpy as np
import pytest

import mekit
from mekit import algebra, bivariate, infoq, metrics, oracle
from mekit.medist import ChannelSpec, MEDist, RationalLT, from_rational_lt

from conftest import run_fresh

SUBMODULES = [importlib.import_module(f"mekit.{m.name}")
              for m in pkgutil.iter_modules(mekit.__path__)]


@pytest.mark.parametrize("module", [mekit] + SUBMODULES,
                         ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


def test_bench_tracer_installs_on_current_source():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    expm = mekit.matfun.expm
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mekit.matfun.expm is not expm
        assert mekit.expm is mekit.matfun.expm
    finally:
        tracer.uninstall()
    assert mekit.matfun.expm is expm and mekit.expm is expm


def test_bare_import_resolves_every_name():
    """After a bare ``import mekit`` every ``__all__`` name and every
    submodule resolves on first use, ``dir(mekit)`` lists them, and each
    name is the object its module defines."""
    code = ("import json, pkgutil, sys, mekit\n"
            "mods = [m.name for m in pkgutil.iter_modules(mekit.__path__)]\n"
            "out = {'mods': [getattr(mekit, m).__name__ for m in mods],\n"
            "       'same': [getattr(mekit, n) is getattr(\n"
            "                    sys.modules[getattr(mekit, n).__module__], n)\n"
            "                for n in mekit.__all__],\n"
            "       'dir': sorted(set(mekit.__all__ + mods) - set(dir(mekit)))}\n"
            "print(json.dumps(out))")
    out = json.loads(run_fresh(code))
    assert out["mods"] == [m.__name__ for m in SUBMODULES]
    assert all(out["same"]) and len(out["same"]) == len(mekit.__all__)
    assert out["dir"] == []


def test_medist_loads_without_the_algebra():
    """The closure assembler ``medist._chain`` lives below ``algebra``,
    which imports ``medist``: a fresh ``import mekit.medist`` loads no
    ``mekit.algebra``."""
    code = ("import sys, mekit.medist\n"
            "print(sorted(m for m in sys.modules if m.startswith('mekit')))")
    loaded = run_fresh(code)
    assert "'mekit.medist'" in loaded and "mekit.algebra" not in loaded


# -- the scalar domain ------------------------------------------------------

RAY = mekit.exponential(1.0)
SCN = bivariate.InterferenceScenario(signal=RAY,
                                     interferers=(mekit.exponential(0.6),))
CFG = oracle.RngConfig(seed=1, n=10)

# the values outside each domain: a threshold is a finite real >= 0, a
# positive scalar a finite real > 0, a count a positive integer
BAD = {"threshold": [math.nan, math.inf, -math.inf, -1.0, np.array([1.0, 2.0])],
       "positive": [math.nan, math.inf, -math.inf, -1.0, 0.0,
                    np.array([1.0, 2.0])],
       "count": [math.nan, math.inf, -math.inf, -1, 0, np.array([1, 2]), 2.5]}
# a rate R > 0 whose e^R overflows a double (past R = 709.78) too
BAD["rate"] = BAD["positive"] + [800.0]
# a probability is a finite real strictly between 0 and 1
BAD["probability"] = [math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0,
                      np.array([0.1, 0.2])]

# (entry point, argument, domain, the call with that argument v and every
# other argument valid)
DOMAIN = [
    (metrics.outage, "theta", "threshold", lambda v: metrics.outage(RAY, v)),
    (metrics.outage_capacity, "q_target", "probability",
     lambda v: metrics.outage_capacity(RAY, v)),
    (metrics.arq_throughput, "R", "positive",
     lambda v: metrics.arq_throughput(RAY, v, 1.0)),
    (metrics.arq_throughput, "theta", "threshold",
     lambda v: metrics.arq_throughput(RAY, 1.0, v)),
    (metrics.harq_truncated_throughput, "R", "positive",
     lambda v: metrics.harq_truncated_throughput(RAY, v, 2, 1.0)),
    (metrics.harq_truncated_throughput, "K", "count",
     lambda v: metrics.harq_truncated_throughput(RAY, 1.0, v, 1.0)),
    (metrics.harq_truncated_throughput, "theta", "threshold",
     lambda v: metrics.harq_truncated_throughput(RAY, 1.0, 2, v)),
    (metrics.harq_persistent_throughput, "R", "positive",
     lambda v: metrics.harq_persistent_throughput(RAY, v, 1.0)),
    (metrics.harq_persistent_throughput, "theta", "threshold",
     lambda v: metrics.harq_persistent_throughput(RAY, 1.0, v)),
    (metrics.harq_persistent_throughput, "diversity", "count",
     lambda v: metrics.harq_persistent_throughput(RAY, 1.0, 1.0, diversity=v)),
    (metrics.eff_capacity_me_rate, "theta", "positive",
     lambda v: metrics.eff_capacity_me_rate(RAY, v)),
    (metrics.eff_capacity_shannon, "theta", "positive",
     lambda v: metrics.eff_capacity_shannon(RAY, v)),
    (metrics.ber_noncoherent, "a", "positive",
     lambda v: metrics.ber_noncoherent(RAY, v)),
    (metrics.ber_coherent, "a", "positive",
     lambda v: metrics.ber_coherent(RAY, v)),
    (metrics.optimize_rate, "theta", "positive",
     lambda v: metrics.optimize_rate("arq", RAY, [0.5, v])),
    (metrics.mimo_high_snr_outage, "N", "count",
     lambda v: metrics.mimo_high_snr_outage(v, 1.0, 10.0)),
    (metrics.mimo_high_snr_outage, "R", "threshold",
     lambda v: metrics.mimo_high_snr_outage(2, v, 10.0)),
    (metrics.theta_absolute, "R", "threshold",
     lambda v: metrics.theta_absolute(v)),
    (metrics.theta_unit_mean, "R", "threshold",
     lambda v: metrics.theta_unit_mean(v, 2.0)),
    (metrics.theta_unit_mean, "S", "positive",
     lambda v: metrics.theta_unit_mean(1.0, v)),
    (bivariate.arq_interference_throughput, "R", "positive",
     lambda v: bivariate.arq_interference_throughput(SCN, v)),
    (bivariate.interference_g_theta, "theta", "positive",
     lambda v: bivariate.interference_g_theta(SCN, v)),
    (bivariate.sm_mimo_2x2_outage, "R", "rate",
     lambda v: bivariate.sm_mimo_2x2_outage(v)),
    (bivariate.integral_sylvester, "a", "threshold",
     lambda v: bivariate.integral_sylvester(v, 1.0, [1.0], [[-1.0]], [[1.0]],
                                            [[-2.0]], [1.0])),
    (bivariate.InterferenceScenario, "theta", "threshold",
     lambda v: bivariate.InterferenceScenario(signal=RAY, interferers=(RAY,),
                                              theta=v)),
    (infoq.lloyd_max, "M", "count", lambda v: infoq.lloyd_max(RAY, v)),
    (infoq.lloyd_max, "max_iter", "count",
     lambda v: infoq.lloyd_max(RAY, 2, max_iter=v)),
    (infoq.panter_dite_mse, "M", "count",
     lambda v: infoq.panter_dite_mse(RAY, v)),
    (oracle.RngConfig, "n", "count", lambda v: oracle.RngConfig(seed=1, n=v)),
    (oracle.mc_metric, "theta", "threshold",
     lambda v: oracle.mc_metric("outage", {"dist": RAY, "theta": v}, CFG)),
    (oracle.mc_metric, "R", "positive",
     lambda v: oracle.mc_metric("arq", {"dist": RAY, "R": v, "theta": 1.0},
                                CFG)),
    (oracle.mc_metric, "a", "positive",
     lambda v: oracle.mc_metric("ber", {"dist": RAY, "a": v}, CFG)),
    (oracle.mc_metric, "K", "count",
     lambda v: oracle.mc_metric("harq_truncated", {"dist": RAY, "R": 1.0,
                                                   "theta": 1.0, "K": v}, CFG)),
    (MEDist.cdf, "t", "threshold", lambda v: RAY.cdf(v)),
    (MEDist.moment, "k", "count", lambda v: RAY.moment(v)),
    (MEDist.scale_mean, "S", "positive", lambda v: RAY.scale_mean(v)),
    (algebra.kfold_block, "K", "count", lambda v: algebra.kfold_block(RAY, v)),
    (algebra.KFoldConvolution.partial_cdfs, "theta", "threshold",
     lambda v: algebra.kfold_block(RAY, 2).partial_cdfs(v)),
    (algebra.MaxOfTwo.cdf, "t", "threshold",
     lambda v: algebra.max_dist(RAY, RAY).cdf(v)),
    (algebra.MinOfTwo.cdf, "t", "threshold",
     lambda v: algebra.min_dist(RAY, RAY).cdf(v)),
]


@pytest.mark.parametrize("call, arg, value", [
    pytest.param(call, arg, v, id=f"{fn.__qualname__}-{arg}-{v!r}")
    for fn, arg, domain, call in DOMAIN for v in BAD[domain]])
def test_scalar_outside_its_domain_refused_by_name(call, arg, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert re.match(rf"{arg}\b", str(info.value)), str(info.value)


def test_every_scalar_argument_is_in_the_domain_table():
    named = {"R", "theta", "a", "K", "M", "n", "diversity", "q_target"}
    covered = {(fn, arg) for fn, arg, _, _ in DOMAIN}
    missing = [f"{module.__name__}.{name}({arg})"
               for module in (metrics, bivariate, infoq, oracle)
               for name in module.__all__
               if inspect.isfunction(fn := getattr(module, name))
               for arg in sorted(named & set(inspect.signature(fn).parameters))
               if (fn, arg) not in covered]
    assert not missing, f"arguments missing from DOMAIN: {missing}"


# every public entry point of metrics, algebra and infoq that needs a triple,
# as a function of the channel; outage, arq_throughput, outage_capacity and
# ncbr_throughput read an unclosed node by its product form instead
NODE_READERS = {
    "ber_noncoherent": lambda c: metrics.ber_noncoherent(c, 1.0).value,
    "ber_coherent": lambda c: metrics.ber_coherent(c, 0.5).value,
    "diversity_gain": metrics.diversity_gain,
    "ergodic_capacity": lambda c: metrics.ergodic_capacity(c).value,
    "eff_capacity_me_rate":
        lambda c: metrics.eff_capacity_me_rate(c, 0.5).value,
    "eff_capacity_shannon":
        lambda c: metrics.eff_capacity_shannon(c, 0.5).value,
    "pep": lambda c: metrics.pep([(c, 1.0), (RAY, 0.5)]).value,
    "harq_truncated_throughput":
        lambda c: metrics.harq_truncated_throughput(c, 1.0, 3, 1.0).value,
    "harq_persistent_throughput": lambda c: metrics.harq_persistent_throughput(
        c, 1.0, 1.0, diversity=2).value,
    "convolve": lambda c: algebra.convolve(c, RAY).to_json(),
    "kfold_block": lambda c: algebra.kfold_block(c, 3).partial_cdfs(1.0),
    "max_dist": lambda c: algebra.max_dist(c, RAY).closure().to_json(),
    "entropy_numeric": infoq.entropy_numeric,
    "mi_additive_channel": lambda c: infoq.mi_additive_channel(c, RAY),
    "lloyd_max": lambda c: infoq.lloyd_max(c, 4).centroids,
    "panter_dite_mse": lambda c: infoq.panter_dite_mse(c, 4),
}


@pytest.mark.parametrize("node", [algebra.max_dist, algebra.min_dist],
                         ids=["max", "min"])
@pytest.mark.parametrize("name", NODE_READERS)
def test_unclosed_node_reads_as_its_closure(node, name):
    n = node(mekit.erlang(2), mekit.exponential(1.0))
    read = NODE_READERS[name]
    assert np.array_equal(read(n), read(n.closure()))


def test_sampler_refuses_an_unclosed_node_by_name():
    n = algebra.max_dist(mekit.erlang(2), mekit.exponential(1.0))
    with pytest.raises(TypeError, match="expected a distribution"):
        oracle.sample(n, CFG)


# -- the channel boundary -----------------------------------------------------

E2 = mekit.erlang(2)

# each channel form, built fresh, and the triple it stands for.  Every one
# has unit mean, which the rate optimizer and the interference ratio require:
# of two Erlang-2 of rate r the min has mean 5/(4r) and the max 11/(4r), so
# r = 5/4 (part mean 1.6) and r = 11/4 (part mean 8/11)
FORMS = {
    "dist": lambda: (E2, E2),
    "effective": lambda: (algebra.EffectiveChannel(E2), E2),
    "rational": lambda: (lt := RationalLT([4.0], [4.0, 4.0]),
                         from_rational_lt(lt)),
    "max": lambda: (n := algebra.max_dist(mekit.erlang(2, 8 / 11),
                                          mekit.erlang(2, 8 / 11)),
                    n.closure()),
    "min": lambda: (n := algebra.min_dist(mekit.erlang(2, 1.6),
                                          mekit.erlang(2, 1.6)), n.closure()),
}


def _interference(scn):
    """Both throughput paths and the optimizer's ratio on one scenario."""
    return (bivariate.arq_interference_throughput(scn, 1.0, "kron").value,
            bivariate.arq_interference_throughput(scn, 1.0, "sylvester").value,
            bivariate.interference_g_theta(scn, 0.5))


def _persistent(c):
    return tuple(metrics.harq_persistent_throughput(
        c, 1.0, 1.0, diversity=2, method=m).value
        for m in ("companion", "roots_of_unity"))


# (entry point, channel argument, the call with that argument c and every
# other argument valid)
CHANNEL = [
    (metrics.outage, "channel", lambda c: metrics.outage(c, 1.0).value),
    (metrics.arq_throughput, "channel",
     lambda c: metrics.arq_throughput(c, 1.0, 1.0).value),
    (metrics.outage_capacity, "channel",
     lambda c: metrics.outage_capacity(c, 0.1).value),
    (metrics.ncbr_throughput, "links",
     lambda c: metrics.ncbr_throughput({"13": c, "32": RAY, "23": RAY,
                                        "31": c}, 1.0, 0.5).value),
    (metrics.harq_truncated_throughput, "channel",
     lambda c: metrics.harq_truncated_throughput(c, 1.0, 3, 1.0).value),
    (metrics.harq_persistent_throughput, "channel", _persistent),
    (metrics.eff_capacity_me_rate, "channel",
     lambda c: metrics.eff_capacity_me_rate(c, 0.5).value),
    (metrics.eff_capacity_shannon, "channel",
     lambda c: metrics.eff_capacity_shannon(c, 0.5).value),
    (metrics.ergodic_capacity, "channel",
     lambda c: metrics.ergodic_capacity(c).value),
    (metrics.ber_noncoherent, "channel",
     lambda c: metrics.ber_noncoherent(c, 1.0).value),
    (metrics.ber_coherent, "channel",
     lambda c: metrics.ber_coherent(c, 0.5).value),
    (metrics.pep, "branches",
     lambda c: metrics.pep([(c, 1.0), (RAY, 0.5)]).value),
    (metrics.diversity_gain, "channel", metrics.diversity_gain),
    (metrics.diversity_gain_numeric, "channel_um",
     metrics.diversity_gain_numeric),
    (metrics.optimize_rate, "channel",
     lambda c: [(o.g, o.R_opt) for m in ("arq", "harq_persistent")
                for o in metrics.optimize_rate(m, c, [0.5, 2.0])]),
    (algebra.convolve, "parts",
     lambda c: algebra._triple(algebra.convolve(c, RAY)).to_json()),
    (algebra.kfold_block, "dist",
     lambda c: algebra.kfold_block(c, 3).partial_cdfs(1.0)),
    (algebra.max_dist, "d1",
     lambda c: algebra.max_dist(c, RAY).closure().to_json()),
    (algebra.max_dist, "d2",
     lambda c: algebra.max_dist(RAY, c).closure().to_json()),
    (algebra.min_dist, "d1",
     lambda c: algebra.min_dist(c, RAY).closure().to_json()),
    (algebra.min_dist, "d2",
     lambda c: algebra.min_dist(RAY, c).closure().to_json()),
    (infoq.entropy_numeric, "dist", infoq.entropy_numeric),
    (infoq.mi_additive_channel, "dx",
     lambda c: infoq.mi_additive_channel(c, RAY)),
    (infoq.mi_additive_channel, "dw",
     lambda c: infoq.mi_additive_channel(RAY, c)),
    (infoq.lloyd_max, "dist", lambda c: infoq.lloyd_max(c, 4).centroids),
    (infoq.panter_dite_mse, "dist", lambda c: infoq.panter_dite_mse(c, 4)),
    (bivariate.InterferenceScenario, "signal",
     lambda c: _interference(bivariate.InterferenceScenario(
         signal=c, interferers=(mekit.exponential(0.6),)))),
    (bivariate.InterferenceScenario, "interferers",
     lambda c: _interference(bivariate.InterferenceScenario(
         signal=RAY, interferers=(c,)))),
]
CHANNEL_IDS = [f"{fn.__qualname__}-{arg}" for fn, arg, _ in CHANNEL]

# these read an unclosed node by the product form of its parts, which
# agrees with the closure's triple to rounding
PRODUCT_FORM = {metrics.outage, metrics.arq_throughput,
                metrics.outage_capacity, metrics.ncbr_throughput}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("fn, arg, call", CHANNEL, ids=CHANNEL_IDS)
def test_every_channel_form_reads_as_its_triple(fn, arg, call, form):
    channel, triple = FORMS[form]()
    got, want = call(channel), call(triple)
    if form in ("max", "min") and fn in PRODUCT_FORM:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_equal(got, want)


@pytest.mark.parametrize("bad", ["rayleigh", ChannelSpec("rayleigh", {"S": 1.0}),
                                 [1.0]], ids=["str", "spec", "list"])
@pytest.mark.parametrize("fn, arg, call", CHANNEL, ids=CHANNEL_IDS)
def test_non_channel_refused_by_name(fn, arg, call, bad):
    with pytest.raises(TypeError, match="^channel"):
        call(bad)


# the frozen records that hold the triples they are given; the entry points
# above build them from any channel form
RECORDS = {algebra.EffectiveChannel, algebra.MaxOfTwo, algebra.MinOfTwo}


def test_every_channel_argument_is_in_the_channel_table():
    named = {"channel", "channel_um", "dist", "d1", "d2", "dx", "dw", "parts",
             "branches", "links", "signal", "interferers"}
    covered = {(fn, arg) for fn, arg, _ in CHANNEL}
    missing = [f"{module.__name__}.{name}({arg})"
               for module in (metrics, algebra, infoq, bivariate)
               for name in module.__all__
               if (fn := getattr(module, name)) not in RECORDS
               for arg in sorted(named & set(inspect.signature(fn).parameters))
               if (fn, arg) not in covered]
    assert not missing, f"arguments missing from CHANNEL: {missing}"


def test_unclosed_node_keeps_its_closure():
    node = algebra.max_dist(mekit.erlang(2), mekit.exponential(1.0))
    assert algebra._triple(node) is algebra._triple(node)


def test_node_reads_cost_about_what_its_closure_reads_cost():
    """50 truncated-HARQ reads on an order-80 max node build one closure
    and one jump law, not one each."""
    a, b = mekit.erlang(8, 4.0), mekit.erlang(8, 6.0)
    thetas = np.linspace(0.5, 15.0, 50)

    def reads(channel):
        t = time.perf_counter()
        for th in thetas:
            metrics.harq_truncated_throughput(channel, 1.0, 4, th)
        return time.perf_counter() - t

    node = min(reads(algebra.max_dist(a, b)) for _ in range(3))
    closed = min(reads(algebra.max_dist(a, b).closure()) for _ in range(3))
    assert node <= 2.0 * closed, (node, closed)
