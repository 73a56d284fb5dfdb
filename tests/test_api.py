"""Public names: every ``__all__`` entry resolves, and every name the
benchmark tracer wraps exists, so a deletion that leaves a stale export or
a stale trace target fails here.  Every scalar argument of a public entry
point is refused by name outside its domain, and every such argument of
``metrics``, ``bivariate``, ``infoq`` and ``oracle`` is in that table."""

import importlib
import importlib.util
import inspect
import json
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import mekit
from mekit import algebra, bivariate, infoq, metrics, oracle
from mekit.medist import MEDist

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

# (entry point, argument, domain, the call with that argument v and every
# other argument valid)
DOMAIN = [
    (metrics.outage, "theta", "threshold", lambda v: metrics.outage(RAY, v)),
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
    named = {"R", "theta", "a", "K", "M", "n", "diversity"}
    covered = {(fn, arg) for fn, arg, _, _ in DOMAIN}
    missing = [f"{module.__name__}.{name}({arg})"
               for module in (metrics, bivariate, infoq, oracle)
               for name in module.__all__
               if inspect.isfunction(fn := getattr(module, name))
               for arg in sorted(named & set(inspect.signature(fn).parameters))
               if (fn, arg) not in covered]
    assert not missing, f"arguments missing from DOMAIN: {missing}"
