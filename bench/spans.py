"""Per-layer tracing from outside mekit.

``Tracer.install()`` replaces the public functions and methods listed in
``TARGETS`` with wrappers that record a span ``[name, start, end, parent,
info]`` in memory, and restores them on ``uninstall()``.  A function is
replaced under every name any mekit module binds it to, so calls made
through ``from .medist import to_rational_lt`` are seen too.  ``src/`` is
not touched.

``layer_metrics`` turns the spans of a traced phase into the per-layer
metrics, per round: calls and self time (a span's duration minus the part
its child spans cover) plus the counts recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings
from collections import defaultdict

# (span name, module, attribute[, class]) -- a class entry wraps a method
TARGETS = [
    ("matfun.expm", "mekit.matfun", "expm"),
    ("matfun.solve_sylvester", "mekit.matfun", "solve_sylvester"),
    ("matfun.quad", "mekit.matfun", "quad"),
    ("matfun.mat_frac_power", "mekit.matfun", "mat_frac_power"),
    ("matfun.eig_decomp", "mekit.matfun", "eig_decomp"),
    ("medist.pdf", "mekit.medist", "pdf", "MEDist"),
    ("medist.lt", "mekit.medist", "lt", "MEDist"),
    ("medist.cdf", "mekit.medist", "cdf", "MEDist"),
    ("medist.moment", "mekit.medist", "moment", "MEDist"),
    ("medist.validate", "mekit.medist", "validate", "MEDist"),
    ("medist.grid", "mekit.medist", "pdf_grid", "MEDist"),
    ("medist.grid", "mekit.medist", "cdf_grid", "MEDist"),
    ("medist.to_rational_lt", "mekit.medist", "to_rational_lt"),
    ("algebra.standard_channel", "mekit.algebra", "standard_channel"),
    ("algebra.convolve", "mekit.algebra", "convolve"),
    ("algebra.kfold_block", "mekit.algebra", "kfold_block"),
    ("algebra.partial_cdfs", "mekit.algebra", "partial_cdfs", "KFoldConvolution"),
    ("algebra.closure", "mekit.algebra", "closure", "MaxOfTwo"),
    ("algebra.closure", "mekit.algebra", "closure", "MinOfTwo"),
    ("bivariate.arq_interference_throughput", "mekit.bivariate",
     "arq_interference_throughput"),
    ("bivariate.sm_mimo_2x2_outage", "mekit.bivariate", "sm_mimo_2x2_outage"),
    ("infoq.lloyd_max", "mekit.infoq", "lloyd_max"),
    ("infoq.entropy_numeric", "mekit.infoq", "entropy_numeric"),
    ("oracle.sample", "mekit.oracle", "sample"),
    ("oracle.inverse_cdf", "mekit.oracle", "_inverse_cdf_grid"),
    ("oracle.mc_metric", "mekit.oracle", "mc_metric"),
    ("cli.main", "mekit.cli", "main"),
]

METRIC_ENTRIES = [
    "outage", "arq_throughput", "harq_truncated_throughput",
    "harq_persistent_throughput", "outage_capacity", "ergodic_capacity",
    "eff_capacity_shannon", "eff_capacity_me_rate", "ber_noncoherent",
    "ber_coherent", "pep", "ncbr_throughput", "optimize_rate",
]
TARGETS += [(f"metrics.{e}", "mekit.metrics", e) for e in METRIC_ENTRIES]

# every per-layer metric, with its unit, in the order they are reported
LAYER_METRICS = (
    [("matfun.expm.calls", "count"), ("matfun.expm.self_s", "s"),
     ("matfun.expm.d3_sum", "count"),
     ("matfun.solve_sylvester.calls", "count"), ("matfun.solve_sylvester.self_s", "s"),
     ("matfun.quad.calls", "count"), ("matfun.quad.evals", "count"),
     ("matfun.quad.self_s", "s"),
     ("matfun.mat_frac_power.self_s", "s"), ("matfun.eig_decomp.self_s", "s"),
     ("matfun.accuracy_warnings", "count"),
     ("medist.pdf.calls", "count"), ("medist.pdf.self_s", "s"),
     ("medist.lt.calls", "count"), ("medist.lt.self_s", "s")]
    + [(f"medist.{n}.self_s", "s")
       for n in ("cdf", "moment", "validate", "grid", "to_rational_lt")]
    + [("algebra.standard_channel.calls", "count"),
       ("algebra.standard_channel.self_s", "s")]
    + [(f"algebra.{n}.self_s", "s")
       for n in ("convolve", "kfold_block", "partial_cdfs", "closure")]
    + [("algebra.out_degree_sum", "count")]
    + [m for e in METRIC_ENTRIES
       for m in ((f"metrics.{e}.calls", "count"), (f"metrics.{e}.self_s", "s"))]
    + [("metrics.fallbacks", "count"),
       ("bivariate.arq_interference_throughput.self_s", "s"),
       ("bivariate.sm_mimo_2x2_outage.self_s", "s"),
       ("infoq.lloyd_max.self_s", "s"), ("infoq.lloyd_max.iterations", "count"),
       ("infoq.entropy_numeric.self_s", "s"),
       ("oracle.sample.direct_s_per_mdraw", "s"),
       ("oracle.sample.inverse_s_per_mdraw", "s"),
       ("oracle.mc_metric.self_s", "s"),
       ("cli.import_s", "s"), ("cli.main.self_s", "s"),
       ("trace.overhead_pct", "%")]
)


def _closure_order(out):
    if hasattr(out, "Q_block"):
        return out.Q_block.shape[0]
    return getattr(out, "dist", out).d


def _fallback(out):
    return bool(getattr(out, "notes", ()))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self.warnings = 0

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, info=None, wrap_args=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args = wrap_args(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        return wrapper

    def op(self, fn):
        """Run one benchmark operation as a root span, counting the
        AccuracyWarnings it raises."""
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = self.wrap("op", fn)()
        from mekit.matfun import AccuracyWarning
        self.warnings += sum(issubclass(w.category, AccuracyWarning) for w in seen)
        return out

    # -- patching -------------------------------------------------------------

    def _hooks(self, name):
        if name == "matfun.expm":
            return {"info": lambda a, out: out.shape[0] ** 3}
        if name == "matfun.quad":
            def count_evals(args):
                f = args[0]
                counter = self._evals

                def g(*x):
                    counter[0] += 1
                    return f(*x)
                return (g,) + tuple(args[1:])
            return {"wrap_args": count_evals}
        if name in ("algebra.convolve", "algebra.kfold_block", "algebra.closure"):
            return {"info": lambda a, out: _closure_order(out)}
        if name.startswith("metrics.") or name.startswith("bivariate.arq"):
            return {"info": lambda a, out: _fallback(out)}
        if name == "infoq.lloyd_max":
            return {"info": lambda a, out: out.iterations}
        if name == "oracle.sample":
            return {"info": lambda a, out: len(out)}
        return {}

    def install(self):
        self._evals = [0]
        for target in TARGETS:
            importlib.import_module(target[1])
        modules = [m for k, m in sys.modules.items()
                   if k == "mekit" or k.startswith("mekit.")]
        for target in TARGETS:
            name, modname, attr = target[:3]
            owner = sys.modules[modname]
            if len(target) == 4:
                cls = getattr(owner, target[3])
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig, **self._hooks(name)))
                continue
            orig = getattr(owner, attr)
            w = self.wrap(name, orig, **self._hooks(name))
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._patches.append((m, k, orig))
                        setattr(m, k, w)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer metrics per round from the recorded spans."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        child = defaultdict(float)
        sums = defaultdict(float)
        inverse_parents = set()
        for i, (name, t0, t1, parent, info) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += t1 - t0
                if name == "oracle.inverse_cdf":
                    inverse_parents.add(parent)
        draws = {"direct": [0.0, 0], "inverse": [0.0, 0]}
        for i, (name, t0, t1, parent, info) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
            if name == "matfun.expm":
                sums["matfun.expm.d3_sum"] += info
            elif name in ("algebra.convolve", "algebra.kfold_block", "algebra.closure"):
                sums["algebra.out_degree_sum"] += info
            elif (name.startswith("metrics.") or name.startswith("bivariate.arq")) and info:
                sums["metrics.fallbacks"] += 1
            elif name == "infoq.lloyd_max":
                sums["infoq.lloyd_max.iterations"] += info
            elif name == "oracle.sample":
                fam = draws["inverse" if i in inverse_parents else "direct"]
                fam[0] += t1 - t0
                fam[1] += info
        out = {}
        for name, _ in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[base] / rounds
            elif field == "self_s":
                out[name] = self_s[base] / rounds
            elif name in sums:
                out[name] = sums[name] / rounds
        out["matfun.quad.evals"] = self._evals[0] / rounds
        out["matfun.accuracy_warnings"] = self.warnings / rounds
        for fam in ("direct", "inverse"):
            s, n = draws[fam]
            out[f"oracle.sample.{fam}_s_per_mdraw"] = s / (n / 1e6) if n else 0.0
        for name, _ in LAYER_METRICS:
            out.setdefault(name, 0.0)
        return out
