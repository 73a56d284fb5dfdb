"""Operations of the four workloads: the mekit call each one times, the
reference it is checked against and the check itself.

``build(workload, seed, chans)`` turns the plain data of ``inputs.make``
into a list of :class:`Op`.  ``Op.run`` is the only code inside a timed
interval.  ``Op.reference`` is computed once, before timing, by ``refs``;
``Op.check`` compares an output with it and returns the relative errors of
the values it compared, or raises ``checks.CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import checks
import refs
from checks import CLOSED, ENTROPY, LLOYD, QUAD, close, z_test

import mekit
from mekit import bivariate, infoq, metrics, oracle


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    reference: Callable[[], Any]
    check: Callable[[Any, Any], list]


class RefChannels:
    """Reference laws by channel name, built on first use."""

    def __init__(self, specs):
        self.specs = specs
        self._built = {}

    def __getitem__(self, name):
        if name not in self._built:
            self._built[name] = refs.build(self.specs[name])
        return self._built[name]


def _closed(scale=1.0):
    return lambda out, ref: [close(out.value, ref, CLOSED, scale)]


def _quad(out, ref):
    return [close(out.value, ref, QUAD)]


# -- sweep ----------------------------------------------------------------------


def _sweep_op(kind, p, ch, rc):
    th = lambda R: math.expm1(R)
    if kind == "outage":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.outage(d, th(p["R"])),
                  lambda: refs.outage(c, th(p["R"])), _closed())
    if kind == "arq":
        d, c, R = ch[p["ch"]], rc[p["ch"]], p["R"]
        return Op(kind, lambda: metrics.arq_throughput(d, R, th(R)),
                  lambda: refs.arq(c, R, th(R)), _closed(R))
    if kind == "harq_truncated":
        d, c, R, K = ch[p["ch"]], rc[p["ch"]], p["R"], p["K"]
        theta = p.get("theta", th(R))
        return Op(kind, lambda: metrics.harq_truncated_throughput(d, R, K, theta),
                  lambda: refs.harq_truncated(c, R, K, theta), _closed(R))
    if kind == "harq_persistent":
        d, c, R, N = ch[p["ch"]], rc[p["ch"]], p["R"], p["N"]
        return Op(f"{kind}/{p['method']}",
                  lambda: metrics.harq_persistent_throughput(
                      d, R, th(R), diversity=N, method=p["method"]),
                  lambda: refs.harq_persistent(c, R, th(R), N), _closed(R))
    if kind == "ber_noncoherent":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.ber_noncoherent(d, p["a"]),
                  lambda: refs.ber_noncoherent(c, p["a"]), _closed())
    if kind == "ber_coherent":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.ber_coherent(d, p["a"]),
                  lambda: refs.ber_coherent(c, p["a"]), _closed())
    if kind == "eff_capacity_me_rate":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.eff_capacity_me_rate(d, p["theta"]),
                  lambda: refs.eff_capacity_me_rate(c, p["theta"]), _closed())
    if kind == "ncbr":
        links = {k: ch[v] for k, v in p["links"].items()}
        rlinks = {k: v for k, v in p["links"].items()}
        return Op(kind, lambda: metrics.ncbr_throughput(links, p["R12"], p["R21"]),
                  lambda: refs.ncbr({k: rc[v] for k, v in rlinks.items()},
                                    p["R12"], p["R21"]),
                  _closed(p["R12"]))
    if kind == "arq_interference":
        scn = bivariate.InterferenceScenario(signal=ch[p["ch"]],
                                             interferers=(ch[p["interferer"]],))
        R = p["R"]
        return Op(f"{kind}/{p.get('path', 'auto')}",
                  lambda: bivariate.arq_interference_throughput(
                      scn, R, path=p.get("path", "auto")),
                  lambda: refs.arq_interference(rc[p["ch"]], rc[p["interferer"]], R),
                  _closed(R))
    if kind == "outage_capacity":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.outage_capacity(d, p["q"]),
                  lambda: refs.outage_capacity(c, p["q"]), _closed())
    if kind == "ergodic_capacity":
        d, c, spec = ch[p["ch"]], rc[p["ch"]], rc.specs[p["ch"]]
        S = spec["params"]["S"] if spec["kind"] == "rayleigh" else None
        return Op(kind, lambda: metrics.ergodic_capacity(d),
                  lambda: refs.ergodic_capacity(c, rayleigh_S=S), _quad)
    if kind == "eff_capacity_shannon":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: metrics.eff_capacity_shannon(d, p["theta"]),
                  lambda: refs.eff_capacity_shannon(c, p["theta"]), _quad)
    if kind == "pep":
        br = [(ch[n], a) for n, a in p["branches"]]
        return Op(kind, lambda: metrics.pep(br),
                  lambda: refs.pep([(rc[n], a) for n, a in p["branches"]]), _quad)
    if kind == "sm_mimo_2x2_outage":
        return Op(kind, lambda: bivariate.sm_mimo_2x2_outage(p["R"]),
                  lambda: refs.sm_mimo_2x2_outage(p["R"]), _quad)
    if kind == "entropy":
        d, c = ch[p["ch"]], rc[p["ch"]]
        return Op(kind, lambda: infoq.entropy_numeric(d),
                  lambda: refs.entropy(c),
                  lambda out, ref: [close(out, ref, ENTROPY)])
    if kind == "lloyd_max":
        d, c, M = ch[p["ch"]], rc[p["ch"]], p["M"]
        return Op(kind, lambda: infoq.lloyd_max(d, M), lambda: c, _lloyd_check(M))
    raise ValueError(f"unknown sweep op {kind!r}")


def _lloyd_check(M, max_iter=10_000):
    """Lloyd-Max stops before ``max_iter``, puts each threshold at the
    midpoint of its centroids and each centroid at its cell's conditional
    mean.  Cell means depend on the output, so they are memoized per output
    (rounds repeat the same output)."""
    memo = {}

    def check(out, ref):
        if not out.iterations < max_iter:
            raise checks.CheckFailed(f"lloyd_max stopped at max_iter={max_iter}")
        u, l = list(out.centroids), list(out.thresholds)
        if len(u) != M or len(l) != M - 1:
            raise checks.CheckFailed("lloyd_max returned the wrong number of levels")
        errs = [close(l[q], (u[q] + u[q + 1]) / 2, LLOYD, what="threshold")
                for q in range(M - 1)]
        key = tuple(l)
        if key not in memo:
            memo[key] = refs.cell_means(ref, [0.0] + l + [math.inf])
        errs += [close(u[q], memo[key][q], LLOYD, what=f"centroid {q}")
                 for q in range(M)]
        return errs

    return check


# -- closure --------------------------------------------------------------------


def _lt_matrix(x, Y, z, s):
    import numpy as np
    return float(x @ np.linalg.solve(s * np.eye(Y.shape[0]) - Y, z))


def _closure_op(kind, p, ch, rc):
    name = p["ch"]
    spec = rc.specs[name]
    if kind == "kfold_block":
        d, K = ch[name], p["K"]
        m = spec["params"]["m"]
        rate = m / spec["params"]["S"]
        pts = [c * rate / (m * K) for c in (0.5, 2.0)]

        def check(out, ref):
            import numpy as np
            zK = np.zeros(out.Q_block.shape[0])
            zK[-d.d:] = d.z
            return [close(_lt_matrix(out.p_block, out.Q_block, zK, s), r, CLOSED,
                          what=f"L^K({s:.4g})") for s, r in zip(pts, ref)]

        return Op(kind, lambda: mekit.kfold_block(d, K),
                  lambda: [float(rc[name].lt(s) ** K) for s in pts], check)
    if kind == "closure":
        if spec["kind"] == "mrc_list":
            cs = mekit.ChannelSpec("mrc_list", spec["params"])
            run = lambda: mekit.standard_channel(cs).dist
        else:
            a, b = ch[name + "/of"]
            pair = mekit.max_dist if spec["kind"] == "max" else mekit.min_dist
            run = lambda: pair(a, b).closure()
        mean = float(rc[name].mean())
        pts = [0.5 / mean, 2.0 / mean]

        def check(out, ref):
            return [close(_lt_matrix(out.x, out.Y, out.z, s), r, CLOSED,
                          what=f"L({s:.4g})") for s, r in zip(pts, ref)]

        return Op(f"closure/{spec['kind']}", run,
                  lambda: [float(rc[name].lt(s)) for s in pts], check)
    if kind == "outage_closure":
        d, theta = ch[name], p["theta"]
        return Op(f"outage/{spec['kind']}", lambda: metrics.outage(d, theta),
                  lambda: refs.outage(rc[name], theta), _closed())
    return _sweep_op(kind, p, ch, rc)


# -- montecarlo -----------------------------------------------------------------


def _mc_op(kind, p, ch, rc):
    cfg = oracle.RngConfig(seed=p["rng_seed"], n=p["n"])
    R = p.get("R")
    th = math.expm1(R) if R is not None else None
    if kind in ("outage", "arq", "harq_truncated", "harq_persistent"):
        scn = {"dist": ch[p["ch"]], "R": R, "theta": th}
        if kind == "harq_truncated":
            scn["K"] = p["K"]
        ref = {"outage": lambda c: refs.outage(c, th),
               "arq": lambda c: refs.arq(c, R, th),
               "harq_truncated": lambda c: refs.harq_truncated(c, R, p["K"], th),
               "harq_persistent": lambda c: refs.harq_persistent(c, R, th)}[kind]
        name = p["ch"]
        reference = lambda: ref(rc[name])
    elif kind == "ber":
        scn = {"dist": ch[p["ch"]], "a": p["a"], "detection": p["detection"]}
        f = refs.ber_coherent if p["detection"] == "coherent" else refs.ber_noncoherent
        reference = lambda: f(rc[p["ch"]], p["a"])
        kind = f"ber_{p['detection']}"
    elif kind == "ncbr":
        scn = {"links": {k: ch[v] for k, v in p["links"].items()},
               "R12": p["R12"], "R21": p["R21"]}
        reference = lambda: refs.ncbr({k: rc[v] for k, v in p["links"].items()},
                                      p["R12"], p["R21"])
    elif kind == "arq_interference":
        scn = {"signal": ch[p["ch"]], "interferers": [ch[p["interferer"]]], "R": R}
        reference = lambda: refs.arq_interference(rc[p["ch"]], rc[p["interferer"]], R)
    else:
        raise ValueError(f"unknown montecarlo op {kind!r}")
    mc_kind = kind.split("_")[0] if kind.startswith("ber") else kind
    return Op(f"mc/{kind}", lambda: oracle.mc_metric(mc_kind, scn, cfg), reference,
              lambda out, ref: [z_test(out.value, out.stderr, ref)])


# -- cli ------------------------------------------------------------------------


def run_cli_subprocess(argv, env):
    proc = subprocess.run([sys.executable, "-m", "mekit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv):
    from mekit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _rows(text, argv):
    if "--out" in argv and argv[argv.index("--out") + 1] == "csv":
        lines = text.strip().splitlines()
        head = lines[0].split(",")
        return [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    return json.loads(text)["rows"]


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _cli_reference(kind, spec, argv):
    """Reference values a command's output is checked against, keyed so
    the check can find them from the output rows."""
    metric = _flag(argv, "--metric")
    if kind == "channel":
        c = refs.build(spec)
        return {"degree": c.order, "mean": float(c.mean()),
                "second_moment": float(c.moment(2))}
    if kind == "verify":
        c = refs.build(spec)
        return refs.outage(c, math.expm1(float(_flag(argv, "--R"))))
    if kind == "optimize":
        return None  # the optimality conditions need the output's own rows
    sweep_key, span = _flag(argv, "--sweep").split("=")
    a, b, n = span.split(":")
    vals = [float(a) + (float(b) - float(a)) * i / (int(n) - 1) for i in range(int(n))]
    out = []
    for v in vals:
        P = dict(spec["params"])
        R = float(_flag(argv, "--R", "1"))
        if sweep_key == "S":
            P["S"] = v
        elif sweep_key == "R":
            R = v
        c = refs.build({"kind": spec["kind"], "params": P})
        if metric == "outage" and "per-unit-mean" in argv:
            unit = refs.build({"kind": spec["kind"], "params": {**P, "S": 1.0}})
            out.append(refs.outage(unit, math.expm1(R) / float(_flag(argv, "--S"))))
        elif metric == "outage":
            out.append(refs.outage(c, math.expm1(R)))
        elif metric == "harq":
            out.append(refs.harq_truncated(c, R, int(_flag(argv, "--K")), math.expm1(R)))
        elif metric == "ber":
            out.append(refs.ber_coherent(c, v))
        elif metric == "ergodic_capacity":
            out.append(refs.ergodic_capacity(c, rayleigh_S=P["S"]))
        else:
            raise ValueError(f"no reference for cli metric {metric!r}")
    return out


def _cli_check(kind, argv):
    metric = _flag(argv, "--metric")

    def check(out, ref):
        code, text, err = out
        if code != 0:
            raise checks.CheckFailed(f"mekit {kind} exited {code}: {err.strip()}")
        if kind == "channel":
            obj = json.loads(text)
            if obj["degree"] != ref["degree"] or obj["validity"]["failures"]:
                raise checks.CheckFailed(f"channel report {obj}")
            return [close(obj[k], ref[k], CLOSED, what=k)
                    for k in ("mean", "second_moment")]
        if kind == "verify":
            obj = json.loads(text)
            if not obj["pass"]:
                raise checks.CheckFailed(f"verify reported failure: {obj}")
            # the Monte Carlo figure is checked by its z-score but not scored
            # in digits, which would only measure sampling noise at this n
            z_test(obj["monte_carlo"], obj["stderr"], ref, "monte_carlo")
            return [close(obj["closed_form"], ref, CLOSED, what="closed_form")]
        rows = _rows(text, argv)
        if kind == "optimize":
            return _optimality(metric, rows)
        if len(rows) != len(ref):
            raise checks.CheckFailed(f"{len(rows)} rows, expected {len(ref)}")
        fam = QUAD if metric in ("ber", "ergodic_capacity") else CLOSED
        return [close(r["value"], v, fam, what=f"row {i}")
                for i, (r, v) in enumerate(zip(rows, ref))]

    return check


def _optimality(metric, rows):
    """Rayleigh optima in closed form.  ARQ: T = R e^{-Theta} with
    R e^R = S (Lambert W).  Persistent HARQ: N(Theta) = 1 + Theta, so
    T = R / (1 + Theta) with R e^R = S (1 + Theta)."""
    errs = []
    for r in rows:
        if r["boundary"] in (True, "true"):
            raise checks.CheckFailed(f"unexpected boundary row {r}")
        Th, Ro, To, S = (float(r[k]) for k in ("Theta", "R_opt", "T_opt", "S"))
        errs.append(close(S, math.expm1(Ro) / Th, CLOSED, what="S"))
        if metric == "arq":
            errs.append(close(Ro, refs.rayleigh_arq_optimum(S), CLOSED, what="R_opt"))
            errs.append(close(To, Ro * math.exp(-Th), CLOSED, what="T_opt"))
        else:
            errs.append(close(Ro * math.exp(Ro), S * (1 + Th), CLOSED, what="R e^R"))
            errs.append(close(To, Ro / (1 + Th), CLOSED, what="T_opt"))
    return errs


def _cli_op(kind, p, spec_files, specs, env, in_process):
    argv = [kind, "--spec", spec_files[p["spec"]], *p["argv"]]
    if in_process:
        run = lambda: run_cli_inprocess(argv)
    else:
        run = lambda: run_cli_subprocess(argv, env)
    return Op(f"cli/{kind}/{_flag(p['argv'], '--metric', 'channel')}", run,
              lambda: _cli_reference(kind, specs[p["spec"]], p["argv"]),
              _cli_check(kind, p["argv"]))


def write_spec_files(specs, directory):
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, spec in specs.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        paths[name] = path
    return paths


def build(workload, data, chans, cli_dir=None, env=None, in_process=False):
    """The list of :class:`Op` of one round."""
    rc = RefChannels(data["channels"])
    if workload == "cli":
        files = write_spec_files(data["channels"], cli_dir)
        return [_cli_op(k, p, files, data["channels"], env, in_process)
                for k, p in data["ops"]]
    make = {"sweep": _sweep_op, "closure": _closure_op, "montecarlo": _mc_op}[workload]
    return [make(k, p, chans, rc) for k, p in data["ops"]]
