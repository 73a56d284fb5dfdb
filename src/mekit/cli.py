"""Command-line front end: build channels from JSON specs, evaluate
metrics, run parameter sweeps, verify closed forms against Monte Carlo,
and emit plot-ready JSON/CSV.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
Numbers are serialized with 17 significant digits so output round-trips
exactly; output is a pure function of (args, spec file, seed).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra, metrics
from .medist import ChannelSpec, ConstructionError, RationalLT

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2

CSV_HEADER = ("metric,sweep_key,sweep_value,R,S,K,theta,a,Theta,"
              "value,path,imag_residual,quad_error")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INVALID


def _load_spec(path: str) -> ChannelSpec:
    try:
        with open(path) as fh:
            text = fh.read()
        return ChannelSpec.from_json(text)
    except OSError as exc:
        raise ConstructionError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConstructionError(
            f"malformed JSON in {path} at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc


def _resolve_threshold(channel, args):
    """Return (dist, Theta) under the selected threshold convention."""
    dist = channel.dist
    if args.Theta_convention == "absolute":
        return dist, metrics.theta_absolute(args.R)
    if args.S is None:
        raise ConstructionError(
            "--Theta-convention per-unit-mean requires --S")
    return dist.to_unit_mean(), metrics.theta_unit_mean(args.R, args.S)


def _parse_sweep(text: str):
    key, sep, span = text.partition("=")
    if not sep:
        raise ConstructionError(
            f"bad --sweep {text!r}; expected key=start:stop:count")
    return key.strip(), _parse_span(span)


def _parse_span(text: str):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ConstructionError(
            f"bad sweep {text!r}; expected start:stop:count") from exc
    if n < 1:
        raise ConstructionError(f"bad sweep {text!r}: count {n} is below 1")
    return np.linspace(a, b, n)


# -- channel ------------------------------------------------------------------


def cmd_channel(args) -> int:
    spec = _load_spec(args.spec)
    if spec.kind == "rational_lt":
        problems = RationalLT(spec.params["p"], spec.params["q"]).check()
        if problems:
            report = {"valid": False, "failed_conditions": problems}
            print(json.dumps(report, indent=2))
            return EXIT_INVALID
    channel = algebra.standard_channel(spec)
    dist = channel.dist
    report = dist.validate()
    out = {
        "kind": spec.kind,
        "degree": dist.d,
        "mean": float(_fmt(dist.mean)),
        "second_moment": float(_fmt(dist.moment(2))),
        "validity": {
            "lt_at_zero_is_one": report.lt_at_zero_is_one,
            "nonneg_on_grid": report.nonneg_on_grid,
            "cdf_limit_one": report.cdf_limit_one,
            "p1_eq_q1": report.p1_eq_q1,
            "failures": list(report.failures),
        },
        "provenance": channel.provenance,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK if report.ok else EXIT_INVALID


# -- metric -------------------------------------------------------------------


def _eval_metric(name, channel, args):
    """Evaluate one metric point on a built channel; returns the
    MetricResult and the decoding threshold used (None for metrics that
    take none)."""
    if name == "harq_persistent" and args.interference_spec is not None:
        raise ConstructionError(
            "persistent HARQ under interference is not supported: the "
            "post-interference success transform is not rational, so no "
            "ME form exists")
    if name in ("outage", "arq", "harq", "harq_persistent"):
        dist, th = _resolve_threshold(channel, args)
        if name == "outage":
            return metrics.outage(dist, th), th
        if name == "arq":
            return metrics.arq_throughput(dist, args.R, th), th
        if name == "harq":
            return metrics.harq_truncated_throughput(dist, args.R, args.K, th), th
        return metrics.harq_persistent_throughput(dist, args.R, th), th
    if name == "outage_capacity":
        return metrics.outage_capacity(channel, args.q_target), None
    if name == "eff_capacity_rate":
        return metrics.eff_capacity_me_rate(channel, args.theta), None
    if name == "eff_capacity_shannon":
        return metrics.eff_capacity_shannon(channel, args.theta), None
    if name == "ergodic_capacity":
        return metrics.ergodic_capacity(channel), None
    if name == "ber":
        if args.detection == "coherent":
            return metrics.ber_coherent(channel, args.a), None
        return metrics.ber_noncoherent(channel, args.a), None
    if name == "arq_interference":
        from . import bivariate
        scn = _interference_scenario(args, channel)
        return bivariate.arq_interference_throughput(scn, args.R), None
    raise ConstructionError(f"unknown metric {name!r}")


def _interference_scenario(args, signal):
    from . import bivariate
    if args.interference_spec is None:
        raise ConstructionError(
            "arq_interference requires --interference-spec FILE")
    interferer = algebra.standard_channel(_load_spec(args.interference_spec))
    return bivariate.InterferenceScenario(signal=signal,
                                          interferers=(interferer,))


# the metrics that read each swept argument
_SWEEP_READERS = {
    "R": ("outage", "arq", "harq", "harq_persistent", "arq_interference"),
    "K": ("harq",),
    "theta": ("eff_capacity_rate", "eff_capacity_shannon"),
    "a": ("ber",),
}


def _sweep_rows(args):
    spec = _load_spec(args.spec)
    if args.sweep is None:
        yield None, None, spec, args
        return
    key, values = _parse_sweep(args.sweep)
    if key == "S":
        if "S" not in ChannelSpec.KINDS[spec.kind]:
            raise ConstructionError(
                f"--sweep S: channel kind {spec.kind!r} has no S parameter")
    elif key not in _SWEEP_READERS:
        raise ConstructionError(f"unsupported sweep key {key!r}")
    elif args.metric not in _SWEEP_READERS[key]:
        raise ConstructionError(
            f"--sweep {key}: metric {args.metric!r} does not read {key}")
    if key == "K" and not np.all(values == np.round(values)):
        raise ConstructionError(
            "--sweep K: transmission counts must be integers, got "
            + ", ".join(f"{v:g}" for v in values))
    for v in values:
        if key == "S":
            params = dict(spec.params)
            params["S"] = float(v)
            yield key, float(v), ChannelSpec(spec.kind, params), args
        else:
            ns = argparse.Namespace(**vars(args))
            setattr(ns, key, float(v) if key != "K" else int(v))
            yield key, float(v), spec, ns


def _emit(rows, args, header) -> None:
    if args.out == "csv":
        print(header)
        for r in rows:
            print(",".join(_fmt(r[c]) for c in header.split(",")))
    else:
        print(json.dumps({"rows": rows}, indent=2,
                         default=lambda o: float(o)))


def cmd_metric(args) -> int:
    rows, built = [], None
    for key, value, spec, a in _sweep_rows(args):
        # a sweep that keeps the spec reads one channel, its one unit-mean
        # channel, and with them their cached jump laws
        if spec is not built:
            built, channel = spec, algebra.standard_channel(spec)
        res, theta_used = _eval_metric(args.metric, channel, a)
        rows.append({
            "metric": args.metric,
            "sweep_key": key or "",
            "sweep_value": value,
            "R": a.R, "S": a.S, "K": a.K, "theta": a.theta, "a": a.a,
            "Theta": theta_used,
            "value": res.value,
            "path": res.path,
            "imag_residual": res.imag_residual,
            "quad_error": res.quad_error,
        })
    _emit(rows, args, CSV_HEADER)
    return EXIT_OK


# -- verify -------------------------------------------------------------------

# CLI metric name -> oracle.mc_metric kind
_MC_KIND = {"outage": "outage", "arq": "arq", "harq": "harq_truncated",
            "harq_persistent": "harq_persistent", "ber": "ber",
            "arq_interference": "arq_interference"}


def cmd_verify(args) -> int:
    from . import oracle
    spec = _load_spec(args.spec)
    channel = algebra.standard_channel(spec)
    cfg = oracle.RngConfig(seed=args.seed, n=args.n)
    dist = channel.dist
    if args.metric == "ncbr":
        links = {k: dist for k in ("13", "32", "23", "31")}
        closed = metrics.ncbr_throughput(links, args.R, args.R).value
        est = oracle.mc_metric("ncbr", {"links": links, "R12": args.R,
                                        "R21": args.R}, cfg)
    elif args.metric in _MC_KIND:
        closed = _eval_metric(args.metric, channel, args)[0].value
        # Monte Carlo simulates the physical event ln(1 + Z) > R on the
        # channel as built, whatever the closed form's threshold convention
        scenario = {"dist": dist, "R": args.R, "K": args.K,
                    "theta": metrics.theta_absolute(args.R),
                    "a": args.a, "detection": args.detection}
        if args.metric == "arq_interference":
            scn = _interference_scenario(args, dist)
            scenario.update(signal=dist, interferers=list(scn.interferers))
        est = oracle.mc_metric(_MC_KIND[args.metric], scenario, cfg)
    else:
        raise ConstructionError(f"metric {args.metric!r} has no Monte Carlo mode")

    z = est.z_score(closed)
    print(json.dumps({
        "metric": args.metric,
        "closed_form": float(_fmt(closed)),
        "monte_carlo": float(_fmt(est.value)),
        "stderr": float(_fmt(est.stderr)),
        "z_score": float(_fmt(z)),
        "n": est.n,
        "seed": args.seed,
        "pass": bool(abs(z) < 4.0),
    }, indent=2))
    return EXIT_OK if abs(z) < 4.0 else EXIT_VERIFY_FAIL


# -- optimize -----------------------------------------------------------------


def cmd_optimize(args) -> int:
    spec = _load_spec(args.spec)
    channel = algebra.standard_channel(spec)
    thetas = _parse_span(args.theta_sweep)
    dist_um = channel.dist.to_unit_mean()

    if args.metric in ("arq", "harq_persistent"):
        opts = metrics.optimize_rate(args.metric, dist_um, thetas)
        metric = (metrics.arq_throughput if args.metric == "arq"
                  else metrics.harq_persistent_throughput)

        def throughput(R, S):
            return metric(dist_um, R, metrics.theta_unit_mean(R, S)).value
    elif args.metric == "arq_interference":
        from . import bivariate
        scn = _interference_scenario(args, channel)
        scn = bivariate.InterferenceScenario(
            signal=scn.signal.to_unit_mean(), interferers=scn.interferers)
        opts = metrics.optimize_rate("arq_interference", scn, thetas)

        def throughput(R, S):
            th = metrics.theta_unit_mean(R, S)
            scn_th = bivariate.InterferenceScenario(
                signal=scn.signal, interferers=scn.interferers, theta=th)
            return bivariate.arq_interference_throughput(scn_th, R).value
    else:
        raise ConstructionError(
            f"metric {args.metric!r} has no parametric optimizer")

    rows = []
    for o in opts:
        row = {"Theta": o.theta, "g": o.g, "boundary": o.boundary,
               "R_opt": None, "T_opt": None, "S": None, "dT_dR": None}
        if not o.boundary:
            # the step stays inside R > 0 as R* -> 0
            h = min(1e-5 * max(o.R_opt, 1.0), 1e-3 * o.R_opt)
            dT = (throughput(o.R_opt + h, o.S)
                  - throughput(o.R_opt - h, o.S)) / (2.0 * h)
            row.update({"R_opt": o.R_opt, "T_opt": o.T_opt, "S": o.S,
                        "dT_dR": dT})
        rows.append(row)
    _emit(rows, args, "Theta,g,boundary,R_opt,T_opt,S,dT_dR")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--spec", required=True, help="channel spec JSON file")
    sp.add_argument("--R", type=float, default=1.0, help="information rate (nats)")
    sp.add_argument("--S", type=float, default=None, help="mean SNR")
    sp.add_argument("--K", type=int, default=1, help="max transmissions")
    sp.add_argument("--theta", type=float, default=1.0,
                    help="effective-capacity QoS exponent")
    sp.add_argument("--a", type=float, default=1.0, help="modulation constant")
    sp.add_argument("--q-target", type=float, default=0.1, dest="q_target")
    sp.add_argument("--detection", choices=("noncoherent", "coherent"),
                    default="noncoherent")
    sp.add_argument("--Theta-convention", dest="Theta_convention",
                    choices=("absolute", "per-unit-mean"), default="absolute")
    sp.add_argument("--interference-spec", dest="interference_spec",
                    default=None)
    sp.add_argument("--out", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mekit",
        description="ME-distribution channel algebra and performance metrics")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("channel", help="construct and validate a channel")
    sp.add_argument("--spec", required=True)
    sp.set_defaults(func=cmd_channel)

    sp = sub.add_parser("metric", help="evaluate a metric (optionally swept)")
    _add_common(sp)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--sweep", default=None, help="key=start:stop:count")
    sp.set_defaults(func=cmd_metric)

    sp = sub.add_parser("verify", help="closed form vs Monte Carlo z-score")
    _add_common(sp)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--n", type=int, default=10**6)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("optimize", help="parametric optimal-rate sweep")
    _add_common(sp)
    sp.add_argument("--metric", required=True)
    sp.add_argument("--theta-sweep", dest="theta_sweep", required=True,
                    help="start:stop:count")
    sp.set_defaults(func=cmd_optimize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # ConstructionError and BranchCutError are ValueErrors
    except (ValueError, np.linalg.LinAlgError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
