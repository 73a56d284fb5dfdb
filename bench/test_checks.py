"""Negative controls for the benchmark checks, and cross-checks of the
references.  Each check family must accept mekit's output and reject an
output computed from a slightly wrong input.

    python3 -m pytest bench/test_checks.py -q      (from the repository root)
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from mekit import infoq, metrics, oracle  # noqa: E402

SPECS = {
    "nak3": inputs.nakagami(3, 2.0),
    "mrc3": inputs.mrc([inputs.ray(S) for S in (0.5, 1.1, 2.3)]),
    "osc": inputs.OSC,
    "sdc3": inputs.sdc(3, 1.5),
    "ray": inputs.ray(1.7),
    "ray_i": inputs.ray(0.4),
    "max": {"kind": "max", "of": [inputs.ray(0.8), inputs.nakagami(2, 1.6)]},
    "min": {"kind": "min", "of": [inputs.ray(2.0), inputs.sdc(2, 1.2)]},
}
CHANS = inputs.setup_channels("sweep", {"channels": SPECS})
RC = workloads.RefChannels(SPECS)


def sweep_op(kind, **p):
    return workloads._sweep_op(kind, p, CHANS, RC)


def accepts(op, out=None):
    ref = op.reference()
    return op.check(op.run() if out is None else out, ref)


def rejects(op, out):
    with pytest.raises(checks.CheckFailed):
        op.check(out, op.reference())


# -- closed forms: a threshold scaled by 1 + 1e-6 --------------------------------

THETA_OPS = [
    ("outage", {"R": 1.0}),
    ("arq", {"R": 1.0}),
    ("harq_truncated", {"R": 1.0, "K": 4}),
]


@pytest.mark.parametrize("ch", ["nak3", "mrc3", "osc", "sdc3", "max", "min"])
@pytest.mark.parametrize("kind,p", THETA_OPS)
def test_closed_forms_reject_shifted_threshold(kind, p, ch):
    op = sweep_op(kind, ch=ch, **p)
    assert max(accepts(op)) < 1e-10
    wrong = dict(p, R=math.log1p(math.expm1(p["R"]) * (1 + 1e-6)))
    rejects(op, sweep_op(kind, ch=ch, **wrong).run())


@pytest.mark.parametrize("method", ["companion", "roots_of_unity"])
@pytest.mark.parametrize("ch,N", [("nak3", 2), ("mrc3", 1), ("osc", 2), ("ray", 2)])
def test_persistent_harq_rejects_shifted_threshold(ch, N, method):
    op = sweep_op("harq_persistent", ch=ch, R=1.0, N=N, method=method)
    accepts(op)
    d = CHANS[ch]
    out = metrics.harq_persistent_throughput(d, 1.0, math.expm1(1.0) * (1 + 1e-6),
                                             diversity=N, method=method)
    rejects(op, out)


@pytest.mark.parametrize("kind", ["ber_noncoherent", "ber_coherent", "eff_capacity_me_rate"])
def test_transform_metrics_reject_shifted_argument(kind):
    key = "theta" if kind == "eff_capacity_me_rate" else "a"
    op = sweep_op(kind, ch="mrc3", **{key: 0.7})
    accepts(op)
    rejects(op, sweep_op(kind, ch="mrc3", **{key: 0.7 * (1 + 1e-6)}).run())


def test_interference_and_ncbr_reject_shifted_rate():
    for path in ("kron", "sylvester"):
        op = sweep_op("arq_interference", ch="osc", interferer="ray_i", R=1.0, path=path)
        accepts(op)
        rejects(op, sweep_op("arq_interference", ch="osc", interferer="ray_i",
                             R=1.0 + 1e-6, path=path).run())
    links = {"13": "mrc3", "32": "ray", "23": "nak3", "31": "mrc3"}
    op = sweep_op("ncbr", links=links, R12=1.0, R21=0.8)
    accepts(op)
    rejects(op, sweep_op("ncbr", links=links, R12=1.0 + 1e-6, R21=0.8).run())


def test_outage_capacity_rejects_shifted_target():
    op = sweep_op("outage_capacity", ch="max", q=0.1)
    accepts(op)
    rejects(op, sweep_op("outage_capacity", ch="max", q=0.1 * (1 + 1e-6)).run())


# -- quadrature families --------------------------------------------------------


def test_quadrature_metrics_reject_shifted_input():
    op = sweep_op("ergodic_capacity", ch="ray")
    assert accepts(op)[0] < 1e-9
    rejects(op, metrics.ergodic_capacity(CHANS["ray"].to_unit_mean().scale_mean(1.7 * (1 + 1e-5))))
    op = sweep_op("eff_capacity_shannon", ch="mrc3", theta=0.5)
    accepts(op)
    rejects(op, sweep_op("eff_capacity_shannon", ch="mrc3", theta=0.5 * (1 + 1e-5)).run())
    op = sweep_op("pep", branches=[["mrc3", 1.0], ["ray", 0.5]])
    accepts(op)
    rejects(op, sweep_op("pep", branches=[["mrc3", 1.0 + 1e-5], ["ray", 0.5]]).run())
    op = sweep_op("sm_mimo_2x2_outage", R=1.5)
    accepts(op)
    rejects(op, sweep_op("sm_mimo_2x2_outage", R=1.5 * (1 + 1e-6)).run())


def test_entropy_rejects_rescaled_channel():
    op = sweep_op("entropy", ch="osc")
    accepts(op)
    rejects(op, infoq.entropy_numeric(CHANS["sdc3"]))
    op = sweep_op("entropy", ch="ray")
    accepts(op)
    rejects(op, infoq.entropy_numeric(CHANS["ray"].to_unit_mean().scale_mean(1.7 * (1 + 1e-4))))


def test_lloyd_max_rejects_moved_centroid_and_non_convergence():
    op = sweep_op("lloyd_max", ch="ray", M=4)
    out = op.run()
    accepts(op, out)
    moved = out.centroids.copy()
    moved[1] *= 1 + 1e-6
    rejects(op, dataclasses.replace(out, centroids=moved))
    thr = out.thresholds.copy()
    thr[0] *= 1 + 1e-6
    rejects(op, dataclasses.replace(out, thresholds=thr))
    rejects(op, dataclasses.replace(out, iterations=10_000))
    # an iteration cut short leaves centroids away from their cell means
    rejects(op, infoq.lloyd_max(CHANS["ray"], 4, max_iter=5))


# -- closure builds -------------------------------------------------------------


def closure_ops(seed=3):
    data = inputs.make("closure", seed)
    chans = inputs.setup_channels("closure", data)
    return workloads.build("closure", data, chans)


def test_closure_builds_reject_perturbed_generator():
    import numpy as np
    ops = {op.name: op for op in closure_ops()}
    for name in ("closure/max", "closure/min", "closure/mrc_list"):
        op = ops[name]
        out = op.run()
        accepts(op, out)
        Y = np.array(out.Y)
        Y[0, 0] *= 1 + 1e-6
        rejects(op, type(out)(out.x, Y, out.z))
    op = ops["kfold_block"]
    out = op.run()
    accepts(op, out)
    Q = out.Q_block.copy()
    Q[-1, -1] *= 1 + 1e-6
    rejects(op, dataclasses.replace(out, Q_block=Q))


def test_closure_outage_rejects_shifted_threshold():
    data = inputs.make("closure", 3)
    chans = inputs.setup_channels("closure", data)
    rc = workloads.RefChannels(data["channels"])
    for kind, p in data["ops"]:
        if kind in ("outage_closure", "harq_truncated"):
            op = workloads._closure_op(kind, p, chans, rc)
            accepts(op)
            p2 = dict(p, theta=p["theta"] * (1 + 1e-6))
            rejects(op, workloads._closure_op(kind, p2, chans, rc).run())


# -- Monte Carlo ----------------------------------------------------------------


@pytest.mark.parametrize("ch", ["ray", "mrc3"])
def test_monte_carlo_rejects_wrong_threshold(ch):
    p = {"ch": ch, "R": 1.0, "n": 100_000, "rng_seed": 7}
    op = workloads._mc_op("outage", p, CHANS, RC)
    assert accepts(op)[0] < 0.01
    rejects(op, workloads._mc_op("outage", dict(p, R=1.1), CHANS, RC).run())
    est = op.run()
    rejects(op, oracle.MCEstimate(est.value + 5 * est.stderr, est.stderr, est.n))


# -- cli ------------------------------------------------------------------------


def cli_ops(tmp_path, argvs):
    data = inputs.make("cli", 5)
    data["ops"] = argvs
    return workloads.build("cli", data, {}, cli_dir=str(tmp_path), in_process=True)


def test_cli_verify_rejects_wrong_convention(tmp_path):
    good = ("verify", {"spec": "nak2", "argv": ["--metric", "outage", "--R", "1",
                                                 "--n", "20000", "--seed", "3"]})
    bad = ("verify", {"spec": "nak2", "argv": [
        "--metric", "outage", "--R", "1", "--n", "20000", "--seed", "3",
        "--Theta-convention", "per-unit-mean", "--S", "1.0"]})
    ok, wrong = cli_ops(tmp_path, [good, bad])
    accepts(ok)
    with pytest.raises(checks.CheckFailed):
        ok.check(wrong.run(), ok.reference())


def test_cli_metric_and_optimize_reject_perturbed_rows(tmp_path):
    data = inputs.make("cli", 5)
    for op in cli_ops(tmp_path, data["ops"]):
        code, text, err = op.run()
        accepts(op, (code, text, err))
        if op.name.startswith("cli/verify"):
            continue
        if text.lstrip().startswith("{"):
            obj = json.loads(text)
            if "rows" in obj:
                row = obj["rows"][-1]
                key = "value" if "value" in row else "T_opt"
                row[key] *= 1 + 1e-6
            else:
                obj["mean"] *= 1 + 1e-6
            text = json.dumps(obj)
        else:
            lines = text.strip().splitlines()
            head = lines[0].split(",")
            cells = lines[-1].split(",")
            i = head.index("value" if "value" in head else "T_opt")
            cells[i] = repr(float(cells[i]) * (1 + 1e-6))
            text = "\n".join(lines[:-1] + [",".join(cells)])
        rejects(op, (code, text, err))
        rejects(op, (2, text, "error"))


# -- the references themselves --------------------------------------------------


@pytest.mark.parametrize("name", ["nak3", "mrc3", "sdc3", "max", "min"])
def test_partial_fractions_match_talbot(name):
    ch = refs.build(SPECS[name])
    for k in (1, 3):
        for t in (0.4, 2.0):
            with mp.workdps(30):
                tal = mp.invertlaplace(lambda s: ch.lt(s) ** k / s, t, method="talbot")
            # the Erlang family goes through scipy's double-precision gammainc
            assert abs(ch.cdf(t, k) - tal) < (1e-14 if ch.erlang else 1e-20)


def test_references_match_known_closed_forms():
    ray = refs.build(inputs.ray(2.0))
    assert float(ray.cdf(1.3)) == pytest.approx(1 - math.exp(-0.65), rel=1e-15)
    # Rayleigh renewal count is Poisson: sum_k F_k(t) = t / S
    assert refs.renewal(ray, 1.3) == pytest.approx(0.65, rel=1e-14)
    osc = refs.build(inputs.OSC)
    assert float(osc.lt(0.7)) == pytest.approx(50 / (0.7 ** 3 + 3 * 0.49 + 52 * 0.7 + 50),
                                               rel=1e-15)
    # the residue path of the renewal count agrees with the gamma series
    two = refs.build(inputs.mrc([inputs.ray(0.9), inputs.ray(0.9)]), dps=60)
    assert two.erlang is not None
    two.erlang = None
    assert refs.renewal(two, 2.2) == pytest.approx(
        refs.renewal(refs.build(inputs.nakagami(2, 1.8)), 2.2), rel=1e-13)
    assert refs.ergodic_capacity(ray) == pytest.approx(
        refs.ergodic_capacity(ray, rayleigh_S=2.0), rel=1e-14)
    sdc = refs.build(inputs.sdc(4, 1.5))
    assert float(sdc.cdf(2.0)) == pytest.approx((1 - math.exp(-2 / 1.5)) ** 4, rel=1e-15)


def test_interference_reference_matches_quadrature():
    sig, itf = refs.build(SPECS["osc"]), refs.build(SPECS["ray_i"])
    th = math.expm1(1.0)
    with mp.workdps(25):
        q = mp.quad(lambda u: sig.sf(th * (1 + u)) * itf.pdf(u), [0, 1, 10, mp.inf])
    assert refs.arq_interference(sig, itf, 1.0) == pytest.approx(float(q), rel=1e-14)
