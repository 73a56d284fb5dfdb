"""Seeded inputs of the four workloads, as plain data.

``make(workload, seed)`` returns ``{"channels": {name: spec}, "ops":
[(kind, params), ...]}``; one list of ops is one round, and a run repeats
whole rounds.  A channel spec is mekit's ``{"kind", "params"}`` JSON form,
or ``{"kind": "max"|"min", "of": [spec, spec]}`` for a closure of two
channels.  The seed moves only continuous parameters (mean SNRs, rates,
thresholds) by a few tens of percent; the make-up of a round -- channel
families, orders, operation counts, K, M and n -- is the same for every
seed, so timings compare across seeds and accuracy differences come from
the numbers, not from a different mix.

This module uses the standard library only, so the set-up probe can import
it without pulling in anything mekit would otherwise import first.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "closure", "montecarlo", "cli")


def _j(rng, x, rel=0.15):
    """x moved by up to +-rel, rounded to 6 digits so specs print cleanly."""
    return float(f"{x * rng.uniform(1.0 - rel, 1.0 + rel):.6g}")


def ray(S):
    return {"kind": "rayleigh", "params": {"S": S}}


def nakagami(m, S):
    return {"kind": "nakagami", "params": {"m": m, "S": S}}


def sdc(N, S):
    return {"kind": "sdc", "params": {"N": N, "S": S}}


def mrc(components):
    return {"kind": "mrc_list", "params": {"components": components}}


OSC = {"kind": "oscillatory_ex2", "params": {}}


def order(spec) -> int:
    """Order of mekit's representation of a spec."""
    kind, P = spec["kind"], spec.get("params", {})
    if kind in ("max", "min"):
        a, b = (order(s) for s in spec["of"])
        return a * b + (a + b if kind == "max" else 0)
    if kind == "mrc_list":
        return sum(order(c) for c in P["components"])
    return {"rayleigh": 1, "oscillatory_ex2": 3}.get(kind) or P.get("m") or \
        P.get("N") or P.get("exponent") or P["N_tx"] * P["N_rx"]


# -- sweep ----------------------------------------------------------------------


def _sweep(rng):
    chans = {}
    for level, S0 in (("lo", 1.5), ("hi", 6.0)):
        S = lambda f=1.0: _j(rng, S0 * f)
        chans.update({
            f"ray_{level}": ray(S()),
            f"nak2_{level}": nakagami(2, S()),
            f"nak4_{level}": nakagami(4, S()),
            f"nak8_{level}": nakagami(8, S()),
            f"ostbc_{level}": {"kind": "ostbc_mrc", "params": {
                "N_tx": 2, "N_rx": 2, "R_stc": 1.0, "S": S()}},
            f"zf_{level}": {"kind": "zf_mimo", "params": {
                "N_rx": 4, "N_tx": 2, "exponent": 3, "S": S()}},
            f"sdc3_{level}": sdc(3, S()),
            f"sdc6_{level}": sdc(6, S()),
            f"mrc3_{level}": mrc([ray(S(f)) for f in (0.4, 1.0, 2.2)]),
            f"mrc4_{level}": mrc([ray(S(f)) for f in (0.3, 0.7, 1.4, 2.8)]),
            f"max_{level}": {"kind": "max", "of": [ray(S(0.5)), nakagami(2, S())]},
            f"min_{level}": {"kind": "min", "of": [ray(S(2.0)), sdc(2, S())]},
        })
    chans["osc"] = OSC
    chans["link_a"] = ray(_j(rng, 3.0))
    chans["link_b"] = ray(_j(rng, 5.0))
    chans["interferer"] = ray(_j(rng, 0.3))
    ops = []
    lloyd = {"ray_lo": 8, "nak2_lo": 4, "sdc3_lo": 8}
    main = [n for n in chans if n not in ("link_a", "link_b", "interferer")]
    for ci, name in enumerate(main):
        o = order(chans[name])
        diversities = [N for N in (1, 2, 4, 8) if o * N <= 12] if o <= 3 else []
        for ri, R0 in enumerate((0.5, 1.5)):
            R = _j(rng, R0, 0.1)
            i = 2 * ci + ri
            ops += [
                ("outage", {"ch": name, "R": R}),
                ("arq", {"ch": name, "R": R}),
                ("harq_truncated", {"ch": name, "R": R, "K": (2, 4, 8)[i % 3]}),
                ("ber_noncoherent", {"ch": name, "a": (1.0, 0.5)[ri]}),
                ("ber_coherent", {"ch": name, "a": (1.0, 0.5)[ri]}),
                ("eff_capacity_me_rate", {"ch": name, "theta": R}),
                ("ncbr", {"links": {"13": name, "32": "link_a", "23": "link_b",
                                    "31": name}, "R12": R, "R21": 0.8 * R}),
                ("arq_interference", {"ch": name, "interferer": "interferer",
                                      "R": R, "path": "kron"}),
                ("arq_interference", {"ch": name, "interferer": "interferer",
                                      "R": R, "path": "sylvester"}),
            ]
            if diversities:
                N = diversities[i % len(diversities)]
                for method in ("companion", "roots_of_unity"):
                    ops.append(("harq_persistent", {"ch": name, "R": R, "N": N,
                                                    "method": method}))
        ops += [
            ("outage_capacity", {"ch": name, "q": _j(rng, 0.1)}),
            ("ergodic_capacity", {"ch": name}),
            ("eff_capacity_shannon", {"ch": name, "theta": _j(rng, 0.5)}),
            ("pep", {"branches": [[name, 1.0], ["link_a", 0.5]]}),
            ("entropy", {"ch": name}),
        ]
        if name in lloyd:
            ops.append(("lloyd_max", {"ch": name, "M": lloyd[name]}))
    ops += [("sm_mimo_2x2_outage", {"R": _j(rng, R0)}) for R0 in (1.0, 2.5)]
    return {"channels": chans, "ops": ops}


# -- closure --------------------------------------------------------------------


def _closure(rng):
    chans, ops = {}, []
    for m, K in ((2, 32), (2, 64), (4, 32), (4, 64)):
        name = f"erl{m}_k{K}"
        S = _j(rng, 2.0)
        chans[name] = nakagami(m, S)
        ops.append(("kfold_block", {"ch": name, "K": K}))
        R = _j(rng, 1.0)
        for f in (1 / 8, 1 / 3, 2 / 3):
            ops.append(("harq_truncated", {"ch": name, "R": R, "K": K,
                                           "theta": _j(rng, f * K * S, 0.1)}))
    S1, S2 = _j(rng, 4.0), _j(rng, 6.0)
    chans["max16"] = {"kind": "max", "of": [nakagami(16, S1), nakagami(16, S2)]}
    S3, S4 = _j(rng, 3.0), _j(rng, 5.0)
    chans["min8"] = {"kind": "min", "of": [nakagami(8, S3), nakagami(8, S4)]}
    means = [_j(rng, g) for g in (1.0, 1.3, 1.7, 2.2)]
    chans["mrc32"] = mrc([nakagami(2, g) for g in means] * 8)
    for name, scale, fs in (("max16", max(S1, S2), (0.6, 0.9, 1.2, 1.5)),
                            ("min8", min(S3, S4), (0.4, 0.7, 1.0, 1.3)),
                            ("mrc32", 8 * sum(means), (0.6, 0.8, 1.0, 1.2))):
        ops.append(("closure", {"ch": name}))
        for f in fs:
            ops.append(("outage_closure", {"ch": name, "theta": _j(rng, f * scale, 0.05)}))
    return {"channels": chans, "ops": ops}


# -- montecarlo -----------------------------------------------------------------


def _montecarlo(rng, seed):
    chans = {
        "ray": ray(_j(rng, 2.0)),
        "nak2": nakagami(2, _j(rng, 3.0)),
        "nak4": nakagami(4, _j(rng, 2.5)),
        "ray_i": ray(_j(rng, 0.4)),
        "mrc3": mrc([ray(_j(rng, S)) for S in (0.8, 1.5, 2.5)]),
        "sdc4": sdc(4, _j(rng, 1.0)),
        "osc": OSC,
        "max2": {"kind": "max", "of": [ray(_j(rng, 1.0)), ray(_j(rng, 2.0))]},
    }
    R = lambda: _j(rng, 1.0, 0.2)
    direct, inverted = 250_000, 100_000
    ops = [
        # drawn directly (exponential and integer gamma)
        ("outage", {"ch": "ray", "R": R()}),
        ("arq", {"ch": "nak2", "R": R()}),
        ("harq_truncated", {"ch": "nak4", "R": R(), "K": 4}),
        ("harq_persistent", {"ch": "ray", "R": R()}),
        ("harq_persistent", {"ch": "nak2", "R": R()}),
        ("ber", {"ch": "nak2", "a": 1.0, "detection": "noncoherent"}),
        ("ber", {"ch": "nak4", "a": 0.5, "detection": "coherent"}),
        ("ncbr", {"links": {"13": "ray", "32": "nak2", "23": "nak4", "31": "ray"},
                  "R12": R(), "R21": R()}),
        ("arq_interference", {"ch": "nak2", "interferer": "ray_i", "R": R()}),
        # inverted numerically
        ("outage", {"ch": "osc", "R": R()}),
        ("arq", {"ch": "sdc4", "R": R()}),
        ("harq_truncated", {"ch": "mrc3", "R": R(), "K": 2}),
        ("ber", {"ch": "max2", "a": 1.0, "detection": "noncoherent"}),
        ("ber", {"ch": "sdc4", "a": 0.5, "detection": "coherent"}),
        ("ncbr", {"links": {"13": "mrc3", "32": "ray", "23": "nak2", "31": "ray"},
                  "R12": R(), "R21": R()}),
        ("arq_interference", {"ch": "max2", "interferer": "ray_i", "R": R()}),
    ]
    for i, (_, p) in enumerate(ops):
        p["n"] = inverted if i >= 9 else direct
        p["rng_seed"] = (seed * 1009 + i) % (2 ** 31)
    return {"channels": chans, "ops": ops}


# -- cli ------------------------------------------------------------------------


def _cli(rng, seed):
    chans = {
        "nak4": nakagami(4, _j(rng, 3.0)),
        "ray1": ray(1.0),
        "nak2": nakagami(2, _j(rng, 2.0)),
        "sdc4": sdc(4, _j(rng, 2.0)),
        "mrc3": mrc([ray(_j(rng, S)) for S in (0.5, 1.0, 2.0)]),
        "ray_opt": ray(_j(rng, 2.0)),
    }
    r = lambda x: f"{_j(rng, x, 0.1):.4g}"
    ops = [
        ("channel", {"spec": "nak4", "argv": []}),
        ("metric", {"spec": "ray1", "argv": [
            "--metric", "outage", "--R", r(1.0), "--sweep", "S=0.5:8:20",
            "--out", "csv"]}),
        ("metric", {"spec": "nak2", "argv": [
            "--metric", "outage", "--R", "1", "--S", r(4.0),
            "--Theta-convention", "per-unit-mean", "--sweep", "R=0.2:2:10",
            "--out", "json"]}),
        ("metric", {"spec": "sdc4", "argv": [
            "--metric", "harq", "--K", "4", "--R", r(1.0), "--sweep",
            "S=1:8:10", "--out", "csv"]}),
        ("metric", {"spec": "mrc3", "argv": [
            "--metric", "ber", "--detection", "coherent", "--sweep",
            "a=0.5:2:8", "--out", "json"]}),
        ("metric", {"spec": "ray1", "argv": [
            "--metric", "ergodic_capacity", "--sweep", f"S={r(1.0)}:{r(10.0)}:5",
            "--out", "csv"]}),
        ("optimize", {"spec": "ray_opt", "argv": [
            "--metric", "arq", "--theta-sweep", "0.1:0.9:9", "--out", "csv"]}),
        ("optimize", {"spec": "ray_opt", "argv": [
            "--metric", "harq_persistent", "--theta-sweep", "0.1:0.9:5",
            "--out", "json"]}),
        ("verify", {"spec": "nak2", "argv": [
            "--metric", "outage", "--R", r(1.0), "--n", "20000",
            "--seed", str(seed % 100000)]}),
    ]
    return {"channels": chans, "ops": ops}


def make(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        return _sweep(rng)
    if workload == "closure":
        return _closure(rng)
    if workload == "montecarlo":
        return _montecarlo(rng, seed)
    if workload == "cli":
        return _cli(rng, seed)
    raise ValueError(f"unknown workload {workload!r}")


def build_dist(spec):
    """mekit distribution for a spec (mekit is imported on first use)."""
    import mekit
    kind = spec["kind"]
    if kind in ("max", "min"):
        a, b = (build_dist(s) for s in spec["of"])
        pair = mekit.max_dist(a, b) if kind == "max" else mekit.min_dist(a, b)
        return pair.closure()
    return mekit.standard_channel(mekit.ChannelSpec(kind, spec.get("params", {}))).dist


def setup_channels(workload: str, data: dict) -> dict:
    """The workload's channels as mekit builds them before its first op.
    A max/min closure also keeps its two operands under ``name + "/of"``,
    which the ``closure`` workload's build ops start from; ``cli`` builds
    nothing in process."""
    out = {}
    if workload == "cli":
        return out
    for name, spec in data["channels"].items():
        if spec["kind"] in ("max", "min"):
            out[name + "/of"] = tuple(build_dist(s) for s in spec["of"])
        out[name] = build_dist(spec)
    return out
