import json
import math
import warnings
from pathlib import Path

import pytest
import scipy.special

import mekit
from mekit import cli

from conftest import rate_optimum_error, run_fresh

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def ray_spec(tmp_path):
    p = tmp_path / "ray.json"
    p.write_text(json.dumps({"kind": "rayleigh", "params": {"S": 1.0}}))
    return str(p)


@pytest.fixture
def ex2_spec(tmp_path):
    p = tmp_path / "ex2.json"
    p.write_text(json.dumps({"kind": "oscillatory_ex2", "params": {}}))
    return str(p)


def assert_json_close(text, golden_name, rtol=1e-12):
    """Structural comparison against a golden JSON file with numeric
    tolerance (format-stable across runs, tolerant to last-ulp drift)."""
    got = json.loads(text)
    want = json.loads((GOLDEN / golden_name).read_text())

    def walk(a, b, path=""):
        assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
        if isinstance(a, dict):
            assert a.keys() == b.keys(), f"{path}: keys differ"
            for k in a:
                walk(a[k], b[k], f"{path}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), f"{path}: length differs"
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=rtol, abs=1e-300), path
        else:
            assert a == b, path

    walk(got, want)


def test_import_leaves_solver_modules_unloaded():
    """``import mekit`` (the start-up of every CLI command) loads no scipy
    module; the functions that need one import it on first call."""
    code = ("import sys, mekit; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).strip() == "[]"


def run_cli_fresh(tmp_path, spec, *argv, package="scipy"):
    """(stdout, modules of ``package`` loaded) of one CLI command in a
    fresh interpreter; a nonzero exit fails the test."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [argv[0], "--spec", str(path), *argv[1:]]
    code = ("import json, sys\n"
            "from mekit import cli\n"
            f"rc = cli.main({argv!r})\n"
            "print(json.dumps(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r})))\n"
            "sys.exit(rc)")
    out, _, loaded = run_fresh(code).rstrip("\n").rpartition("\n")
    return out, json.loads(loaded)


NAK2 = {"kind": "nakagami", "params": {"m": 2, "S": 2.0}}
RAY = {"kind": "rayleigh", "params": {"S": 1.0}}
# Rayleigh at Theta = 0.5: g = 1/Theta for ARQ and 1 + 1/Theta for
# persistent HARQ (renewal density 1); R* = g + W0(-g e^{-g}) to 40 digits
RAY_OPTIMA = {"arq": (2.0, 1.5936242600400400923),
              "harq_persistent": (3.0, 2.8214393721220788934)}


@pytest.mark.parametrize("spec, argv", [
    ({"kind": "nakagami", "params": {"m": 4, "S": 3.0}}, ["channel"]),
    (RAY, ["metric", "--metric", "outage", "--R", "1",
           "--sweep", "S=0.5:8:20", "--out", "csv"]),
    (NAK2, ["metric", "--metric", "outage", "--R", "1", "--S", "4",
            "--Theta-convention", "per-unit-mean", "--sweep", "R=0.2:2:10",
            "--out", "json"]),
    ({"kind": "sdc", "params": {"N": 4, "S": 2.0}},
     ["metric", "--metric", "harq", "--K", "4", "--R", "1",
      "--sweep", "S=1:8:10", "--out", "csv"]),
    # a K-fold block of order 257, by the uniformized partial sums
    ({"kind": "nakagami", "params": {"m": 4, "S": 0.1}},
     ["metric", "--metric", "harq", "--K", "64", "--R", "1"]),
    (RAY, ["metric", "--metric", "ergodic_capacity", "--sweep", "S=1:10:5",
           "--out", "csv"]),
    (NAK2, ["verify", "--metric", "outage", "--R", "1", "--n", "20000",
            "--seed", "1"]),
    (RAY, ["optimize", "--metric", "arq", "--theta-sweep", "0.5:0.5:1"]),
    (RAY, ["optimize", "--metric", "harq_persistent",
           "--theta-sweep", "0.5:0.5:1"]),
    (RAY, ["metric", "--metric", "eff_capacity_shannon", "--theta", "1"]),
], ids=["channel", "outage_csv", "outage_per_unit_mean", "harq",
        "harq_order_257", "ergodic_capacity", "verify_outage", "optimize_arq",
        "optimize_harq_persistent", "eff_capacity_shannon"])
def test_numpy_only_commands_load_no_scipy(tmp_path, spec, argv):
    # only a fresh process shows the footprint: conftest has loaded scipy
    # into this one
    out, loaded = run_cli_fresh(tmp_path, spec, *argv)
    assert out.strip()
    assert loaded == []
    # a cold start gives the rows the in-process tests expect
    if argv[0] == "optimize":
        g, R_opt = RAY_OPTIMA[argv[2]]
        row = json.loads(out)["rows"][0]
        assert row["g"] == pytest.approx(g, rel=1e-9)
        assert row["R_opt"] == pytest.approx(R_opt, rel=1e-9)
    elif "eff_capacity_shannon" in argv:
        # E{1/(1+Z)} = e E1(1) on unit-mean Rayleigh
        val = json.loads(out)["rows"][0]["value"]
        expect = -math.log(math.e * scipy.special.exp1(1.0))
        assert val == pytest.approx(expect, rel=1e-10)


def test_scipy_commands_import_on_first_call(tmp_path):
    # the commands that need scipy import it on first call and give the
    # rows the in-process tests expect from a cold start
    out, loaded = run_cli_fresh(tmp_path, RAY, "metric", "--metric", "ber",
                                "--detection", "coherent", "--a", "1")
    assert "scipy.linalg" in loaded
    val = json.loads(out)["rows"][0]["value"]
    assert val == pytest.approx(0.5 * (1 - math.sqrt(0.5)), rel=1e-10)


@pytest.mark.parametrize("argv, oracle", [
    (["channel"], False),
    (["metric", "--metric", "outage", "--R", "1"], False),
    (["verify", "--metric", "outage", "--R", "1", "--n", "2000",
      "--seed", "1"], True),
])
def test_commands_load_only_the_modules_they_run(tmp_path, argv, oracle):
    out, loaded = run_cli_fresh(tmp_path, RAY, *argv, package="mekit")
    assert out.strip()
    unused = {"mekit.infoq", "mekit.bivariate", "mekit.oracle"} & set(loaded)
    assert unused == ({"mekit.oracle"} if oracle else set())


def test_quadrature_metrics_never_load_scipy_integrate():
    """``matfun.quad`` is the only quadrature route in mekit: the metrics
    that integrate numerically never import scipy.integrate."""
    code = ("import sys, mekit\n"
            "from mekit import infoq, metrics\n"
            "ray = mekit.exponential(1.0)\n"
            "infoq.entropy_numeric(ray)\n"
            "metrics.ergodic_capacity(ray)\n"
            "metrics.pep([(ray, 1.0), (mekit.erlang(2), 0.5)])\n"
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.integrate')))")
    assert run_fresh(code).strip() == "[]"


class TestChannel:
    def test_rayleigh_summary(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "channel", "--spec", ray_spec)
        assert code == 0
        obj = json.loads(out)
        assert obj["degree"] == 1
        assert obj["mean"] == pytest.approx(1.0)
        assert all(obj["validity"][k] for k in
                   ("lt_at_zero_is_one", "nonneg_on_grid",
                    "cdf_limit_one", "p1_eq_q1"))

    def test_oscillatory_summary(self, capsys, ex2_spec):
        code, out, _ = run_cli(capsys, "channel", "--spec", ex2_spec)
        assert code == 0
        obj = json.loads(out)
        assert obj["degree"] == 3
        assert obj["mean"] == pytest.approx(1.04, rel=1e-10)

    def test_high_order_nakagami_validates(self, capsys, tmp_path):
        p = tmp_path / "nak16.json"
        p.write_text(json.dumps({"kind": "nakagami",
                                 "params": {"m": 16, "S": 6.0}}))
        code, out, _ = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 0
        assert json.loads(out)["validity"]["failures"] == []

    def test_oversized_spec_exit_two_before_construction(self, capsys,
                                                         tmp_path,
                                                         monkeypatch):
        # Y alone would take 80 GB at m = 100000
        def built(*args):
            pytest.fail("an oversized channel was constructed")

        monkeypatch.setattr(mekit.algebra, "from_product_form", built)
        p = tmp_path / "nak.json"
        p.write_text(json.dumps({"kind": "nakagami",
                                 "params": {"m": 100000, "S": 1.0}}))
        code, out, err = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 2
        assert out == ""
        assert "degree 100000 exceeds the guard 4096" in err

    def test_constant_term_mismatch_exit_two(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": "rational_lt",
                                 "params": {"p": [1.0], "q": [2.0, 1.0]}}))
        code, out, _ = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 2
        assert "p1 != q1" in out

    def test_malformed_json_reports_location(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"kind": "rayleigh", "params": {"S": }}')
        code, _, err = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 2
        assert "line 1" in err and "column" in err

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "rayleigh", "params": {}}, "'S'"),
        ({"kind": "rayleigh", "params": {"S": "abc"}}, "S"),
        ({"kind": "nakagami", "params": {"S": 1.0}}, "'m'"),
        ({"kind": "mrc_list", "params": {"components": [
            {"kind": "rayleigh", "params": {"S": 1.0}},
            {"params": {"S": 2.0}}]}}, "'kind'"),
    ])
    def test_malformed_params_exit_two_naming_the_key(self, capsys, tmp_path,
                                                      spec, key):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "product_form", "params": {"factors": [{"p": [1.0]}]}}, "'q'"),
        ({"kind": "rational_lt", "params": {"p": [1.0], "q": 5}}, "'q'"),
        ({"kind": "product_form", "params": {"factors": 5}}, "'factors'"),
    ])
    def test_malformed_polynomials_exit_two_naming_the_key(self, capsys,
                                                           tmp_path, spec, key):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "channel", "--spec", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and key in err

    def test_golden(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "channel", "--spec", ray_spec)
        assert_json_close(out, "channel_rayleigh.json")


class TestMetric:
    def test_outage_sweep_monotone(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "metric", "--metric", "outage",
                               "--spec", ray_spec, "--R", "1",
                               "--sweep", "S=0.1:10:20")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 20
        vals = [r["value"] for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_harq_point(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "metric", "--metric", "harq",
                               "--spec", ray_spec, "--K", "2", "--R", "1")
        assert code == 0
        val = json.loads(out)["rows"][0]["value"]
        assert val == pytest.approx(0.2678141033937456, rel=1e-10)

    def test_coherent_ber_point(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "metric", "--metric", "ber",
                               "--spec", ray_spec, "--detection", "coherent",
                               "--a", "1")
        assert code == 0
        val = json.loads(out)["rows"][0]["value"]
        assert val == pytest.approx(0.5 * (1 - math.sqrt(0.5)), rel=1e-10)

    def test_csv_header_fixed(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "metric", "--metric", "outage",
                            "--spec", ray_spec, "--out", "csv")
        assert out.splitlines()[0] == cli.CSV_HEADER

    def test_persistent_with_interference_rejected(self, capsys, ray_spec):
        code, _, err = run_cli(capsys, "metric", "--metric",
                               "harq_persistent", "--spec", ray_spec,
                               "--interference-spec", ray_spec)
        assert code == 2
        assert "not rational" in err

    @pytest.mark.parametrize("argv, named", [
        (("--R", "800"), "R = 800.0: the threshold e^R - 1 overflows"),
        (("--R", "inf"), "R = inf is not a finite rate"),
        (("--R", "nan"), "R = nan is not a finite rate"),
        (("--Theta-convention", "per-unit-mean", "--S", "0"),
         "S = 0.0: the mean SNR must be positive"),
    ], ids=["R800", "Rinf", "Rnan", "S0"])
    def test_rate_without_a_threshold_exit_two(self, capsys, ray_spec, argv,
                                               named):
        # e^R - 1 overflows past R = 709.78; a warning raised as an error
        # would escape main
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "metric", "--metric", "outage",
                                     "--spec", ray_spec, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named}")

    @pytest.mark.parametrize("argv, named", [
        (("--metric", "arq_interference", "--R", "800"),
         "R = 800.0: the threshold e^R - 1 overflows"),
        (("--metric", "eff_capacity_rate", "--theta", "nan"),
         "theta must be positive"),
        (("--metric", "ber", "--a", "nan"), "a must be positive"),
        (("--metric", "outage", "--R", "-1"), "R = -1.0 is not a finite rate"),
    ], ids=["interference-R800", "rate-theta-nan", "ber-a-nan", "R-neg"])
    def test_scalar_outside_its_domain_exit_two(self, capsys, ray_spec, argv,
                                                named):
        code, out, err = run_cli(capsys, "metric", "--spec", ray_spec,
                                 "--interference-spec", ray_spec, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named}")
        assert "Traceback" not in err

    def test_infinite_mean_snr_spec_exit_two(self, capsys, tmp_path):
        spec = tmp_path / "ray_inf.json"
        spec.write_text('{"kind": "rayleigh", "params": {"S": Infinity}}')
        for argv in (("channel",), ("metric", "--metric", "outage")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(spec))
            assert code == 2 and out == ""
            assert err.startswith("error: parameter S must be a positive")

    def test_interference_sweep_scales_signal(self, capsys, ray_spec):
        # Rayleigh signal of mean S over a unit Rayleigh interferer:
        # P(Z > theta (1 + Z_I)) = e^{-theta/S} / (1 + theta/S)
        code, out, _ = run_cli(capsys, "metric", "--metric",
                               "arq_interference", "--spec", ray_spec,
                               "--interference-spec", ray_spec, "--R", "1",
                               "--sweep", "S=1:3:3")
        assert code == 0
        th = math.e - 1.0
        for r in json.loads(out)["rows"]:
            S = r["sweep_value"]
            assert r["value"] == pytest.approx(
                math.exp(-th / S) / (1.0 + th / S), rel=1e-9)

    def test_interference_deep_tail_finite(self, capsys, tmp_path):
        # Nakagami-16 signal over a Rayleigh interferer of mean 0.3 at
        # R = ln 46: Theta |lambda| = 720 on the Kronecker path
        sig, intf = tmp_path / "nak16.json", tmp_path / "ray03.json"
        sig.write_text(json.dumps({"kind": "nakagami",
                                   "params": {"m": 16, "S": 1.0}}))
        intf.write_text(json.dumps({"kind": "rayleigh", "params": {"S": 0.3}}))
        code, out, err = run_cli(capsys, "metric", "--metric",
                                 "arq_interference", "--spec", str(sig),
                                 "--interference-spec", str(intf),
                                 "--R", repr(math.log(46.0)))
        assert code == 0, err
        value = json.loads(out)["rows"][0]["value"]
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("spec", [
        {"kind": "oscillatory_ex2", "params": {}},
        {"kind": "mrc_list", "params": {"components": [
            {"kind": "rayleigh", "params": {"S": 1.0}},
            {"kind": "rayleigh", "params": {"S": 2.0}}]}},
    ])
    def test_S_sweep_on_kind_without_S_exit_two(self, capsys, tmp_path,
                                                spec):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "metric", "--metric", "outage",
                                 "--spec", str(p), "--sweep", "S=1:4:3")
        assert code == 2
        assert out == ""
        assert spec["kind"] in err and "no S parameter" in err

    def test_sweep_key_must_be_read_by_the_metric(self, capsys, ray_spec):
        # a key the metric reads gives 3 distinct rows; any other key exits 2
        readers = {"R": ("outage", "arq", "harq", "harq_persistent",
                         "arq_interference"),
                   "K": ("harq",),
                   "theta": ("eff_capacity_rate", "eff_capacity_shannon"),
                   "a": ("ber",)}
        metrics = ("outage", "arq", "harq", "harq_persistent",
                   "arq_interference", "eff_capacity_rate",
                   "eff_capacity_shannon", "ergodic_capacity",
                   "outage_capacity", "ber")
        for key, reads in readers.items():
            for metric in metrics:
                extra = (["--interference-spec", ray_spec]
                         if metric == "arq_interference" else [])
                code, out, err = run_cli(capsys, "metric", "--metric", metric,
                                         "--spec", ray_spec, "--sweep",
                                         f"{key}=1:3:3", *extra)
                if metric in reads:
                    assert code == 0, (key, metric)
                    values = [r["value"] for r in json.loads(out)["rows"]]
                    assert len(set(values)) == 3, (key, metric)
                else:
                    assert code == 2, (key, metric)
                    assert out == ""
                    assert (f"--sweep {key}: metric {metric!r} does not "
                            f"read {key}") in err

    def test_non_integer_K_sweep_exit_two(self, capsys, ray_spec):
        # K=1:3:4 steps by 2/3; truncating would label K=1.67 but evaluate K=1
        code, out, err = run_cli(capsys, "metric", "--metric", "harq",
                                 "--spec", ray_spec, "--sweep", "K=1:3:4")
        assert code == 2
        assert out == ""
        assert "--sweep K" in err and "1.66667" in err
        code, out, _ = run_cli(capsys, "metric", "--metric", "harq",
                               "--spec", ray_spec, "--sweep", "K=1:4:4")
        assert code == 0
        assert [r["K"] for r in json.loads(out)["rows"]] == [1, 2, 3, 4]

    def test_zero_count_sweep_exit_two(self, capsys, ray_spec):
        code, out, err = run_cli(capsys, "metric", "--metric", "outage",
                                 "--spec", ray_spec, "--sweep", "S=1:8:0",
                                 "--out", "csv")
        assert code == 2 and out == ""
        assert "count 0 is below 1" in err

    def test_unknown_metric_exit_two(self, capsys, ray_spec):
        code, _, err = run_cli(capsys, "metric", "--metric", "nope",
                               "--spec", ray_spec)
        assert code == 2

    @pytest.mark.parametrize("sweep, metric, builds", [
        ("R=0.1:2:10", "outage", 1), ("R=0.1:2:10", "arq", 1),
        ("K=1:10:10", "harq", 1), ("S=4:12:10", "outage", 10)])
    def test_sweep_builds_one_channel_per_spec(self, capsys, tmp_path,
                                               monkeypatch, sweep, metric,
                                               builds):
        # Nakagami-32 reads every row of these sweeps from its jump law
        spec = {"kind": "nakagami", "params": {"m": 32, "S": 8.0}}
        p = tmp_path / "nak.json"
        p.write_text(json.dumps(spec))
        build = mekit.algebra.standard_channel
        calls = []
        monkeypatch.setattr(mekit.algebra, "standard_channel",
                            lambda s: calls.append(s) or build(s))
        code, out, _ = run_cli(capsys, "metric", "--metric", metric,
                               "--spec", str(p), "--R", "1", "--K", "3",
                               "--sweep", sweep)
        assert code == 0 and len(calls) == builds
        for row in json.loads(out)["rows"]:
            S = row["sweep_value"] if row["sweep_key"] == "S" else 8.0
            params = dict(spec["params"], S=S)
            d = build(mekit.ChannelSpec("nakagami", params)).dist
            th = math.expm1(row["R"])
            ref = {"outage": lambda: mekit.metrics.outage(d, th),
                   "arq": lambda: mekit.metrics.arq_throughput(
                       d, row["R"], th),
                   "harq": lambda: mekit.metrics.harq_truncated_throughput(
                       d, row["R"], row["K"], th)}[metric]().value
            assert abs(row["value"] - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("metric", ["outage", "arq", "harq"])
    def test_unit_mean_sweep_derives_one_channel(self, capsys, tmp_path,
                                                 monkeypatch, metric):
        # every row of a per-unit-mean sweep reads one unit-mean channel
        # and so one jump law (Nakagami-32 uniformizes every row); each row
        # is the metric on a fresh one
        spec = {"kind": "nakagami", "params": {"m": 32, "S": 8.0}}
        p = tmp_path / "nak.json"
        p.write_text(json.dumps(spec))
        laws, init = [], mekit.matfun._JumpLaw.__init__
        monkeypatch.setattr(mekit.matfun._JumpLaw, "__init__",
                            lambda self, *a: laws.append(1) or init(self, *a))
        code, out, _ = run_cli(capsys, "metric", "--metric", metric,
                               "--spec", str(p), "--R", "1", "--K", "3",
                               "--S", "2.5", "--Theta-convention",
                               "per-unit-mean", "--sweep", "R=0.1:0.7:10")
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 10 and len(laws) == 1
        for row in rows:
            d = mekit.standard_channel(mekit.ChannelSpec(**spec)).dist
            um, th = d.to_unit_mean(), mekit.metrics.theta_unit_mean(
                row["R"], 2.5)
            ref = {"outage": lambda: mekit.metrics.outage(um, th),
                   "arq": lambda: mekit.metrics.arq_throughput(
                       um, row["R"], th),
                   "harq": lambda: mekit.metrics.harq_truncated_throughput(
                       um, row["R"], 3, th)}[metric]().value
            assert row["Theta"] == th and row["value"] == ref

    def test_golden_sweep_csv(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "metric", "--metric", "outage",
                            "--spec", ray_spec, "--R", "1",
                            "--sweep", "S=0.5:4:4", "--out", "csv")
        want = (GOLDEN / "metric_outage_sweep.csv").read_text()
        got_rows = [r.split(",") for r in out.strip().splitlines()]
        want_rows = [r.split(",") for r in want.strip().splitlines()]
        assert got_rows[0] == want_rows[0]
        for g, w in zip(got_rows[1:], want_rows[1:]):
            for gv, wv in zip(g, w):
                try:
                    assert float(gv) == pytest.approx(float(wv), rel=1e-12)
                except ValueError:
                    assert gv == wv


class TestVerify:
    def test_outage_passes(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "verify", "--metric", "outage",
                               "--spec", ray_spec, "--R", "1",
                               "--n", "100000", "--seed", "42")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["z_score"]) < 4.0 and obj["pass"]

    def test_wrong_convention_negative_control(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "verify", "--metric", "outage",
                               "--spec", ray_spec, "--R", "1",
                               "--n", "100000", "--seed", "42",
                               "--Theta-convention", "per-unit-mean",
                               "--S", "2")
        assert code == 1
        assert abs(json.loads(out)["z_score"]) > 4.0

    def test_ncbr_symmetric(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "verify", "--metric", "ncbr",
                               "--spec", ray_spec, "--R", "1",
                               "--n", "100000", "--seed", "13")
        assert code == 0
        obj = json.loads(out)
        assert obj["closed_form"] == pytest.approx(
            2.0 * math.exp(2.0 * (1.0 - math.e)) / 3.0, rel=1e-9)

    def test_interference_verify(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "verify", "--metric",
                               "arq_interference", "--spec", ray_spec,
                               "--interference-spec", ray_spec,
                               "--R", "1", "--n", "100000", "--seed", "21")
        assert code == 0
        assert json.loads(out)["closed_form"] == pytest.approx(
            math.exp(-math.e), rel=1e-9)

    def test_seed_repeatability(self, capsys, ray_spec):
        _, out1, _ = run_cli(capsys, "verify", "--metric", "arq",
                             "--spec", ray_spec, "--R", "1",
                             "--n", "50000", "--seed", "7")
        _, out2, _ = run_cli(capsys, "verify", "--metric", "arq",
                             "--spec", ray_spec, "--R", "1",
                             "--n", "50000", "--seed", "7")
        assert out1 == out2

    def test_golden(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "verify", "--metric", "outage",
                            "--spec", ray_spec, "--R", "1",
                            "--n", "50000", "--seed", "42")
        assert_json_close(out, "verify_outage.json", rtol=1e-9)


class TestOptimize:
    def test_stationarity_column(self, capsys, ray_spec):
        code, out, _ = run_cli(capsys, "optimize", "--metric", "arq",
                               "--spec", ray_spec,
                               "--theta-sweep", "0.1:0.9:5")
        assert code == 0
        for row in json.loads(out)["rows"]:
            assert not row["boundary"]
            assert abs(row["dT_dR"]) < 1e-4 * row["T_opt"]

    def test_known_auxiliary_row(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "arq",
                            "--spec", ray_spec, "--theta-sweep", "0.5:0.5:1")
        row = json.loads(out)["rows"][0]
        assert row["g"] == pytest.approx(2.0, rel=1e-9)
        assert row["R_opt"] == pytest.approx(1.5936242600400401, rel=1e-9)

    def test_boundary_rows_flagged(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "arq",
                            "--spec", ray_spec, "--theta-sweep", "1.0:2.0:3")
        for row in json.loads(out)["rows"]:
            assert row["boundary"]
            assert row["R_opt"] is None

    @pytest.mark.parametrize("metric", ["arq", "harq_persistent"])
    def test_zero_theta_refused_by_name(self, capsys, ray_spec, metric):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "optimize", "--metric", metric,
                                     "--spec", ray_spec,
                                     "--theta-sweep", "0:0.5:3")
        assert code == 2 and not out
        assert "theta must be positive" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_optimum_near_zero_rate(self, capsys, ray_spec):
        # Theta -> 1 on unit Rayleigh: g = 1/Theta -> 1 and R* -> 2e-7; the
        # difference step stays inside R > 0
        code, out, err = run_cli(capsys, "optimize", "--metric", "arq",
                                 "--spec", ray_spec,
                                 "--theta-sweep", "0.99:0.9999999:3")
        assert code == 0, err
        for row in json.loads(out)["rows"]:
            assert rate_optimum_error(row["g"], row["R_opt"]) <= 1.0
            assert abs(row["dT_dR"]) * row["R_opt"] / row["T_opt"] <= 1e-4

    def test_rate_past_double_range_exit_two(self, capsys, ray_spec):
        # Theta = 1e-3 on unit Rayleigh: g = 1000, so R* = 1000 and the
        # mean SNR (e^R* - 1)/Theta overflows; an uncaught OverflowError
        # would escape main instead of returning 2
        code, out, err = run_cli(capsys, "optimize", "--metric", "arq",
                                 "--spec", ray_spec,
                                 "--theta-sweep", "0.001:0.001:1")
        assert code == 2 and out == ""
        assert "Theta = 0.001:" in err and "R* = 999.99" in err
        assert "Traceback" not in err

    def test_zero_count_theta_sweep_exit_two(self, capsys, ray_spec):
        code, out, err = run_cli(capsys, "optimize", "--metric", "arq",
                                 "--spec", ray_spec,
                                 "--theta-sweep", "0.1:0.9:0")
        assert code == 2 and out == ""
        assert "count 0 is below 1" in err

    def test_golden_csv(self, capsys, ray_spec):
        _, out, _ = run_cli(capsys, "optimize", "--metric", "arq",
                            "--spec", ray_spec, "--theta-sweep", "0.2:0.8:3",
                            "--out", "csv")
        want = (GOLDEN / "optimize_arq.csv").read_text()
        got_rows = [r.split(",") for r in out.strip().splitlines()]
        want_rows = [r.split(",") for r in want.strip().splitlines()]
        assert got_rows[0] == want_rows[0]
        for g, w in zip(got_rows[1:], want_rows[1:]):
            for gv, wv in zip(g, w):
                try:
                    assert float(gv) == pytest.approx(float(wv), rel=1e-9)
                except ValueError:
                    assert gv == wv
