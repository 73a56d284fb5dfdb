import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mekit
from mekit import cli

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


def _run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter importing this mekit."""
    src = str(Path(mekit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_leaves_solver_modules_unloaded():
    """``import mekit`` (the start-up of every CLI command) loads neither
    scipy.optimize nor scipy.integrate; the functions that need them import
    them on first call."""
    code = ("import sys, mekit; print(sorted(m for m in sys.modules if "
            "m.split('.')[:2] in (['scipy', 'optimize'], "
            "['scipy', 'integrate'])))")
    assert _run_fresh(code).strip() == "[]"


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
    assert _run_fresh(code).strip() == "[]"


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

    def test_unknown_metric_exit_two(self, capsys, ray_spec):
        code, _, err = run_cli(capsys, "metric", "--metric", "nope",
                               "--spec", ray_spec)
        assert code == 2

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
