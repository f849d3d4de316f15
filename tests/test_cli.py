import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from fconc import cli, probe

_scan_stripe = probe._scan_stripe


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fconc.cli", *args],
        capture_output=True,
        text=True,
    )


class TestProb:
    def test_known_value(self):
        p = run_cli("prob", "--d1", "2", "--d2", "4", "--kappa", "1")
        assert p.returncode == 0
        assert "0.74999999999999978" in p.stdout or "0.75" in p.stdout
        assert "threshold q" in p.stdout
        assert "0.5" in p.stdout

    def test_reference_value(self):
        p = run_cli("prob", "--d1", "1", "--d2", "3", "--kappa", "16")
        assert p.returncode == 0
        val = float(p.stdout.splitlines()[0].rsplit("=", 1)[1])
        assert val == pytest.approx(0.993835, abs=5e-6)

    def test_mean_nonexistence_usage_error(self):
        p = run_cli("prob", "--d1", "1", "--d2", "2")
        assert p.returncode == 2
        assert "mean" in p.stderr and "does not exist" in p.stderr

    def test_bad_kappa(self):
        p = run_cli("prob", "--d1", "1", "--d2", "3", "--kappa", "-2")
        assert p.returncode == 2


class TestInf:
    def test_text_kappa_one(self):
        p = run_cli("inf", "--kappa", "1", "--d1-max", "20", "--d2-max", "20", "--a-max", "50")
        assert p.returncode == 0
        assert "exact infimum         0.5" in p.stdout
        assert "not attained" in p.stdout

    def test_json_fields(self):
        p = run_cli(
            "inf", "--kappa", "0.5", "--d1-max", "15", "--d2-max", "15",
            "--a-max", "100", "--format", "json",
        )
        assert p.returncode == 0
        rec = json.loads(p.stdout)[0]
        assert set(rec) == {"kappa", "inf_value", "d1", "d2", "limit_min", "limit_argmin_a", "flags"}
        assert rec["flags"] == ["exact-infimum-not-attained"]
        assert rec["d1"] <= 15 and rec["d2"] <= 15

    def test_usage_error_on_bad_kappa(self):
        p = run_cli("inf", "--kappa", "0")
        assert p.returncode == 2

    @pytest.mark.parametrize("a_max", ["nan", "inf", "0.3"])
    def test_usage_error_on_bad_a_max(self, a_max):
        p = run_cli("inf", "--kappa", "2", "--d1-max", "5", "--d2-max", "5", "--a-max", a_max)
        assert p.returncode == 2
        assert "--a-max" in p.stderr and "Traceback" not in p.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("inf", "--kappa", "2", "--d1-max", "5", "--d2-max", "5", "--a-max", "1e308"),
        ("inf", "--kappa", "1e308", "--d1-max", "5", "--d2-max", "5", "--a-max", "5"),
        ("prob", "--d1", "5", "--d2", "5", "--kappa", "1e308"),
        ("sweep", "--kappa-from", "1", "--kappa-to", "1e308", "--steps", "2", "--d1-max", "5", "--d2-max", "5"),
    ],
)
def test_kappa_times_shape_overflow_usage_error(argv):
    p = run_cli(*argv)
    assert p.returncode == 2
    assert "Traceback" not in p.stderr


def _die_past_first_stripe(args):
    # module level, so the pool can pickle it; os._exit skips all cleanup,
    # as a kill or the out-of-memory killer does
    if args[0] > 1:
        os._exit(1)
    return _scan_stripe(args)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched stripe reaches pool workers only when they are forked",
)
def test_dead_worker_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(probe, "_scan_stripe", _die_past_first_stripe)
    argv = ["inf", "--kappa", "1.5", "--d1-max", "140", "--d2-max", "40", "--a-max", "5", "--workers", "2"]
    assert cli.main(argv) == cli.EXIT_WORKER_DIED == 4
    err = capsys.readouterr().err
    assert err.startswith("worker process died: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestTable:
    def test_csv_contains_all_rows_and_flag(self):
        p = run_cli("table", "--d1-max", "25", "--d2-max", "25", "--format", "csv")
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert lines[0] == "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags"
        assert len(lines) == 14
        flagged = [ln for ln in lines if ln.startswith("3,")]
        assert len(flagged) == 1 and flagged[0].endswith("paper-row-inconsistent")
        assert "\r" not in p.stdout

    def test_text_mentions_inconsistent_row(self):
        p = run_cli("table", "--d1-max", "10", "--d2-max", "10")
        assert p.returncode == 0
        assert "paper-row-inconsistent" in p.stdout
        assert "monotonicity" in p.stdout

    def test_machine_output_deterministic_across_workers(self):
        a = run_cli("table", "--d1-max", "60", "--d2-max", "60", "--format", "json", "--workers", "1")
        b = run_cli("table", "--d1-max", "60", "--d2-max", "60", "--format", "json", "--workers", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_out_file_roundtrip(self, tmp_path):
        out = tmp_path / "table.csv"
        p = run_cli("table", "--d1-max", "12", "--d2-max", "12", "--format", "csv", "--out", str(out))
        assert p.returncode == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        # re-serializing the parsed floats at 15 significant digits is lossless
        for ln in lines[1:]:
            kappa, inf_value, d1, d2, lmin, larg, flags = ln.split(",")
            assert format(float(kappa), ".15g") == kappa
            assert format(float(inf_value), ".15g") == inf_value
            assert format(float(lmin), ".15g") == lmin
            int(d1), int(d2)


class TestSweep:
    def test_rows_and_monotonicity(self):
        p = run_cli(
            "sweep", "--kappa-from", "1.0", "--kappa-to", "2.0", "--steps", "4",
            "--d1-max", "12", "--d2-max", "12",
        )
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert len(lines) == 5
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        kappas = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert kappas == sorted(kappas)

    def test_below_one_verdicts(self):
        p = run_cli(
            "sweep", "--kappa-from", "0.5", "--kappa-to", "0.9", "--steps", "3",
            "--d1-max", "10", "--d2-max", "10",
        )
        assert p.returncode == 0
        for ln in p.stdout.splitlines()[1:]:
            assert ln.endswith("exact-infimum-not-attained")
            assert float(ln.split(",")[1]) > 0.0

    def test_single_step_usage_error(self):
        p = run_cli("sweep", "--kappa-from", "1.0", "--kappa-to", "2.0", "--steps", "1")
        assert p.returncode == 2

    def test_writes_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        p = run_cli(
            "sweep", "--kappa-from", "1.0", "--kappa-to", "1.5", "--steps", "2",
            "--d1-max", "8", "--d2-max", "8", "--out", str(out),
        )
        assert p.returncode == 0
        assert out.read_text().startswith("kappa,inf_value,")


class TestVerify:
    def test_quick_passes(self):
        p = run_cli("verify", "--profile", "quick")
        assert p.returncode == 0
        assert "overall: PASS" in p.stdout

    def test_json_report(self):
        p = run_cli("verify", "--profile", "quick", "--format", "json")
        assert p.returncode == 0
        rep = json.loads(p.stdout)
        assert rep["overall"] is True
        assert rep["profile"] == "quick"
        assert all("max_residual" in c for c in rep["checks"])

    def test_seed_flag_recorded(self):
        p = run_cli("verify", "--profile", "quick", "--seed", "42", "--format", "json")
        assert p.returncode == 0
        assert json.loads(p.stdout)["seed"] == 42

    def test_bad_profile_usage_error(self):
        p = run_cli("verify", "--profile", "huge")
        assert p.returncode == 2

    def test_degraded_tolerance_fails_with_named_check(self, tmp_path):
        # a barely-legal cf_tolerance degrades the continued fraction enough
        # that the identity residuals blow past their bounds
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("cf_tolerance=9e-7\n")
        p = run_cli("verify", "--profile", "quick", "--config", str(cfg))
        assert p.returncode == 1
        assert "verification failed:" in p.stderr
        assert "recurrence-identity" in p.stderr


class TestConfigFile:
    def test_override_applies(self, tmp_path):
        cfg = tmp_path / "fconc.cfg"
        cfg.write_text("cf_max_iter=150\n# comment\ncf_tolerance=1e-14\n")
        p = run_cli("prob", "--d1", "2", "--d2", "4", "--kappa", "1", "--config", str(cfg))
        assert p.returncode == 0

    def test_unknown_key_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery=1\n")
        p = run_cli("prob", "--d1", "2", "--d2", "4", "--config", str(cfg))
        assert p.returncode == 2
        assert "unknown config key" in p.stderr

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "caps.cfg"
        cfg.write_text("d1_max=30\nd2_max=30\n")
        p = run_cli(
            "inf", "--kappa", "2", "--config", str(cfg), "--d1-max", "6", "--d2-max", "6",
            "--a-max", "20", "--format", "json",
        )
        assert p.returncode == 0
        rec = json.loads(p.stdout)[0]
        assert rec["d1"] <= 6 and rec["d2"] <= 6

    def test_convergence_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("quad_tolerance=1e-12\nquad_max_level=5\n")
        p = run_cli("verify", "--profile", "quick", "--config", str(cfg))
        assert p.returncode == 3
        assert "convergence failure" in p.stderr

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_usage_error(self, tmp_path, workers):
        cfg = tmp_path / "workers.cfg"
        cfg.write_text(f"workers={workers}\n")
        caps = ("inf", "--kappa", "1.5", "--d1-max", "5", "--d2-max", "5", "--a-max", "5")
        for extra in (("--workers", workers), ("--config", str(cfg))):
            p = run_cli(*caps, *extra)
            assert p.returncode == 2
            assert "workers must be >= 1" in p.stderr

    def test_missing_config_usage_error(self):
        p = run_cli("prob", "--d1", "2", "--d2", "4", "--config", "/nonexistent.cfg")
        assert p.returncode == 2
