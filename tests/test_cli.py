import hashlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fconc.verify
from fconc import cli, probe

from conftest import child_env, patch_infimum

_scan_stripe = probe._scan_stripe


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fconc.cli", *args],
        capture_output=True,
        text=True,
        env=child_env(),
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
        "grid_min, limit_min, where",
        [(0.5, 0.7, "('grid', 3, 7, 0.5)"), (0.6, 0.4, "('limit', 2.0, 0.4)"), (0.4, 0.3, "('grid', 3, 7, 0.4)")],
    )
    def test_counterexample_exits_one(self, monkeypatch, capsys, grid_min, limit_min, where):
        # the documented exit for a probe value <= 1/2 above kappa = 1: the
        # result still goes to stdout, the counterexample to stderr. A grid
        # minimum <= 1/2 is named before a limit-curve one.
        patch_infimum(monkeypatch, grid_min, limit_min)
        argv = ["inf", "--kappa", "1.05", "--d1-max", "5", "--d2-max", "5", "--a-max", "5"]
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED
        out, err = capsys.readouterr()
        assert "grid minimum" in out
        assert f"COUNTEREXAMPLE: probe value <= 1/2 at {where} contradicts" in err


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


_HUGE = str(10**400)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("prob", "--d1", "3", "--d2", str(2 * 10**17)), "--d2"),
        (("prob", "--d1", "3", "--d2", str(2 * 10**10)), "--d2"),
        (("prob", "--d1", _HUGE, "--d2", "5"), "--d1"),
        (("inf", "--kappa", "1.5", "--d1-max", _HUGE), "--d1-max"),
        (("inf", "--kappa", "1.5", "--d2-max", _HUGE), "--d2-max"),
        (("table", "--d2-max", _HUGE), "--d2-max"),
        (("sweep", "--kappa-from", "1", "--kappa-to", "2", "--steps", "2", "--d1-max", _HUGE), "--d1-max"),
        (("prob", "--d1", "200001", "--d2", "5"), "--d1"),
        (("prob", "--d1", "3", "--d2", "200001"), "--d2"),
    ],
)
def test_degrees_of_freedom_past_shape_max_usage_error(capsys, argv, flag):
    # a d1, d2 or cap above 2e5 forms a shape past special.SHAPE_MAX, where
    # no accuracy is held: prob printed 1 at d2 = 2e17 (ln_beta is -inf
    # there) and a value wrong from its 8th digit at 2e10, both with exit
    # 0, and 10**400 failed with a traceback (an overflow, or an array too
    # large)
    err = _main_error(capsys, list(argv))
    assert err.startswith(f"error: {flag} must be at most 200000:")


def test_degrees_of_freedom_at_shape_max_accepted(capsys):
    assert cli.main(["prob", "--d1", "200000", "--d2", "200000"]) == 0
    assert "shape (a, b)       = (100000, 100000)" in capsys.readouterr().out
    args = cli.build_parser().parse_args(["table", "--d1-max", "200000", "--d2-max", "200000"])
    assert cli._resolve_settings(args) == (probe.GridSpec(200000, 200000), None)
    args.d2_max += 1
    with pytest.raises(cli.UsageError, match="--d2-max must be at most 200000"):
        cli._resolve_settings(args)


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
    # two stripes hold live cells at kappa = 1.05, so the pool starts
    argv = ["inf", "--kappa", "1.05", "--d1-max", "140", "--d2-max", "40", "--a-max", "5", "--workers", "2"]
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

    def test_degraded_tolerance_fails_with_named_check(self, monkeypatch, capsys):
        # ln_beta shifted by 1e-6 moves the recurrence's correction term
        # enough that the identity residuals blow past their bound
        ln_beta = fconc.verify.ln_beta
        monkeypatch.setattr(fconc.verify, "ln_beta", lambda a, b: ln_beta(a, b) + 1e-6)
        code = cli.main(["verify", "--profile", "quick"])
        err = capsys.readouterr().err
        assert code == 1
        assert "verification failed:" in err
        assert "recurrence-identity" in err


class TestConfigFile:
    """There is no config file: the iteration caps and the oracle's tolerance
    are fixed, and only flags set the grid caps and the worker count."""

    @pytest.mark.parametrize(
        "argv",
        [["table"], ["inf", "--kappa", "2"], ["prob", "--d1", "2", "--d2", "4"],
         ["sweep", "--kappa-from", "1", "--kappa-to", "2", "--steps", "2"], ["verify"]],
        ids=["table", "inf", "prob", "sweep", "verify"],
    )
    def test_config_option_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--config", "fconc.cfg"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_convergence_failure_exit_code(self, tight_oracle, capsys):
        assert cli.main(["verify", "--profile", "quick"]) == cli.EXIT_NUMERICAL
        assert "convergence failure" in capsys.readouterr().err

    def test_oracle_failure_names_first_failing_integral(self, tight_oracle, capsys):
        # the per-sample loop failed first on this sample's complete integral;
        # the batched oracle must name the same one, in Python floats
        assert cli.main(["verify", "--profile", "quick"]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "(hi=1.0, a=782.0278306273453, b=8.044188364930141)" in err
        assert "np.float64(" not in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_usage_error(self, workers):
        p = run_cli("inf", "--kappa", "1.5", "--d1-max", "5", "--d2-max", "5", "--a-max", "5", "--workers", workers)
        assert p.returncode == 2
        assert "workers must be >= 1" in p.stderr


def test_import_leaves_process_pool_unloaded():
    # the pool's modules load only when a scan starts a pool, or a worker dies
    code = (
        "import sys, fconc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert p.returncode == 0 and p.stdout == "[]\n"


def test_benchmark_commands_parse(monkeypatch):
    # every command the benchmark runs is a valid command line; the
    # workloads module is only read, never changed, from here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        ops = workloads.build_ops(name, seed=0)
        assert ops
        for op in ops:
            assert parser.parse_args(list(op.argv)).func in (cli.cmd_inf, cli.cmd_verify)


def _main_error(capsys, argv):
    # one "error:" line on stderr and the usage exit code, no traceback
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestFileErrors:
    def test_out_directory(self, tmp_path, capsys):
        argv = ["inf", "--kappa", "1.5", "--d1-max", "5", "--d2-max", "5", "--a-max", "5", "--out", str(tmp_path)]
        err = _main_error(capsys, argv)
        assert str(tmp_path) in err


class _FullWriter:
    """A text stream whose every write fails, as a full disk makes it."""

    def write(self, text):
        raise OSError(28, "No space left on device")

    def flush(self):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestOutputErrors:
    # a write that fails after the output is open: one error line, exit 5,
    # never the traceback with exit 1 that a failed verification means
    def _run(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OUTPUT_FAILED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "No space left on device" in err
        return err

    def test_prob_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _FullWriter())
        self._run(capsys, ["prob", "--d1", "2", "--d2", "4"])

    def test_inf_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _FullWriter())
        self._run(capsys, ["inf", "--kappa", "1.5", "--d1-max", "5", "--d2-max", "5", "--a-max", "5"])

    def test_sweep_to_out_file(self, monkeypatch, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: _FullWriter(), raising=False)
        argv = ["sweep", "--kappa-from", "1.5", "--kappa-to", "2", "--steps", "2", "--d1-max", "5", "--d2-max", "5"]
        assert str(out) in self._run(capsys, argv + ["--out", str(out)])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
    def test_close_fails_on_full_device(self, capsys):
        # the text fits the file buffer, so the failure comes at close
        argv = ["sweep", "--kappa-from", "1.5", "--kappa-to", "2", "--steps", "2", "--d1-max", "5", "--d2-max", "5"]
        self._run(capsys, argv + ["--out", "/dev/full"])


def test_negative_seed_usage_error(capsys):
    # exit 1 means a failed verification, so a bad seed must not reach numpy
    err = _main_error(capsys, ["verify", "--seed", "-1"])
    assert "--seed" in err


# exact stdout bytes: any change here is a change to the output formats
_INF_1_5 = ["inf", "--kappa", "1.5", "--d1-max", "30", "--d2-max", "30", "--a-max", "50"]
PINNED_STDOUT = [
    (
        _INF_1_5 + ["--format", "text"],
        "kappa                 1.5\n"
        "grid minimum          0.782757364609434 at (d1, d2) = (2, 30) with caps (30, 30)\n"
        "limit-curve minimum   0.776869839851571 at a = 1\n"
        "combined estimate     0.776869839851571\n"
        "kappa > 1 regime      conjectured infimum > 1/2; observed margin 0.27687\n",
    ),
    (
        _INF_1_5 + ["--format", "csv"],
        "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n"
        "1.5,0.782757364609434,2,30,0.776869839851571,1,conjecture-kappa-gt-1\n",
    ),
    (
        _INF_1_5 + ["--format", "json"],
        '[\n  {\n    "kappa": 1.5,\n    "inf_value": 0.782757364609434,\n    "d1": 2,\n'
        '    "d2": 30,\n    "limit_min": 0.776869839851571,\n    "limit_argmin_a": 1.0,\n'
        '    "flags": [\n      "conjecture-kappa-gt-1"\n    ]\n  }\n]\n',
    ),
    (
        ["sweep", "--kappa-from", "0.5", "--kappa-to", "2", "--steps", "5", "--d1-max", "12", "--d2-max", "12"],
        "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n"
        "0.5,0.194340489339083,12,12,0,3981.07170553497,exact-infimum-not-attained\n"
        "0.875,0.532979868486173,12,12,2.81988879742064e-39,10000,exact-infimum-not-attained\n"
        "1.25,0.735405163678251,3,12,0.710244218806616,1.5,conjecture-kappa-gt-1\n"
        "1.625,0.812119299023109,1,12,0.797603984027042,0.5,conjecture-kappa-gt-1\n"
        "2,0.852705704912991,1,12,0.842700792949715,0.5,conjecture-kappa-gt-1\n",
    ),
    (
        # every table kappa at caps where the scan prunes in every regime it
        # has, so this also pins the pruned scan's results bit for bit
        ["table", "--format", "csv", "--d1-max", "300", "--d2-max", "300"],
        "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n"
        "1.00005,0.523250211974513,300,300,0.50325739937694,6556.41849417978,\n"
        "1.001,0.526521552615242,300,300,0.514561569396476,333.5,\n"
        "1.005,0.539102412257105,134,300,0.53250945386631,67,\n"
        "1.05,0.603263729380969,14,300,0.601035325604707,7,\n"
        "1.5,0.777430693617867,2,300,0.776869839851571,1,\n"
        "3,0.916737202178552,1,300,0.91673548333645,0.5,paper-row-inconsistent\n"
        "3.005,0.916992458592498,1,300,0.91699202280885,0.5,\n"
        "3.05,0.919239792053688,1,83,0.919262857095433,0.5,\n"
        "3.14159265358979,0.923509722495054,1,31,0.923680750542946,0.5,\n"
        "4,0.950132769431115,1,7,0.954499736103642,0.5,\n"
        "6,0.974278579257493,1,4,0.98569412156457,0.5,\n"
        "8,0.983723396540571,1,3,0.995322265018953,0.5,\n"
        "16,0.993834626861163,1,3,0.999936657516334,0.5,\n"
    ),
    (
        # full caps near kappa = 1, where the pruning pass and the limit
        # curve's series tail do the most
        ["inf", "--kappa", "1", "--format", "csv", "--d1-max", "1999", "--d2-max", "1999"],
        "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n"
        "1,0.508925456895256,1999,1999,0.501329808342495,10000,exact-infimum-not-attained\n",
    ),
    (
        ["inf", "--kappa", "1.00005", "--format", "csv", "--d1-max", "1999", "--d2-max", "1999"],
        "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n"
        "1.00005,0.509371192208162,1999,1999,0.50325739937694,6556.41849417978,conjecture-kappa-gt-1\n",
    ),
]


@pytest.mark.parametrize(
    "argv, stdout",
    PINNED_STDOUT,
    ids=["inf-text", "inf-csv", "inf-json", "sweep", "table-csv-300", "inf-csv-1-full", "inf-csv-1.00005-full"],
)
def test_stdout_bytes_pinned(capsys, argv, stdout):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout and captured.err == ""


def test_full_caps_table_digest_pinned(capsys):
    # the parity gate every pruning change claims, at the default caps
    # (1999, 1999): the 13 rows' bytes, held by digest
    assert cli.main(["table", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "9f6032e18084a9924db84662a632e3252e7b32187c53c7f7855e939f70a48239" and captured.err == ""
