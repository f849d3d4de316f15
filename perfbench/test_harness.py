"""Tests of the benchmark harness itself, at tiny caps.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

TINY = (40, 40)
FULL_ROW_1_5 = "1.5,0.776953623595398,2,1999,0.776869839851571,1,conjecture-kappa-gt-1"


@pytest.fixture(scope="module")
def cli():
    return run.load_fconc(run.ROOT)


def csv_text(row: str) -> str:
    return "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags\n" + row + "\n"


def doctor(row: str, column: int, value: str) -> str:
    fields = row.split(",")
    fields[column] = value
    return ",".join(fields)


def test_gate_accepts_reference_row_and_trips_on_doctored_value_or_argmin():
    op = workloads.scan_op(1.5, workloads.FULL_CAPS, None)
    assert workloads.check(op, 0, csv_text(FULL_ROW_1_5)) is None
    assert workloads.check(op, 0, csv_text(doctor(FULL_ROW_1_5, 1, "0.776963623595398")))
    assert workloads.check(op, 0, csv_text(doctor(FULL_ROW_1_5, 2, "3")))
    assert workloads.check(op, 3, csv_text(FULL_ROW_1_5))


def test_gate_on_real_outputs_at_tiny_caps(cli):
    far = workloads.run_op(cli.main, workloads.scan_op(16.0, TINY, None))
    assert far.failure is None, far.failure
    row = far.stdout.splitlines()[1]
    assert workloads.check(far.op, 0, csv_text(doctor(row, 3, "4")))
    # a shifted value at the right argmin, and a NaN, both fail
    assert workloads.check(far.op, 0, csv_text(doctor(row, 1, "0.993825")))
    assert workloads.check(far.op, 0, csv_text(doctor(row, 1, "nan")))

    one = workloads.run_op(cli.main, workloads.scan_op(1.0, TINY, None))
    assert one.failure is None, one.failure
    row = one.stdout.splitlines()[1]
    assert workloads.check(one.op, 0, csv_text(doctor(row, 1, "0.5")))
    assert workloads.check(one.op, 0, csv_text(doctor(row, 2, "39")))
    assert workloads.check(one.op, 0, csv_text(doctor(row, 6, "")))


def test_gate_on_verify_report():
    op = workloads.verify_op(0)
    assert workloads.check(op, 0, json.dumps({"overall": True})) is None
    assert workloads.check(op, 0, json.dumps({"overall": False}))
    assert workloads.check(op, 0, "not json")


def test_failed_operation_is_counted_not_raised():
    def broken_main(argv):
        raise RuntimeError("boom")

    outcome = workloads.run_op(broken_main, workloads.verify_op(0))
    assert outcome.failure and "RuntimeError" in outcome.stderr


def test_self_time_on_synthetic_span_tree():
    tree = [
        spans.Span(0, None, "root", 0.0, 10.0),
        spans.Span(1, 0, "a", 1.0, 4.0),
        spans.Span(2, 0, "b", 3.0, 6.0),  # overlaps a: the overlap counts once
        spans.Span(3, 1, "leaf", 2.0, 3.0),
        spans.Span(4, 2, "late", 5.0, 7.0),  # runs past its parent: clipped
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 2.0, 3: 1.0, 4: 2.0})


def test_layer_metrics_count_cells_under_grid_infimum_only():
    tree = [
        spans.Span(0, None, "cli.main", 0.0, 10.0),
        spans.Span(1, 0, "probe.grid_infimum", 0.0, 6.0),
        spans.Span(2, 1, "special.reg_inc_beta", 1.0, 3.0, {"elements": 100, "sym": 25}),
        spans.Span(3, 1, "special.reg_inc_beta", 3.0, 5.0, {"elements": 100, "sym": 75}),
        spans.Span(4, 0, "special.reg_inc_beta", 7.0, 8.0, {"elements": 50, "sym": 0}),
    ]
    m = spans.layer_metrics(tree, passes=2)
    assert m["probe.cells_evaluated"] == 100
    assert m["special.reg_inc_beta.calls"] == 1.5
    assert m["special.reg_inc_beta.sym_frac"] == pytest.approx(100 / 250)
    assert m["probe.grid_infimum.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["special.reg_inc_beta.ns_per_element"] == pytest.approx(5.0 / 250 * 1e9)


def test_instrument_restores_the_program(cli):
    from fconc import probe, special

    before = probe.reg_inc_beta
    with spans.instrument(spans.Tracer()):
        assert probe.reg_inc_beta is not before
    assert probe.reg_inc_beta is before is special.reg_inc_beta


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(cli, workload, trace, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(workloads, "SUITES_PER_PASS", 2)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "REPLAY_REPEATS", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], caps=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    if workload == "verify-full":  # the scan reference rows hold at full caps only
        assert result["correct"] and result["failed"] == 0

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace and workload == "scan-far":
        cells = 3 * TINY[0] * (TINY[1] - 2)
        assert result["metrics"]["probe.cells_evaluated"]["value"] == cells


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-far", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
