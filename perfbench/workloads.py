"""The benchmark's workloads, how one operation runs, and the correctness gate.

An operation is one ``fconc`` command, run in-process through
``fconc.cli.main`` with stdout and stderr captured: one ``inf`` probe on the
scan workloads, one ``verify --profile full`` suite on ``verify-full``. A
workload is a closed loop over its operations from a single process.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

FULL_CAPS = (1999, 1999)

# Paper table rows the gate checks: kappa -> (inf P, d1, d2) at FULL_CAPS.
REFERENCE_ROWS = {
    1.5: (0.776954, 2, 1999),
    3.005: (0.916991, 1, 803),
    1.00005: (0.509371, 1999, 1999),
    16.0: (0.993835, 1, 3),
}
VALUE_TOL = 5e-6
FLAG_NOT_ATTAINED = "exact-infimum-not-attained"

# verify-full draws its suite seeds from this pool, so the golden outputs of
# every seed the workload can run are known. A suite's cost varies by about
# 10% with its seed; half the pool per pass keeps that out of wall_s.
SUITE_SEED_POOL = tuple(range(64))
SUITES_PER_PASS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    kappas: tuple = ()  # empty: a verify-suite workload
    workers: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan-far", (1.5, 3.005, 16.0)),
        Workload("scan-near-one", (1.0, 1.00005), workers=2),
        Workload("verify-full"),
    )
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    kappa: float | None = None  # None: a verify suite
    caps: tuple = FULL_CAPS


@dataclass
class Outcome:
    op: Op
    seconds: float
    exit_code: object
    stdout: str
    stderr: str
    failure: str | None = None


def suite_seeds(seed: int) -> list[int]:
    return random.Random(seed).sample(SUITE_SEED_POOL, SUITES_PER_PASS)


def verify_op(suite_seed: int) -> Op:
    argv = ("verify", "--profile", "full", "--seed", str(suite_seed), "--format", "json")
    return Op(f"seed_{suite_seed}", argv)


def scan_op(kappa: float, caps: tuple, workers: int | None) -> Op:
    argv = ("inf", "--kappa", format(kappa, "g"), "--format", "csv",
            "--d1-max", str(caps[0]), "--d2-max", str(caps[1]))
    if workers:
        argv += ("--workers", str(workers))
    return Op(f"kappa_{kappa:g}", argv, kappa, caps)


def build_ops(workload: str, seed: int, caps: tuple = FULL_CAPS) -> list[Op]:
    """The operations of one pass; only verify-full depends on the seed."""
    w = WORKLOADS[workload]
    if not w.kappas:
        return [verify_op(s) for s in suite_seeds(seed)]
    return [scan_op(kappa, caps, w.workers) for kappa in w.kappas]


def check(op: Op, exit_code, stdout: str) -> str | None:
    """None when the operation's output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if op.kappa is None:
        try:
            report = json.loads(stdout)
        except ValueError:
            return "verify output is not JSON"
        return None if report.get("overall") is True else "verify report is not overall: true"
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if len(rows) != 1:
        return f"expected one CSV row, got {len(rows)}"
    row = rows[0]
    value = float(row["inf_value"])
    argmin = (int(row["d1"]), int(row["d2"]))
    if op.kappa in REFERENCE_ROWS:
        ref_value, *ref_argmin = REFERENCE_ROWS[op.kappa]
        if not abs(value - ref_value) <= VALUE_TOL:  # NaN fails too
            return f"inf_value {value!r} is more than {VALUE_TOL:g} from {ref_value}"
        if argmin != tuple(ref_argmin):
            return f"argmin {argmin} differs from the reference {tuple(ref_argmin)}"
    elif op.kappa == 1.0:
        # the probe strictly decreases in d2 for kappa <= 1, and the grid
        # minimum sits at the corner of the caps
        if not value > 0.5:
            return f"grid_min {value!r} is not above 1/2"
        if argmin != tuple(op.caps):
            return f"argmin {argmin} is not {tuple(op.caps)}"
        if FLAG_NOT_ATTAINED not in row["flags"].split(";"):
            return f"flag {FLAG_NOT_ATTAINED} missing"
    return None


def run_op(main, op: Op) -> Outcome:
    """Run one operation through ``main`` and gate its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any escape from the CLI is a failed operation
            code = type(exc).__name__
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    outcome = Outcome(op, seconds, code, out.getvalue(), err.getvalue())
    outcome.failure = check(op, code, outcome.stdout)
    return outcome


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()
