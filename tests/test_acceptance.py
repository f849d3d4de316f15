"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single "CRITERION n: PASS/FAIL" line (visible with
pytest -s); the full-cap grid scans are shared through a module fixture.
The module takes about 10 s on a 2-core machine: the reference table is 13
exhaustive scans of a 1999 x 1997 grid, but the scan certifies most cells
without evaluating them (see README), and the table's scans take about 2 s.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fconc import (
    FParams,
    GridSpec,
    check_limit,
    check_monotone_b,
    check_recurrence,
    default_a_grid,
    grid_infimum,
    limit_b,
    limit_curve_min,
    prob_leq_kappa_mean,
    quad_inc_beta,
    reg_inc_beta,
)

from conftest import child_env, seeded_triples

CAPS = GridSpec(1999, 1999)

# reference rows that must reproduce within 5e-6 and match argmins exactly
VERIFIED_ROWS = {
    1.00005: (0.509371, 1999, 1999),
    1.001: (0.516817, 667, 1999),
    1.005: (0.533577, 134, 1999),
    1.05: (0.601371, 14, 1999),
    1.5: (0.776954, 2, 1999),
    3.005: (0.916991, 1, 803),
    3.05: (0.919240, 1, 83),
    math.pi: (0.923510, 1, 31),
    4.0: (0.950133, 1, 7),
    6.0: (0.974279, 1, 4),
    8.0: (0.983723, 1, 3),
    16.0: (0.993835, 1, 3),
}

ALL_KAPPAS = [1.00005, 1.001, 1.005, 1.05, 1.5, 3.0, 3.005, 3.05, math.pi, 4.0, 6.0, 8.0, 16.0]


def _line(n, ok, text):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def full_table():
    return {k: grid_infimum(k, CAPS, workers=2) for k in ALL_KAPPAS}


def test_criterion_1_table_reproduction(full_table):
    mismatches = []
    for kappa, (ref_val, ref_d1, ref_d2) in VERIFIED_ROWS.items():
        res = full_table[kappa]
        if abs(res.grid_min - ref_val) > 5e-6:
            mismatches.append((kappa, "value", res.grid_min, ref_val))
        if (res.argmin_d1, res.argmin_d2) != (ref_d1, ref_d2):
            mismatches.append((kappa, "argmin", (res.argmin_d1, res.argmin_d2), (ref_d1, ref_d2)))
    ok = not mismatches
    _line(1, ok, f"12 of 13 rows within 5e-6 with exact argmins; mismatches={mismatches}")
    assert ok


def test_criterion_2_anomalous_row_adjudication(full_table, capsys):
    res = full_table[3.0]
    below_neighbor = res.grid_min <= 0.916991

    # value at (1, 1999), pinned by the quadrature oracle before freezing
    at_cap = prob_leq_kappa_mean(FParams(1, 1999), 3.0)
    oracle = quad_inc_beta(1.5 / 1000.0, 0.5, 999.5)
    frozen = 0.916735521939421
    in_band = abs(at_cap - 0.9172) <= 5e-4
    matches_oracle = abs(at_cap - oracle) <= 1e-9
    matches_frozen = abs(at_cap - frozen) <= 1e-9

    cli = subprocess.run(
        [sys.executable, "-m", "fconc.cli", "table", "--d1-max", "5", "--d2-max", "5",
         "--format", "csv"],
        capture_output=True, text=True, env=child_env(),
    )
    flagged = cli.returncode == 0 and any(
        ln.startswith("3,") and ln.endswith("paper-row-inconsistent")
        for ln in cli.stdout.splitlines()
    )

    ok = below_neighbor and in_band and matches_oracle and matches_frozen and flagged
    _line(
        2, ok,
        f"kappa=3 grid min {res.grid_min:.9f} <= 0.916991; value at (1,1999) "
        f"{at_cap:.9f} in 0.9172+-5e-4 and oracle-pinned; CLI flags the row",
    )
    assert below_neighbor and in_band and matches_oracle and matches_frozen and flagged


def test_criterion_3_recurrence_identity():
    report = check_recurrence(seeded_triples(108, 1000, 0.5, 500.0), tol=1e-10)
    _line(3, report.passed, f"max residual {report.max_residual:.3e} <= 1e-10 on 1000 triples")
    assert report.passed


def test_criterion_4_monotone_decrease_in_b():
    results = [
        check_monotone_b(kappa, (1, 2, 3, 10, 100), range(3, 201))
        for kappa in (0.25, 0.5, 0.9, 1.0)
    ]
    ok = all(r.passed for r in results)
    worst = max(r.max_residual for r in results)
    _line(4, ok, f"zero violations of strict decrease in b; worst consecutive diff {worst:.3e}")
    assert ok


def test_criterion_5_limit_convergence():
    report = check_limit((0.5, 1.0, 5.0), (0.5, 1.0), [2.0 ** j for j in range(1, 14)], final_tol=1e-3)
    _line(5, report.passed, f"residuals shrink along b=2..2^13; final {report.max_residual:.3e} <= 1e-3")
    assert report.passed


def test_criterion_6_limit_curve_endpoints():
    a_grid = default_a_grid()
    vals_k1 = limit_b(a_grid, 1.0)
    above_half = bool((vals_k1 > 0.5).all())
    at_tail = float(vals_k1[-1])
    near_half = abs(at_tail - 0.5) <= 2e-2

    min_k09, _ = limit_curve_min(0.9, a_grid)
    decays = min_k09 < 1e-3

    ok = above_half and near_half and decays
    _line(
        6, ok,
        f"kappa=1 curve > 1/2 everywhere, {at_tail:.6f} at a=1e4; "
        f"kappa=0.9 min {min_k09:.3e} < 1e-3",
    )
    assert ok


def test_criterion_7_strict_half_bound_full_grid():
    res = grid_infimum(1.0, CAPS, workers=2)
    ok = res.grid_min > 0.5
    _line(
        7, ok,
        f"kappa=1 full {CAPS.d1_max}x{CAPS.d2_max - 2} scan: min "
        f"{res.grid_min:.9f} at ({res.argmin_d1},{res.argmin_d2}) exceeds 1/2",
    )
    assert ok


def test_criterion_8_special_function_accuracy():
    triples = seeded_triples(208, 500, 0.5, 2000.0)
    x, a, b = triples[:, 0], triples[:, 1], triples[:, 2]
    cf_vals = reg_inc_beta(x, a, b)
    worst_oracle = max(
        abs(quad_inc_beta(float(x[i]), float(a[i]), float(b[i])) - float(cf_vals[i]))
        for i in range(x.size)
    )

    g = np.random.default_rng(209)
    xs = g.uniform(1e-6, 1.0 - 1e-6, 500)
    bs = np.exp(g.uniform(0.0, np.log(2000.0), 500))
    worst_closed = float(np.abs(reg_inc_beta(xs, 1.0, bs) + np.expm1(bs * np.log1p(-xs))).max())

    arr = seeded_triples(210, 1000, 0.5, 2000.0)
    xs2, as2, bs2 = arr[:, 0], arr[:, 1], arr[:, 2]
    worst_sym = float(
        np.abs(reg_inc_beta(xs2, as2, bs2) + reg_inc_beta(1.0 - xs2, bs2, as2) - 1.0).max()
    )

    ok = worst_oracle <= 1e-9 and worst_closed <= 1e-12 and worst_sym <= 1e-12
    _line(
        8, ok,
        f"oracle {worst_oracle:.3e} <= 1e-9; closed form {worst_closed:.3e} <= 1e-12; "
        f"symmetry {worst_sym:.3e} <= 1e-12",
    )
    assert ok


def test_criterion_9_byte_identical_table_runs():
    def run(workers):
        return subprocess.run(
            [sys.executable, "-m", "fconc.cli", "table", "--d1-max", "300", "--d2-max", "300",
             "--format", "csv", "--workers", str(workers)],
            capture_output=True, text=True, env=child_env(),
        )

    first, second = run(1), run(2)
    ok = first.returncode == 0 == second.returncode and first.stdout == second.stdout
    _line(9, ok, "two cmd_table runs with different worker counts are byte-identical")
    assert ok
