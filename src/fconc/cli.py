"""Command-line front end.

Subcommands
    table    reproduce the 13-kappa reference table at the default caps,
             with our values, the reference values and absolute differences
    inf      full infimum probe at one kappa (grid + limit curve + closed
             form verdict for kappa <= 1, margin over 1/2 for kappa > 1)
    prob     P(X <= kappa E[X]) for one (d1, d2, kappa)
    sweep    CSV of probe results over a kappa range
    verify   run the identity/monotonicity verification suite

Machine formats print probabilities with 15 significant digits; CSV columns
and JSON fields are kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags
(CSV joins flags with ';'). Flags come from a closed set:

    exact-infimum-not-attained   kappa <= 1: closed-form infimum, not attained
    conjecture-kappa-gt-1        kappa > 1: infimum only conjectured > 1/2
    paper-row-inconsistent       reference-table row contradicted by the
                                 strict kappa-monotonicity of the probe

Exit codes: 0 success, 1 verification/assertion failure, 2 usage error,
3 numerical convergence failure, 4 a pool worker process died (killed, or
out of memory) before returning its stripe, 5 the output could not be
written (stdout or --out; a full disk, a closed pipe). A --workers below 1
is a usage error, and so are a d1, d2 or cap above 2e5, a kappa whose
product with the largest shape the command forms is not finite, an --out
path that cannot be opened, and a negative --seed; a convergence failure
inside a pool worker still exits with 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .fdist import FParams, _check_df_max, _check_kappa, prob_leq_kappa_mean, threshold
from .probe import DEFAULT_GRID, GridSpec, default_a_grid, infimum
from .special import ConvergenceError
from .verify import DEFAULT_SEED, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_WORKER_DIED = 4
EXIT_OUTPUT_FAILED = 5

FLAG_PAPER_ROW_INCONSISTENT = "paper-row-inconsistent"

# Reference table: kappa -> (inf P, d1, d2). The kappa = 3.0 row cannot be
# right: the probe is strictly increasing in kappa, yet the row exceeds the
# kappa = 3.005 row, so it is re-derived and flagged instead of matched.
REFERENCE_TABLE = [
    (1.00005, 0.509371, 1999, 1999),
    (1.001, 0.516817, 667, 1999),
    (1.005, 0.533577, 134, 1999),
    (1.05, 0.601371, 14, 1999),
    (1.5, 0.776954, 2, 1999),
    (3.0, 0.936000, 1, 1999),
    (3.005, 0.916991, 1, 803),
    (3.05, 0.919240, 1, 83),
    (math.pi, 0.923510, 1, 31),
    (4.0, 0.950133, 1, 7),
    (6.0, 0.974279, 1, 4),
    (8.0, 0.983723, 1, 3),
    (16.0, 0.993835, 1, 3),
]
INCONSISTENT_KAPPAS = (3.0,)

CSV_HEADER = "kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags"


class UsageError(Exception):
    pass


class OutputError(Exception):
    pass


def _fmt15(v) -> str:
    return format(float(v), ".15g")


def _round15(v) -> float:
    return float(_fmt15(v))


def _records(results, fmt) -> str:
    """CSV or JSON text of results, fields in CSV_HEADER order."""
    # inf_value is the grid minimum (it belongs to the d1/d2 argmin columns);
    # min(inf_value, limit_min) recovers the combined estimate
    num, missing, join = (_round15, None, list) if fmt == "json" else (_fmt15, "", ";".join)
    rows = [
        [
            num(r.kappa), num(r.grid_min), r.argmin_d1, r.argmin_d2,
            missing if r.limit_min is None else num(r.limit_min),
            missing if r.limit_argmin_a is None else num(r.limit_argmin_a),
            join(r.flags),
        ]
        for r in results
    ]
    if fmt == "json":
        return json.dumps([dict(zip(CSV_HEADER.split(","), row)) for row in rows], indent=2) + "\n"
    return "\n".join([CSV_HEADER] + [",".join(map(str, row)) for row in rows]) + "\n"


def _emit(text: str, out_path):
    """Write text to out_path, or to stdout when it is None. A path that
    cannot be opened is a UsageError; a write or close that fails after
    that is an OutputError."""
    if out_path is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise OutputError(f"cannot write the output: {exc}") from exc
        return
    try:
        fh = open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc}") from exc


def _emit_results(args, results, render_text=None):
    """Write results in args.format; render_text(results) gives the text format."""
    _emit(render_text(results) if args.format == "text" else _records(results, args.format), args.out)


def _check_dofs(*flags):
    """A UsageError naming the first (flag, value) pair past shape SHAPE_MAX."""
    for flag, value in flags:
        try:
            _check_df_max(flag, value)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _resolve_settings(args):
    """GridSpec and workers from the flags."""
    # before GridSpec, which names its fields, so the message names the flags
    _check_dofs(("--d1-max", args.d1_max), ("--d2-max", args.d2_max))
    try:
        grid = GridSpec(args.d1_max, args.d2_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    return grid, args.workers


def _check_kappa_arg(flag, kappa, *shapes):
    """The probe's kappa gate on the shapes a command forms; a UsageError naming flag."""
    try:
        _check_kappa(kappa, shapes)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _table_text(results) -> str:
    lines = [
        f"{'kappa':>10}  {'grid inf P':>12}  {'d1':>5}  {'d2':>5}  "
        f"{'reference':>10}  {'|diff|':>9}  flags"
    ]
    rows = list(zip(REFERENCE_TABLE, results))
    for (kappa, ref_val, _, _), res in rows:
        diff = abs(res.grid_min - ref_val)
        lines.append(
            f"{kappa:>10.6f}  {res.grid_min:>12.6f}  {res.argmin_d1:>5d}  "
            f"{res.argmin_d2:>5d}  {ref_val:>10.6f}  {diff:>9.2e}  {';'.join(res.flags)}"
        )
    for (kappa, ref_val, ref_d1, ref_d2), res in rows:
        if res.flags:
            lines.append(
                f"note: the reference row kappa={kappa:g} ({ref_val:.6f} at "
                f"({ref_d1},{ref_d2})) exceeds the kappa=3.005 row and is "
                f"impossible under strict monotonicity in kappa; computed "
                f"minimum is {res.grid_min:.6f} at ({res.argmin_d1},{res.argmin_d2})."
            )
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    grid, workers = _resolve_settings(args)
    # every table kappa is above 1; the rows carry only the reference flag,
    # not the regime flag infimum attaches
    results = [
        replace(
            infimum(kappa, grid, None, workers),
            flags=(FLAG_PAPER_ROW_INCONSISTENT,) if kappa in INCONSISTENT_KAPPAS else (),
        )
        for kappa, *_ in REFERENCE_TABLE
    ]
    _emit_results(args, results, _table_text)
    return EXIT_OK


def _inf_text(res) -> str:
    lines = [
        f"kappa                 {res.kappa:.15g}",
        f"grid minimum          {res.grid_min:.15g} at (d1, d2) = "
        f"({res.argmin_d1}, {res.argmin_d2}) with caps "
        f"({res.grid.d1_max}, {res.grid.d2_max})",
        f"limit-curve minimum   {res.limit_min:.15g} at a = {res.limit_argmin_a:g}",
        f"combined estimate     {res.combined_inf_estimate:.15g}",
    ]
    if res.exact_inf is not None:
        lines.append(
            f"exact infimum         {res.exact_inf:g} (not attained at finite parameters)"
        )
    else:
        lines.append(
            "kappa > 1 regime      conjectured infimum > 1/2; observed margin "
            f"{res.combined_inf_estimate - 0.5:.6g}"
        )
    return "\n".join(lines) + "\n"


def cmd_inf(args) -> int:
    grid, workers = _resolve_settings(args)
    try:
        a_grid = default_a_grid(args.a_max)
    except ValueError as exc:
        raise UsageError(f"--a-max: {exc}") from exc
    _check_kappa_arg("--kappa", args.kappa, grid.d1_max / 2.0, a_grid[-1])
    res = infimum(args.kappa, grid, a_grid, workers)
    _emit_results(args, [res], lambda results: _inf_text(*results))

    # above kappa = 1 a probe value <= 1/2 contradicts the proven lower
    # bound; the grid minimum is named before the limit-curve minimum
    above_one = res.kappa > 1.0
    if above_one and res.grid_min <= 0.5:
        counterexample = ("grid", res.argmin_d1, res.argmin_d2, res.grid_min)
    elif above_one and res.limit_min <= 0.5:
        counterexample = ("limit", res.limit_argmin_a, res.limit_min)
    else:
        return EXIT_OK
    print(
        f"COUNTEREXAMPLE: probe value <= 1/2 at {counterexample} contradicts "
        "the proven lower bound; this signals a numerics bug",
        file=sys.stderr,
    )
    return EXIT_CHECK_FAILED


def cmd_prob(args) -> int:
    if args.d2 <= 2:
        raise UsageError(
            f"d2 = {args.d2} is invalid: the F mean d2/(d2-2) does not exist for d2 <= 2"
        )
    if args.d1 < 1:
        raise UsageError("--d1 must be >= 1")
    _check_dofs(("--d1", args.d1), ("--d2", args.d2))
    _check_kappa_arg("--kappa", args.kappa, args.d1 / 2.0)
    p = FParams(args.d1, args.d2)
    s = p.shape()
    q = threshold(s, args.kappa)
    val = prob_leq_kappa_mean(p, args.kappa)
    _emit(
        f"P(X <= kappa E[X]) = {val:.17g}\n"
        f"threshold q        = {q:.17g}\n"
        f"shape (a, b)       = ({s.a:.17g}, {s.b:.17g})\n",
        None,
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid, workers = _resolve_settings(args)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    a_grid = default_a_grid()
    _check_kappa_arg("--kappa-from", args.kappa_from, grid.d1_max / 2.0, a_grid[-1])
    _check_kappa_arg("--kappa-to", args.kappa_to, grid.d1_max / 2.0, a_grid[-1])
    if not args.kappa_from < args.kappa_to:
        raise UsageError("need --kappa-from < --kappa-to")
    kappas = np.linspace(args.kappa_from, args.kappa_to, args.steps)
    results = [infimum(float(kappa), grid, a_grid, workers) for kappa in kappas]
    for r1, r2 in zip(results, results[1:]):
        if r2.grid_min < r1.grid_min:
            print(
                "monotonicity violation: inf estimates decreased along increasing "
                "kappa; this signals a numerics bug",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
    _emit_results(args, results)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    report = run_suite(profile=args.profile, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
    else:
        lines = [f"{'check':<28} {'samples':>8} {'max residual':>14}  status"]
        for c in report.checks:
            lines.append(
                f"{c.name:<28} {c.samples:>8d} {c.max_residual:>14.6e}  "
                f"{'pass' if c.passed else 'FAIL'}"
            )
        lines.append(
            f"overall: {'PASS' if report.overall else 'FAIL'} "
            f"(profile {report.profile}, seed {report.seed})"
        )
        _emit("\n".join(lines) + "\n", args.out)
    if not report.overall:
        first = report.first_failure()
        print(f"verification failed: {first.name} ({first.detail})", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fconc",
        description="F-distribution concentration probabilities and infimum probes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scan=True, formats=("text", "csv", "json")):
        if scan:
            p.add_argument("--d1-max", type=int, default=DEFAULT_GRID.d1_max, help="d1 search cap (default 1999)")
            p.add_argument("--d2-max", type=int, default=DEFAULT_GRID.d2_max, help="d2 search cap (default 1999)")
            p.add_argument("--workers", type=int, help="process count for the grid scan")
        p.add_argument("--out", help="output path (default stdout)")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="text",
                help="output format (default text)",
            )

    p_table = sub.add_parser("table", help="reproduce the 13-kappa reference table")
    add_common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_inf = sub.add_parser("inf", help="infimum probe at one kappa")
    p_inf.add_argument("--kappa", type=float, required=True)
    p_inf.add_argument("--a-max", type=float, default=1e4, help="end of the limit-curve a grid (default 1e4)")
    add_common(p_inf)
    p_inf.set_defaults(func=cmd_inf)

    p_prob = sub.add_parser("prob", help="P(X <= kappa E[X]) at one (d1, d2)")
    p_prob.add_argument("--d1", type=int, required=True)
    p_prob.add_argument("--d2", type=int, required=True)
    p_prob.add_argument("--kappa", type=float, default=1.0)
    p_prob.set_defaults(func=cmd_prob)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of probes over a kappa range")
    p_sweep.add_argument("--kappa-from", type=float, required=True)
    p_sweep.add_argument("--kappa-to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    add_common(p_sweep, formats=())
    p_sweep.set_defaults(func=cmd_sweep, format="csv")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p_verify, scan=False, formats=("text", "json"))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"numerical convergence failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_FAILED
    except Exception as exc:
        # imported only here, as the pool itself is: a dead worker is the
        # one other failure with an exit code of its own
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED


if __name__ == "__main__":
    sys.exit(main())
