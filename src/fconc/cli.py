"""Command-line front end.

Subcommands
    table    reproduce the 13-kappa reference table at the default caps,
             with our values, the reference values and absolute differences
    inf      full infimum probe at one kappa (grid + limit curve + closed
             form verdict for kappa <= 1)
    prob     P(X <= kappa E[X]) for one (d1, d2, kappa)
    sweep    CSV of probe results over a kappa range
    verify   run the identity/monotonicity verification suite

Machine formats print probabilities with 15 significant digits; CSV columns
are kappa,inf_value,d1,d2,limit_min,limit_argmin_a,flags (flags joined with
';'). Flags come from a closed set:

    exact-infimum-not-attained   kappa <= 1: closed-form infimum, not attained
    conjecture-kappa-gt-1        kappa > 1: infimum only conjectured > 1/2
    paper-row-inconsistent       reference-table row contradicted by the
                                 strict kappa-monotonicity of the probe

Exit codes: 0 success, 1 verification/assertion failure, 2 usage error,
3 numerical convergence failure, 4 a pool worker process died (killed, or
out of memory) before returning its stripe. A --workers (or config
``workers``) below 1 is a usage error, and so is a kappa whose product with
the largest shape the command forms is not finite; a convergence failure
inside a pool worker still exits with 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np

from .probe import DEFAULT_GRID, GridSpec, ProbeResult, conjecture_probe, default_a_grid, infimum
from .special import ConvergenceError, EvalConfig
from .verify import DEFAULT_SEED, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_WORKER_DIED = 4

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

_CONFIG_KEYS = {
    "cf_tolerance": float,
    "cf_max_iter": int,
    "quad_tolerance": float,
    "quad_max_level": int,
    "d1_max": int,
    "d2_max": int,
    "workers": int,
}


class UsageError(Exception):
    pass


def _fmt15(v) -> str:
    return format(float(v), ".15g")


def _round15(v) -> float:
    return float(_fmt15(v))


def _record(result: ProbeResult) -> dict:
    # inf_value is the grid minimum (it belongs to the d1/d2 argmin columns);
    # min(inf_value, limit_min) recovers the combined estimate
    return {
        "kappa": result.kappa,
        "inf_value": result.grid_min,
        "d1": result.argmin_d1,
        "d2": result.argmin_d2,
        "limit_min": result.limit_min,
        "limit_argmin_a": result.limit_argmin_a,
        "flags": list(result.flags),
    }


def _records_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    _fmt15(r["kappa"]),
                    _fmt15(r["inf_value"]),
                    str(r["d1"]),
                    str(r["d2"]),
                    "" if r["limit_min"] is None else _fmt15(r["limit_min"]),
                    "" if r["limit_argmin_a"] is None else _fmt15(r["limit_argmin_a"]),
                    ";".join(r["flags"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _records_json(records) -> str:
    out = []
    for r in records:
        out.append(
            {
                "kappa": _round15(r["kappa"]),
                "inf_value": _round15(r["inf_value"]),
                "d1": r["d1"],
                "d2": r["d2"],
                "limit_min": None if r["limit_min"] is None else _round15(r["limit_min"]),
                "limit_argmin_a": None if r["limit_argmin_a"] is None else _round15(r["limit_argmin_a"]),
                "flags": r["flags"],
            }
        )
    return json.dumps(out, indent=2) + "\n"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _CONFIG_KEYS[key](val.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _resolve_settings(args):
    """EvalConfig, GridSpec and workers from defaults < config file < flags."""
    file_vals = _load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg_kwargs = {
        k: file_vals[k]
        for k in ("cf_tolerance", "cf_max_iter", "quad_tolerance", "quad_max_level")
        if k in file_vals
    }
    try:
        config = EvalConfig(**cfg_kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    d1_max = getattr(args, "d1_max", None)
    d2_max = getattr(args, "d2_max", None)
    if d1_max is None:
        d1_max = file_vals.get("d1_max", DEFAULT_GRID.d1_max)
    if d2_max is None:
        d2_max = file_vals.get("d2_max", DEFAULT_GRID.d2_max)
    try:
        grid = GridSpec(d1_max, d2_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    workers = getattr(args, "workers", None)
    if workers is None:
        workers = file_vals.get("workers")
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    return config, grid, workers


def _check_kappa_arg(flag, kappa, *shapes):
    """UsageError unless kappa is finite and positive and kappa times the
    largest of the shapes the command forms is finite."""
    shape_max = float(max(shapes))
    if not (0.0 < kappa < math.inf and math.isfinite(kappa * shape_max)):
        raise UsageError(
            f"{flag} must be a positive real with {flag} * {shape_max:g} finite, got {kappa:g}"
        )


def cmd_table(args) -> int:
    config, grid, workers = _resolve_settings(args)
    records = []
    rows = []
    for kappa, ref_val, ref_d1, ref_d2 in REFERENCE_TABLE:
        flagged = kappa in INCONSISTENT_KAPPAS
        # every table kappa is above 1; the rows carry only the reference
        # flag, not the regime flag infimum attaches
        res = replace(
            infimum(kappa, grid, None, config, workers),
            flags=(FLAG_PAPER_ROW_INCONSISTENT,) if flagged else (),
        )
        records.append(_record(res))
        rows.append((kappa, res, ref_val, ref_d1, ref_d2, flagged))

    if args.format == "csv":
        _emit(_records_csv(records), args.out)
    elif args.format == "json":
        _emit(_records_json(records), args.out)
    else:
        lines = [
            f"{'kappa':>10}  {'grid inf P':>12}  {'d1':>5}  {'d2':>5}  "
            f"{'reference':>10}  {'|diff|':>9}  flags"
        ]
        for kappa, res, ref_val, ref_d1, ref_d2, flagged in rows:
            diff = abs(res.grid_min - ref_val)
            flag_txt = FLAG_PAPER_ROW_INCONSISTENT if flagged else ""
            lines.append(
                f"{kappa:>10.6f}  {res.grid_min:>12.6f}  {res.argmin_d1:>5d}  "
                f"{res.argmin_d2:>5d}  {ref_val:>10.6f}  {diff:>9.2e}  {flag_txt}"
            )
        for kappa, res, ref_val, ref_d1, ref_d2, flagged in rows:
            if flagged:
                lines.append(
                    f"note: the reference row kappa={kappa:g} ({ref_val:.6f} at "
                    f"({ref_d1},{ref_d2})) exceeds the kappa=3.005 row and is "
                    f"impossible under strict monotonicity in kappa; computed "
                    f"minimum is {res.grid_min:.6f} at ({res.argmin_d1},{res.argmin_d2})."
                )
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_inf(args) -> int:
    config, grid, workers = _resolve_settings(args)
    try:
        a_grid = default_a_grid(args.a_max)
    except ValueError as exc:
        raise UsageError(f"--a-max: {exc}") from exc
    _check_kappa_arg("--kappa", args.kappa, grid.d1_max / 2.0, a_grid[-1])
    report = conjecture_probe(args.kappa, grid, a_grid, config, workers) if args.kappa > 1.0 else None
    res = report.result if report else infimum(args.kappa, grid, a_grid, config, workers)

    if args.format == "csv":
        _emit(_records_csv([_record(res)]), args.out)
    elif args.format == "json":
        _emit(_records_json([_record(res)]), args.out)
    else:
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
                f"kappa > 1 regime      conjectured infimum > 1/2; observed margin {report.margin:.6g}"
            )
        _emit("\n".join(lines) + "\n", args.out)

    if report and report.falsified:
        print(
            f"COUNTEREXAMPLE: probe value <= 1/2 at {report.counterexample} contradicts "
            "the proven lower bound; this signals a numerics bug",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_prob(args) -> int:
    from .fdist import FParams, prob_leq_kappa_mean, threshold

    config, _, _ = _resolve_settings(args)
    if args.d2 <= 2:
        raise UsageError(
            f"d2 = {args.d2} is invalid: the F mean d2/(d2-2) does not exist for d2 <= 2"
        )
    if args.d1 < 1:
        raise UsageError("--d1 must be >= 1")
    _check_kappa_arg("--kappa", args.kappa, args.d1 / 2.0)
    p = FParams(args.d1, args.d2)
    s = p.shape()
    q = threshold(s, args.kappa)
    val = prob_leq_kappa_mean(p, args.kappa, config)
    sys.stdout.write(
        f"P(X <= kappa E[X]) = {val:.17g}\n"
        f"threshold q        = {q:.17g}\n"
        f"shape (a, b)       = ({s.a:.17g}, {s.b:.17g})\n"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config, grid, workers = _resolve_settings(args)
    if args.steps < 2:
        raise UsageError("--steps must be >= 2")
    a_grid = default_a_grid()
    _check_kappa_arg("--kappa-from", args.kappa_from, grid.d1_max / 2.0, a_grid[-1])
    _check_kappa_arg("--kappa-to", args.kappa_to, grid.d1_max / 2.0, a_grid[-1])
    if not args.kappa_from < args.kappa_to:
        raise UsageError("need --kappa-from < --kappa-to")
    kappas = np.linspace(args.kappa_from, args.kappa_to, args.steps)
    records = []
    values = []
    for kappa in kappas:
        res = infimum(float(kappa), grid, a_grid, config, workers)
        records.append(_record(res))
        values.append(res.grid_min)
    for v1, v2 in zip(values, values[1:]):
        if v2 < v1:
            print(
                "monotonicity violation: inf estimates decreased along increasing "
                "kappa; this signals a numerics bug",
                file=sys.stderr,
            )
            return EXIT_CHECK_FAILED
    _emit(_records_csv(records), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    config, _, _ = _resolve_settings(args)
    report = run_suite(profile=args.profile, seed=args.seed, config=config)
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

    def add_common(p, caps=True, out=True, formats=("text", "csv", "json"), workers=True):
        p.add_argument(
            "--config",
            help="key=value file overriding tolerances" + (" and caps" if caps else ""),
        )
        if caps:
            p.add_argument("--d1-max", type=int, help="d1 search cap (default 1999)")
            p.add_argument("--d2-max", type=int, help="d2 search cap (default 1999)")
        if out:
            p.add_argument("--out", help="output path (default stdout)")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="text",
                help="output format (default text)",
            )
        if workers:
            p.add_argument("--workers", type=int, help="process count for the grid scan")

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
    add_common(p_prob, caps=False, out=False, formats=(), workers=False)
    p_prob.set_defaults(func=cmd_prob)

    p_sweep = sub.add_parser("sweep", help="CSV sweep of probes over a kappa range")
    p_sweep.add_argument("--kappa-from", type=float, required=True)
    p_sweep.add_argument("--kappa-to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    add_common(p_sweep, formats=())
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--profile", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_common(p_verify, caps=False, formats=("text", "json"), workers=False)
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
    except BrokenProcessPool as exc:
        print(f"worker process died: {exc}", file=sys.stderr)
        return EXIT_WORKER_DIED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
