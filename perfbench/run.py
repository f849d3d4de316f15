#!/usr/bin/env python3
"""fconc benchmark: run one workload and print one JSON result as the last line.

    python3 perfbench/run.py --workload scan-far --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. fconc is imported from that checkout's
``src/``; without it the run prints an error and exits with code 2. With
``--trace 0`` the result holds the end-to-end metrics, measured untraced;
with ``--trace 1`` it holds the per-layer metrics of a traced run. Every run
also writes its record (and, traced, its spans) under ``perfbench/out/``.
README.md in this directory describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
GOLDEN_PATH = HERE / "golden.json"

SETUP_SAMPLES = 9
REPLAY_REPEATS = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {**spans.LAYER_UNITS, **spans.STRIPE_UNITS, "trace.overhead_ratio": "ratio"}


def load_fconc(root: Path):
    """Import fconc.cli from ``root/src`` and nowhere else."""
    pkg = (root / "src" / "fconc").resolve()
    if not (pkg / "__init__.py").is_file():
        raise ImportError(f"no fconc sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import fconc.cli

    if Path(fconc.cli.__file__).resolve().parent != pkg:
        raise ImportError(f"fconc was imported from {fconc.cli.__file__}, not {pkg}")
    return fconc.cli


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter until fconc.cli is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = "import time, fconc.cli; print(repr(time.monotonic()))"
    samples = []
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout) - t0)
    return samples


def peak_rss_mib(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def closed_loop(main, ops, seconds: float) -> list:
    """Cycle through ``ops`` until the next one would end past ``seconds``.

    One full pass always runs. The estimate for an operation is its latest
    latency.
    """
    outcomes, latest = [], {}
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - start + latest[op.label] > seconds:
            return outcomes
        outcome = workloads.run_op(main, op)
        outcomes.append(outcome)
        latest[op.label] = outcome.seconds


def run_pass(main, ops):
    t0 = time.perf_counter()
    outcomes = [workloads.run_op(main, op) for op in ops]
    return time.perf_counter() - t0, outcomes


def latencies(outcomes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for o in outcomes:
        out.setdefault(o.op.label, []).append(o.seconds)
    return out


def untraced_run(cli, wl, ops, seconds):
    # set-up samples come first, in one burst, so that no workload's
    # operations leave the machine in a state that shows in setup_s
    t0 = time.perf_counter()
    setup = measure_setup(ROOT, SETUP_SAMPLES)
    outcomes = closed_loop(cli.main, ops, seconds - (time.perf_counter() - t0))
    per_op = latencies(outcomes)
    wall = sum(statistics.median(v) for v in per_op.values())
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mib(with_children=wl.workers is not None),
    }
    samples = {
        "wall_s": min(len(v) for v in per_op.values()),
        "setup_s": len(setup),
        "peak_rss_mb": 1,
    }
    # figures shown beside the gated metrics; they exist on the scan workloads only
    extra = {}
    if wl.kappas:
        for op in ops:
            extra[f"probe_s.{op.label}"] = (statistics.median(per_op[op.label]), "s")
            samples[f"probe_s.{op.label}"] = len(per_op[op.label])
        cells = len(ops) * ops[0].caps[0] * (ops[0].caps[1] - 2)
        extra["cells_per_s"] = (cells / wall, "1/s")
        samples["cells_per_s"] = samples["wall_s"]
    return metrics, samples, extra, outcomes, {"setup_s": setup}


def traced_run(cli, ops, seconds, d2_max, spans_path):
    """Stripe replay, then untraced and traced passes in turn while time remains.

    The spans stay in memory until the run ends, then go to ``spans_path``.
    """
    from fconc import special

    start = time.perf_counter()
    replay = spans.replay_stripes(special, d2_max, REPLAY_REPEATS)
    tracer = spans.Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main")
    plain, traced, outcomes = [], [], []
    while not plain or (
        time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) <= seconds
    ):
        t, outs = run_pass(cli.main, ops)
        plain.append(t)
        outcomes += outs
        with spans.instrument(tracer):
            t, outs = run_pass(traced_main, ops)
        traced.append(t)
        outcomes += outs
    metrics = {**spans.layer_metrics(tracer.spans, len(traced)), **replay}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    samples = {name: len(traced) for name in metrics}
    samples.update({name: REPLAY_REPEATS for name in replay})
    samples["trace.overhead_ratio"] = min(len(traced), len(plain))
    spans_path.write_text(json.dumps(tracer.to_json()))
    return metrics, samples, {}, outcomes, {"traced_pass_s": traced, "untraced_pass_s": plain}


def git_commit(root: Path) -> str | None:
    # the ceiling keeps git from looking above the checkout for a repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def golden_parity(outcomes) -> bool:
    """True when every operation's stdout equals the golden output byte for byte."""
    try:
        golden = json.loads(GOLDEN_PATH.read_text())
    except (OSError, ValueError):
        return False
    return all(golden.get(o.op.label) == workloads.digest(o.stdout) for o in outcomes)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="fconc benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, caps=workloads.FULL_CAPS) -> int:
    args = parse_args(argv)
    try:
        cli = load_fconc(ROOT)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.build_ops(args.workload, args.seed, caps)
    wl = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(ROOT),
        "caps": list(caps),
        "workers": wl.workers,
        "operations": [" ".join(op.argv) for op in ops],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans_path = stem.with_suffix(".spans.json")
        metrics, samples, extra, outcomes, raw = traced_run(cli, ops, args.seconds, caps[1], spans_path)
        units = LAYER_UNITS
    else:
        metrics, samples, extra, outcomes, raw = untraced_run(cli, wl, ops, args.seconds)
        units = E2E_UNITS

    failures = [o for o in outcomes if o.failure]
    for o in failures:
        print(f"FAILED {' '.join(o.op.argv)}: {o.failure}\n{o.stderr}", file=sys.stderr)
    extra["fail_rate"] = (len(failures) / len(outcomes), "ratio")
    samples["fail_rate"] = len(outcomes)
    parity = golden_parity(outcomes)
    record.update(
        samples=samples,
        raw=raw,
        latencies=latencies(outcomes),
        golden_parity=parity,
        informational={name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
    )

    stem.with_suffix(".record.json").write_text(json.dumps({**record, "metrics": metrics}, indent=1))

    print(f"fconc benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]:<6} (n={samples[name]})")
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:>16.6g} {unit:<6} (n={samples[name]}, not in the result line)")
    print(f"  golden output parity: {parity}")
    print("record " + json.dumps({k: v for k, v in record.items() if k not in ("raw", "latencies")}))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
