#!/usr/bin/env python3
"""Time fconc commands from two checkouts in one process, interleaved.

    python3 tools/ab_inprocess.py BASE HEAD --rounds 60 \\
        --op "inf --kappa 1.5 --format csv" --op "inf --kappa 16 --format csv"
    python3 tools/ab_inprocess.py BASE HEAD --rounds 40 --imports

BASE and HEAD are checkout roots; fconc is imported from each one's src/.
Each round runs every --op (an fconc argv, split as a shell would) on both,
in alternating order, so drift in the machine's speed falls on both alike.
Prints each operation's median and quartiles in ms per checkout, then the
sum of the operations' medians, which is how the benchmark defines a
workload's wall_s, so one line reads a workload's A/B. It exits
with 1 if any operation's stdout or exit code differs between them.

With --imports each round instead starts one fresh interpreter per
checkout, in alternating order, that runs `import fconc.cli` from its src/
in the inherited environment, timed as perfbench/run.py's measure_setup
times the benchmark's setup_s: from before the start to a clock read after
the import. With PYTHONDONTWRITEBYTECODE=1 no bytecode cache is written, so
every fresh import compiles fconc's sources: about 15 ms in all (medians
of compile() on a 2-core VM: probe 4.2-4.6, verify 4.4-5.2, special
3.5-3.8, cli 2.6-3.1 ms), a share of setup_s that moves with each module's
length.
"""

import argparse
import contextlib
import io
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path


def take_fconc_modules():
    """Remove fconc's modules from sys.modules and return them."""
    return {n: sys.modules.pop(n) for n in list(sys.modules) if n == "fconc" or n.startswith("fconc.")}


def load(root):
    """fconc.cli from root/src, and the fconc modules that import brought."""
    take_fconc_modules()
    sys.path.insert(0, str(Path(root, "src").resolve()))
    try:
        import fconc.cli
    finally:
        del sys.path[0]
    return fconc.cli, take_fconc_modules()


def run(checkout, argv):
    """(seconds, exit code, stdout) of one command. A forked pool worker
    finds its function by module name, so only the checkout's own fconc
    modules are in sys.modules while it runs."""
    cli, modules = checkout
    sys.modules.update(modules)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    modules.update(take_fconc_modules())
    return seconds, code, out.getvalue()


def time_import(root):
    """Seconds from starting a fresh interpreter until fconc.cli, from
    root/src, is imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(Path(root, "src").resolve()), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import time, fconc.cli; print(repr(time.monotonic()))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout) - start


def report(labels, times):
    """Print each label's median and quartiles in ms per checkout, and the
    sum of the medians."""
    print(f"{'base median [q1, q3] ms':>26} {'head median [q1, q3] ms':>26} {'change':>7}  op")
    for i, label in enumerate(labels):
        q = [statistics.quantiles(times[c][i], n=4) for c in (0, 1)]
        cells = [f"{m:8.2f} [{lo:7.2f}, {hi:7.2f}]" for lo, m, hi in q]
        print(f"{cells[0]:>26} {cells[1]:>26} {q[1][1] / q[0][1] - 1:+7.1%}  {label}")
    # a workload's wall_s in the benchmark is the sum of its operations' medians
    sums = [sum(statistics.median(t) for t in times[c]) for c in (0, 1)]
    print(f"{sums[0]:26.2f} {sums[1]:26.2f} {sums[1] / sums[0] - 1:+7.1%}  sum of medians")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--op", action="append", help="fconc argv, e.g. 'inf --kappa 1.5'")
    parser.add_argument("--imports", action="store_true", help="time `import fconc.cli` in fresh interpreters")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    if args.imports == bool(args.op):
        parser.error("give either --op or --imports")
    if args.imports:
        times = [[[]], [[]]]
        for r in range(args.rounds):
            for c in (0, 1) if r % 2 == 0 else (1, 0):
                times[c][0].append(time_import((args.base, args.head)[c]) * 1e3)
        report(["import fconc.cli"], times)
        return 0
    checkouts = [load(args.base), load(args.head)]
    ops = [shlex.split(op) for op in args.op]
    times = [[[] for _ in ops] for _ in checkouts]
    differ = False
    for r in range(args.rounds):
        outputs = {}
        for c in (0, 1) if r % 2 == 0 else (1, 0):
            outputs[c] = []
            for i, argv in enumerate(ops):
                seconds, code, out = run(checkouts[c], argv)
                times[c][i].append(seconds * 1e3)
                outputs[c].append((code, out))
        differ |= outputs[0] != outputs[1]
    report(args.op, times)
    if differ:
        print("stdout or exit code differs between the checkouts", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
