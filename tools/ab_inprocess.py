#!/usr/bin/env python3
"""Time fconc commands from two checkouts in one process, interleaved.

    python3 tools/ab_inprocess.py BASE HEAD --rounds 60 \\
        --op "inf --kappa 1.5 --format csv" --op "inf --kappa 16 --format csv"

BASE and HEAD are checkout roots; fconc is imported from each one's src/.
Each round runs every --op (an fconc argv, split as a shell would) on both,
in alternating order, so drift in the machine's speed falls on both alike.
Prints each operation's median and quartiles in ms per checkout, then the
sum of the operations' medians, which is how the benchmark defines a
workload's wall_s, so one line reads a workload's A/B. It exits
with 1 if any operation's stdout or exit code differs between them.
"""

import argparse
import contextlib
import io
import shlex
import statistics
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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--op", action="append", required=True, help="fconc argv, e.g. 'inf --kappa 1.5'")
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
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
    print(f"{'base median [q1, q3] ms':>26} {'head median [q1, q3] ms':>26} {'change':>7}  op")
    for i, op in enumerate(args.op):
        q = [statistics.quantiles(times[c][i], n=4) for c in (0, 1)]
        cells = [f"{m:8.2f} [{lo:7.2f}, {hi:7.2f}]" for lo, m, hi in q]
        print(f"{cells[0]:>26} {cells[1]:>26} {q[1][1] / q[0][1] - 1:+7.1%}  {op}")
    # a workload's wall_s in the benchmark is the sum of its operations' medians
    sums = [sum(statistics.median(t) for t in times[c]) for c in (0, 1)]
    print(f"{sums[0]:26.2f} {sums[1]:26.2f} {sums[1] / sums[0] - 1:+7.1%}  sum of medians")
    if differ:
        print("stdout or exit code differs between the checkouts", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
