#!/usr/bin/env python3
"""Record the golden output of every operation the workloads can run.

    python3 perfbench/capture_golden.py

Writes the sha256 of each operation's stdout to perfbench/golden.json. The
benchmark reports whether a run's outputs still match it (the parity gate);
a mismatch is reported, not counted as a failure. Nothing is written if any
operation fails the correctness gate.
"""

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.load_fconc(run.ROOT)
    ops = [op for name in ("scan-far", "scan-near-one") for op in workloads.build_ops(name, 0)]
    ops += [workloads.verify_op(s) for s in workloads.SUITE_SEED_POOL]
    golden = {}
    for op in ops:
        outcome = workloads.run_op(cli.main, op)
        if outcome.failure:
            print(f"{op.label}: {outcome.failure}\n{outcome.stderr}", file=sys.stderr)
            return 1
        golden[op.label] = workloads.digest(outcome.stdout)
    run.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {run.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
