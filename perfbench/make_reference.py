"""Rewrite reference.json from the reference round of every workload.

Run from the root of a checkout of the commit whose outputs are the
reference (the reference stays fixed while later commits are measured):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    import divkit.cli
    import workloads

    reference = {}
    scratch = run.ROOT / ".perfbench" / "reference"
    try:
        for name, make_round in workloads.WORKLOADS.items():
            work = scratch / name
            work.mkdir(parents=True, exist_ok=True)
            reference[name] = {}
            for op in make_round(workloads.REFERENCE_SEED, 0, work):
                result, _ = run.run_op(op, divkit.cli.main)
                problems = run.problems_of(op, result)
                if problems:
                    print(f"{name} {op.name}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                if result.payload is not None:
                    reference[name][op.name] = workloads.summarize(op.command, result.payload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
