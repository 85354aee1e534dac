"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads score project --seeds 1-10 [--trace 0]

For every workload and metric it prints the median over the seeds, the
quartile spread (Q3 - Q1 over the median, ``statistics.quantiles(n=4)``) and,
for end-to-end metrics, the bound from ``BENCHMARK.json``.  A run that fails
or reports ``correct: false`` is listed and left out of the figures.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            bound = bounds.get(name)
            verdict = "" if bound is None or args.trace else (
                f" bound {bound:.3f} {'ok' if stats.spread(vals) <= bound / 3 else 'WIDE'}")
            print(f"{workload:<8} {name:<32} median {stats.median(vals):12.6g} "
                  f"spread {stats.spread(vals):.4f} n={len(vals)}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
