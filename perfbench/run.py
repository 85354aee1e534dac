"""divkit benchmark: run one workload through ``divkit.cli.main`` in-process.

    python3 perfbench/run.py --workload {score,lab} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: divkit is imported from ``src/``
there, never from an installed copy.  BLAS/OpenMP threads are pinned to
``BLAS_THREADS`` before numpy is imported, and every run command gets
``--jobs 1``, so one process makes all the load.

A run first runs the reference round (round 0, untimed: it fills caches and
is compared with ``reference.json``) and repeats its first operation to check
byte-identical output.  It then runs timed rounds on fresh inputs until
``--seconds`` would be exceeded (at least ``MIN_ROUNDS``), taking the
``setup_s`` samples (fresh interpreters importing divkit) between them.
With ``--trace 1`` each round runs once untraced and once under the tracer,
and the per-layer metrics replace the end-to-end ones.  Human-readable lines
come first; the last line of standard output is the JSON result.  Per-round
figures, the environment and the spans are written to ``.perfbench/results/``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: one BLAS thread: each divkit command is one process, and on a small shared
#: box a second BLAS thread mostly measures the scheduler
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("score", "lab")
SETUP_SAMPLES = 7
MIN_ROUNDS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_CODE = "import time, divkit.cli; print(repr(time.time()))"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git`` directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted((SRC / "divkit").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(ROOT),
        "src_sha256": digest,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def setup_sample() -> float:
    """Seconds from spawning a fresh interpreter until ``divkit.cli`` is imported.

    Byte-compiled files are allowed, as for any installed copy, so the
    result does not depend on the caller's ``PYTHONDONTWRITEBYTECODE``.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.time()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


def run_op(op, cli_main, tracer=None):
    """Run one op; returns (OpResult, seconds inside ``cli.main``)."""
    # imported here: workloads imports numpy, which must load after main()
    # has pinned the BLAS threads
    from workloads import OpResult

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.command(op.command, cli_main, op.argv) if tracer else cli_main(op.argv)
    except Exception:  # a crash is a failed op, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    output = payload = None
    if code == 0 and op.expect_exit == 0:
        if op.command == "score":
            output = out.getvalue().encode()
            payload = json.loads(output)
        else:
            output = Path(out.getvalue().split()[-1]).read_bytes()
            payload = json.loads(output)["payload"]
    return OpResult(code, err.getvalue(), output, payload), seconds


def problems_of(op, result, reference=None) -> list:
    from workloads import compare_reference, summarize

    if result.exit_code != op.expect_exit:
        return [f"exit code {result.exit_code}, expected {op.expect_exit}: {result.stderr[-300:]}"]
    if result.payload is None:
        return []
    problems = op.check(result.payload)
    if reference is not None:
        problems += compare_reference(summarize(op.command, result.payload), reference, op.command)
    return problems


class Run:
    """Attempted/failed op counts and the problems found, for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.problems: list = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: " + "; ".join(problems))

    def round(self, ops, cli_main, label: str, tracer=None, reference=None, expected=None):
        """Run every op once; returns (results, seconds per op)."""
        results, seconds = [], []
        for op in ops:
            result, sec = run_op(op, cli_main, tracer)
            results.append(result)
            seconds.append(sec)
        for i, (op, result) in enumerate(zip(ops, results)):
            problems = problems_of(op, result, reference.get(op.name) if reference else None)
            if expected is not None and result.output != expected[i].output:
                problems.append("output differs from the untraced run of the same inputs")
            self.record(f"{label} {op.name}", problems)
        return results, seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divkit" / "__init__.py").is_file():
        print(f"perfbench: no divkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("perfbench: numpy was imported before the BLAS threads were pinned", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(BENCH)]

    import divkit.cli
    import stats
    import tracer as tracing
    import workloads

    if Path(divkit.cli.__file__).resolve().parents[1] != SRC:
        print(f"perfbench: divkit imported from {divkit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    make_round = workloads.WORKLOADS[args.workload]
    cli_main = divkit.cli.main

    env = environment(args.seed)
    setup_sample()  # unmeasured: writes the byte-compiled files every later user finds
    setup = []
    scratch = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    run = Run()
    rounds = []
    spans = []
    try:
        def fresh(index: int) -> Path:
            d = scratch / f"round{index}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            return d

        ops = make_round(workloads.REFERENCE_SEED, 0, fresh(0))
        first, _ = run.round(ops, cli_main, "reference", reference=reference)
        again, _ = run_op(ops[0], cli_main)
        run.record(f"repeat {ops[0].name}", [] if again.output == first[0].output
                   else ["re-run output is not byte-identical"])
        shutil.rmtree(scratch / "round0")

        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        last = 0.0
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
            # setup samples are spread over the run, so they see the same machine
            # state as the rounds around them
            while (len(setup) < SETUP_SAMPLES
                   and time.perf_counter() - start >= len(setup) * args.seconds / SETUP_SAMPLES):
                setup.append(setup_sample())
            begun = time.perf_counter()
            index = len(rounds) + 1
            ops = make_round(args.seed, index, fresh(index))
            results, seconds = run.round(ops, cli_main, f"round {index}")
            row = {"wall_s": sum(seconds), "cmd_s": defaultdict(float)}
            for op, sec in zip(ops, seconds):
                row["cmd_s"][op.command] += sec
            if tracer is not None:
                tracer.reset()
                tracer.install()
                try:
                    _, traced = run.round(ops, cli_main, f"traced round {index}",
                                          tracer=tracer, expected=results)
                finally:
                    tracer.uninstall()
                row["overhead_s"] = sum(traced) - row["wall_s"]
                row["layers"] = tracing.layer_metrics(tracer)
                spans.extend(dataclasses.asdict(s) for s in tracer.spans)
            rounds.append(row)
            shutil.rmtree(scratch / f"round{index}")
            last = time.perf_counter() - begun
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(run.problems)
    end_to_end = {
        "setup_s": stats.median(setup),
        "wall_s": stats.median([r["wall_s"] for r in rounds]),
        "peak_rss_mb": peak_rss_mb,
    }
    commands = sorted({c for r in rounds for c in r["cmd_s"]})
    cmd_s = {f"cmd_{c}_s": stats.median([r["cmd_s"][c] for r in rounds]) for c in commands}

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} setup_runs={len(setup)}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print("FAILED " + problem)
    for name, value in {**end_to_end, **cmd_s}.items():
        print(f"{name:<24} {value:12.6f} {END_TO_END_UNITS.get(name, 's')}")
    print(f"{'error_rate':<24} {failed / run.attempted:12.6f} ratio "
          f"({failed} of {run.attempted} ops)")

    if args.trace:
        layers = {}
        for name, (_, unit) in rounds[0]["layers"].items():
            values = [r["layers"][name][0] for r in rounds]
            # times are medians over rounds; counts are those of round 1, which
            # every run has, so they repeat exactly between runs of one seed
            layers[name] = (stats.median(values) if unit == "s" else values[0], unit)
        layers["trace.overhead_s"] = (stats.median([r["overhead_s"] for r in rounds]), "s")
        for name, (value, unit) in layers.items():
            print(f"{name:<32} {value:16.6f} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"env": env, "setup_s": setup, "rounds": rounds, "problems": run.problems,
              "end_to_end": end_to_end, "cmd_s": cmd_s, "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
