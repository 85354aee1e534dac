"""Self-tests of the benchmark harness: tracer arithmetic, statistics, inputs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock, span_limit=1)

    def leaf():
        clock.now += 2.0

    def mid():
        clock.now += 1.0
        t.call("kernels.leaf", leaf)
        clock.now += 0.5
        t.call("kernels.leaf", leaf)  # over the span limit: aggregated only

    def root():
        clock.now += 3.0
        t.call("entropy.mid", mid)

    t.command("score", root)
    assert dict(t.total_s) == {"kernels.leaf": 4.0, "entropy.mid": 5.5, "cli.score": 8.5}
    assert dict(t.self_s) == {"kernels.leaf": 4.0, "entropy.mid": 1.5, "cli.score": 3.0}
    assert t.layer_self_s() == {"kernels": 4.0, "entropy": 1.5, "cli": 3.0}
    assert sum(t.layer_self_s().values()) == t.total_s["cli.score"]
    by_name = {s.name: s for s in t.spans}
    assert [s.name for s in t.spans] == ["kernels.leaf", "entropy.mid", "cli.score"]
    assert by_name["cli.score"].parent is None
    assert by_name["entropy.mid"].parent == by_name["cli.score"].id
    assert by_name["kernels.leaf"].parent == by_name["entropy.mid"].id
    assert {s.trace for s in t.spans} == {1}
    assert t.calls["kernels.leaf"] == 2


def test_tracer_counts_work_and_restores_functions():
    import numpy as np

    import divkit
    from divkit import entropy

    originals = (entropy.score_gram, divkit.vendi, np.linalg.eigvalsh)
    t = tracing.Tracer()
    t.install()
    try:
        x = divkit.EmbeddingSet(np.random.default_rng(0).standard_normal((10, 3)))
        t.command("score", divkit.vendi, x, divkit.KernelSpec("gaussian", 1.0))
    finally:
        t.uninstall()
    assert (entropy.score_gram, divkit.vendi, np.linalg.eigvalsh) == originals
    m = tracing.layer_metrics(t)
    assert m["kernels.gram_calls"][0] == 1 and m["kernels.gram_cells"][0] == 100
    assert m["entropy.score_calls"][0] == 1
    assert m["entropy.eigvalsh_calls"][0] == 1 and m["entropy.eig_n3_sum"][0] == 1000


def test_median_and_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.median(values) == 5.5
    # statistics.quantiles(n=4) of 1..10: Q1 = 2.75, Q3 = 8.25
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert stats.spread([3.0]) == 0.0
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def _inputs(workload: str, seed: int, where: Path) -> dict:
    where.mkdir()
    ops = workloads.WORKLOADS[workload](seed, 1, where)
    # configs name their input files; the directory differs between calls
    files = {p.name: p.read_bytes().replace(str(where).encode(), b"<dir>")
             for p in sorted(where.iterdir())}
    argv = [[a.replace(str(where), "<dir>") for a in op.argv] for op in ops]
    return {"files": files, "argv": argv}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(workload, tmp_path):
    first = _inputs(workload, 7, tmp_path / "a")
    again = _inputs(workload, 7, tmp_path / "b")
    other = _inputs(workload, 8, tmp_path / "c")
    assert first == again
    assert first["files"].keys() == other["files"].keys()
    assert first["files"] != other["files"]


def test_reference_comparison_rules():
    ref = {"objective": 1.0, "kd_to_uniform": 2.0, "vendi_after": 3.0, "vendi_before": 4.0}
    assert workloads.compare_reference(dict(ref), ref, "project") == []
    better = {**ref, "objective": 0.5, "kd_to_uniform": 2.001}
    assert workloads.compare_reference(better, ref, "project") == []
    worse = {**ref, "objective": 1.01, "vendi_before": 4.001}
    problems = workloads.compare_reference(worse, ref, "project")
    assert [p.split(":")[0] for p in problems] == ["objective", "vendi_before"]
    assert workloads.compare_reference({"mean": [1.0, 2.0]}, {"mean": [1.0, 2.5]}, "curve")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    layer["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
