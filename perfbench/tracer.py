"""In-memory span tracer that wraps divkit's functions from outside the package.

divkit binds names with ``from .x import y``, so a function is looked up in
the namespace of every module that imported it.  :meth:`Tracer.install`
replaces each public function of the traced modules in *every* divkit module
namespace that holds it, plus ``numpy.linalg.eigh``/``eigvalsh`` (looked up
as module attributes on each call) and two private boundaries that have no
public equivalent: the trial loop of the bias lab and the final measurement
of a guidance run.  :meth:`Tracer.uninstall` puts the originals back.

Every call opens a frame.  On exit the frame's duration is added to its
parent's child time, so self time (duration minus the time covered by child
calls) is exact for every call, including those not kept as spans.  A call is
kept as a span (name, start, end, parent, trace id) only while fewer than
``span_limit`` calls of that name have been kept under the current trace id
and its parent was kept too; calls past the limit (``reverse_step``,
``eg_step`` and the like run 10^4-10^5 times per command) only add to the
per-name count and time totals.  The tracer assumes one thread: every
command runs with ``--jobs 1``.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: modules whose public functions are wrapped, in the order of the layer table
LAYERS = ("dataio", "kernels", "entropy", "discrepancy", "bias_lab", "projection", "guidance")

#: spans kept per function name and trace id before calls are only aggregated
SPAN_LIMIT = 1000

#: calls whose individual durations are kept, for a median
KEEP_DURATIONS = {"bias_lab.trial"}

PROJECTION_SOLVES = ("project_vne", "project_vendi_penalized", "project_rke_penalized")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    trace: int
    parent: int | None
    start: float
    end: float
    self_s: float


class _Frame:
    __slots__ = ("id", "kept", "child_s")

    def __init__(self, span_id: int, kept: bool):
        self.id = span_id
        self.kept = kept
        self.child_s = 0.0


class Tracer:
    """Spans, per-name call counts and times, and computed work counters."""

    def __init__(self, clock=time.perf_counter, span_limit: int = SPAN_LIMIT):
        self.clock = clock
        self.span_limit = span_limit
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self.trace = 0
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far; installed wrappers stay."""
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)  # names in KEEP_DURATIONS
        self.counts: Counter = Counter()                 # computed work counters
        self.open: Counter = Counter()                   # currently open calls per name
        self._kept: Counter = Counter()

    def call(self, name: str, fn, args=(), kwargs=None, on_return=None):
        """Run ``fn(*args, **kwargs)`` inside a frame named ``name``."""
        parent = self._stack[-1] if self._stack else None
        kept = (parent is None or parent.kept) and self._kept[name] < self.span_limit
        frame = _Frame(self._next_id, kept)
        self._next_id += 1
        self._stack.append(frame)
        self.open[name] += 1
        start = self.clock()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = self.clock()
            self._stack.pop()
            self.open[name] -= 1
            duration = end - start
            own = duration - frame.child_s
            if parent is not None:
                parent.child_s += duration
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += own
            if name in KEEP_DURATIONS:
                self.durations[name].append(duration)
            if kept:
                self._kept[name] += 1
                self.spans.append(Span(frame.id, name, self.trace,
                                       parent.id if parent else None, start, end, own))
        if on_return is not None:
            on_return(self, args, kwargs or {}, result)
        return result

    def command(self, command: str, fn, *args):
        """Run one CLI command as the root span of a new trace id."""
        self.trace += 1
        self._kept.clear()
        return self.call(f"cli.{command}", fn, args)

    def wrap(self, name: str, fn, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_return)

        return traced

    def layer_self_s(self) -> dict:
        """Self seconds summed per layer (the part of a name before the first dot)."""
        out: defaultdict = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return dict(out)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap divkit's public functions wherever divkit modules bind them."""
        import importlib

        import numpy as np

        modules = {name: importlib.import_module(f"divkit.{name}")
                   for name in LAYERS + ("cli",)}
        modules["__init__"] = importlib.import_module("divkit")
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for fname, fn in vars(mod).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped[fn] = self.wrap(f"{layer}.{fname}", fn, _HOOKS.get(f"{layer}.{fname}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])

        for solver in ("eigh", "eigvalsh"):
            self._set(np.linalg, solver,
                      self.wrap(f"linalg.{solver}", getattr(np.linalg, solver), _count_eig))

        bias_lab = modules["bias_lab"]
        run_trials = bias_lab._run_trials

        def traced_run_trials(task, n_sizes, trials, jobs):
            name = ("bias_lab.discrete_trial" if self.open["bias_lab.run_discrete_bias"]
                    else "bias_lab.trial")
            return run_trials(self.wrap(name, task), n_sizes, trials, jobs)

        self._set(bias_lab, "_run_trials", traced_run_trials)
        guidance = modules["guidance"]
        self._set(guidance, "_measure", self.wrap("guidance.measure", guidance._measure))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# computed work counters, filled in from arguments and results
# ---------------------------------------------------------------------------

def _count_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["dataio.bytes_read"] += os.path.getsize(args[0])


def _count_gram_cells(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["kernels.gram_cells"] += int(result.values.size)


def _count_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["projection.iterations"] += int(result.iterations)
    tracer.counts["projection.max_iters_solves"] += int(result.status == "max_iters")


def _count_eig(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["entropy.eig_n3_sum"] += int(args[0].shape[-1]) ** 3
    if any(tracer.open[f"projection.{s}"] for s in PROJECTION_SOLVES):
        tracer.counts["projection.eig_calls"] += 1


_HOOKS = {
    "dataio.load_embeddings": _count_bytes,
    "dataio.read_matrix_container": _count_bytes,
    "kernels.gram": _count_gram_cells,
    **{f"projection.{s}": _count_solve for s in PROJECTION_SOLVES},
}


# ---------------------------------------------------------------------------
# per-layer metrics of one round
# ---------------------------------------------------------------------------

COMMANDS = ("score", "curve", "concentration", "bias", "project", "guide")


def layer_metrics(t: Tracer) -> dict:
    """Every per-layer metric, keyed by name, as (value, unit)."""
    c, s, n = t.calls, t.total_s, t.counts
    iters, eg_steps = n["projection.iterations"], c["projection.eg_step"]
    trials = t.durations["bias_lab.trial"]
    busy = t.layer_self_s()
    m = {
        "dataio.load_s": (s["dataio.load_embeddings"] + s["dataio.read_matrix_container"], "s"),
        "dataio.load_calls": (c["dataio.load_embeddings"] + c["dataio.read_matrix_container"], "count"),
        "dataio.bytes_read": (n["dataio.bytes_read"], "B"),
        "dataio.save_s": (sum(s[f"dataio.{f}"] for f in (
            "save_embeddings", "save_record", "write_text", "write_matrix_container")), "s"),
        "kernels.gram_s": (s["kernels.gram"], "s"),
        "kernels.gram_calls": (c["kernels.gram"], "count"),
        "kernels.gram_cells": (n["kernels.gram_cells"], "count"),
        "entropy.score_s": (s["entropy.score_gram"], "s"),
        "entropy.score_calls": (c["entropy.score_gram"], "count"),
        "entropy.vne_weighted_calls": (c["entropy.vne_weighted"], "count"),
        "entropy.vne_gradient_calls": (c["entropy.vne_gradient"], "count"),
        "entropy.eigh_calls": (c["linalg.eigh"], "count"),
        "entropy.eigvalsh_calls": (c["linalg.eigvalsh"], "count"),
        "entropy.eig_s": (s["linalg.eigh"] + s["linalg.eigvalsh"], "s"),
        "entropy.eig_n3_sum": (n["entropy.eig_n3_sum"], "count"),
        "discrepancy.compare_s": (s["discrepancy.compare"], "s"),
        "discrepancy.mmd2_calls": (c["discrepancy.mmd2"], "count"),
        "discrepancy.mmd2_s": (s["discrepancy.mmd2"], "s"),
        "discrepancy.frechet_s": (s["discrepancy.frechet_distance"], "s"),
        "bias_lab.trials": (c["bias_lab.trial"] + c["bias_lab.discrete_trial"], "count"),
        "bias_lab.trial_p50_s": (statistics.median(trials) if trials else 0.0, "s"),
        "bias_lab.sampler_s": (s["bias_lab.sample_cube_mixture"], "s"),
        "projection.solve_s": (sum(s[f"projection.{x}"] for x in PROJECTION_SOLVES), "s"),
        "projection.iterations": (iters, "count"),
        "projection.eg_steps": (eg_steps, "count"),
        "projection.accept_ratio": (iters / eg_steps if eg_steps else 0.0, "ratio"),
        "projection.eig_per_iter": (n["projection.eig_calls"] / iters if iters else 0.0, "count/iter"),
        "projection.max_iters_solves": (n["projection.max_iters_solves"], "count"),
        "guidance.reverse_step_calls": (c["guidance.reverse_step"], "count"),
        "guidance.reverse_step_s": (s["guidance.reverse_step"], "s"),
        "guidance.guided_step_calls": (c["guidance.guided_step"], "count"),
        "guidance.guided_step_s": (s["guidance.guided_step"], "s"),
        "guidance.measure_s": (s["guidance.measure"], "s"),
        "cli.self_s": (busy.get("cli", 0.0), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (busy.get(layer, 0.0), "s")
    for command in COMMANDS:
        m[f"cli.cmd_{command}_s"] = (s[f"cli.{command}"], "s")
    return m
