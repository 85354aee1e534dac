"""Workload inputs, the divkit CLI calls made on them, and output checks.

A workload is a *round* of CLI operations.  Each round gets its own inputs,
generated from ``(seed, input stream, round index)``, so no round can
reuse work cached by an earlier one; round 0 is the reference round, made
from ``REFERENCE_SEED`` and compared with values stored in
``reference.json``.  divkit sees only the generated files and configs.

An operation fails when it exits with another code than expected, or when
its output fails the op's check (invariants and, for ``score``, an independent
numpy oracle) or, in the reference round, the comparison with the stored
reference values.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_SEED = 0

# score: two shifted Gaussians, scored with both kernel families
SCORE_N, SCORE_D, SCORE_SHIFT = 1000, 64, 0.1
# curve: the bias lab on cube mixtures plus the discrete plug-in bias curve
CURVE = {"source": {"type": "cube_mixture", "dimension": 10, "component_std": 1e-4},
         "kernel": {"family": "gaussian", "bandwidth": 0.1},
         "sizes": [64, 128, 256], "trials": 10}
CONCENTRATION = {"dimension": 8, "component_std": 1e-4,
                 "kernel": {"family": "gaussian", "bandwidth": 0.1},
                 "m": 250, "trials": 30, "delta": 0.01}
BIAS = {"alphabet_size": 1024, "trials": 10}
# project: (mode, n, base instance, config extras); Gram of d=8 points under a
# gaussian kernel of bandwidth 2.  Solver iterations swing 6x between random
# instances of one size, so each solve keeps a fixed base instance and the
# seed only jitters it by PROJECT_JITTER: the work per round stays the same.
# On the code the benchmark was defined on, the bases make vne_penalized
# (~300 iterations) and rke_penalized (~2500-3400, no eigensolves) converge,
# and vne_constrained (rho = H(q0) + RHO_GAP) stop at max_iters.
PROJECT_D, PROJECT_BANDWIDTH, PROJECT_JITTER, RHO_GAP = 8, 2.0, 0.01, 0.05
PROJECT_SOLVES = (
    ("rke_penalized", 200, 2, {"lambda": 0.5}),
    ("vne_penalized", 80, 2, {"lambda": 0.01}),
    ("vne_constrained", 60, 1, {"max_iters": 300}),
)
# guide: the README setup at a smaller sample count
GUIDE = {"layout": {"type": "grid", "rows": 4, "cols": 4, "spacing": 2.0},
         "component_std": 0.1, "base_weights": {"type": "geometric", "ratio": 0.5},
         "n_samples": 100, "schedule": {"kind": "cosine", "steps": 200},
         "eta": 0.03, "apply_every": 10}


@dataclass
class OpResult:
    exit_code: int
    stderr: str
    output: bytes | None     # score: stdout bytes; run commands: record.json bytes
    payload: dict | None     # parsed score output or record payload


@dataclass(frozen=True)
class Op:
    """One ``divkit.cli.main(argv)`` call and what its output must satisfy."""

    name: str
    command: str
    argv: list
    expect_exit: int = 0
    check: Callable[[dict], list] = field(default=lambda payload: [])


# ---------------------------------------------------------------------------
# input files
# ---------------------------------------------------------------------------

def write_csv(path: Path, arr: np.ndarray) -> None:
    lines = ["# generated"] + [",".join(format(float(v), ".17g") for v in row) for row in arr]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embd(path: Path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    path.write_bytes(b"EMBD" + struct.pack("<IQQ", 1, *arr.shape) + arr.tobytes())


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")


def _rng(seed: int, stream: str, round_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream], round_index])


def _divkit_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def gaussian_gram(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    sq = (x * x).sum(1)[:, None] + (y * y).sum(1)[None, :] - 2.0 * x @ y.T
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * bandwidth**2))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _kernel_sums(x: np.ndarray, y: np.ndarray, family: str, bandwidth: float | None):
    """(sum K, sum K^2) over all pairs, in row blocks to keep memory small."""
    if family == "cosine":
        x = x / np.linalg.norm(x, axis=1)[:, None]
        y = y / np.linalg.norm(y, axis=1)[:, None]
    total = total_sq = 0.0
    for lo in range(0, x.shape[0], 256):
        xb = x[lo:lo + 256]
        k = np.clip(xb @ y.T, -1.0, 1.0) if family == "cosine" else gaussian_gram(xb, y, bandwidth)
        total += float(k.sum())
        total_sq += float((k * k).sum())
    return total, total_sq


def score_oracle(gen: np.ndarray, ref: np.ndarray, family: str, bandwidth: float | None):
    """Independent RKE of ``gen`` and biased MMD^2 between ``gen`` and ``ref``."""
    sxx, sxx2 = _kernel_sums(gen, gen, family, bandwidth)
    syy, _ = _kernel_sums(ref, ref, family, bandwidth)
    sxy, _ = _kernel_sums(gen, ref, family, bandwidth)
    n, m = gen.shape[0], ref.shape[0]
    return n * n / sxx2, sxx / n**2 - 2.0 * sxy / (n * m) + syy / m**2


def _check_score(gen, ref, family, bandwidth):
    def check(p: dict) -> list:
        s, a = p["score"], p["against"]
        problems = []
        if not 1.0 - 1e-9 <= s["rke"] <= s["vendi"] * (1 + 1e-9) <= s["n"] * (1 + 1e-9):
            problems.append(f"scores out of order: rke {s['rke']} vendi {s['vendi']} n {s['n']}")
        rke, kd = score_oracle(gen, ref, family, bandwidth)
        if not _close(s["rke"], rke, 1e-8):
            problems.append(f"rke {s['rke']} differs from oracle {rke}")
        if not _close(a["kd_squared"], max(kd, 0.0), 1e-8, 1e-12):
            problems.append(f"kd_squared {a['kd_squared']} differs from oracle {kd}")
        if a["fd"] < 0 or not math.isfinite(a["mmd2_unbiased"]):
            problems.append("fd negative or unbiased MMD not finite")
        return problems

    return check


def _check_curve(p: dict) -> list:
    c = p["curve"]
    return [f"size {n}: mean {m} outside [1, n] or CI [{lo}, {hi}] misses it"
            for n, m, lo, hi in zip(c["sizes"], c["mean"], c["ci_low"], c["ci_high"])
            if not (1.0 - 1e-9 <= m <= n * (1 + 1e-9) and lo <= m <= hi)]


def _check_concentration(p: dict) -> list:
    c = p["concentration"]
    ok = (len(c["log_vendi_values"]) == c["trials"] and c["t_delta"] > 0
          and 0.0 <= c["violation_fraction"] <= 1.0)
    return [] if ok else ["concentration report inconsistent"]


def _check_projection(p: dict) -> list:
    r = p["projection"]
    w = np.asarray(r["weights"])
    problems = []
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-9 or r["kd_to_uniform"] < 0:
        problems.append("weights off the simplex or negative KD")
    if r["mode"] != "vne_constrained":
        trace = r["objective_trace"]
        if any(b > a for a, b in zip(trace, trace[1:])):
            problems.append("penalized objective increased")
        before, after = (("vendi_before", "vendi_after") if r["mode"] == "vne_penalized"
                         else ("rke_before", "rke_after"))
        if r[after] < r[before] * (1 - 1e-9):
            problems.append(f"{after} {r[after]} below {before} {r[before]}")
    return problems


def _check_guide(p: dict) -> list:
    m = p["metrics"]
    n = p["config"]["n_samples"]
    return [f"{side} metrics out of range" for side in ("guided", "unguided")
            if not (0 <= m[side]["covered_modes"] <= m["n_modes"]
                    and 1.0 - 1e-9 <= m[side]["rke"] <= m[side]["vendi"] * (1 + 1e-9) <= n
                    and m[side]["kd_to_target"] >= 0 and m[side]["fd_to_target"] >= 0)]


# ---------------------------------------------------------------------------
# workloads: each builds the ops of one round in a fresh directory
# ---------------------------------------------------------------------------

def run_args(command: str, config: Path, out: Path) -> list:
    return [command, "--config", str(config), "--out", str(out), "--jobs", "1", "--force"]


# score - the paper's main use.  Loads: dataio (CSV parse), kernels (an
# n=1000 Gram per call), entropy (one n=1000 eigensolve per call), discrepancy
# (compare: 2x mmd2 + frechet); bypasses: bias_lab, projection, guidance.
# Every workload lists a cheap op first: it is the one run twice to check
# byte-identical output.
def score_round(seed: int, round_index: int, work: Path) -> list:
    rng = _rng(seed, "score", round_index)
    gen = rng.standard_normal((SCORE_N, SCORE_D))
    ref = rng.standard_normal((SCORE_N, SCORE_D)) + SCORE_SHIFT
    zero = rng.standard_normal((64, 8))
    zero[int(rng.integers(64))] = 0.0
    write_csv(work / "gen.csv", gen)
    write_embd(work / "ref.embd", ref)
    write_csv(work / "zero.csv", zero)
    bandwidth = math.sqrt(2.0 * SCORE_D)
    base = ["score", str(work / "gen.csv"), "--against", str(work / "ref.embd")]
    return [
        Op("score_cosine", "score", base + ["--kernel", "cosine"],
           check=_check_score(gen, ref, "cosine", None)),
        Op("score_gaussian", "score", base + ["--kernel", "gaussian", "--bandwidth", repr(bandwidth)],
           check=_check_score(gen, ref, "gaussian", bandwidth)),
        # a zero row under the cosine kernel is a data error: exit code 2
        Op("score_zero_row", "score", ["score", str(work / "zero.csv"), "--kernel", "cosine"],
           expect_exit=2),
    ]


def curve_ops(seed: int, round_index: int, work: Path) -> list:
    rng = _rng(seed, "curve", round_index)
    ops = []
    for name, cfg, check in (("bias", BIAS, _check_curve),
                             ("curve", CURVE, _check_curve),
                             ("concentration", CONCENTRATION, _check_concentration)):
        write_config(work / f"{name}.json", {**cfg, "seed": _divkit_seed(rng)})
        ops.append(Op(name, name, run_args(name, work / f"{name}.json", work / "out"), check=check))
    return ops


def project_ops(seed: int, round_index: int, work: Path) -> list:
    rng = _rng(seed, "project", round_index)
    ops = []
    for mode, n, base, extra in PROJECT_SOLVES:
        x = (np.random.default_rng([base, n]).standard_normal((n, PROJECT_D))
             + PROJECT_JITTER * rng.standard_normal((n, PROJECT_D)))
        write_embd(work / f"{mode}.embd", x)
        cfg = {"gram": {"type": "embeddings", "path": str(work / f"{mode}.embd"),
                        "kernel": {"family": "gaussian", "bandwidth": PROJECT_BANDWIDTH}},
               "mode": mode, **extra}
        if mode == "vne_constrained":
            lam = np.linalg.eigvalsh(gaussian_gram(x, x, PROJECT_BANDWIDTH) / n)
            lam = lam[lam > 1e-12]
            cfg["rho"] = float(-(lam * np.log(lam)).sum()) + RHO_GAP
        write_config(work / f"{mode}.json", cfg)
        ops.append(Op(mode, "project", run_args("project", work / f"{mode}.json", work / "out"),
                      check=_check_projection))
    return ops


def guide_ops(seed: int, round_index: int, work: Path) -> list:
    rng = _rng(seed, "guide", round_index)
    write_config(work / "guide.json", {**GUIDE, "seed": _divkit_seed(rng)})
    return [Op("guide", "guide", run_args("guide", work / "guide.json", work / "out"),
               check=_check_guide)]


# lab - the paper's experiments, all small or mid-sized work in Python loops.
# Loads: bias_lab (trial loops, cube-mixture sampler) with kernels and entropy
# (many Grams and eigensolves, n <= 256); projection (EG iterations, line
# search, per-iteration eigensolves of n <= 80; rke_penalized needs none,
# vne_constrained stops at max_iters); guidance (per-sample reverse_step and
# guided_step calls, memory-bank stacking; kernels, entropy and discrepancy
# once, in its final measure).  Bypasses: file-level CSV ingest, the large
# Gram, eigensolve and compare work of score.
def lab_round(seed: int, round_index: int, work: Path) -> list:
    return (curve_ops(seed, round_index, work) + project_ops(seed, round_index, work)
            + guide_ops(seed, round_index, work))


#: Host speed on a shared 2-core box drifts by 15-30% over minutes, so the
#: benchmark keeps two workloads and spends its run time on long runs of each.
WORKLOADS = {"score": score_round, "lab": lab_round}
STREAMS = {"score": 0, "curve": 1, "project": 2, "guide": 3}


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def summarize(command: str, payload: dict) -> dict:
    """The numbers of one output that are compared with the reference."""
    if command == "score":
        return {**{k: payload["score"][k] for k in ("vendi", "log_vendi", "rke")},
                **{k: payload["against"][k] for k in ("kd_squared", "fd", "mmd2_unbiased")}}
    if command in ("curve", "bias"):
        c = payload["curve"]
        out = {k: c[k] for k in ("mean", "ci_low", "ci_high")}
        if "monotone" in payload:
            out["monotone_passed"] = payload["monotone"]["passed"]
        return out
    if command == "concentration":
        c = payload["concentration"]
        return {k: c[k] for k in ("t_delta", "violation_fraction", "passed", "log_vendi_values")}
    if command == "project":
        r = payload["projection"]
        objective = r["kd_to_uniform"] if r["mode"] == "vne_constrained" else r["objective_trace"][-1]
        return {"objective": objective, "kd_to_uniform": r["kd_to_uniform"],
                "vendi_before": r["vendi_before"], "vendi_after": r["vendi_after"]}
    if command == "guide":
        m = payload["metrics"]
        return {f"{side}.{k}": m[side][k] for side in ("guided", "unguided")
                for k in ("vendi", "rke", "covered_modes", "kd_to_target", "fd_to_target")}
    raise ValueError(f"no summary for command {command!r}")


#: relative tolerances against the reference.  Scores, MMD and FD must match
#: tightly; a projection may reach a different point, so its final objective
#: must only be no worse than the reference, with KD and Vendi close to it.
TOLERANCES = {
    "rtol": 1e-6,
    "rules": {
        "project.objective": {"rtol": 1e-6, "not_worse": True},
        "project.kd_to_uniform": {"rtol": 1e-3},
        "project.vendi_after": {"rtol": 1e-3},
    },
}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_reference(got: dict, want: dict, command: str, tolerances: dict = TOLERANCES) -> list:
    """Problems found comparing one op's summary with its stored reference.

    Floats match within ``rtol`` (per ``command.key`` rule, else the default);
    keys marked ``not_worse`` only fail when larger than the reference by more
    than that tolerance; other values match exactly.
    """
    problems = []
    for key, ref in want.items():
        rule = tolerances["rules"].get(f"{command}.{key}", {})
        rtol = rule.get("rtol", tolerances["rtol"])
        val = got.get(key)
        refs, vals = (ref, val) if isinstance(ref, list) else ([ref], [val])
        if vals is None or len(vals) != len(refs):
            problems.append(f"{key}: got {val!r}, reference {ref!r}")
            continue
        for v, r in zip(vals, refs):
            if _is_number(r) and _is_number(v):
                bad = (v > r + rtol * abs(r) + 1e-15 if rule.get("not_worse")
                       else not _close(v, r, rtol, 1e-15))
            else:
                bad = v != r
            if bad:
                problems.append(f"{key}: got {val!r}, reference {ref!r}")
                break
    return problems
