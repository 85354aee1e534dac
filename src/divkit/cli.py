"""Command-line front end: reproducible runs driven by JSON config files.

Every run command (curve, bias, project, guide, concentration) reads one
config file, hashes its canonical serialization, and writes its outputs under
``<out_root>/<command>-<hash12>/``.  Re-running an already-hashed config is a
no-op unless --force is passed, and all outputs are byte-identical across
re-runs because record timestamps default to 0 (opt into wall-clock stamps
with --stamp-time).  The output root is ./divkit_out, or $DIVKIT_CACHE_DIR,
or --out.

Exit codes: 1 usage, 2 data, 3 numeric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import bias_lab, dataio, guidance, projection
from .dataio import ResultRecord, RunSeed, canonical_json, config_hash
from .discrepancy import compare
from .entropy import DEFAULT_SIZE_CAP, vendi_with_gram
from .errors import DivkitError, NumericError, UsageError
from .kernels import KernelSpec, gram, load_gram

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="divkit", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", parents=[], help="diversity scores of one embedding file")
    score.add_argument("embeddings", help="CSV or binary embedding file")
    score.add_argument("--against", help="second embedding file; adds a KD/FD block")
    score.add_argument("--kernel", choices=("gaussian", "cosine"), default="gaussian")
    score.add_argument("--bandwidth", type=float, help="gaussian bandwidth (required for gaussian)")
    score.add_argument("--format", choices=("csv", "binary"), help="override format sniffing")
    score.add_argument("--size-cap", type=int, default=DEFAULT_SIZE_CAP,
                       help="refuse exact eigendecompositions above this matrix order "
                            "(n, or d for cosine scores with d < n)")

    for name, help_text in (
        ("curve", "Vendi score vs sample size from a file or cube mixture"),
        ("bias", "plug-in entropy bias curve for a uniform discrete law"),
        ("project", "entropy projection of weights on a fixed support"),
        ("guide", "guided vs unguided reverse diffusion on a 2D mixture"),
        ("concentration", "log-Vendi concentration check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output root (default $DIVKIT_CACHE_DIR or ./divkit_out)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=int, default=1, help="cap on cross-trial parallelism")
        p.add_argument("--force", action="store_true", help="recompute even if outputs exist")
        p.add_argument("--stamp-time", action="store_true",
                       help="record wall-clock time instead of the reproducible 0 stamp")
    return top


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _kernel_from(cfg: dict, key: str = "kernel") -> KernelSpec:
    doc = cfg.get(key)
    if not isinstance(doc, dict) or "family" not in doc:
        raise UsageError(f"config needs a {key!r} object with a 'family' field")
    try:
        return KernelSpec.from_payload(doc)
    except DivkitError as exc:
        raise UsageError(str(exc)) from exc


def _out_dir(args, command: str, resolved: dict) -> tuple[str, str]:
    root = args.out or os.environ.get("DIVKIT_CACHE_DIR") or "divkit_out"
    digest = config_hash(resolved)
    return os.path.join(root, f"{command}-{digest[:12]}"), digest


def _begin_run(args, command: str, cfg: dict) -> tuple[str, str, float] | None:
    """Resolve the output directory; None means outputs already exist."""
    out_dir, digest = _out_dir(args, command, cfg)
    record_path = os.path.join(out_dir, "record.json")
    if os.path.exists(record_path) and not args.force:
        print(f"{record_path} already exists for this config; use --force to recompute")
        return None
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.time() if args.stamp_time else 0.0
    return out_dir, digest, stamp


def _write_record(out_dir: str, kind: str, payload: dict, digest: str, stamp: float) -> str:
    path = os.path.join(out_dir, "record.json")
    dataio.save_record(ResultRecord(kind, payload, digest, stamp), path)
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    if args.kernel == "gaussian" and args.bandwidth is None:
        raise UsageError("gaussian kernel needs --bandwidth")
    spec = KernelSpec(args.kernel, args.bandwidth)
    x = dataio.load_embeddings(args.embeddings, args.format)
    score, kxx = vendi_with_gram(x, spec, size_cap=args.size_cap)
    payload: dict = {"score": score.to_payload(), "label": x.label}
    if args.against:
        y = dataio.load_embeddings(args.against, args.format)
        payload["against"] = compare(x, y, spec, kxx).to_payload()
    print(canonical_json(payload))
    return 0


def cmd_bias(args) -> int:
    cfg = _load_config(args.config)
    resolved = {
        "command": "bias",
        "alphabet_size": int(cfg.get("alphabet_size", 1024)),
        "sizes": [int(s) for s in cfg.get("sizes", default_bias_grid())],
        "trials": int(cfg.get("trials", 10)),
        "seed": int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        "stream_id": int(cfg.get("stream_id", 0)),
    }
    begun = _begin_run(args, "bias", resolved)
    if begun is None:
        return 0
    out_dir, digest, stamp = begun
    curve = bias_lab.run_discrete_bias(
        bias_lab.DiscreteLawSpec(resolved["alphabet_size"]),
        resolved["sizes"],
        resolved["trials"],
        RunSeed(resolved["seed"], resolved["stream_id"]),
        jobs=args.jobs,
    )
    payload = {"config": resolved, "curve": curve.to_payload()}
    path = _write_record(out_dir, "bias", payload, digest, stamp)
    dataio.write_text(os.path.join(out_dir, "curve.dat"), bias_lab.curve_to_plot_text(curve))
    print(path)
    return 0


def default_bias_grid() -> list[int]:
    sizes = [256 * 2**k for k in range(7)]  # 256 .. 16384
    sizes.append(20480)
    return sizes


def cmd_curve(args) -> int:
    cfg = _load_config(args.config)
    source_cfg = cfg.get("source")
    if not isinstance(source_cfg, dict) or "type" not in source_cfg:
        raise UsageError("config needs a 'source' object with a 'type' field")
    resolved = {
        "command": "curve",
        "source": source_cfg,
        "kernel": _kernel_from(cfg).to_payload(),
        "sizes": [int(s) for s in cfg.get("sizes", [64 * 2**k for k in range(7)])],
        "trials": int(cfg.get("trials", 10)),
        "size_cap": int(cfg.get("size_cap", DEFAULT_SIZE_CAP)),
        "seed": int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        "stream_id": int(cfg.get("stream_id", 0)),
    }
    begun = _begin_run(args, "curve", resolved)
    if begun is None:
        return 0
    out_dir, digest, stamp = begun
    if source_cfg["type"] == "file":
        source = dataio.load_embeddings(source_cfg["path"], source_cfg.get("format"))
    elif source_cfg["type"] == "cube_mixture":
        source = bias_lab.cube_mixture_sampler(
            bias_lab.CubeMixtureSpec(
                int(source_cfg["dimension"]), float(source_cfg.get("component_std", 1e-4))
            )
        )
    else:
        raise UsageError(f"unknown curve source type {source_cfg['type']!r}")
    curve = bias_lab.vendi_curve(
        source,
        resolved["sizes"],
        resolved["trials"],
        KernelSpec.from_payload(resolved["kernel"]),
        RunSeed(resolved["seed"], resolved["stream_id"]),
        size_cap=resolved["size_cap"],
        jobs=args.jobs,
    )
    monotone = bias_lab.check_monotone_logvendi(curve)
    payload = {"config": resolved, "curve": curve.to_payload(), "monotone": monotone.to_payload()}
    path = _write_record(out_dir, "curve", payload, digest, stamp)
    dataio.write_text(os.path.join(out_dir, "curve.dat"), bias_lab.curve_to_plot_text(curve))
    print(path)
    return 0


def cmd_project(args) -> int:
    cfg = _load_config(args.config)
    gram_cfg = cfg.get("gram")
    if not isinstance(gram_cfg, dict) or "type" not in gram_cfg:
        raise UsageError("config needs a 'gram' object with a 'type' field")
    mode = cfg.get("mode", "vne_penalized")
    resolved = {
        "command": "project",
        "gram": gram_cfg,
        "mode": mode,
        "rho": cfg.get("rho"),
        "lambda": cfg.get("lambda"),
        "vendi_target": cfg.get("vendi_target"),
        "eta": float(cfg.get("eta", 0.1)),
        "gamma": float(cfg.get("gamma", 1.0)),
        "max_iters": int(cfg.get("max_iters", 5000)),
        "tol": float(cfg.get("tol", 1e-8)),
    }
    begun = _begin_run(args, "project", resolved)
    if begun is None:
        return 0
    out_dir, digest, stamp = begun
    if gram_cfg["type"] == "gram_file":
        k = load_gram(gram_cfg["path"])
    elif gram_cfg["type"] == "embeddings":
        x = dataio.load_embeddings(gram_cfg["path"], gram_cfg.get("format"))
        k = gram(x, _kernel_from(gram_cfg))
    else:
        raise UsageError(f"unknown gram source type {gram_cfg['type']!r}")
    pcfg = projection.ProjectionConfig(
        mode=mode,
        rho=resolved["rho"],
        lam=resolved["lambda"],
        eta=resolved["eta"],
        gamma=resolved["gamma"],
        max_iters=resolved["max_iters"],
        tol=resolved["tol"],
    )
    if mode == "vne_constrained":
        rho = resolved["rho"]
        if rho is None and resolved["vendi_target"] is not None:
            rho = float(np.log(resolved["vendi_target"]))
        if rho is None:
            raise UsageError("vne_constrained mode needs 'rho' (nats) or 'vendi_target'")
        result = projection.project_vne(k, float(rho), pcfg)
    elif mode == "vne_penalized":
        result = projection.project_vendi_penalized(k, _require_lambda(resolved), pcfg)
    elif mode == "rke_penalized":
        result = projection.project_rke_penalized(k, _require_lambda(resolved), pcfg)
    else:
        raise UsageError(f"unknown projection mode {mode!r}")
    if result.status != "converged":
        print(f"divkit: warning: {mode} projection stopped with status {result.status} "
              f"after {result.iterations} iterations", file=sys.stderr)
    payload = {"config": resolved, "projection": result.to_payload()}
    path = _write_record(out_dir, "projection", payload, digest, stamp)
    weights_text = "\n".join(dataio.format_float(w) for w in result.q_star.weights) + "\n"
    dataio.write_text(os.path.join(out_dir, "weights.txt"), weights_text)
    print(path)
    return 0


def _require_lambda(resolved: dict) -> float:
    if resolved["lambda"] is None:
        raise UsageError("penalized modes need a 'lambda' value")
    return float(resolved["lambda"])


def cmd_guide(args) -> int:
    cfg = _load_config(args.config)
    layout = cfg.get("layout")
    if not isinstance(layout, dict) or "type" not in layout:
        raise UsageError("config needs a 'layout' object with a 'type' field")
    resolved = {
        "command": "guide",
        "layout": layout,
        "component_std": float(cfg.get("component_std", 0.1)),
        "base_weights": cfg.get("base_weights", {"type": "uniform"}),
        "n_samples": int(cfg.get("n_samples", 1000)),
        "schedule": cfg.get("schedule", {"kind": "linear_beta", "steps": 200}),
        "eta": float(cfg.get("eta", 0.03)),
        "eta_schedule": cfg.get("eta_schedule", "constant"),
        "apply_every": int(cfg.get("apply_every", 10)),
        "kernel_bandwidth": cfg.get("kernel_bandwidth"),
        "bank_policy": cfg.get("bank_policy", "all_finals"),
        "stochastic": bool(cfg.get("stochastic", True)),
        "dump_trajectories": int(cfg.get("dump_trajectories", 0)),
        "seed": int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        "stream_id": int(cfg.get("stream_id", 0)),
    }
    begun = _begin_run(args, "guide", resolved)
    if begun is None:
        return 0
    out_dir, digest, stamp = begun

    std = resolved["component_std"]
    if layout["type"] == "grid":
        spec = guidance.MixtureSpec2D.grid(
            int(layout["rows"]), int(layout["cols"]), float(layout["spacing"]), std
        )
        default_bw = float(layout["spacing"]) / 2.0
    elif layout["type"] == "circle":
        spec = guidance.MixtureSpec2D.circle(
            int(layout["n_modes"]), float(layout["radius"]), std
        )
        # nearest-neighbor spacing on the circle
        default_bw = float(layout["radius"]) * 2.0 * np.sin(np.pi / int(layout["n_modes"])) / 2.0
    elif layout["type"] == "explicit":
        spec = guidance.MixtureSpec2D(
            np.asarray(layout["centers"], dtype=float),
            np.asarray(layout.get("weights", np.full(len(layout["centers"]), 1.0 / len(layout["centers"])))),
            std,
        )
        default_bw = float(layout.get("bandwidth_hint", 1.0))
    else:
        raise UsageError(f"unknown layout type {layout['type']!r}")

    base_cfg = resolved["base_weights"]
    if base_cfg.get("type") == "uniform":
        base_weights = np.full(spec.n_modes, 1.0 / spec.n_modes)
    elif base_cfg.get("type") == "geometric":
        base_weights = guidance.geometric_weights(spec.n_modes, float(base_cfg.get("ratio", 0.6)))
    elif base_cfg.get("type") == "explicit":
        base_weights = np.asarray(base_cfg["values"], dtype=float)
    else:
        raise UsageError("base_weights.type must be uniform, geometric, or explicit")

    sched_cfg = resolved["schedule"]
    steps = int(sched_cfg.get("steps", 200))
    if sched_cfg.get("kind", "linear_beta") == "linear_beta":
        sched = guidance.NoiseSchedule.linear_beta(steps)
    elif sched_cfg["kind"] == "cosine":
        sched = guidance.NoiseSchedule.cosine(steps)
    else:
        raise UsageError(f"unknown schedule kind {sched_cfg['kind']!r}")

    bw = float(resolved["kernel_bandwidth"]) if resolved["kernel_bandwidth"] else default_bw
    latent_kernel = KernelSpec("gaussian", bw)
    if resolved["eta_schedule"] == "constant":
        gcfg = guidance.GuidanceConfig.constant(resolved["eta"], steps, resolved["apply_every"], latent_kernel)
    elif resolved["eta_schedule"] == "linear_decay":
        gcfg = guidance.GuidanceConfig.linear_decay(resolved["eta"], steps, resolved["apply_every"], latent_kernel)
    else:
        raise UsageError("eta_schedule must be constant or linear_decay")

    result = guidance.run_guided_sampling(
        spec,
        base_weights,
        resolved["n_samples"],
        sched,
        gcfg,
        RunSeed(resolved["seed"], resolved["stream_id"]),
        stochastic=resolved["stochastic"],
        bank_policy=resolved["bank_policy"],
    )
    payload = {
        "config": resolved,
        "metrics": result.to_payload(),
        "kernel_bandwidth": bw,
    }
    path = _write_record(out_dir, "guidance", payload, digest, stamp)
    dataio.save_embeddings(result.guided.samples, os.path.join(out_dir, "guided.embd"))
    dataio.save_embeddings(result.unguided.samples, os.path.join(out_dir, "unguided.embd"))
    if resolved["dump_trajectories"] > 0:
        _dump_trajectories(out_dir, spec.with_weights(base_weights), sched, resolved)
    print(path)
    return 0


def _dump_trajectories(out_dir, base, sched, resolved) -> None:
    """Plot-data dump of the first few unguided trajectories."""
    count = min(resolved["dump_trajectories"], resolved["n_samples"])
    paths = guidance.unguided_trajectories(
        base, sched, RunSeed(resolved["seed"], resolved["stream_id"]), range(count),
        resolved["stochastic"],
    )
    for i in range(count):
        lines = ["# step x y"] + [
            f"{sched.steps - k} {dataio.format_float(x)} {dataio.format_float(y)}"
            for k, (x, y) in enumerate(paths[:, i].tolist())
        ]
        dataio.write_text(os.path.join(out_dir, f"trajectory_{i:03d}.dat"), "\n".join(lines) + "\n")


def cmd_concentration(args) -> int:
    cfg = _load_config(args.config)
    resolved = {
        "command": "concentration",
        "dimension": int(cfg.get("dimension", 8)),
        "component_std": float(cfg.get("component_std", 1e-4)),
        "kernel": _kernel_from(cfg).to_payload(),
        "m": int(cfg.get("m", 500)),
        "trials": int(cfg.get("trials", 100)),
        "delta": float(cfg.get("delta", 0.01)),
        "seed": int(args.seed if args.seed is not None else cfg.get("seed", 0)),
        "stream_id": int(cfg.get("stream_id", 0)),
    }
    begun = _begin_run(args, "concentration", resolved)
    if begun is None:
        return 0
    out_dir, digest, stamp = begun
    sampler = bias_lab.cube_mixture_sampler(
        bias_lab.CubeMixtureSpec(resolved["dimension"], resolved["component_std"])
    )
    report = bias_lab.check_concentration(
        sampler,
        resolved["m"],
        resolved["trials"],
        KernelSpec.from_payload(resolved["kernel"]),
        resolved["delta"],
        RunSeed(resolved["seed"], resolved["stream_id"]),
        jobs=args.jobs,
    )
    payload = {"config": resolved, "concentration": report.to_payload()}
    path = _write_record(out_dir, "concentration", payload, digest, stamp)
    print(path)
    return 0


_DISPATCH = {
    "score": cmd_score,
    "bias": cmd_bias,
    "curve": cmd_curve,
    "project": cmd_project,
    "guide": cmd_guide,
    "concentration": cmd_concentration,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"divkit: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"divkit: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DivkitError as exc:
        print(f"divkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
