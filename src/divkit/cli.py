"""Command-line front end: reproducible runs driven by JSON config files.

Every run command (curve, bias, project, guide, concentration) reads one
config file by the fields ``COMMANDS`` declares, at every nesting level, before
it writes anything, so a malformed config, or one with a key the command does
not declare, exits 1 and leaves no output.  It then hashes the resolved config,
defaults filled in, and writes its outputs under ``<out_root>/<command>-<hash12>/``;
a run that fails removes the directories it made.  Re-running an
already-hashed config is a no-op unless --force is passed, and all outputs
are byte-identical across re-runs because record timestamps default to 0
(opt into wall-clock stamps with --stamp-time).  The output root is
./divkit_out, or $DIVKIT_CACHE_DIR, or --out.

Exit codes: 1 usage, 2 data, 3 numeric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from typing import Callable, NamedTuple

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
    score.add_argument("embeddings", help="CSV or binary (EMBD) embedding file")
    score.add_argument("--against", help="second embedding file; adds a KD/FD block")
    score.add_argument("--kernel", choices=("gaussian", "cosine"), default="gaussian")
    score.add_argument("--bandwidth", type=float, help="gaussian bandwidth (required for gaussian)")
    score.add_argument("--size-cap", type=_count_arg, default=DEFAULT_SIZE_CAP,
                       help="refuse exact eigendecompositions above this matrix order "
                            "(n, or d for cosine scores with d < n)")

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output root (default $DIVKIT_CACHE_DIR or ./divkit_out)")
        if _SEED[0] in command.keys:  # the command declares a seed
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--jobs", type=_count_arg, default=1, help="cap on cross-trial parallelism")
        p.add_argument("--force", action="store_true", help="recompute even if outputs exist")
        p.add_argument("--stamp-time", action="store_true",
                       help="record wall-clock time instead of the reproducible 0 stamp")
    return top


#: default of a config key that must be given
_REQUIRED = object()


class _Tagged(NamedTuple):
    """A table whose ``tag`` key, ``default`` when absent, picks its other fields."""

    tag: str
    default: object
    fields: dict  # tag value -> (name, cast, default) per field


def _not_json(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_not_json)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, not JSON, or NaN/Infinity (RFC 8259 has none)
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    return cfg


def _raw(value):
    return value


def _typed(kind: type, what: str):
    def cast(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return cast


_object, _text = _typed(dict, "a JSON object"), _typed(str, "a string")
_boolean = _typed(bool, "true or false")
_FLOAT_MAX = np.finfo(np.float64).max


def _integer(value) -> int:
    """A JSON integer: no bool, no string, no fraction or exponent."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A finite JSON number (no bool, no string) as a float."""
    finite = isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
    if isinstance(value, bool) or not finite:
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _count(value) -> int:
    """A JSON integer of at least 1."""
    if _integer(value) < 1:
        raise ValueError(f"expected an integer >= 1, got {value!r}")
    return value


def _count_arg(text: str) -> int:
    """A command-line integer of at least 1."""
    try:
        return _count(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None


def _optional(cast):
    return lambda value: None if value is None else cast(value)


def _ints(value) -> list[int]:
    return [_integer(v) for v in _typed(list, "a list of integers")(value)]


def _floats(value) -> np.ndarray:
    """A finite JSON number, or nested lists of them, as a float array."""
    entries = np.asarray(value, dtype=object)
    return np.array([_number(v) for v in entries.flat], dtype=float).reshape(entries.shape)


def _points(value) -> np.ndarray:
    arr = _floats(value)
    if arr.ndim != 2 or arr.shape[1] != 2 or len(arr) == 0:
        raise ValueError("expected a nonempty list of [x, y] pairs")
    return arr


def _one_of(*choices: str):
    def cast(value):
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value

    return cast


def _kernel(doc) -> dict:
    """A kernel object, a 'family' and perhaps a 'bandwidth', as its canonical payload."""
    if not isinstance(doc, dict) or "family" not in doc or set(doc) - {"family", "bandwidth"}:
        raise TypeError(f"expected 'family' and optional 'bandwidth' fields, got {doc!r}")
    try:
        return KernelSpec(doc["family"], _optional(_number)(doc.get("bandwidth"))).to_payload()
    except DivkitError as exc:
        raise ValueError(str(exc)) from exc


def _field(doc: dict, name: str, cast, default, where: str):
    """``cast`` of ``doc[name]``, or of ``default``; a missing or bad value is a usage error
    naming the dotted key.  A cast that is a tuple of fields, or a ``_Tagged`` table of
    them, reads a nested object with ``_resolve``."""
    key, value = where + name, doc.get(name, default)
    if value is _REQUIRED:
        raise UsageError(f"config needs {key!r}")
    nested = isinstance(cast, tuple)  # a _Tagged table is a tuple too
    try:
        value = (_object if nested else cast)(value)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    return _resolve(value, cast, key + ".") if nested else value


def _resolve(doc: dict, fields, where: str = "") -> dict:
    """``doc`` with each of ``fields``, (name, cast, default), read by ``_field``, and
    nothing else: an undeclared key is a usage error.  A ``_Tagged`` table's tag picks them."""
    if isinstance(fields, _Tagged):
        tag = _field(doc, fields.tag, _one_of(*fields.fields), fields.default, where)
        fields = ((fields.tag, _raw, tag), *fields.fields[tag])
    unknown = sorted(set(doc) - {name for name, _, _ in fields})
    if unknown:
        raise UsageError(f"undeclared config key {', '.join(repr(where + k) for k in unknown)}")
    return {name: _field(doc, name, cast, default, where) for name, cast, default in fields}


def _seed(c: dict) -> RunSeed:
    return RunSeed(c["seed"], c["stream_id"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    if (args.kernel == "gaussian") == (args.bandwidth is None):
        raise UsageError("the gaussian kernel needs --bandwidth; cosine takes none")
    spec = KernelSpec(args.kernel, args.bandwidth)
    x = dataio.load_embeddings(args.embeddings)
    score, block = vendi_with_gram(x, spec, size_cap=args.size_cap)
    payload: dict = {"score": score.to_payload(), "label": x.label}
    if args.against:
        y = dataio.load_embeddings(args.against)
        payload["against"] = compare(x, y, spec, block).to_payload()
    print(canonical_json(payload))
    return 0


# Library functions are looked up on their module at call time, never stored,
# so wrappers installed on the module see every call.

def default_bias_grid() -> list[int]:
    return [256 * 2**k for k in range(7)] + [20480]  # 256 .. 16384, then 20480


def _prepare_bias(c: dict):
    law = bias_lab.DiscreteLawSpec(c["alphabet_size"])

    def run(out_dir: str, jobs: int) -> dict:
        curve = bias_lab.run_discrete_bias(law, c["sizes"], c["trials"], _seed(c), jobs=jobs)
        dataio.write_text(os.path.join(out_dir, "curve.dat"), bias_lab.curve_to_plot_text(curve))
        return {"curve": curve.to_payload()}

    return run


def _prepare_curve(c: dict):
    source, kernel = c["source"], KernelSpec.from_payload(c["kernel"])
    spec = (bias_lab.CubeMixtureSpec(source["dimension"], source["component_std"])
            if source["type"] == "cube_mixture" else None)

    def run(out_dir: str, jobs: int) -> dict:
        samples = (bias_lab.cube_mixture_sampler(spec) if spec is not None
                   else dataio.load_embeddings(source["path"]))
        curve = bias_lab.vendi_curve(samples, c["sizes"], c["trials"], kernel, _seed(c),
                                     size_cap=c["size_cap"], jobs=jobs)
        monotone = bias_lab.check_monotone_logvendi(curve)
        dataio.write_text(os.path.join(out_dir, "curve.dat"), bias_lab.curve_to_plot_text(curve))
        return {"curve": curve.to_payload(), "monotone": monotone.to_payload()}

    return run


#: projection mode -> solver; vne_constrained takes the entropy target, the others lambda
_SOLVERS = {
    "vne_constrained": lambda k, a, cfg: projection.project_vne(k, a, cfg),
    "vne_penalized": lambda k, a, cfg: projection.project_vendi_penalized(k, a, cfg),
    "rke_penalized": lambda k, a, cfg: projection.project_rke_penalized(k, a, cfg),
}


def _prepare_project(c: dict):
    source, mode = c["gram"], c["mode"]
    kernel = KernelSpec.from_payload(source["kernel"]) if source["type"] == "embeddings" else None
    target = c["rho"] if mode == "vne_constrained" else c["lambda"]
    if mode != "vne_constrained":  # a negative lambda fails before any output
        projection._check_lambda(target)
    pcfg = projection.ProjectionConfig(max_iters=c["max_iters"], tol=c["tol"])

    def run(out_dir: str, jobs: int) -> dict:
        k = (gram(dataio.load_embeddings(source["path"]), kernel)
             if kernel is not None else load_gram(source["path"]))
        result = _SOLVERS[mode](k, target, pcfg)
        if result.status != "converged":
            print(f"divkit: warning: {projection._stop_message(result)}", file=sys.stderr)
        weights_text = "\n".join(dataio.format_float(w) for w in result.q_star.weights) + "\n"
        dataio.write_text(os.path.join(out_dir, "weights.txt"), weights_text)
        return {"projection": result.to_payload()}

    return run


def _prepare_guide(c: dict):
    layout, std = c["layout"], c["component_std"]
    if layout["type"] == "grid":
        spec = guidance.MixtureSpec2D.grid(layout["rows"], layout["cols"], layout["spacing"], std)
    elif layout["type"] == "circle":
        spec = guidance.MixtureSpec2D.circle(layout["n_modes"], layout["radius"], std)
    else:  # explicit centers; null weights are uniform
        spec = guidance.MixtureSpec2D(layout["centers"], layout["weights"], std)
    m, base_cfg = spec.n_modes, c["base_weights"]
    if base_cfg["type"] == "uniform":
        base_weights = None
    elif base_cfg["type"] == "geometric":
        base_weights = guidance.geometric_weights(m, base_cfg["ratio"])
    else:
        base_weights = base_cfg["values"]
    spec.with_weights(base_weights)  # checks the base weights against the layout
    steps = c["schedule"]["steps"]
    # schedule kinds and eta schedules are named after their constructors
    sched = getattr(guidance.NoiseSchedule, c["schedule"]["kind"])(steps)
    bw = c["kernel_bandwidth"]
    if bw is None:  # half the smallest distance between two modes
        if spec.n_modes == 1:
            raise UsageError("a one-mode layout needs 'kernel_bandwidth'")
        bw = spec.mode_spacing / 2.0
    gcfg = getattr(guidance.GuidanceConfig, c["eta_schedule"])(c["eta"], steps, c["apply_every"],
                                                               KernelSpec("gaussian", bw))

    def run(out_dir: str, jobs: int) -> dict:
        result = guidance.run_guided_sampling(
            spec, base_weights, c["n_samples"], sched, gcfg, _seed(c),
            stochastic=c["stochastic"], bank_policy=c["bank_policy"],
        )
        dataio.save_embeddings(result.guided.samples, os.path.join(out_dir, "guided.embd"))
        dataio.save_embeddings(result.unguided.samples, os.path.join(out_dir, "unguided.embd"))
        for i in range(min(c["dump_trajectories"], c["n_samples"])):  # the first unguided paths
            rows = (f"{sched.steps - k} {dataio.format_float(x)} {dataio.format_float(y)}\n"
                    for k, (x, y) in enumerate(result.unguided_paths[:, i].tolist()))
            path = os.path.join(out_dir, f"trajectory_{i:03d}.dat")
            dataio.write_text(path, "# step x y\n" + "".join(rows))
        return {"metrics": result.to_payload(), "kernel_bandwidth": bw}

    return run


def _prepare_concentration(c: dict):
    spec = bias_lab.CubeMixtureSpec(c["dimension"], c["component_std"])
    kernel = KernelSpec.from_payload(c["kernel"])

    def run(out_dir: str, jobs: int) -> dict:
        report = bias_lab.check_concentration(bias_lab.cube_mixture_sampler(spec), c["m"],
                                              c["trials"], kernel, c["delta"], _seed(c), jobs=jobs)
        return {"concentration": report.to_payload()}

    return run


class RunCommand(NamedTuple):
    """A run command.  ``prepare`` takes the resolved config, checks what its fields say
    together, builds what needs no file and no compute, and returns ``run(out_dir, jobs)``, which
    loads, computes, writes the side files and returns the record payload less "config"."""

    kind: str  # record kind
    help: str
    keys: tuple  # (name, cast, default) per config key, or a _Tagged table, read by _resolve
    prepare: Callable[[dict], Callable[[str, int], dict]]


_KERNEL = ("kernel", _kernel, _REQUIRED)
_SEED = (("seed", _integer, 0), ("stream_id", _integer, 0))
#: the fields of the nested config objects, each tagged by its "type"
_SOURCE = _Tagged("type", _REQUIRED, {
    "file": (("path", _text, _REQUIRED),),
    "cube_mixture": (("dimension", _integer, _REQUIRED), ("component_std", _number, 1e-4))})
_GRAM = _Tagged("type", _REQUIRED, {"gram_file": (("path", _text, _REQUIRED),),
                                    "embeddings": (("path", _text, _REQUIRED), _KERNEL)})
_LAYOUT = _Tagged("type", _REQUIRED, {
    "grid": (("rows", _integer, _REQUIRED), ("cols", _integer, _REQUIRED),
             ("spacing", _number, _REQUIRED)),
    "circle": (("n_modes", _integer, _REQUIRED), ("radius", _number, _REQUIRED)),
    "explicit": (("centers", _points, _REQUIRED), ("weights", _optional(_floats), None))})
_BASE_WEIGHTS = _Tagged("type", _REQUIRED, {"uniform": (), "geometric": (("ratio", _number, 0.6),),
                                            "explicit": (("values", _floats, _REQUIRED),)})
_SCHEDULE = (("kind", _one_of("linear_beta", "cosine"), "linear_beta"), ("steps", _integer, 200))
#: the top level of a project config: its "mode" adds the solver's one target to these
_SOLVE = (("gram", _GRAM, _REQUIRED), ("max_iters", _integer, 5000), ("tol", _number, 1e-8))
_PENALIZED = (*_SOLVE, ("lambda", _number, _REQUIRED))
_PROJECT = _Tagged("mode", "vne_penalized", {
    "vne_constrained": (*_SOLVE, ("rho", _number, _REQUIRED)),
    "vne_penalized": _PENALIZED, "rke_penalized": _PENALIZED})

COMMANDS = {
    "curve": RunCommand("curve", "Vendi score vs sample size from a file or cube mixture", (
        ("source", _SOURCE, _REQUIRED), _KERNEL, ("sizes", _ints, [64 * 2**k for k in range(7)]),
        ("trials", _integer, 10), ("size_cap", _count, DEFAULT_SIZE_CAP), *_SEED,
    ), _prepare_curve),
    "bias": RunCommand("bias", "plug-in entropy bias curve for a uniform discrete law", (
        ("alphabet_size", _integer, 1024), ("sizes", _ints, default_bias_grid()),
        ("trials", _integer, 10), *_SEED,
    ), _prepare_bias),
    "project": RunCommand("projection", "entropy projection of weights on a fixed support",
                          _PROJECT, _prepare_project),
    "guide": RunCommand("guidance", "guided vs unguided reverse diffusion on a 2D mixture", (
        ("layout", _LAYOUT, _REQUIRED), ("component_std", _number, 0.1),
        ("base_weights", _BASE_WEIGHTS, {"type": "uniform"}), ("n_samples", _integer, 1000),
        ("schedule", _SCHEDULE, {}), ("eta", _number, 0.03),
        ("eta_schedule", _one_of("constant", "linear_decay"), "constant"),
        ("apply_every", _integer, 10), ("kernel_bandwidth", _optional(_number), None),
        ("bank_policy", _one_of(*guidance.BANK_POLICIES), "all_finals"),
        ("stochastic", _boolean, True), ("dump_trajectories", _integer, 0), *_SEED,
    ), _prepare_guide),
    "concentration": RunCommand("concentration", "log-Vendi concentration check", (
        ("dimension", _integer, 8), ("component_std", _number, 1e-4), _KERNEL,
        ("m", _integer, 500), ("trials", _integer, 100), ("delta", _number, 0.01), *_SEED,
    ), _prepare_concentration),
}


def run_command(args) -> int:
    """Read and check the whole config, then compute, record and print the record path.

    A run that raises removes the directories that this call created.
    """
    command = COMMANDS[args.command]
    cfg = _load_config(args.config)
    if getattr(args, "seed", None) is not None:  # only commands with a seed key take --seed
        cfg["seed"] = args.seed
    resolved = {"command": args.command, **_resolve(cfg, command.keys)}
    run = command.prepare(resolved)
    digest = config_hash(resolved)
    root = args.out or os.environ.get("DIVKIT_CACHE_DIR") or "divkit_out"
    out_dir = os.path.join(root, f"{args.command}-{digest[:12]}")
    record_path = os.path.join(out_dir, "record.json")
    if os.path.exists(record_path) and not args.force:
        print(f"{record_path} already exists for this config; use --force to recompute")
        return 0
    created = _outermost_missing(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.time() if args.stamp_time else 0.0
    try:
        payload = {"config": resolved, **run(out_dir, args.jobs)}
        dataio.save_record(ResultRecord(command.kind, payload, digest, stamp), record_path)
    except BaseException:
        if created is not None:  # a failed run leaves no directory it made
            shutil.rmtree(created, ignore_errors=True)
        raise
    print(record_path)
    return 0


def _outermost_missing(path: str) -> str | None:
    """The outermost directory that ``os.makedirs(path)`` would create, or None."""
    missing = None
    while path and not os.path.exists(path):
        missing, path = path, os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return cmd_score(args) if args.command == "score" else run_command(args)
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
