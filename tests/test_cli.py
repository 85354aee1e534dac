import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divkit.dataio
import divkit.discrepancy
import divkit.kernels
from divkit.bias_lab import CubeMixtureSpec, sample_cube_mixture
from divkit.cli import main
from divkit.dataio import EmbeddingSet, RunSeed, load_embeddings, save_embeddings
from divkit.kernels import cross
from oracles import read_record


def write_embeddings(path, data):
    save_embeddings(EmbeddingSet(np.asarray(data, dtype=float)), str(path), "csv")


def run_cli(args):
    return main([str(a) for a in args])


def spy_on_kernel_blocks(monkeypatch):
    """Shapes of the kernel blocks of more than one row built from here on."""
    blocks = []

    def spy(x, y, spec):
        if len(x) > 1:
            blocks.append((len(x), len(y)))
        return cross(x, y, spec)

    monkeypatch.setattr(divkit.kernels, "cross", spy)
    monkeypatch.setattr(divkit.discrepancy, "cross", spy)
    return blocks


def test_score_identical_points(tmp_path, capsys):
    p = tmp_path / "same.csv"
    write_embeddings(p, np.tile([1.0, 2.0], (6, 1)))
    assert run_cli(["score", p, "--kernel", "gaussian", "--bandwidth", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["score"]["vendi"] == pytest.approx(1.0, abs=1e-9)
    assert out["score"]["rke"] == pytest.approx(1.0, abs=1e-9)


def test_score_orthogonal_points(tmp_path, capsys):
    p = tmp_path / "orth.csv"
    write_embeddings(p, np.eye(8) * 40.0)
    assert run_cli(["score", p, "--kernel", "gaussian", "--bandwidth", "0.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["score"]["vendi"] == pytest.approx(8.0, rel=1e-9)


def test_score_against_includes_discrepancies(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(0)
    write_embeddings(a, rng.normal(size=(20, 3)))
    write_embeddings(b, rng.normal(size=(25, 3)) + 1.0)
    assert run_cli(["score", a, "--against", b, "--kernel", "gaussian", "--bandwidth", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["against"]) == {"kd_squared", "fd", "mmd2_unbiased", "kernel"}
    assert out["against"]["kd_squared"] > 0.0


@pytest.mark.parametrize("kernel, blocks_built", [
    (["--kernel", "gaussian", "--bandwidth", "1.0"], [(20, 20), (20, 25), (25, 25)]),
    (["--kernel", "cosine"], []),  # cosine scores and MMD come from the unit rows
])
def test_score_against_builds_each_kernel_block_once(tmp_path, monkeypatch, kernel, blocks_built):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rng = np.random.default_rng(0)
    write_embeddings(a, rng.normal(size=(20, 3)))
    write_embeddings(b, rng.normal(size=(25, 3)) + 1.0)
    blocks = spy_on_kernel_blocks(monkeypatch)
    assert run_cli(["score", a, "--against", b] + kernel) == 0
    assert sorted(blocks) == blocks_built


def test_score_usage_errors(tmp_path, capsys):
    p = tmp_path / "x.csv"
    write_embeddings(p, np.ones((3, 2)))
    assert run_cli(["score", p]) == 1  # gaussian without bandwidth
    assert run_cli(["score", p, "--bogus-flag"]) == 1
    assert run_cli(["bogus-command"]) == 1
    assert run_cli(["score", p, "--kernel", "cosine", "--format", "csv"]) == 1  # files name theirs


def test_score_data_error_exit_code(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,nan\n")
    assert run_cli(["score", p, "--kernel", "cosine"]) == 2
    good = tmp_path / "good.csv"
    against = tmp_path / "against_zero_row.csv"
    write_embeddings(good, [[1.0, 2.0], [3.0, 1.0]])
    write_embeddings(against, [[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
    assert run_cli(["score", good, "--against", against, "--kernel", "cosine"]) == 2


def test_score_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_bytes(b"1,2\n\xff,3\n")
    assert run_cli(["score", p, "--kernel", "cosine"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("divkit: data error: ")
    assert f"{p}: invalid UTF-8 at byte 4 (line 2)" in err


def divkit_process(args, **kwargs) -> subprocess.CompletedProcess:
    """``divkit args`` in a fresh interpreter that imports divkit from this checkout."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "divkit.cli", *map(str, args)], env=env,
                          capture_output=True, timeout=60, **kwargs)


def test_score_refuses_a_piped_csv(tmp_path):
    # a pipe keeps no byte that a read took, so a stream could load as a smaller set
    write_embeddings(tmp_path / "r.csv", np.random.default_rng(12).normal(size=(600, 8)))
    done = divkit_process(["score", "/dev/stdin", "--bandwidth", "1"],
                          input=(tmp_path / "r.csv").read_bytes())
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode().splitlines() == ["divkit: data error: /dev/stdin: not a regular file"]


def test_score_refuses_a_fifo(tmp_path):
    # opening a FIFO that has no writer blocks; the stat before the open refuses it
    fifo = tmp_path / "r.fifo"
    os.mkfifo(fifo)
    done = divkit_process(["score", fifo, "--bandwidth", "1"])
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode().splitlines() == [f"divkit: data error: {fifo}: not a regular file"]


def test_score_gram_container_names_its_magic(tmp_path, capsys):
    p = tmp_path / "k.gram"
    divkit.dataio.write_matrix_container(str(p), np.eye(4))
    assert run_cli(["score", p, "--kernel", "cosine"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"divkit: data error: {p}: a GRAM container holds a Gram matrix, not embeddings"]


def test_score_numeric_error_exit_code(tmp_path):
    # the cap bounds the order of the eigensolved matrix: d x d for cosine when d < n
    p = tmp_path / "big.csv"
    write_embeddings(p, np.random.default_rng(1).normal(size=(30, 12)))
    assert run_cli(["score", p, "--kernel", "cosine", "--size-cap", "10"]) == 3
    write_embeddings(p, np.random.default_rng(1).normal(size=(30, 2)))
    assert run_cli(["score", p, "--kernel", "cosine", "--size-cap", "10"]) == 0


@pytest.mark.parametrize("kernel", [["--kernel", "cosine"], ["--bandwidth", "1.0"]])
def test_score_fd_overflow_exits_numeric(tmp_path, capsys, kernel):
    # entries near 1e200 overflow the FD covariances
    rng = np.random.default_rng(2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_embeddings(a, rng.normal(size=(20, 3)) * 1e200)
    write_embeddings(b, rng.normal(size=(20, 3)) * 1e200)
    assert run_cli(["score", a, "--against", b, *kernel]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("divkit: numeric error:")


def test_bias_command_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "bias.json"
    cfg.write_text(json.dumps({
        "alphabet_size": 64,
        "sizes": [64, 128, 256],
        "trials": 4,
        "seed": 11,
    }))
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    assert run_cli(["bias", "--config", cfg, "--out", out_a]) == 0
    assert run_cli(["bias", "--config", cfg, "--out", out_b]) == 0
    rec_a = next(out_a.glob("bias-*/record.json")).read_bytes()
    rec_b = next(out_b.glob("bias-*/record.json")).read_bytes()
    assert rec_a == rec_b
    dat_a = next(out_a.glob("bias-*/curve.dat")).read_bytes()
    dat_b = next(out_b.glob("bias-*/curve.dat")).read_bytes()
    assert dat_a == dat_b


def test_bias_command_idempotent_rerun(tmp_path, capsys):
    cfg = tmp_path / "bias.json"
    cfg.write_text(json.dumps({"alphabet_size": 16, "sizes": [16, 32], "trials": 2, "seed": 0}))
    out = tmp_path / "out"
    assert run_cli(["bias", "--config", cfg, "--out", out]) == 0
    record = next(out.glob("bias-*/record.json"))
    before = record.read_bytes()
    capsys.readouterr()
    assert run_cli(["bias", "--config", cfg, "--out", out]) == 0
    assert "already exists" in capsys.readouterr().out
    assert record.read_bytes() == before


def test_curve_command_on_file(tmp_path):
    emb = tmp_path / "emb.csv"
    write_embeddings(emb, np.random.default_rng(2).normal(size=(64, 4)))
    cfg = tmp_path / "curve.json"
    cfg.write_text(json.dumps({
        "source": {"type": "file", "path": str(emb)},
        "kernel": {"family": "gaussian", "bandwidth": 1.0},
        "sizes": [8, 16, 32],
        "trials": 3,
        "seed": 5,
    }))
    out = tmp_path / "out"
    assert run_cli(["curve", "--config", cfg, "--out", out]) == 0
    rec = read_record(next(out.glob("curve-*/record.json")))
    assert rec.kind == "curve"
    assert rec.payload["config"]["seed"] == 5
    assert len(rec.payload["curve"]["sizes"]) == 3
    plot = next(out.glob("curve-*/curve.dat")).read_text()
    assert plot.startswith("# size mean ci_low ci_high")


def test_project_command_weights_sum_to_one(tmp_path):
    emb = tmp_path / "emb.csv"
    rng = np.random.default_rng(3)
    cluster_a = rng.normal(size=(12, 3)) * 0.2
    cluster_b = rng.normal(size=(4, 3)) * 0.2 + 8.0
    write_embeddings(emb, np.vstack([cluster_a, cluster_b]))
    cfg = tmp_path / "proj.json"
    cfg.write_text(json.dumps({
        "gram": {"type": "embeddings", "path": str(emb),
                 "kernel": {"family": "gaussian", "bandwidth": 1.0}},
        "mode": "vne_penalized",
        "lambda": 0.01,
    }))
    out = tmp_path / "out"
    assert run_cli(["project", "--config", cfg, "--out", out]) == 0
    weights = [float(line) for line in next(out.glob("project-*/weights.txt")).read_text().split()]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    rec = read_record(next(out.glob("project-*/record.json")))
    assert rec.payload["projection"]["vendi_after"] >= rec.payload["projection"]["vendi_before"]
    assert rec.payload["projection"]["status"] == "converged"


def test_project_command_warns_when_not_converged(tmp_path, capsys):
    emb = tmp_path / "emb.csv"
    rng = np.random.default_rng(3)
    write_embeddings(emb, np.vstack([rng.normal(size=(12, 3)) * 0.2,
                                     rng.normal(size=(4, 3)) * 0.2 + 8.0]))
    cfg = tmp_path / "proj.json"
    body = {
        "gram": {"type": "embeddings", "path": str(emb),
                 "kernel": {"family": "gaussian", "bandwidth": 1.0}},
        "mode": "vne_penalized",
        "lambda": 0.01,
        "max_iters": 3,
    }
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert run_cli(["project", "--config", cfg, "--out", out]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["divkit: warning: vne_penalized projection stopped with status "
                   "max_iters after 3 iterations, Frank-Wolfe gap 1.357e-03"]
    rec = read_record(next(out.glob("project-*/record.json")))
    assert rec.payload["projection"]["status"] == "max_iters"

    body.update({"lambda": 1.0, "max_iters": 5000})  # converges: no warning
    cfg.write_text(json.dumps(body))
    assert run_cli(["project", "--config", cfg, "--out", out]) == 0
    assert capsys.readouterr().err == ""


def test_guide_command_eta_zero_blocks_equal(tmp_path):
    cfg = tmp_path / "guide.json"
    cfg.write_text(json.dumps({
        "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0},
        "component_std": 0.1,
        "base_weights": {"type": "uniform"},
        "n_samples": 20,
        "schedule": {"kind": "cosine", "steps": 40},
        "eta": 0.0,
        "apply_every": 10,
        "seed": 3,
    }))
    out = tmp_path / "out"
    assert run_cli(["guide", "--config", cfg, "--out", out]) == 0
    rec = read_record(next(out.glob("guide-*/record.json")))
    assert rec.payload["metrics"]["guided"] == rec.payload["metrics"]["unguided"]
    run_dir = next(out.glob("guide-*"))
    guided = load_embeddings(os.path.join(run_dir, "guided.embd"))
    unguided = load_embeddings(os.path.join(run_dir, "unguided.embd"))
    assert np.array_equal(guided.data, unguided.data)


def test_guide_command_builds_each_metric_block_once(tmp_path, monkeypatch):
    cfg = tmp_path / "guide.json"
    cfg.write_text(json.dumps({
        "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0},
        "n_samples": 20,
        "schedule": {"kind": "cosine", "steps": 40},
        "seed": 3,
    }))
    blocks = spy_on_kernel_blocks(monkeypatch)
    assert run_cli(["guide", "--config", cfg, "--out", tmp_path / "out"]) == 0
    # the target's Gram once; per measured set its Gram and its block against the target
    assert blocks == [(20, 20)] * 5


@pytest.mark.parametrize("stochastic", [True, False])
def test_guide_dump_trajectories(tmp_path, stochastic):
    steps = 40
    cfg = tmp_path / "guide.json"
    cfg.write_text(json.dumps({
        "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0},
        "component_std": 0.1,
        "base_weights": {"type": "geometric", "ratio": 0.5},
        "n_samples": 8,
        "schedule": {"kind": "cosine", "steps": steps},
        "eta": 0.03,
        "apply_every": 10,
        "stochastic": stochastic,
        "dump_trajectories": 3,
        "seed": 3,
    }))
    out = tmp_path / "out"
    assert run_cli(["guide", "--config", cfg, "--out", out]) == 0
    run_dir = next(out.glob("guide-*"))
    names = sorted(p.name for p in run_dir.glob("trajectory_*.dat"))
    assert names == ["trajectory_000.dat", "trajectory_001.dat", "trajectory_002.dat"]
    unguided = load_embeddings(os.path.join(run_dir, "unguided.embd")).data
    for i, name in enumerate(names):
        lines = (run_dir / name).read_text().splitlines()
        assert lines[0] == "# step x y"
        rows = [line.split() for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(steps, -1, -1))
        # the dumped path ends exactly on the unguided sample of the run
        assert np.array_equal([float(v) for v in rows[-1][1:]], unguided[i])


def test_concentration_command(tmp_path):
    cfg = tmp_path / "conc.json"
    cfg.write_text(json.dumps({
        "dimension": 4,
        "component_std": 1e-3,
        "kernel": {"family": "gaussian", "bandwidth": 0.1},
        "m": 32,
        "trials": 30,
        "delta": 0.05,
        "seed": 1,
    }))
    out = tmp_path / "out"
    assert run_cli(["concentration", "--config", cfg, "--out", out]) == 0
    rec = read_record(next(out.glob("concentration-*/record.json")))
    assert rec.kind == "concentration"
    assert rec.payload["concentration"]["passed"] is True


def test_cache_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DIVKIT_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "bias.json"
    cfg.write_text(json.dumps({"alphabet_size": 8, "sizes": [8, 16], "trials": 2, "seed": 0}))
    assert run_cli(["bias", "--config", cfg]) == 0
    assert list((tmp_path / "cache").glob("bias-*/record.json"))


def test_config_flag_seed_override(tmp_path):
    cfg = tmp_path / "bias.json"
    cfg.write_text(json.dumps({"alphabet_size": 8, "sizes": [8, 16], "trials": 2, "seed": 0}))
    out = tmp_path / "out"
    assert run_cli(["bias", "--config", cfg, "--out", out, "--seed", "99"]) == 0
    rec = read_record(next(out.glob("bias-*/record.json")))
    assert rec.payload["config"]["seed"] == 99


def test_seed_flag_only_for_commands_with_a_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_embeddings("emb.csv", np.random.default_rng(3).normal(size=(6, 2)))
    (tmp_path / "project.json").write_text(json.dumps(PROJECT_OK))
    assert run_cli(["project", "--config", "project.json", "--out", "out", "--seed", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--seed" in err[0] and not (tmp_path / "out").exists()


def test_bad_config_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    assert run_cli(["curve", "--config", cfg]) == 1
    cfg.write_text(json.dumps({"source": {"type": "nope"}, "kernel": {"family": "cosine"}}))
    assert run_cli(["curve", "--config", cfg, "--out", tmp_path / "o"]) == 1


CURVE_OK = {"source": {"type": "cube_mixture", "dimension": 2},
            "kernel": {"family": "gaussian", "bandwidth": 0.1}, "sizes": [4], "trials": 1}
PROJECT_OK = {"gram": {"type": "embeddings", "path": "emb.csv",
                       "kernel": {"family": "gaussian", "bandwidth": 1.0}},
              "mode": "vne_penalized", "lambda": 0.1}
#: a project config of the mode that takes rho, and so no lambda
CONSTRAINED_OK = {"gram": PROJECT_OK["gram"], "mode": "vne_constrained", "rho": 1.5}
GUIDE_OK = {"layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0},
            "n_samples": 4, "schedule": {"kind": "cosine", "steps": 20}}
CONC_OK = {"kernel": {"family": "gaussian", "bandwidth": 0.1}, "m": 8, "trials": 30}
#: the widest spacing of GUIDE_OK's 2 x 2 grid at component_std 0.1: a bounding-box
#: diagonal of sqrt(min(0.1^2, 1) * max float)
WIDEST_GRID = 0.1 * float(np.sqrt(np.finfo(float).max / 2.0))


@pytest.mark.parametrize("command, cfg, key", [
    ("curve", {**CURVE_OK, "source": {"type": "file"}}, "source.path"),
    ("curve", {**CURVE_OK, "source": {"type": "cube_mixture"}}, "source.dimension"),
    ("curve", {**CURVE_OK, "source": {"type": "nope"}}, "source.type"),
    ("curve", {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": "wide"}}, "kernel"),
    ("bias", {"trials": "abc"}, "trials"),
    ("bias", {"sizes": 5}, "sizes"),
    ("project", {**PROJECT_OK, "gram": {"type": "embeddings"}}, "gram.path"),
    ("project", {**PROJECT_OK, "gram": {"type": "nope", "path": "k.gram"}}, "gram.type"),
    ("project", {k: v for k, v in PROJECT_OK.items() if k != "lambda"}, "lambda"),
    ("project", {**PROJECT_OK, "lambda": "big"}, "lambda"),
    ("project", {**PROJECT_OK, "mode": "vne_nope"}, "mode"),
    ("project", {k: v for k, v in CONSTRAINED_OK.items() if k != "rho"}, "rho"),
    ("guide", {**GUIDE_OK, "layout": {"type": "grid"}}, "layout.rows"),
    ("guide", {**GUIDE_OK, "layout": {"type": "hexagon"}}, "layout.type"),
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": 3}}, "layout.centers"),
    ("guide", {**GUIDE_OK, "base_weights": "uniform"}, "base_weights"),
    ("guide", {**GUIDE_OK, "base_weights": {"type": "zipf"}}, "base_weights.type"),
    ("guide", {**GUIDE_OK, "schedule": {"kind": "sigmoid"}}, "schedule.kind"),
    ("guide", {**GUIDE_OK, "eta_schedule": "cosine"}, "eta_schedule"),
    ("guide", {**GUIDE_OK, "bank_policy": "none"}, "bank_policy"),
    ("guide", {**GUIDE_OK, "stochastic": "false"}, "stochastic"),
    ("concentration", {**CONC_OK, "m": "x"}, "m"),
    ("concentration", {"m": 8}, "kernel"),
    # strict numbers: an integer key takes a JSON integer, a float key a finite JSON
    # number, and neither takes a bool or a string
    ("bias", {"trials": 2.7}, "trials"),
    ("bias", {"trials": "2"}, "trials"),
    ("bias", {"trials": 2.0}, "trials"),
    ("bias", {"alphabet_size": 1e300}, "alphabet_size"),
    ("bias", {"seed": True}, "seed"),
    ("bias", {"sizes": [16.9, 32]}, "sizes"),
    ("curve", {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": True}}, "kernel"),
    ("curve", {**CURVE_OK, "source": {"type": "cube_mixture", "dimension": True}},
     "source.dimension"),
    ("project", {**PROJECT_OK, "lambda": True}, "lambda"),
    ("project", {**CONSTRAINED_OK, "rho": "1.5"}, "rho"),
    ("project", {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "kernel": {"family": "gaussian",
                                                                         "bandwidth": "1"}}},
     "gram.kernel"),
    ("project", {**PROJECT_OK, "tol": False}, "tol"),
    ("guide", {**GUIDE_OK, "kernel_bandwidth": True}, "kernel_bandwidth"),
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [1, "2"]]}},
     "layout.centers"),
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [1, 2]],
                                      "weights": [0.5, True]}}, "layout.weights"),
    ("guide", {**GUIDE_OK, "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": True}},
     "layout.spacing"),
    # JSON has no Infinity: each float("inf") below is written as 1e999, which parses to inf
    ("bias", {"trials": float("inf")}, "trials"),
    ("concentration", {**CONC_OK, "delta": float("inf")}, "delta"),
    ("guide", {**GUIDE_OK, "component_std": float("inf")}, "component_std"),
    ("project", {**CONSTRAINED_OK, "vendi_target": float("inf")}, "vendi_target"),  # a deleted key
    ("curve", {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": float("inf")}}, "kernel"),
    # a file names its own format: no config object has a "format" field
    ("curve", {**CURVE_OK, "source": {"type": "file", "path": "e.csv", "format": "xml"}},
     "source.format"),
    ("project", {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "format": 7}}, "gram.format"),
    # a top-level key the command does not declare, a misspelling or a deleted knob, is an error
    ("project", {**PROJECT_OK, "eta": 0.5}, "eta"),
    ("project", {**PROJECT_OK, "mode": "rke_penalized", "gamma": 2.0}, "gamma"),
    ("project", {**CONSTRAINED_OK, "eta": 0.2}, "eta"),
    ("project", {**PROJECT_OK, "max_iter": 10}, "max_iter"),
    ("curve", {**CURVE_OK, "trial": 2}, "trial"),
    ("bias", {"alphabet_size": 8, "sizes": [8], "trial": 2}, "trial"),
    ("guide", {**GUIDE_OK, "apply_evry": 2}, "apply_evry"),
    ("concentration", {**CONC_OK, "trial": 40}, "trial"),
    # an undeclared field of a nested object, at any level, under each of its tags
    ("curve", {**CURVE_OK, "source": {"type": "file", "path": "e.csv", "dimension": 2}},
     "source.dimension"),
    ("curve", {**CURVE_OK, "source": {"type": "cube_mixture", "dimension": 2,
                                      "component_stdd": 0.5}}, "source.component_stdd"),
    ("project", {**PROJECT_OK, "gram": {"type": "gram_file", "path": "k.gram",
                                        "kernel": PROJECT_OK["gram"]["kernel"]}}, "gram.kernel"),
    ("project", {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "fromat": "csv"}}, "gram.fromat"),
    ("curve", {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": 0.1, "bandwith": 0.2}},
     "kernel"),
    ("project", {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "kernel": {
        "family": "gaussian", "bandwidth": 1.0, "bandwith": 2.0}}}, "gram.kernel"),
    ("guide", {**GUIDE_OK, "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0,
                                      "radius": 1.0}}, "layout.radius"),
    ("guide", {**GUIDE_OK, "layout": {"type": "circle", "n_modes": 3, "radius": 2.0,
                                      "spacing": 1.0}}, "layout.spacing"),
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [2, 0]],
                                      "weight": [0.5, 0.5]}}, "layout.weight"),
    ("guide", {**GUIDE_OK, "base_weights": {"type": "uniform", "ratio": 0.5}},
     "base_weights.ratio"),
    ("guide", {**GUIDE_OK, "base_weights": {"type": "geometric", "rate": 0.5}},
     "base_weights.rate"),
    ("guide", {**GUIDE_OK, "base_weights": {"type": "explicit", "values": [1, 1, 1, 1],
                                            "ratio": 0.5}}, "base_weights.ratio"),
    ("guide", {**GUIDE_OK, "schedule": {"kind": "cosine", "step": 20}}, "schedule.step"),
    # each mode declares its one target; vendi_target, once a second spelling of rho, is gone
    ("project", {**PROJECT_OK, "vendi_target": 4.0}, "vendi_target"),
    # the default bandwidth is half the mode spacing, which one mode does not have
    ("guide", {**GUIDE_OK, "layout": {"type": "circle", "n_modes": 1, "radius": 2.0}},
     "kernel_bandwidth"),
    ("guide", {**GUIDE_OK, "layout": {"type": "grid", "rows": 1, "cols": 1, "spacing": 2.0}},
     "kernel_bandwidth"),
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[1, 2]]}},
     "kernel_bandwidth"),
    # the deleted second knob for the default bandwidth
    ("guide", {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [2, 0]],
                                      "bandwidth_hint": 1.0}}, "layout.bandwidth_hint"),
    # a target of another projection mode, or the deleted vendi_target
    ("project", {**PROJECT_OK, "rho": 1.5}, "rho"),
    ("project", {**PROJECT_OK, "mode": "rke_penalized", "rho": 1.5}, "rho"),
    ("project", {**PROJECT_OK, "mode": "rke_penalized", "vendi_target": 4.0}, "vendi_target"),
    ("project", {**CONSTRAINED_OK, "lambda": 0.1}, "lambda"),
    # rho, like every number key, must be finite
    ("project", {**CONSTRAINED_OK, "rho": float("inf")}, "rho"),
])
def test_malformed_config_is_a_usage_error_before_any_output(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace("Infinity", "1e999"))
    out = tmp_path / "out"
    assert run_cli([command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("divkit: usage error:")
    assert repr(key) in err[0]
    assert not out.exists()


def test_record_config_holds_resolved_nested_defaults(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_embeddings("emb.csv", np.random.default_rng(3).normal(size=(6, 2)))
    layout = {"type": "explicit", "centers": [[0, 0], [2, 0]]}
    explicit = {"type": "explicit", "values": [4, 3, 2, 1]}
    runs = {"project": ("project", PROJECT_OK),
            "guide": ("guide", {**GUIDE_OK, "layout": layout, "base_weights": {"type": "geometric"},
                                "schedule": {"kind": "cosine"}}),
            "explicit": ("guide", {**GUIDE_OK, "base_weights": explicit})}
    config = {}
    for name, (command, cfg) in runs.items():
        Path(f"{name}.json").write_text(json.dumps(cfg))
        assert run_cli([command, "--config", f"{name}.json", "--out", name]) == 0
        (record,) = Path(name).glob(f"{command}-*/record.json")
        config[name] = read_record(str(record)).payload["config"]
    assert config["project"]["gram"] == PROJECT_OK["gram"]
    guide = config["guide"]
    assert guide["layout"] == {**layout, "weights": None}
    assert guide["base_weights"] == {"type": "geometric", "ratio": 0.6}
    assert guide["schedule"] == {"kind": "cosine", "steps": 200}
    assert config["explicit"]["base_weights"] == explicit


@pytest.mark.parametrize("command, text, found", [
    ("project", json.dumps(PROJECT_OK)[:-1] + ', "eta": NaN}', "NaN"),
    ("guide", json.dumps({**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [1, 2]]}})
     .replace("[1, 2]", "[1, Infinity]"), "Infinity"),
    ("bias", '{"alphabet_size": 4, "note": "\xff"}', "can't decode byte 0xff"),
])
def test_config_that_is_not_rfc_json_is_a_usage_error(tmp_path, capsys, command, text, found):
    path = tmp_path / "cfg.json"
    path.write_bytes(text.encode("latin-1"))
    out = tmp_path / "out"
    assert run_cli([command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"divkit: usage error: config {path} is not valid JSON")
    assert found in err[0]
    assert not out.exists()


SQUARE = "gaussian bandwidth must have a positive finite square, got"


@pytest.mark.parametrize("args, cfg, code, message", [
    # a scale whose square overflows or underflows fails as a negative one does on its path
    (["score", "x.csv", "--bandwidth", "1e200"], None, 2, f"{SQUARE} 1e+200"),
    (["score", "x.csv", "--bandwidth", "1e-200"], None, 2, f"{SQUARE} 1e-200"),
    (["project"], {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "kernel": {
        "family": "gaussian", "bandwidth": 1e200}}}, 1, f"'gram.kernel': {SQUARE} 1e+200"),
    (["curve"], {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": 1e200}}, 1,
     f"'kernel': {SQUARE} 1e+200"),
    (["concentration"], {**CONC_OK, "kernel": {"family": "gaussian", "bandwidth": 1e-200}}, 1,
     f"'kernel': {SQUARE} 1e-200"),
    (["guide"], {**GUIDE_OK, "kernel_bandwidth": 1e200}, 2, f"{SQUARE} 1e+200"),
    (["guide"], {**GUIDE_OK, "kernel_bandwidth": 1e-200}, 2, f"{SQUARE} 1e-200"),
    (["guide"], {**GUIDE_OK, "component_std": 1e300}, 2,
     "component_std must be > 0 with a finite square, got 1e+300"),
    # a count below 1
    (["bias", "--jobs", "0"], {"alphabet_size": 8, "sizes": [8], "trials": 2}, 1,
     "argument --jobs: expected an integer >= 1, got '0'"),
    (["curve", "--jobs", "-2"], CURVE_OK, 1, "argument --jobs: expected an integer >= 1, got '-2'"),
    (["score", "x.csv", "--kernel", "cosine", "--size-cap", "-5"], None, 1,
     "argument --size-cap: expected an integer >= 1, got '-5'"),
    (["score", "x.csv", "--kernel", "cosine", "--size-cap", "0"], None, 1,
     "argument --size-cap: expected an integer >= 1, got '0'"),
    (["curve"], {**CURVE_OK, "size_cap": -5}, 1, "'size_cap': expected an integer >= 1, got -5"),
    # a bandwidth whose square is subnormal, or whose doubled square overflows
    (["score", "x.csv", "--bandwidth", "1e-160"], None, 2, f"{SQUARE} 1e-160"),
    (["score", "x.csv", "--bandwidth", "1.2e154"], None, 2, f"{SQUARE} 1.2e+154"),
    (["curve"], {**CURVE_OK, "kernel": {"family": "gaussian", "bandwidth": 1e-160}}, 1,
     f"'kernel': {SQUARE} 1e-160"),
    (["concentration"], {**CONC_OK, "kernel": {"family": "gaussian", "bandwidth": 1e-160}}, 1,
     f"'kernel': {SQUARE} 1e-160"),
    (["guide"], {**GUIDE_OK, "kernel_bandwidth": 1e-160}, 2, f"{SQUARE} 1e-160"),
    # the default bandwidth, half of a spacing of 2e-160
    (["guide"], {**GUIDE_OK, "layout": {"type": "explicit", "centers": [[0, 0], [2e-160, 0]]}}, 2,
     SQUARE),
    # the mirror of a gaussian kernel with no bandwidth
    (["score", "x.csv", "--kernel", "cosine", "--bandwidth", "1"], None, 1,
     "the gaussian kernel needs --bandwidth; cosine takes none"),
    # a layout so spread that the sampler's exponents (squared distances over twice a noised
    # variance) or mode_spacing's squares may overflow; the error names the centers
    *[(["guide"], {**GUIDE_OK, "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": s}}, 2,
       f"centers [[{-s / 2!r}, {-s / 2!r}], ") for s in (WIDEST_GRID * (1 + 1e-9), 3e153, 6e153,
                                                         1e154, 1e155, 1e200)],
])
def test_out_of_domain_scale_or_count_fails_before_any_output(tmp_path, monkeypatch, capsys, args,
                                                              cfg, code, message):
    monkeypatch.chdir(tmp_path)
    write_embeddings("x.csv", np.random.default_rng(3).normal(size=(6, 2)))
    if cfg is not None:
        Path("cfg.json").write_text(json.dumps(cfg))
        args = [*args, "--config", "cfg.json", "--out", "out"]
    assert run_cli(args) == code  # an uncaught exception, a traceback, fails the test here
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"divkit: {'usage' if code == 1 else 'data'} error: ")
    assert message in err[0]
    assert captured.out == ""
    assert not Path("out").exists()


def test_bandwidth_with_the_least_normal_square_runs_quietly(tmp_path, monkeypatch, capsys):
    # every exponent overflows to -inf or falls below the floor: the Gram is the identity
    monkeypatch.chdir(tmp_path)
    n = 6
    write_embeddings("x.csv", np.random.default_rng(3).normal(size=(n, 2)))
    assert run_cli(["score", "x.csv", "--bandwidth", "1.6e-154"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    score = json.loads(captured.out)["score"]
    assert score["rke"] == pytest.approx(n, rel=1e-15)
    assert score["log_vendi"] == pytest.approx(np.log(n), rel=1e-15)
    Path("cfg.json").write_text(json.dumps({**GUIDE_OK, "kernel_bandwidth": 1.6e-154}))
    assert run_cli(["guide", "--config", "cfg.json", "--out", "out"]) == 0
    assert capsys.readouterr().err == ""


def test_score_of_rows_near_the_float_limit_runs_quietly(tmp_path, monkeypatch, capsys):
    # the differences of the first two rows overflow: every off-diagonal kernel entry is 0
    monkeypatch.chdir(tmp_path)
    Path("x.csv").write_text("1e308,0\n-1e308,0\n0,1\n")
    assert run_cli(["score", "x.csv", "--bandwidth", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["score"]["rke"] == 3


def test_guide_layout_at_the_float64_spread_bound_runs_quietly(tmp_path, capsys):
    path = tmp_path / "guide.json"
    layout = {"type": "grid", "rows": 2, "cols": 2, "spacing": WIDEST_GRID * (1 - 1e-9)}
    path.write_text(json.dumps({**GUIDE_OK, "layout": layout}))
    assert run_cli(["guide", "--config", path, "--out", tmp_path / "out"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("bandwidth", [0, -1])
def test_guide_non_positive_kernel_bandwidth_is_a_data_error(tmp_path, capsys, bandwidth):
    path = tmp_path / "guide.json"
    path.write_text(json.dumps({**GUIDE_OK, "kernel_bandwidth": bandwidth}))
    out = tmp_path / "out"
    assert run_cli(["guide", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"divkit: data error: gaussian bandwidth must be > 0, got {float(bandwidth)}"]
    assert not out.exists()


@pytest.mark.parametrize("layout", [
    {"type": "grid", "rows": 0, "cols": 2, "spacing": 2.0},
    {"type": "grid", "rows": 2, "cols": -1, "spacing": 2.0},
    {"type": "circle", "n_modes": 0, "radius": 2.0},
    {"type": "circle", "n_modes": -2, "radius": 2.0},
])
def test_guide_layout_without_modes_is_a_data_error(tmp_path, capsys, layout):
    path = tmp_path / "guide.json"
    path.write_text(json.dumps({**GUIDE_OK, "layout": layout}))
    out = tmp_path / "out"
    assert run_cli(["guide", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["divkit: data error: centers must be (m, 2), got shape (0, 2)"]
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("concentration", {**CONC_OK, "trials": 5}, "need at least 30 trials"),
    ("guide", {**GUIDE_OK, "n_samples": 1}, "need at least 2 samples"),
    ("project", {**PROJECT_OK, "gram": {**PROJECT_OK["gram"], "path": "missing.csv"}},
     "missing.csv"),
])
def test_failed_run_removes_the_directories_it_made(tmp_path, monkeypatch, capsys, command, cfg,
                                                    message):
    monkeypatch.chdir(tmp_path)
    made, makedirs = [], os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda path, **kw: made.append(path) or makedirs(path, **kw))
    Path("cfg.json").write_text(json.dumps(cfg))
    assert run_cli([command, "--config", "cfg.json", "--out", "out/nested"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("divkit: data error:") and message in err[0]
    run_dir = made[0]  # os.makedirs calls itself for the missing parents
    assert run_dir.startswith(f"out/nested/{command}-")
    assert not Path("out").exists()

    # directories that were there before the run stay, with their content
    Path(run_dir).mkdir(parents=True)
    Path(run_dir, "keep.txt").write_text("x")
    assert run_cli([command, "--config", "cfg.json", "--out", "out/nested"]) == 2
    assert os.listdir(run_dir) == ["keep.txt"]


@pytest.mark.parametrize("mode", ["vne_penalized", "rke_penalized"])
def test_negative_lambda_is_a_data_error_before_any_output(tmp_path, capsys, mode):
    path = tmp_path / "project.json"
    path.write_text(json.dumps({**PROJECT_OK, "mode": mode, "lambda": -0.5}))
    out = tmp_path / "out"
    assert run_cli(["project", "--config", path, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["divkit: data error: lambda must be finite and >= 0, got -0.5"]
    assert not out.exists()


SCORE_CASES = {
    "gaussian_against": ("a.csv", "b.csv", ["--kernel", "gaussian", "--bandwidth", "1.5"]),
    # cross-vertex entries near 1e-87 and below: the eigensolve flushes them
    "cube_mixture_flushed": ("cube.csv", "cube_b.csv", ["--kernel", "gaussian", "--bandwidth", "0.1"]),
    "cosine_against": ("a.csv", "b.csv", ["--kernel", "cosine"]),  # d < n: the d x d factor
    "cosine_wide": ("wide.csv", "wide_b.csv", ["--kernel", "cosine"]),  # d >= n: the Gram
}

# sha256 of the standard output of each score case above
SCORE_GOLDEN = {
    "gaussian_against": "3ae9b05082954ca1f0123c8370878c836fe2500c9df3a4cf6c7a6ea1b49c4a3a",
    "cube_mixture_flushed": "b962ddc0dede2f79d945337ef2181136734f4d56718a60657779f66c3a2e1d84",
    "cosine_against": "fda98aaef947c4eb0a248339109ff854235051795cac6ee434e335b4ee82d9a4",
    "cosine_wide": "402fb543d91ca2fc902fcc3d4512648a11d9badc5a73460620eee11752d28f8d",
}


def score_runs(tmp_path, monkeypatch) -> dict:
    """The stdout digest of every score case, run from ``tmp_path`` with relative paths."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    write_embeddings("a.csv", rng.normal(size=(60, 5)))
    write_embeddings("b.csv", rng.normal(size=(50, 5)) + 0.5)
    write_embeddings("wide.csv", rng.normal(size=(12, 20)))
    write_embeddings("wide_b.csv", rng.normal(size=(10, 20)) + 0.3)
    cube = CubeMixtureSpec(10, 1e-4)
    write_embeddings("cube.csv", sample_cube_mixture(cube, 200, RunSeed(5)).data)
    write_embeddings("cube_b.csv", sample_cube_mixture(cube, 150, RunSeed(6)).data)
    runs = {}
    for name, (x, y, kernel) in SCORE_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(["score", x, "--against", y, *kernel]) == 0
        runs[name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return runs


def test_score_outputs_are_pinned(tmp_path, monkeypatch):
    assert score_runs(tmp_path, monkeypatch) == SCORE_GOLDEN


GOLDEN_CONFIGS = {
    "bias": ("bias", {"alphabet_size": 16, "sizes": [16, 32], "trials": 2, "seed": 1}),
    "curve": ("curve", {"source": {"type": "cube_mixture", "dimension": 3, "component_std": 1e-3},
                        "kernel": {"family": "gaussian", "bandwidth": 0.5},
                        "sizes": [8, 16], "trials": 2, "seed": 2}),
    "concentration": ("concentration", {"dimension": 3, "component_std": 1e-3,
                                        "kernel": {"family": "gaussian", "bandwidth": 0.5},
                                        "m": 8, "trials": 30, "delta": 0.1, "seed": 3}),
    "vne_constrained": ("project", {**CONSTRAINED_OK, "max_iters": 20}),
    "vne_penalized": ("project", {**PROJECT_OK, "lambda": 1, "max_iters": 50}),
    "rke_penalized": ("project", {**PROJECT_OK, "mode": "rke_penalized", "lambda": 0.5}),
    "grid": ("guide", {**GUIDE_OK, "n_samples": 6, "schedule": {"kind": "cosine", "steps": 12},
                       "seed": 4}),
    "circle": ("guide", {**GUIDE_OK, "layout": {"type": "circle", "n_modes": 3, "radius": 2.0},
                         "n_samples": 6, "schedule": {"kind": "linear_beta", "steps": 12}}),
    "explicit": ("guide", {**GUIDE_OK, "layout": {"type": "explicit",
                                                  "centers": [[0, 0], [2, 0], [0, 2]]},
                           "base_weights": {"type": "geometric", "ratio": 0.5},
                           "n_samples": 6, "schedule": {"kind": "cosine", "steps": 12},
                           "eta_schedule": "linear_decay", "apply_every": 3}),
    "every_k": ("guide", {**GUIDE_OK, "n_samples": 6, "schedule": {"kind": "cosine", "steps": 12},
                          "bank_policy": "every_k_steps", "apply_every": 3, "stochastic": False,
                          "seed": 5}),
}

# (output directory, sha256 of record.json) per config above.  The directory
# name carries the config hash: a change that moves it orphans every cached run
# of that config.  The record digests pin the results as well.
GOLDEN = {
    "bias": ("bias-735572c19946",
               "2e1b55b58034a6d9b9c199adbed64ca1acd8b73f05c17a6b84efd938f3b618e0"),
    "curve": ("curve-55d8f9d135d3",
                "e1b8e6dc65fa1ca98f2512a27cad165df0fffc7239269b6c86e3588b38bda68b"),
    "concentration": ("concentration-7c686229cf3c",
                        "4947d3481e8e542b601886e35c8bf3ba9aa9faadd0f0d947af05874ad5e0a1c8"),
    "vne_constrained": ("project-3614feb61e5b",
                          "6a513e7bcd9a8df5a923591669c0b327fee5a3d725e85653a2f28b3583686106"),
    "vne_penalized": ("project-128e0c20c289",
                        "cb8194b39c1c8b80cb5513288152beea835a3cc0419d4536d718604dcbc6bcc8"),
    "rke_penalized": ("project-514e1cf117f2",
                        "d0b0ae3d33dff14a15691fa58a4df0dec47762f40141be5f4382a269c7e84168"),
    "grid": ("guide-31f0284026f0",
               "ad7360ed342f88cedd6465c00eadf5bc05c6046835374d396c98c20f5f0ddc76"),
    "circle": ("guide-dbf7630810a4",
                 "229856fa36ba22f82978d2ec9fd4429d9b4fef716c2f0a3433634c58d002ede7"),
    "explicit": ("guide-2729c86e80b3",
                   "2e274703dbcaa08fb80ce72c9d654a9f73003b39f44efc97b5047f036944227a"),
    "every_k": ("guide-d57d736e3c58",
                  "81e25d78a1f28359ed3cf10deb3a105e63c2ebd997a08d62505b5e179f8b5baa"),
}


def golden_runs(tmp_path, monkeypatch) -> dict:
    """Run every golden config from ``tmp_path`` with relative paths, so hashes are portable."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(4)
    write_embeddings("emb.csv", np.vstack([rng.normal(size=(12, 3)) * 0.2,
                                           rng.normal(size=(4, 3)) * 0.2 + 6.0]))
    runs = {}
    for name, (command, cfg) in GOLDEN_CONFIGS.items():
        with open(f"{name}.json", "w") as fh:
            json.dump(cfg, fh)
        assert run_cli([command, "--config", f"{name}.json", "--out", name]) == 0
        (record,) = (tmp_path / name).glob("*/record.json")
        runs[name] = (record.parent.name, hashlib.sha256(record.read_bytes()).hexdigest())
    return runs


def test_run_commands_keep_their_config_hashes_and_records(tmp_path, monkeypatch):
    assert golden_runs(tmp_path, monkeypatch) == GOLDEN


def test_no_command_loads_scipy(tmp_path):
    # importing scipy.linalg costs more start-up time than a whole 1000 x 64 score
    # and about 20 MB of resident memory
    rng = np.random.default_rng(8)
    write_embeddings(tmp_path / "a.csv", rng.normal(size=(40, 5)))
    write_embeddings(tmp_path / "b.csv", rng.normal(size=(30, 5)) + 0.5)
    write_embeddings(tmp_path / "emb.csv", rng.normal(size=(16, 3)))
    runs = [["score", "a.csv", "--against", "b.csv", *kernel]
            for kernel in (["--kernel", "gaussian", "--bandwidth", "1.5"], ["--kernel", "cosine"])]
    for name, (command, cfg) in GOLDEN_CONFIGS.items():  # every run command, all three modes
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([command, "--config", f"{name}.json", "--out", name])
    code = (
        "import json, sys, divkit.cli\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    assert divkit.cli.main(args) == 0, args\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
