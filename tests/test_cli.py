import json
import os

import numpy as np
import pytest

import divkit.discrepancy
import divkit.kernels
from divkit.cli import main
from divkit.dataio import EmbeddingSet, load_embeddings, load_record, save_embeddings
from divkit.kernels import cross


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


def test_score_data_error_exit_code(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,nan\n")
    assert run_cli(["score", p, "--kernel", "cosine"]) == 2
    good = tmp_path / "good.csv"
    against = tmp_path / "against_zero_row.csv"
    write_embeddings(good, [[1.0, 2.0], [3.0, 1.0]])
    write_embeddings(against, [[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
    assert run_cli(["score", good, "--against", against, "--kernel", "cosine"]) == 2


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
    rec = load_record(str(next(out.glob("curve-*/record.json"))))
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
    rec = load_record(str(next(out.glob("project-*/record.json"))))
    assert rec.payload["projection"]["vendi_after"] >= rec.payload["projection"]["vendi_before"]


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
                   "max_iters after 3 iterations"]
    rec = load_record(str(next(out.glob("project-*/record.json"))))
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
    rec = load_record(str(next(out.glob("guide-*/record.json"))))
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
    rec = load_record(str(next(out.glob("concentration-*/record.json"))))
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
    rec = load_record(str(next(out.glob("bias-*/record.json"))))
    assert rec.payload["config"]["seed"] == 99


def test_bad_config_usage_error(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("not json")
    assert run_cli(["curve", "--config", cfg]) == 1
    cfg.write_text(json.dumps({"source": {"type": "nope"}, "kernel": {"family": "cosine"}}))
    assert run_cli(["curve", "--config", cfg, "--out", tmp_path / "o"]) == 1
