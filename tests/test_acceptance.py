"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.  The
criteria pin their own tolerances; random checks use frozen seeds so the
whole suite is reproducible bit for bit.

Criterion 5b checks the stability constant c_m = log(2m-1)/m + h(1/m)
returned by ``concentration_bound`` against a two-sided closed-form band,
2*log(m)/m <= c_m <= 2*log(e*m)/m, at every integer m in [2, 1e6].  Proof:
log(2m-1) < log 2 + log m < 1 + log m, and
h(1/m) = log(m)/m + ((m-1)/m)*log(1 + 1/(m-1)) <= (1 + log m)/m, so the
sum is below 2*log(e*m)/m; log(2m-1) >= log m and h(1/m) >= log(m)/m give
the lower edge.  An earlier form of 5b claimed c_m <= log(e*m)/m.  That
claim is false for every m >= 2: the lower edge 2*log(m)/m exceeds
(1 + log m)/m once m >= 3, and c_2 = 1.2425 > log(2e)/2 = 0.8466.  It was
replaced by the proved cap, not loosened to fit the program.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from divkit.bias_lab import (
    CubeMixtureSpec,
    DiscreteLawSpec,
    check_concentration,
    check_monotone_logvendi,
    concentration_bound,
    cube_mixture_sampler,
    miller_gap,
    plugin_entropy,
    population_rke_mc,
    run_discrete_bias,
    vendi_curve,
)
from divkit.dataio import EmbeddingSet, RunSeed, save_embeddings
from divkit.discrepancy import kd_fixed_support
from divkit.entropy import WeightVector, rke, vendi, vne_gradient, vne_weighted
from divkit.guidance import (
    GuidanceConfig,
    MixtureSpec2D,
    NoiseSchedule,
    geometric_weights,
    run_guided_sampling,
)
from divkit.kernels import KernelSpec, gram
from divkit.projection import (
    ProjectionConfig,
    project_rke_penalized,
    project_vendi_penalized,
    project_vne,
)
from oracles import cluster_gram, gram_from_values, noised_log_density, noised_mixture_score


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def block_weights(a, m1, m2):
    w = np.empty(m1 + m2)
    w[:m1] = a / m1
    w[m1:] = (1.0 - a) / m2
    return WeightVector(w)


def test_criterion_01_kernel_identity_oracle():
    ok = True
    details = []
    for n in (2, 16, 256):
        x = EmbeddingSet(np.eye(n) * 40.0)
        s = vendi(x, KernelSpec("gaussian", 0.5))
        ok &= abs(s.vendi - n) <= 1e-9 * n and abs(s.rke - n) <= 1e-9 * n
        details.append(f"n={n}: vendi={s.vendi:.12g} rke={s.rke:.12g}")
    same = vendi(EmbeddingSet(np.tile([2.0, -1.0], (16, 1))), KernelSpec("gaussian", 1.0))
    ok &= abs(same.vendi - 1.0) <= 1e-9 and abs(same.rke - 1.0) <= 1e-9
    details.append(f"identical: vendi={same.vendi:.12g} rke={same.rke:.12g}")
    report("1 (kernel identity oracle)", ok, "; ".join(details))


def test_criterion_02_discrete_entropy_bias():
    sizes = [256 * 2**k for k in range(7)] + [20480]
    curve = run_discrete_bias(DiscreteLawSpec(1024), sizes, 10, RunSeed(7))
    increasing = all(b > a for a, b in zip(curve.mean, curve.mean[1:]))

    r, n, trials = 1024, 20480, 10
    rng = RunSeed(8)
    ents = []
    for j in range(trials):
        gen = rng.child(j).generator()
        ents.append(plugin_entropy(np.bincount(gen.integers(0, r, size=n), minlength=r)))
    gap = math.log(r) - float(np.mean(ents))
    predicted = miller_gap(r, n)
    rel = abs(gap - predicted) / predicted
    ok = increasing and rel <= 0.25
    report(
        "2 (discrete entropy bias, r=1024)",
        ok,
        f"mean exp(H) strictly increasing={increasing}; "
        f"gap at n=20480: {gap:.6f} vs Miller {predicted:.6f} (rel {rel:.3f} <= 0.25)",
    )


@pytest.mark.slow
def test_criterion_03_cube_mixture_vendi_curve():
    sizes = [64 * 2**k for k in range(7)]  # 64 .. 4096
    sampler = cube_mixture_sampler(CubeMixtureSpec(10, 1e-4))
    curve = vendi_curve(sampler, sizes, 10, KernelSpec("gaussian", 0.1), RunSeed(11))
    increasing = all(b > a for a, b in zip(curve.mean, curve.mean[1:]))
    bounded = all(m < 1024.0 for m in curve.mean)
    monotone = check_monotone_logvendi(curve)
    ok = increasing and bounded and monotone.passed
    report(
        "3 (cube mixture Vendi curve, d=10)",
        ok,
        f"strictly increasing={increasing}, all < 1024={bounded}, "
        f"monotone log-Vendi check={monotone.passed}; means="
        + ", ".join(f"{m:.1f}" for m in curve.mean),
    )


def test_criterion_04_population_gap():
    spec = CubeMixtureSpec(10, 1e-4)
    sampler = cube_mixture_sampler(spec)
    kern = KernelSpec("gaussian", 0.1)
    est = population_rke_mc(sampler, kern, 1_000_000, RunSeed(2024))
    finite = rke(gram(sampler(4096, RunSeed(2024).child(777)), kern))
    ratio = est.estimate / finite
    # analytic collision oracle: within-cluster k^2 ~ 1, across ~ 0
    oracle = 1024.0
    ok = est.estimate >= 1000.0 and ratio >= 1.2 and abs(est.estimate - oracle) <= 4 * est.stderr
    report(
        "4 (population RKE gap)",
        ok,
        f"population {est.estimate:.1f} +/- {est.stderr:.1f} (oracle {oracle:.0f}) "
        f">= 1000; finite n=4096: {finite:.1f}; ratio {ratio:.3f} >= 1.2",
    )


def test_criterion_05a_concentration_monte_carlo():
    sampler = cube_mixture_sampler(CubeMixtureSpec(8, 1e-4))
    rep = check_concentration(sampler, 500, 100, KernelSpec("gaussian", 0.1), 0.01, RunSeed(5))
    ok = rep.violation_fraction == 0.0 and rep.passed
    report(
        "5a (log-Vendi concentration, m=500)",
        ok,
        f"violations {rep.violation_fraction:.3f} (want 0) with t_delta={rep.t_delta:.4f}",
    )


def test_criterion_05b_stability_constant_cap():
    # Proved band 2*log(m)/m <= c_m <= 2*log(e*m)/m (module docstring).  The
    # cap keeps a margin of at least (1 - log 2)/m and the lower edge one of
    # at least log(3)/m, so no rounding slack is needed.
    ms = range(2, 1_000_001)
    c_m = np.array([concentration_bound(k, 0.01).c_m for k in ms])
    m = np.array(ms, dtype=np.float64)
    cap = 2.0 * np.log(np.e * m) / m
    floor = 2.0 * np.log(m) / m
    above = int((c_m > cap).sum())
    below = int((c_m < floor).sum())
    ok = above == 0 and below == 0
    report(
        "5b (stability constant band 2*log(m)/m <= c_m <= 2*log(e*m)/m)",
        ok,
        f"{above} above the cap and {below} below the floor of {m.size} integers; "
        f"worst m*(cap - c_m) = {(m * (cap - c_m)).min():.4f}, "
        f"worst m*(c_m - floor) = {(m * (c_m - floor)).min():.4f}; "
        f"old cap log(e*m)/m is false: c_2={c_m[0]:.7f} > {math.log(2 * math.e) / 2:.7f}",
    )


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 31))
        d = int(rng.integers(2, 7))
        x = EmbeddingSet(rng.normal(size=(n, d)))
        k = gram(x, KernelSpec("gaussian", 1.5))
        raw = rng.dirichlet(np.full(n, 2.0))
        q = WeightVector((raw + 0.02) / (raw + 0.02).sum())
        g = vne_gradient(k, q)
        direction = rng.normal(size=n)
        direction -= direction.mean()
        direction /= np.linalg.norm(direction)
        h = 1e-6
        fp = vne_weighted(k, WeightVector(q.weights + h * direction))
        fm = vne_weighted(k, WeightVector(q.weights - h * direction))
        fd = (fp - fm) / (2 * h)
        worst = max(worst, abs(float(g @ direction) - fd) / max(abs(fd), 1e-8))
    ok = worst <= 1e-5
    report("6 (entropy gradient vs finite differences)", ok,
           f"max relative error {worst:.3e} <= 1e-5 over 100 random instances")


def test_criterion_07a_identity_kernel_uniform_in_all_modes():
    n = 12
    k = gram_from_values(np.eye(n))
    res_c = project_vne(k, math.log(n), ProjectionConfig())
    res_v = project_vendi_penalized(k, 0.5, ProjectionConfig())
    res_r = project_rke_penalized(k, 0.5, ProjectionConfig())
    devs = [float(np.abs(r.q_star.weights - 1.0 / n).max()) for r in (res_c, res_v, res_r)]
    ok = all(d <= 1e-8 for d in devs)
    report("7a (K=I returns uniform, all modes)", ok,
           "max deviations " + ", ".join(f"{d:.2e}" for d in devs) + " <= 1e-8")


def test_criterion_07b_two_cluster_grid_oracle():
    m1, m2 = 18, 2
    k = cluster_gram([m1, m2], within=0.99, across=0.01)
    q0 = WeightVector.uniform(m1 + m2)
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)

    lam_v = 0.01
    res_v = project_vendi_penalized(
        k, lam_v, ProjectionConfig(max_iters=20_000, tol=1e-10)
    )
    vals = [
        kd_fixed_support(k, block_weights(a, m1, m2), q0)
        - lam_v * vne_weighted(k, block_weights(a, m1, m2))
        for a in grid
    ]
    oracle_v = block_weights(grid[int(np.argmin(vals))], m1, m2)
    dev_v = float(np.abs(res_v.q_star.weights - oracle_v.weights).max())

    from oracles import hadamard_square, inverse_rke_weighted

    lam_r = 0.5
    k2 = hadamard_square(k)
    res_r = project_rke_penalized(
        k, lam_r, ProjectionConfig(max_iters=20_000, tol=1e-12)
    )
    vals = [
        kd_fixed_support(k, block_weights(a, m1, m2), q0)
        + lam_r * inverse_rke_weighted(k2, block_weights(a, m1, m2))
        for a in grid
    ]
    oracle_r = block_weights(grid[int(np.argmin(vals))], m1, m2)
    dev_r = float(np.abs(res_r.q_star.weights - oracle_r.weights).max())

    ok = dev_v <= 1e-3 and dev_r <= 1e-3
    report("7b (two-cluster grid-search oracle)", ok,
           f"coordinate deviations: vendi-penalized {dev_v:.2e}, rke-penalized {dev_r:.2e} <= 1e-3")


def test_criterion_07c_projection_never_hurts_feasible_targets():
    rng = np.random.default_rng(2025)
    checked = converged = 0
    all_contract = True
    while checked < 20:
        n_clusters = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(2, 8, size=n_clusters)]
        k = cluster_gram(sizes, within=0.97, across=0.03)
        n = k.n
        p = WeightVector(np.concatenate([np.full(m, 1.0 / (n_clusters * m)) for m in sizes]))
        q0 = WeightVector.uniform(n)
        h_p = vne_weighted(k, p)
        h_0 = vne_weighted(k, q0)
        if h_p <= h_0 + 1e-4:
            continue
        checked += 1
        rho = h_0 + 0.7 * (h_p - h_0)
        res = project_vne(k, rho, ProjectionConfig(max_iters=30_000))
        if res.status != "converged":
            continue
        converged += 1
        if kd_fixed_support(k, p, res.q_star) > kd_fixed_support(k, p, q0) + 1e-8:
            all_contract = False
    ok = converged >= 15 and all_contract
    report("7c (projection toward feasible targets)", ok,
           f"{converged}/20 converged; kd(p, q*) <= kd(p, q0) + 1e-8 on all converged: {all_contract}")


def test_criterion_08_projected_vendi_direction():
    k = cluster_gram([128, 64, 32, 16, 8, 4, 2, 1])
    res = project_vendi_penalized(k, 0.01, ProjectionConfig())
    ok = (
        res.vendi_after > res.vendi_before
        and res.rke_after > res.rke_before
        and res.kd_to_uniform <= 0.05
    )
    report(
        "8 (projected-Vendi direction, lambda=0.01)",
        ok,
        f"vendi {res.vendi_before:.3f}->{res.vendi_after:.3f}, "
        f"rke {res.rke_before:.3f}->{res.rke_after:.3f}, "
        f"kd_to_uniform {res.kd_to_uniform:.4f} <= 0.05",
    )


@pytest.mark.slow
def test_criterion_09_guidance_diversity_rescue():
    spec = MixtureSpec2D.grid(4, 4, 2.0, 0.1)
    sched = NoiseSchedule.cosine(200)
    cfg = GuidanceConfig.constant(0.03, 200, 10, KernelSpec("gaussian", 2.0))
    metric = KernelSpec("gaussian", 1.0)
    weights = geometric_weights(16, 0.5)
    wins = 0
    lines = []
    for seed in range(5):
        res = run_guided_sampling(spec, weights, 1000, sched, cfg, RunSeed(1000 + seed))
        g, u = res.guided, res.unguided
        g_rke, u_rke = (vendi(side.samples, metric).rke for side in (g, u))  # metric kernel
        win = g_rke > u_rke and g.covered_modes >= u.covered_modes
        wins += win
        lines.append(f"seed {seed}: rke {u_rke:.2f}->{g_rke:.2f} cov {u.covered_modes}->{g.covered_modes}")

    # score oracle at the criterion's mixture
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z = rng.normal(size=2) * 3.0
        t = int(rng.integers(0, 201))
        ab = sched.alpha_bar_at(t)
        h = 2e-6 * math.sqrt(ab * 0.01 + (1 - ab))
        s = noised_mixture_score(z, t, spec, sched)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (
                noised_log_density(z + e, t, spec, sched)
                - noised_log_density(z - e, t, spec, sched)
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - s) / max(np.linalg.norm(fd), 1e-9))

    ok = wins >= 4 and worst <= 1e-6
    report("9 (inverse-RKE guidance, eta=0.03 every 10)", ok,
           f"{wins}/5 seeds improved ({'; '.join(lines)}); score FD error {worst:.2e} <= 1e-6")


@pytest.mark.slow
def test_criterion_10_cli_determinism(tmp_path):
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src) + os.pathsep + env.get("PYTHONPATH", "")

    emb = tmp_path / "emb.csv"
    rng = np.random.default_rng(4)
    data = np.vstack([rng.normal(size=(12, 3)) * 0.2, rng.normal(size=(4, 3)) * 0.2 + 6.0])
    save_embeddings(EmbeddingSet(data), str(emb), "csv")

    configs = {
        "bias": {"alphabet_size": 64, "sizes": [64, 256, 1024, 4096], "trials": 10, "seed": 3},
        "curve": {
            "source": {"type": "cube_mixture", "dimension": 6, "component_std": 1e-4},
            "kernel": {"family": "gaussian", "bandwidth": 0.1},
            "sizes": [16, 32, 64], "trials": 3, "seed": 3,
        },
        "project": {
            "gram": {"type": "embeddings", "path": str(emb),
                     "kernel": {"family": "gaussian", "bandwidth": 1.0}},
            "mode": "vne_penalized", "lambda": 0.01,
        },
        "guide": {
            "layout": {"type": "grid", "rows": 2, "cols": 2, "spacing": 2.0},
            "component_std": 0.1, "base_weights": {"type": "geometric", "ratio": 0.5},
            "n_samples": 16, "schedule": {"kind": "cosine", "steps": 40},
            "eta": 0.03, "apply_every": 10, "seed": 3,
        },
        "concentration": {
            "dimension": 4, "component_std": 1e-3,
            "kernel": {"family": "gaussian", "bandwidth": 0.1},
            "m": 32, "trials": 30, "delta": 0.05, "seed": 3,
        },
    }
    ok = True
    details = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run in ("a", "b"):
            out_dir = tmp_path / f"{command}_{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "divkit.cli", command,
                 "--config", str(cfg_path), "--out", str(out_dir)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, f"{command} run {run} failed: {proc.stderr}"
            blobs = {
                p.name: p.read_bytes()
                for p in sorted(out_dir.glob(f"{command}-*/*"))
            }
            outputs.append(blobs)
        identical = outputs[0] == outputs[1] and len(outputs[0]) > 0
        ok &= identical
        details.append(f"{command}: {'byte-identical' if identical else 'MISMATCH'}")
    report("10 (CLI determinism)", ok, "; ".join(details))
