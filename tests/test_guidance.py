import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.dataio import RunSeed
from divkit.entropy import vendi
from divkit.errors import BadArguments, DataError, EmptyBank
from divkit.guidance import (
    GuidanceConfig,
    MixtureSpec2D,
    NoiseSchedule,
    _generate,
    _noise,
    _reverse,
    _row_scorer,
    _score,
    _step_table,
    _update,
    count_covered_modes,
    geometric_weights,
    irke_gradient,
    run_guided_sampling,
    sample_mixture,
    unguided_trajectories,
)
from divkit.kernels import KernelSpec
from oracles import generate_rowwise, irke_objective, level, noised_log_density

KERNEL = KernelSpec("gaussian", 1.0)


def noise_of(rng, n, steps):
    """The noise of samples 0..n-1 of a run under ``rng``, shape (T+1, n, 2)."""
    return np.stack([_noise(rng, i, steps) for i in range(n)], axis=1)


# -- mixture specs and schedules -------------------------------------------------

def test_grid_layout_centers():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    assert sorted(map(tuple, spec.centers.tolist())) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)
    ]


def test_circle_layout_radius():
    spec = MixtureSpec2D.circle(8, 3.0, 0.1)
    assert np.allclose(np.linalg.norm(spec.centers, axis=1), 3.0)
    assert spec.n_modes == 8


def test_mixture_validation():
    with pytest.raises(DataError):
        MixtureSpec2D(np.zeros((2, 2)), np.array([0.5, 0.5]), 0.1)  # duplicate centers
    for std in (0.0, -1.0, np.inf, np.nan, 1e300):  # 1e300 squared overflows
        with pytest.raises(BadArguments, match=re.escape(f"got {std}")):
            MixtureSpec2D(np.array([[0.0, 0.0]]), np.array([1.0]), std)
    for bad in (np.inf, np.nan):
        with pytest.raises(BadArguments, match=str(bad)):
            MixtureSpec2D(np.array([[bad, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]), 0.1)


@pytest.mark.parametrize("layout, counts", [("grid", (0, 2)), ("grid", (2, -1)),
                                            ("circle", (0,)), ("circle", (-2,))])
def test_layout_without_modes_is_a_data_error(layout, counts):
    with pytest.raises(DataError, match=r"centers must be \(m, 2\), got shape \(0, 2\)"):
        getattr(MixtureSpec2D, layout)(*counts, 1.0, 0.1)


def test_null_weights_are_uniform():
    # the same bits as the uniform array the layouts used to pass in
    explicit = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [5.0, 1.0]])
    for spec in (MixtureSpec2D.grid(3, 5, 1.0, 0.1), MixtureSpec2D.circle(7, 2.0, 0.1),
                 MixtureSpec2D(explicit, None, 0.1)):
        m = spec.n_modes
        uniform = spec.with_weights(np.full(m, 1.0 / m)).weights
        assert spec.weights.tobytes() == uniform.tobytes()
        skewed = spec.with_weights(geometric_weights(m, 0.5))
        assert skewed.with_weights(None).weights.tobytes() == uniform.tobytes()


def test_mode_spacing():
    # half of it is the guide command's default bandwidth: the pinned layouts keep theirs
    assert MixtureSpec2D.grid(2, 2, 2.0, 0.1).mode_spacing / 2 == 1.0
    assert MixtureSpec2D.grid(4, 4, 2.0, 0.1).mode_spacing / 2 == 1.0
    assert MixtureSpec2D.circle(3, 2.0, 0.1).mode_spacing / 2 == 1.7320508075688772
    explicit = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert MixtureSpec2D(explicit, None, 0.1).mode_spacing / 2 == 1.0
    rng = np.random.default_rng(5)
    for _ in range(300):
        rows, cols = rng.integers(1, 9, size=2).tolist()
        spacing = float(rng.uniform(0.01, 10.0))
        if rows * cols > 1:
            got = MixtureSpec2D.grid(rows, cols, spacing, 0.1).mode_spacing
            assert got == pytest.approx(spacing, rel=1e-15, abs=0)
    for n in range(2, 40):
        for radius in (0.3, 2.0, 7.3):
            got = MixtureSpec2D.circle(n, radius, 0.1).mode_spacing
            assert got == pytest.approx(2 * radius * math.sin(math.pi / n), rel=1e-14, abs=0)
    assert MixtureSpec2D.circle(1, 2.0, 0.1).mode_spacing is None
    assert MixtureSpec2D.grid(1, 1, 2.0, 0.1).mode_spacing is None


def test_mode_spacing_builds_no_pairwise_array():
    m = 1000
    spec = MixtureSpec2D(np.random.default_rng(6).normal(size=(m, 2)), None, 0.1)
    tracemalloc.start()
    try:
        spacing = spec.mode_spacing
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m / 10  # an m x m float array would take 8 * m * m bytes
    diff = spec.centers[:, None, :] - spec.centers[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    assert spacing == d[np.triu_indices(m, 1)].min()


def test_schedule_shapes():
    for sched in (NoiseSchedule.linear_beta(50), NoiseSchedule.cosine(50)):
        assert sched.steps == 50
        assert sched.alpha_bar_at(0) == 1.0
        ab = sched.alphas_bar
        assert ab[0] > 0.9 and (np.diff(ab) < 0).all() and ab[-1] > 0.0
    with pytest.raises(BadArguments):
        NoiseSchedule(np.linspace(0.99, 0.5, 5))  # too few steps


def test_geometric_weights():
    w = geometric_weights(4, 0.5)
    assert w.sum() == pytest.approx(1.0)
    assert np.allclose(w[:-1] / w[1:], 2.0)


def test_linear_decay_schedule_direction():
    cfg = GuidanceConfig.linear_decay(0.2, 50, 5, KERNEL)
    assert cfg.eta_t[49] == pytest.approx(0.2)  # first reverse step, t = 50
    assert cfg.eta_t[0] == 0.0                  # final step, t = 1


# -- scores ------------------------------------------------------------------------

def test_score_single_component_linear_form():
    spec = MixtureSpec2D(np.array([[1.0, -2.0]]), np.array([1.0]), 0.3)
    sched = NoiseSchedule.cosine(100)
    for t in (0, 10, 60, 100):
        ab = sched.alpha_bar_at(t)
        var = ab * 0.3**2 + (1 - ab)
        z = np.array([0.7, 0.4])
        expected = -(z - np.sqrt(ab) * spec.centers[0]) / var
        assert np.allclose(_score(z, level(spec, sched, t)), expected, rtol=1e-12)


def test_score_symmetric_midpoint_zero():
    spec = MixtureSpec2D(np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]), 0.2)
    sched = NoiseSchedule.cosine(100)
    score = _score(np.array([0.0, 0.3]), level(spec, sched, 40))
    assert abs(score[0]) < 1e-12


def test_score_matches_log_density_gradient():
    spec = MixtureSpec2D.grid(3, 3, 1.5, 0.15)
    sched = NoiseSchedule.cosine(120)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(300):
        z = rng.normal(size=2) * 2.5
        t = int(rng.integers(0, 121))
        s = _score(z, level(spec, sched, t))
        _, var = np.sqrt(sched.alpha_bar_at(t)), sched.alpha_bar_at(t) * 0.15**2 + 1 - sched.alpha_bar_at(t)
        h = 2e-6 * np.sqrt(var)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (
                noised_log_density(z + e, t, spec, sched)
                - noised_log_density(z - e, t, spec, sched)
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - s) / max(np.linalg.norm(fd), 1e-9))
    assert worst <= 1e-6


# -- reverse steps -------------------------------------------------------------------

def test_ddim_contracts_to_single_mode():
    spec = MixtureSpec2D(np.array([[0.0, 0.0]]), np.array([1.0]), 0.05)
    sched = NoiseSchedule.cosine(200)
    z = np.array([3.0, -2.0])
    for t in range(200, 0, -1):
        z = _reverse(z, level(spec, sched, t), None)
    assert np.linalg.norm(z) < 0.2


def test_ancestral_moments_single_component():
    spec = MixtureSpec2D(np.array([[0.5, -0.3]]), np.array([1.0]), 0.4)
    sched = NoiseSchedule.cosine(200)
    n = 4000
    # the final row equals n per-sample _reverse loops bitwise, as
    # test_batched_step_equals_row_steps and the one-noise-draw property pin
    out = unguided_trajectories(spec, sched, noise_of(RunSeed(7), n, sched.steps))[-1]
    se_mean = 0.4 / np.sqrt(n)
    assert np.abs(out.mean(axis=0) - [0.5, -0.3]).max() <= 3 * se_mean
    se_std = 0.4 / np.sqrt(2 * n)
    assert np.abs(out.std(axis=0, ddof=1) - 0.4).max() <= 3 * se_std + 0.01


def test_reverse_step_reproducible():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(50)

    def run():
        gen = RunSeed(3).generator()
        z = gen.standard_normal(2)
        for t in range(50, 0, -1):
            z = _reverse(z, level(spec, sched, t), gen.standard_normal(2))
        return z

    assert np.array_equal(run(), run())


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 300),
    t=st.integers(1, 200),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
    stochastic=st.booleans(),
)
def test_batched_step_equals_row_steps(m, t, scale, seed, stochastic):
    # the guided pass steps one row in floats, the unguided pass all rows as
    # arrays; the eta=0 coincidence needs each row's bits independent of the batch
    spec = MixtureSpec2D.grid(4, 4, 2.0, 0.1).with_weights(geometric_weights(16, 0.5))
    sched = NoiseSchedule.cosine(200)
    z = np.random.default_rng(seed).normal(size=(m, 2)) * scale
    noise = (np.stack([np.random.default_rng([seed, i]).standard_normal(2) for i in range(m)])
             if stochastic else None)
    step = _step_table(spec, sched)[sched.steps - t]
    batched = _reverse(z, step, noise)
    assert batched.shape == (m, 2)
    scores = _score(z, step)
    row = level(spec, sched, t)  # built on its own, as a one-row step would be
    row_score = _row_scorer(spec.n_modes)
    for i in range(m):
        z0, z1 = z[i].tolist()
        n0, n1 = (np.random.default_rng([seed, i]).standard_normal(2).tolist() if stochastic
                  else (None, None))
        s0, s1 = row_score(z0, z1, row)
        assert scores[i].tobytes() == np.array([s0, s1]).tobytes()
        step_row = [_update(z0, s0, row, n0), _update(z1, s1, row, n1)]
        assert batched[i].tobytes() == np.array(step_row).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(["all_finals", "every_k_steps"]),
    stochastic=st.booleans(),
    apply_every=st.integers(1, 10),
    eta=st.sampled_from([0.0, 0.03, 0.05, 0.5]),
    decay=st.booleans(),
    n=st.integers(2, 8),
    steps=st.integers(10, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_guided_pass_equals_rowwise_reference(policy, stochastic, apply_every, eta, decay, n,
                                              steps, seed):
    spec = MixtureSpec2D.grid(4, 4, 2.0, 0.1).with_weights(geometric_weights(16, 0.5))
    sched = NoiseSchedule.cosine(steps)
    make = GuidanceConfig.linear_decay if decay else GuidanceConfig.constant
    cfg = make(eta, steps, apply_every, KERNEL)
    out, hits = _generate(spec, noise_of(RunSeed(seed), n, steps), sched, cfg, stochastic, policy)
    ref, ref_hits = generate_rowwise(spec, n, sched, cfg, RunSeed(seed), stochastic, policy)
    assert out.tobytes() == ref.tobytes()
    assert hits == ref_hits


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 10**6), steps=st.integers(10, 300))
def test_one_noise_draw_equals_per_step_draws(seed, index, steps):
    # the batched pass pre-draws each sample's noise in one call; that must
    # reproduce the per-step draws of the sample's stream exactly
    stream = RunSeed(seed).child(index)
    gen = stream.generator()
    per_step = np.stack([gen.standard_normal(2) for _ in range(steps + 1)])
    whole = stream.generator().standard_normal(2 * (steps + 1)).reshape(steps + 1, 2)
    assert np.array_equal(whole, per_step)
    assert np.array_equal(_noise(RunSeed(seed), index, steps), per_step)


# -- objective and guidance gradient ----------------------------------------------------

def test_irke_objective_far_and_coincident():
    bank = np.array([[0.0, 0.0]])
    assert irke_objective(np.array([50.0, 0.0]), bank, KERNEL) < 1e-12
    assert irke_objective(np.array([0.0, 0.0]), bank, KERNEL) == pytest.approx(1.0)


def test_irke_objective_equidistant_pair():
    bank = np.array([[-1.0, 0.0], [1.0, 0.0]])
    r = np.sqrt(2.0)
    val = irke_objective(np.array([0.0, 1.0]), bank, KERNEL)
    k = np.exp(-(r**2) / 2.0)
    assert val == pytest.approx(k * k, rel=1e-12)


def test_irke_gradient_empty_bank():
    with pytest.raises(EmptyBank):
        irke_gradient(np.zeros(2), np.empty((0, 2)), KERNEL)


def test_irke_gradient_matches_fd():
    rng = np.random.default_rng(5)
    bank = rng.normal(size=(8, 2))
    for _ in range(20):
        z = rng.normal(size=2) * 1.5
        g = irke_gradient(z, bank, KERNEL)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (irke_objective(z + e, bank, KERNEL) - irke_objective(z - e, bank, KERNEL)) / (2 * h)
            assert abs(fd - g[i]) <= 1e-6 * max(abs(fd), 1e-6)


# a guided step is z - eta * irke_gradient(z, bank, kernel)

def test_guided_step_stationary_at_bank_entry():
    z = np.array([0.7, -0.2])
    assert np.array_equal(z - 0.1 * irke_gradient(z, z[None, :], KERNEL), z)


def test_guided_step_moves_away_from_entry():
    b = np.array([0.0, 0.0])
    z = np.array([0.4, 0.3])
    out = z - 0.05 * irke_gradient(z, b[None, :], KERNEL)
    assert float((out - z) @ (z - b)) > 0.0


def test_guided_step_descends_objective_small_eta():
    rng = np.random.default_rng(11)
    bank = rng.normal(size=(12, 2))
    for _ in range(100):
        z = rng.normal(size=2) * 1.2
        g = irke_gradient(z, bank, KERNEL)
        if np.linalg.norm(g) < 1e-12:
            continue
        before = irke_objective(z, bank, KERNEL)
        eta = 1e-3
        while eta > 1e-9:
            after = irke_objective(z - eta * g, bank, KERNEL)
            if after < before:
                break
            eta /= 2.0
        assert after < before


# -- end-to-end runs -------------------------------------------------------------------

def test_run_deterministic_and_eta_zero_equals_baseline():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(60)
    cfg = GuidanceConfig.constant(0.0, 60, 10, KERNEL)
    rng = RunSeed(42)
    a = run_guided_sampling(spec, spec.weights, 30, sched, cfg, rng)
    b = run_guided_sampling(spec, spec.weights, 30, sched, cfg, rng)
    assert np.array_equal(a.guided.samples.data, b.guided.samples.data)
    # eta == 0: guidance is a bitwise no-op
    assert np.array_equal(a.guided.samples.data, a.unguided.samples.data)
    assert a.guided.rke == a.unguided.rke


@pytest.mark.parametrize(
    "stochastic, policy, empty_steps",
    [(False, "all_finals", 6), (True, "every_k_steps", 1)],
)
def test_eta_zero_equals_baseline_ddim_and_every_k_steps(stochastic, policy, empty_steps):
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(60)
    cfg = GuidanceConfig.constant(0.0, 60, 10, KERNEL)
    res = run_guided_sampling(spec, geometric_weights(4, 0.5), 30, sched, cfg, RunSeed(42),
                              stochastic=stochastic, bank_policy=policy)
    assert np.array_equal(res.guided.samples.data, res.unguided.samples.data)
    assert res.guided.to_payload() == res.unguided.to_payload()
    # only the first sample's cadence steps see an empty bank: all six of
    # them under all_finals, and just the first under every_k_steps
    assert res.empty_bank_steps == empty_steps


def test_run_uniform_base_covers_all_modes():
    # coupon-collector: 600 near-uniform draws miss one of 16 modes with
    # probability around 16 * (15/16)**600 ~ 1e-16
    spec = MixtureSpec2D.grid(4, 4, 2.0, 0.1)
    sched = NoiseSchedule.cosine(120)
    cfg = GuidanceConfig.constant(0.0, 120, 10, KERNEL)
    res = run_guided_sampling(spec, spec.weights, 600, sched, cfg, RunSeed(1))
    assert res.unguided.covered_modes == 16
    assert res.guided.covered_modes == 16


def test_run_bank_policy_sizes():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(60)
    cfg = GuidanceConfig.constant(0.01, 60, 10, KERNEL)
    res = run_guided_sampling(spec, spec.weights, 10, sched, cfg, RunSeed(2))
    assert res.guided.samples.n == 10
    assert res.empty_bank_steps > 0  # first trajectory sees an empty bank


@pytest.mark.parametrize("stochastic", [True, False])
def test_run_draws_each_noise_once_and_keeps_the_unguided_paths(monkeypatch, stochastic):
    from divkit import guidance

    drawn = []
    real = guidance._noise
    monkeypatch.setattr(guidance, "_noise", lambda rng, i, steps: drawn.append(i) or real(rng, i, steps))
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(30)
    cfg = GuidanceConfig.constant(0.05, 30, 5, KERNEL)
    res = run_guided_sampling(spec, geometric_weights(4, 0.5), 6, sched, cfg, RunSeed(8),
                              stochastic=stochastic)
    assert drawn == list(range(6))  # one draw per sample serves both passes
    paths = res.unguided_paths
    assert paths.shape == (31, 6, 2)
    assert paths[-1].tobytes() == res.unguided.samples.data.tobytes()
    base = spec.with_weights(geometric_weights(4, 0.5))
    again = unguided_trajectories(base, sched, noise_of(RunSeed(8), 6, 30), stochastic)
    assert again.tobytes() == paths.tobytes()


def test_unknown_bank_policy_is_a_data_error():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    cfg = GuidanceConfig.constant(0.01, 20, 10, KERNEL)
    with pytest.raises(DataError, match="unknown bank policy 'none'"):
        run_guided_sampling(spec, spec.weights, 4, NoiseSchedule.cosine(20), cfg, RunSeed(2),
                            bank_policy="none")


def test_bank_all_finals_size_equals_completed_samples(monkeypatch):
    from divkit import guidance

    seen = []

    def recording(z, bank, kernel):
        seen.append(bank.copy())
        return irke_gradient(z, bank, kernel)

    monkeypatch.setattr(guidance, "irke_gradient", recording)
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    sched = NoiseSchedule.cosine(40)
    cfg = GuidanceConfig.constant(0.01, 40, 10, KERNEL)
    # each of the 4 scheduled steps of a sample sees the finals before it, oldest first
    out, _ = guidance._generate(spec, noise_of(RunSeed(3), 7, 40), sched, cfg, True, "all_finals")
    assert len(seen) == 6 * 4
    assert all(np.array_equal(bank, out[:i // 4 + 1]) for i, bank in enumerate(seen))
    # every scheduled step adds its guided latent, so the bank grows by one per step
    seen.clear()
    guidance._generate(spec, noise_of(RunSeed(3), 3, 40), sched, cfg, True, "every_k_steps")
    assert [len(bank) for bank in seen] == list(range(1, 3 * 4))


def test_count_covered_modes():
    spec = MixtureSpec2D.grid(2, 2, 2.0, 0.1)
    from divkit.dataio import EmbeddingSet

    samples = EmbeddingSet(spec.centers[:2] + 0.01)
    assert count_covered_modes(samples, spec) == 2


def test_sample_mixture_weights():
    spec = MixtureSpec2D(np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([0.9, 0.1]), 0.01)
    x = sample_mixture(spec, 5000, RunSeed(3))
    frac_far = float((x.data[:, 0] > 5.0).mean())
    assert frac_far == pytest.approx(0.1, abs=0.02)


@pytest.mark.slow
def test_skewed_base_guidance_improves_rke_and_coverage():
    # the diversity rescue this sandbox exists to demonstrate: with a skewed
    # sampler, repulsion raises order-2 diversity and mode coverage
    spec = MixtureSpec2D.grid(4, 4, 1.5, 0.1)
    sched = NoiseSchedule.cosine(150)
    cfg = GuidanceConfig.constant(0.15, 150, 5, KernelSpec("gaussian", 1.5))
    metric = KernelSpec("gaussian", 1.0)
    w = geometric_weights(16, 0.5)
    rke_wins = cov_strict = 0
    for seed in range(5):
        res = run_guided_sampling(spec, w, 600, sched, cfg, RunSeed(2000 + seed))
        rke_wins += vendi(res.guided.samples, metric).rke > vendi(res.unguided.samples, metric).rke
        cov_strict += res.guided.covered_modes > res.unguided.covered_modes
    assert rke_wins >= 4
    assert cov_strict >= 3  # strictly more modes in a majority of seeds


def test_run_single_mode_spreads_and_trades_quality():
    # guidance on an already-unimodal target: diversity up, fit down
    spec = MixtureSpec2D(np.array([[0.0, 0.0]]), np.array([1.0]), 0.2)
    sched = NoiseSchedule.cosine(100)
    cfg = GuidanceConfig.constant(0.3, 100, 5, KernelSpec("gaussian", 0.5))
    res = run_guided_sampling(spec, spec.weights, 300, sched, cfg, RunSeed(9))
    assert res.guided.rke > res.unguided.rke
    assert res.guided.fd_to_target > res.unguided.fd_to_target
