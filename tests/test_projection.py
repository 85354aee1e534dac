import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import divkit.projection

from divkit.dataio import EmbeddingSet, write_matrix_container
from divkit.discrepancy import kd_fixed_support
from divkit.entropy import (
    WeightVector,
    _spectrum,
    _vne_hessian,
    vne_gradient,
    vne_weighted,
    weighted_gram,
)
from divkit.errors import BadArguments
from divkit.kernels import KernelSpec, gram, load_gram
from divkit.projection import (
    _NEWTON_WINDOW,
    ProjectionConfig,
    _border,
    _drop,
    _duplicate_rows,
    _kd_and_grad,
    _pivoted_cholesky,
    _Point,
    eg_step,
    project_rke_penalized,
    project_vendi_penalized,
    project_vne,
)
from oracles import (
    border_factor,
    cluster_gram,
    drop_factor,
    duplicate_rows,
    gram_from_values,
    hadamard_square,
    inverse_rke_weighted,
    live_vne_gradient,
    vne_hessian,
)


def two_block_gram(m1, m2, within=0.99, across=0.01):
    n = m1 + m2
    k = np.full((n, n), across)
    k[:m1, :m1] = within
    k[m1:, m1:] = within
    np.fill_diagonal(k, 1.0)
    return gram_from_values(k)


def block_weights(a, m1, m2):
    """Within-cluster-uniform weights: mass a on the first cluster."""
    w = np.empty(m1 + m2)
    w[:m1] = a / m1
    w[m1:] = (1.0 - a) / m2
    return WeightVector(w)


# -- exponentiated gradient step ------------------------------------------------

def test_eg_step_constant_gradient_no_move():
    q = WeightVector(np.array([0.5, 0.3, 0.2]))
    out = eg_step(q, np.full(3, 7.3), eta=0.5)
    assert np.abs(out.weights - q.weights).max() < 1e-15


def test_eg_step_vanishing_eta():
    q = WeightVector(np.array([0.4, 0.6]))
    out = eg_step(q, np.array([1.0, -2.0]), eta=1e-14)
    assert np.abs(out.weights - q.weights).max() < 1e-12


def test_eg_step_saturates_toward_low_gradient():
    q = WeightVector(np.array([0.5, 0.5]))
    out = eg_step(q, np.array([0.0, 1e4]), eta=1.0)
    assert out.weights[0] > 1.0 - 1e-12
    assert out.weights[1] < 1e-12


def test_eg_step_zeros_stay_zero():
    q = WeightVector(np.array([0.5, 0.5, 0.0]))
    out = eg_step(q, np.array([1.0, -1.0, -50.0]), eta=1.0)
    assert out.weights[2] == 0.0


def test_eg_step_overflow_guarded():
    q = WeightVector(np.array([0.5, 0.5]))
    out = eg_step(q, np.array([-1e6, 1e6]), eta=10.0)
    assert np.isfinite(out.weights).all()
    assert out.weights.sum() == pytest.approx(1.0)


# -- constrained mode -------------------------------------------------------------

def test_project_vne_identity_kernel_full_entropy_target():
    n = 8
    k = gram_from_values(np.eye(n))
    cfg = ProjectionConfig()
    res = project_vne(k, rho=np.log(n), cfg=cfg)
    assert res.status == "converged"
    assert np.abs(res.q_star.weights - 1.0 / n).max() < 1e-8
    assert res.kd_to_uniform == pytest.approx(0.0, abs=1e-12)


def test_project_vne_inactive_constraint_returns_uniform():
    k = two_block_gram(6, 6)
    cfg = ProjectionConfig()
    h_uniform = vne_weighted(k, WeightVector.uniform(12))
    res = project_vne(k, rho=h_uniform * 0.5, cfg=cfg)
    assert res.status == "converged"
    assert res.iterations == 0
    assert np.array_equal(res.q_star.weights, np.full(12, 1.0 / 12))


def test_project_vne_infeasible_above_log_n():
    k = two_block_gram(4, 4)
    cfg = ProjectionConfig()
    res = project_vne(k, rho=np.log(8) + 0.5, cfg=cfg)
    assert res.status == "infeasible"


def test_project_vne_stops_infeasible_where_the_violation_stagnates():
    # rho = 2.0 is below log 10, so the solve starts; the violation then stops shrinking
    # while the multiplier climbs past its ceiling
    k = gram(EmbeddingSet(np.random.default_rng(0).normal(size=(10, 3))), KernelSpec("gaussian", 1.0))
    cfg = ProjectionConfig()
    res = project_vne(k, 2.0, cfg)
    assert res.status == "infeasible"
    assert res.iterations < cfg.max_iters
    assert res.dual_trace[-1] > divkit.projection._LAMBDA_CEILING
    assert res.entropy_trace[-1] < 2.0


def test_project_vne_two_block_grid_oracle():
    m1, m2 = 18, 2
    k = two_block_gram(m1, m2)
    rho = 0.95 * np.log(2.0)
    cfg = ProjectionConfig(max_iters=20_000)
    res = project_vne(k, rho, cfg)
    assert res.status == "converged"
    assert res.entropy_trace[-1] >= rho - cfg.tol
    # mass moves toward the minority cluster
    assert res.q_star.weights[m1:].sum() > m2 / (m1 + m2)

    # dense grid search over the within-cluster-uniform family
    q0 = WeightVector.uniform(m1 + m2)
    best = None
    for a in np.arange(0.0, 1.0 + 1e-9, 1e-4):
        q = block_weights(a, m1, m2)
        if vne_weighted(k, q) >= rho:
            kd = kd_fixed_support(k, q, q0)
            if best is None or kd < best[1]:
                best = (a, kd)
    oracle = block_weights(best[0], m1, m2)
    assert np.abs(res.q_star.weights - oracle.weights).max() < 1e-3


# -- penalized modes ---------------------------------------------------------------

def test_vendi_penalized_identity_kernel_stays_uniform():
    n = 10
    k = gram_from_values(np.eye(n))
    res = project_vendi_penalized(k, 0.5, ProjectionConfig())
    assert res.status == "converged"
    assert np.abs(res.q_star.weights - 1.0 / n).max() < 1e-8


def test_vendi_penalized_tiny_lambda_stays_near_uniform():
    k = two_block_gram(8, 4)
    res = project_vendi_penalized(k, 1e-9, ProjectionConfig())
    assert np.abs(res.q_star.weights - 1.0 / 12).max() < 1e-6


def test_vendi_penalized_two_block_grid_oracle():
    m1, m2 = 18, 2
    k = two_block_gram(m1, m2)
    lam = 0.01
    res = project_vendi_penalized(k, lam, ProjectionConfig(max_iters=20_000, tol=1e-10))
    assert res.status == "converged"
    q0 = WeightVector.uniform(m1 + m2)

    def objective(a):
        q = block_weights(a, m1, m2)
        return kd_fixed_support(k, q, q0) - lam * vne_weighted(k, q)

    grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    a_star = grid[int(np.argmin([objective(a) for a in grid]))]
    oracle = block_weights(a_star, m1, m2)
    assert np.abs(res.q_star.weights - oracle.weights).max() < 1e-3
    assert res.vendi_after > res.vendi_before
    assert res.kd_to_uniform > 0.0


def test_vendi_penalized_guarantees():
    k = two_block_gram(12, 3)
    res = project_vendi_penalized(k, 0.05, ProjectionConfig())
    h0 = vne_weighted(k, WeightVector.uniform(15))
    assert vne_weighted(k, res.q_star) >= h0 - 1e-9
    diffs = np.diff(res.objective_trace)
    assert (diffs <= 1e-12).all()


def test_rke_penalized_lambda_zero_identity():
    k = two_block_gram(5, 5)
    res = project_rke_penalized(k, 0.0, ProjectionConfig())
    assert np.abs(res.q_star.weights - 0.1).max() < 1e-10


def test_rke_penalized_identity_kernel_uniform():
    n = 7
    k = gram_from_values(np.eye(n))
    res = project_rke_penalized(k, 3.0, ProjectionConfig())
    assert np.abs(res.q_star.weights - 1.0 / n).max() < 1e-8


def test_rke_penalized_duplicate_pair_grid_oracle():
    # one duplicated pair (similarity 0.999) and one distant singleton
    k = gram_from_values(np.array([
        [1.0, 0.999, 0.001],
        [0.999, 1.0, 0.001],
        [0.001, 0.001, 1.0],
    ]))
    lam = 1.0
    res = project_rke_penalized(k, lam, ProjectionConfig(max_iters=20_000, tol=1e-12))
    q = res.q_star.weights
    assert q[0] < q[2] and q[1] < q[2]

    # the objective kd_fixed_support(k, c, q0) + lam * inverse_rke_weighted(k2, c)
    # on every grid point c at once, rows normalized as WeightVector does
    w1 = np.arange(0.0, 1.0001, 1e-3)
    w2 = [np.arange(0.0, 1.0001 - a, 1e-3) for a in w1]
    w1 = np.repeat(w1, [len(b) for b in w2])
    w2 = np.concatenate(w2)
    cand = np.stack([w1, w2, np.maximum(1.0 - w1 - w2, 0.0)], axis=1)
    cand /= cand.sum(axis=1, keepdims=True)
    diff = cand - WeightVector.uniform(3).weights
    kd = np.maximum(np.einsum("ij,jk,ik->i", diff, k.values, diff), 0.0)
    k2 = hadamard_square(k).values
    val = kd + lam * np.einsum("ij,jk,ik->i", cand, k2, cand)
    assert np.abs(q - cand[np.argmin(val)]).max() < 2e-3


def test_rke_penalized_rke_improves_on_imbalanced_gram():
    k = two_block_gram(16, 4)
    res = project_rke_penalized(k, 0.5, ProjectionConfig())
    assert res.rke_after > res.rke_before
    diffs = np.diff(res.objective_trace)
    assert (diffs <= 1e-12).all()


# -- shared invariants ---------------------------------------------------------------

def random_cluster_gram(seed, n_clusters=3):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(2, 8, size=n_clusters)
    rows = []
    for c, m in enumerate(sizes):
        center = np.zeros(4)
        center[c % 4] = 6.0 * (c + 1)
        rows.extend(center + rng.normal(size=(int(m), 4)) * 0.3)
    x = EmbeddingSet(np.asarray(rows))
    return gram(x, KernelSpec("gaussian", 2.0)), np.asarray(sizes)


def test_convexity_probe_along_segments():
    k, _ = random_cluster_gram(0)
    n = k.n
    k2 = hadamard_square(k)
    q0 = WeightVector.uniform(n)
    rng = np.random.default_rng(1)
    lam = 0.3
    for _ in range(20):
        qa = WeightVector(rng.dirichlet(np.ones(n)))
        qb = WeightVector(rng.dirichlet(np.ones(n)))
        mid = WeightVector((qa.weights + qb.weights) / 2.0)

        def rke_obj(q):
            return kd_fixed_support(k, q, q0) + lam * inverse_rke_weighted(k2, q)

        def vendi_obj(q):
            return kd_fixed_support(k, q, q0) - lam * vne_weighted(k, q)

        assert rke_obj(mid) <= (rke_obj(qa) + rke_obj(qb)) / 2.0 + 1e-10
        assert vendi_obj(mid) <= (vendi_obj(qa) + vendi_obj(qb)) / 2.0 + 1e-10


def test_weights_remain_simplex_and_nonnegative():
    k, _ = random_cluster_gram(7)
    for res in (
        project_vendi_penalized(k, 0.02, ProjectionConfig()),
        project_rke_penalized(k, 0.5, ProjectionConfig()),
    ):
        assert res.q_star.weights.min() >= 0.0
        assert res.q_star.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.kd_to_uniform == pytest.approx(
            kd_fixed_support(k, res.q_star, WeightVector.uniform(k.n)), abs=1e-10
        )


@pytest.mark.slow
def test_feasible_target_projection_direction():
    # a target p inside the entropy superlevel set never gets farther after
    # projecting the uniform weights onto that set
    hits = 0
    for seed in range(8):
        k, sizes = random_cluster_gram(seed)
        n = k.n
        # cluster-balancing weights have higher entropy than uniform here
        p_w = np.concatenate([np.full(m, 1.0 / (len(sizes) * m)) for m in sizes])
        p = WeightVector(p_w)
        q0 = WeightVector.uniform(n)
        h_p = vne_weighted(k, p)
        h_0 = vne_weighted(k, q0)
        if h_p <= h_0 + 1e-6:
            continue
        rho = h_0 + 0.7 * (h_p - h_0)
        cfg = ProjectionConfig(max_iters=30_000)
        res = project_vne(k, rho, cfg)
        if res.status != "converged":
            continue
        hits += 1
        assert kd_fixed_support(k, p, res.q_star) <= kd_fixed_support(k, p, q0) + 1e-8
    assert hits >= 5


def test_projection_config_validation():
    with pytest.raises(BadArguments):
        ProjectionConfig(tol=0.0)
    with pytest.raises(BadArguments):
        project_vendi_penalized(
            gram_from_values(np.eye(3)), -0.1, ProjectionConfig()
        )


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("knob", ["tol"])
def test_projection_config_rejects_non_finite_knobs(knob, value):
    with pytest.raises(BadArguments, match="finite"):
        ProjectionConfig(**{knob: value})


@pytest.mark.parametrize("lam", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [project_vendi_penalized, project_rke_penalized])
def test_penalized_solvers_reject_non_finite_lambda_before_solving(monkeypatch, solve, lam):
    for owner, name in ((np.linalg, "eigh"), (divkit.projection, "_pivoted_cholesky")):
        monkeypatch.setattr(owner, name, mock.Mock(side_effect=AssertionError("solve started")))
    with pytest.raises(BadArguments, match="lambda must be finite"):
        solve(_cluster_gram(), lam, ProjectionConfig())


def _cluster_gram_points(seed=4):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(size=(14, 3)) * 0.3, rng.normal(size=(6, 3)) * 0.3 + 3.0])


def _cluster_gram(seed=4):
    return gram(EmbeddingSet(_cluster_gram_points(seed)), KernelSpec("gaussian", 1.0))


def _counting(monkeypatch, counts, owner, name):
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)


def _solve(mode, k, rho, cfg):
    """vne_constrained to the entropy target ``rho``; the penalized modes at lambda 0.05."""
    if mode == "vne_constrained":
        return project_vne(k, rho, cfg)
    solve = project_vendi_penalized if mode == "vne_penalized" else project_rke_penalized
    return solve(k, 0.05, cfg)


@pytest.mark.parametrize("mode", ["vne_penalized", "vne_constrained", "rke_penalized"])
def test_penalized_modes_solve_each_evaluated_point_once(monkeypatch, mode):
    k = _cluster_gram()
    rho = vne_weighted(k, WeightVector.uniform(k.n)) + 0.05
    counts = {}
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (divkit.projection, "eg_step"), (divkit.projection, "_spectrum")):
        _counting(monkeypatch, counts, owner, name)
    cfg = ProjectionConfig(max_iters=60)
    res = _solve(mode, k, rho, cfg)
    assert len(res.entropy_trace) == len(res.objective_trace) == res.iterations + 1
    # the summaries reuse the solver's own evaluations: rke_penalized's two
    # Vendi summaries are the only eigvalsh calls
    assert counts.get("eigvalsh", 0) == (2 if mode == "rke_penalized" else 0)
    if mode != "rke_penalized":
        # q0, each Newton candidate and each EG candidate that survives the
        # tangent screen are one eigh each; the gradients, the Hessian
        # products and the next step reuse those eigenpairs
        survivors = counts["_spectrum"] - 1
        assert counts["eigh"] == 1 + survivors
        assert res.iterations <= survivors
        if mode == "vne_constrained":
            assert survivors < counts["eg_step"]
    else:
        # no eigensolve inside the active-set loop; the support changed and
        # the stop is certified by the Frank-Wolfe gap
        assert counts.get("eigh", 0) == 0
        assert res.iterations >= 1 and (res.q_star.weights == 0.0).any()
        assert res.status == "converged" and res.gap <= cfg.tol


@pytest.mark.parametrize("mode", ["vne_penalized", "vne_constrained", "rke_penalized"])
def test_summaries_are_the_solvers_own_evaluations(mode):
    k = _cluster_gram()
    rho = vne_weighted(k, WeightVector.uniform(k.n)) + 0.05
    cfg = ProjectionConfig(max_iters=60)
    res = _solve(mode, k, rho, cfg)
    first, last = math.exp(res.entropy_trace[0]), math.exp(res.entropy_trace[-1])
    if mode == "rke_penalized":
        # the trace holds log(1 / q^T Ktilde q): exp of it rounds once more
        assert res.rke_before == pytest.approx(first, rel=1e-15, abs=0.0)
        assert res.rke_after == pytest.approx(last, rel=1e-15, abs=0.0)
    else:
        assert res.vendi_before == first
        if mode == "vne_penalized":  # vne_constrained may return an earlier incumbent
            assert res.vendi_after == last
    # the summaries agree with fresh solves of the same weights
    k2 = hadamard_square(k)
    for q, vendi, rke in ((WeightVector.uniform(k.n), res.vendi_before, res.rke_before),
                          (res.q_star, res.vendi_after, res.rke_after)):
        assert vendi == pytest.approx(np.exp(vne_weighted(k, q)), rel=1e-13)
        assert rke == pytest.approx(1.0 / inverse_rke_weighted(k2, q), rel=1e-13)


def _clamped_gram():
    # three tight clusters: A(q) has eigenvalues far under SPECTRAL_FLOOR
    rng = np.random.default_rng(5)
    centers = np.repeat(np.eye(3) * 2.0, [6, 5, 4], axis=0)
    return gram(EmbeddingSet(centers + rng.normal(size=(15, 3)) * 1e-7), KernelSpec("gaussian", 1.0))


@pytest.mark.parametrize("clamped", [False, True])
def test_tangent_screen_changes_no_iterate(monkeypatch, clamped):
    k = _clamped_gram() if clamped else _cluster_gram()
    rho = vne_weighted(k, WeightVector.uniform(k.n)) + 0.05

    def solve():
        counts = {}
        _counting(monkeypatch, counts, divkit.projection, "_spectrum")
        res = project_vne(k, rho, ProjectionConfig(max_iters=150))
        monkeypatch.undo()
        return res, counts["_spectrum"]

    slacks = []
    real = divkit.projection._screen_slack
    monkeypatch.setattr(divkit.projection, "_screen_slack",
                        lambda at: slacks.append(real(at)) or slacks[-1])
    screened, solves = solve()
    monkeypatch.setattr(divkit.projection, "_screen_slack", lambda at: None)
    plain, plain_solves = solve()
    assert np.array_equal(screened.q_star.weights, plain.q_star.weights)
    for field in ("objective_trace", "entropy_trace", "dual_trace", "status", "iterations"):
        assert getattr(screened, field) == getattr(plain, field)
    if clamped:
        # the spectral clamp is active at every iterate: the screen stands down
        assert slacks and all(s is None for s in slacks)
        assert solves == plain_solves
    else:
        assert all(s is not None for s in slacks)
        assert solves < plain_solves


def _benchmark_family_gram(n=200, seed=2, jitter=None):
    x = np.random.default_rng([seed, n]).standard_normal((n, 8))
    if jitter is not None:
        x = x + 0.01 * np.random.default_rng(jitter).standard_normal((n, 8))
    return gram(EmbeddingSet(x), KernelSpec("gaussian", 2.0))


def _rke_objective(k, lam, w):
    diff = w - 1.0 / k.n
    return float(diff @ k.values @ diff + lam * w @ hadamard_square(k).values @ w)


@pytest.mark.parametrize("jitter", [None, 11])
def test_rke_penalized_certified_on_benchmark_family(jitter):
    k = _benchmark_family_gram(jitter=jitter)
    cfg = ProjectionConfig()
    res = project_rke_penalized(k, 0.5, cfg)
    q = res.q_star.weights
    g = 2.0 * k.values @ (q - 1.0 / k.n) + 2.0 * 0.5 * hadamard_square(k).values @ q
    assert res.status == "converged"
    assert res.gap <= cfg.tol and abs(float(g @ q - g.min()) - res.gap) <= 1e-12
    assert res.objective_trace[-1] == pytest.approx(_rke_objective(k, 0.5, q), rel=1e-12)
    assert "gap" not in res.to_payload()


def test_rke_penalized_exact_duplicates_share_weight():
    x = _cluster_gram_points()
    k = gram(EmbeddingSet(np.vstack([x, x[:4]])), KernelSpec("gaussian", 1.0))
    res = project_rke_penalized(k, 0.5, ProjectionConfig())
    assert res.status == "converged" and res.gap <= 1e-8
    q = res.q_star.weights
    assert np.array_equal(q[:4], q[-4:])


def test_rke_penalized_lambda_zero_returns_uniform_at_once():
    # lambda = 0 and a singular K: q0 is already optimal
    x = np.random.default_rng(8).normal(size=(12, 2))
    k = gram(EmbeddingSet(x), KernelSpec("cosine"))
    res = project_rke_penalized(k, 0.0, ProjectionConfig())
    assert res.status == "converged" and res.iterations == 0
    assert np.abs(res.q_star.weights - 1.0 / 12).max() < 1e-15


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), d=st.integers(1, 5), lam=st.floats(0.0, 5.0),
       bandwidth=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
def test_rke_penalized_certificate_property(n, d, lam, bandwidth, seed):
    rng = np.random.default_rng(seed)
    k = gram(EmbeddingSet(rng.normal(size=(n, d))), KernelSpec("gaussian", bandwidth))
    _assert_rke_certified(k, lam, rng)


def _assert_rke_certified(k, lam, rng):
    """Converged, a non-increasing trace, and no Dirichlet point beats q* by more than its gap."""
    cfg = ProjectionConfig()
    res = project_rke_penalized(k, lam, cfg)
    q = res.q_star.weights
    assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.status == "converged" and res.gap <= cfg.tol
    assert (np.diff(res.objective_trace) <= 0.0).all()
    best = _rke_objective(k, lam, q)
    for p in rng.dirichlet(np.full(k.n, 0.5), size=20):
        assert best <= _rke_objective(k, lam, p) + res.gap + 1e-12


def _cosine_gram(n, d, seed):
    # K = U U^T has rank d, so G = K + lam K o K + 1 1^T has rank at most
    # d + d (d + 1) / 2 + 1 and is singular for larger n
    return gram(EmbeddingSet(np.random.default_rng(seed).normal(size=(n, d))), KernelSpec("cosine"))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 40), d=st.integers(1, 3), lam=st.floats(0.0, 5.0),
       seed=st.integers(0, 2**32 - 1))
def test_rke_penalized_certificate_property_on_singular_cosine_grams(n, d, lam, seed):
    _assert_rke_certified(_cosine_gram(n, d, seed), lam, np.random.default_rng([seed, 1]))


def test_singular_cosine_gram_takes_every_dependent_index_path(monkeypatch):
    # a pivoted start that stops short, refused borders and drops, in one solve
    seen = {"rank": None, "refused": 0, "drops": 0}

    def pivoted_cholesky(row, diag, tiny):
        c, rank, perm = _pivoted_cholesky(row, diag, tiny)
        seen["rank"] = (rank, len(diag))
        return c, rank, perm

    def border(*args):
        grown = _border(*args)
        seen["refused"] += not grown
        return grown

    def drop(*args):
        seen["drops"] += 1
        return _drop(*args)

    monkeypatch.setattr(divkit.projection, "_pivoted_cholesky", pivoted_cholesky)
    monkeypatch.setattr(divkit.projection, "_border", border)
    monkeypatch.setattr(divkit.projection, "_drop", drop)
    _assert_rke_certified(_cosine_gram(20, 3, 4), 0.5, np.random.default_rng(4))
    rank, m = seen["rank"]
    assert rank <= 10 < m and seen["refused"] > 0 and seen["drops"] > 0


# -- the numpy factor updates of rke_penalized --------------------------------------


@pytest.mark.parametrize("n, d", [(30, 35), (30, 7), (120, 130), (120, 9)])
def test_pivoted_cholesky_matches_dpstrf(n, d):
    # full rank and rank d; 120 rows take LAPACK's blocked path
    rng = np.random.default_rng([n, d])
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    a = x @ x.T
    tiny = n * np.finfo(np.float64).eps * a.diagonal().max()
    ufac, piv, rank, _ = lapack.dpstrf(a, tol=tiny)
    c, got_rank, perm = _pivoted_cholesky(a.__getitem__, a.diagonal(), tiny)
    chol = c[:got_rank, :got_rank]
    assert got_rank == rank == min(n, d) and not np.tril(chol, -1).any()
    np.testing.assert_array_equal(perm, piv - 1)  # no tied diagonals in continuous data
    ref = np.triu(ufac[:rank, :rank])
    assert np.abs(chol - ref).max() <= 1e-12 * np.abs(ref).max()


def _drop_by_rotations(w, pos):
    """Reference for _drop: one Givens rotation per column pair (i, i+1), in turn."""
    w = w.copy()
    for i in range(pos, len(w) - 1):
        a, b = w[pos, i], w[pos, i + 1]
        w[:, [i, i + 1]] = w[:, [i, i + 1]] @ np.array([[b, a], [-a, b]]) / np.hypot(a, b)
    return np.delete(w[:, :-1], pos, axis=0)


@pytest.mark.parametrize("seed", range(4))
def test_border_and_drop_keep_the_inverse_factor(seed):
    rng = np.random.default_rng(seed)
    n = 30
    x = rng.normal(size=(n, n + 10))
    g = x @ x.T / n
    basis = list(rng.permutation(n)[:5])
    # NaN outside the factor: an update that read past it would spread them
    buf = np.full((n, n), np.nan)
    buf[:5, :5] = np.linalg.inv(np.linalg.cholesky(g[np.ix_(basis, basis)]).T)
    tiny = n * np.finfo(np.float64).eps * g.diagonal().max()
    for _ in range(80):
        rest = [j for j in range(n) if j not in basis]
        if len(basis) > 1 and (not rest or rng.random() < 0.5):
            pos = int(rng.integers(len(basis)))
            ref = _drop_by_rotations(buf[:len(basis), :len(basis)], pos)
            _drop(buf, len(basis), pos)
            basis.pop(pos)
            w = buf[:len(basis), :len(basis)]
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max()
        else:
            j = int(rng.choice(rest))
            assert _border(buf, len(basis), g[basis, j], g[j, j], tiny)
            basis.append(j)
        w = buf[:len(basis), :len(basis)]
        assert not np.tril(w, -1).any()
        inv = np.linalg.inv(g[np.ix_(basis, basis)])
        assert np.abs(w @ w.T - inv).max() <= 1e-10 * np.abs(inv).max()
    # an index already in the basis is dependent: its border is refused, w untouched
    before = buf.copy()
    assert not _border(buf, len(basis), g[basis, basis[0]], g[basis[0], basis[0]], tiny)
    np.testing.assert_array_equal(buf, before)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("size", [1, 2, 9, 64, 150])
def test_in_place_factor_updates_match_the_out_of_place_formulas(where, size):
    # 150 rows span three row blocks; each factor sits in a larger NaN buffer
    rng = np.random.default_rng([size, len(where)])
    w = np.triu(rng.normal(size=(size, size)))
    w[np.diag_indices(size)] = rng.uniform(0.5, 2.0, size=size)
    buf = np.full((size + 3, size + 3), np.nan)
    buf[:size, :size] = w
    pos = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    _drop(buf, size, pos)
    assert buf[:size - 1, :size - 1].tobytes() == drop_factor(w, pos).tobytes()

    buf[:size, :size] = w
    g_bj = rng.normal(size=size)
    col = w.T @ g_bj
    g_jj = float(col @ col) + 0.5
    assert _border(buf, size, g_bj, g_jj, 1e-12)
    assert buf[:size + 1, :size + 1].tobytes() == border_factor(w, g_bj, g_jj, 1e-12).tobytes()
    # a Schur complement at or below ``tiny``: refused by both, w untouched
    before = buf.copy()
    assert border_factor(w, g_bj, g_jj, 0.5) is None
    assert not _border(buf, size, g_bj, g_jj, 0.5)
    assert buf.tobytes() == before.tobytes()


def _signed_zero_gram(tmp_path):
    """A GRAM container whose rows 0 and 2 differ only in the sign of a zero."""
    values = np.array([[1.0, 0.0, 1.0, 0.3],
                       [0.0, 1.0, -0.0, 0.2],
                       [1.0, -0.0, 1.0, 0.3],
                       [0.3, 0.2, 0.3, 1.0]])
    path = tmp_path / "signed_zero.gram"
    write_matrix_container(str(path), values)
    k = load_gram(str(path))
    assert np.signbit(k.values[2, 1]) and not np.signbit(k.values[0, 1])
    return k.values


@pytest.mark.parametrize("case", ["duplicates", "signed_zero", "all_equal", "single"])
def test_duplicate_rows_group_as_unique_does(tmp_path, case):
    if case == "duplicates":
        x = _cluster_gram_points()
        x = np.vstack([x, x[:4], x[7:9]])[np.random.default_rng(1).permutation(len(x) + 6)]
        a = gram(EmbeddingSet(x), KernelSpec("gaussian", 1.0)).values
    elif case == "signed_zero":
        a = _signed_zero_gram(tmp_path)
    else:
        a = np.ones((5, 5) if case == "all_equal" else (1, 1))
    rep, group = _duplicate_rows(a)
    ref_rep, ref_group = duplicate_rows(a)
    np.testing.assert_array_equal(rep, ref_rep)
    np.testing.assert_array_equal(group, ref_group)
    n_groups = {"duplicates": len(a) - 6, "signed_zero": 3, "all_equal": 1, "single": 1}[case]
    assert len(rep) == n_groups


def test_rke_penalized_holds_four_gram_sized_buffers(monkeypatch):
    import tracemalloc

    n = 512
    x = np.random.default_rng([2, n]).standard_normal((n, 8))
    # LAPACK's copies are not traced, so also take what is held at each solve
    held = {"inv": [], "eigvalsh": []}
    for name in held:
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, real=real, name=name: (
            held[name].append(tracemalloc.get_traced_memory()[0]) or real(a)))
    tracemalloc.start()
    try:
        k = gram(EmbeddingSet(x), KernelSpec("gaussian", 2.0))
        res = project_rke_penalized(k, 0.5, ProjectionConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "converged" and len(held["inv"]) == 1 and len(held["eigvalsh"]) == 2
    gram_size = 8 * n * n
    # K, its permuted copy, Ktilde and the inverse factor W, and a few blocks
    # of rows (4.19 at n=512, where the parent's copies gave 9.4)
    assert peak <= 4.5 * gram_size
    # K, its permuted copy and the Cholesky factor, which becomes W in place
    assert max(held["inv"]) <= 3.1 * gram_size
    # the QP's buffers are freed before the summaries: K and A(q) alone
    assert max(held["eigvalsh"]) <= 2.1 * gram_size


def test_gap_is_none_for_vne_constrained():
    k = _cluster_gram()
    res = project_vne(k, vne_weighted(k, WeightVector.uniform(k.n)) + 0.05,
                      ProjectionConfig(max_iters=20))
    assert res.gap is None


@pytest.mark.parametrize("mode", ["vne_constrained", "vne_penalized", "rke_penalized"])
def test_non_converged_solve_logs_a_warning(caplog, mode):
    k = _cluster_gram()
    cfg = ProjectionConfig(max_iters=3)
    with caplog.at_level(logging.WARNING, logger="divkit"):
        if mode == "vne_constrained":
            res = project_vne(k, 0.999 * np.log(k.n), cfg)
        else:
            solve = project_vendi_penalized if mode == "vne_penalized" else project_rke_penalized
            res = solve(k, 0.05, cfg)
    assert res.status == "max_iters"
    warned = [r for r in caplog.records if r.name == "divkit"]
    assert len(warned) == 1 and warned[0].levelno == logging.WARNING
    # a penalized solve says how far it stopped from a certificate
    gap = "" if res.gap is None else f", Frank-Wolfe gap {res.gap:.3e}"
    assert warned[0].getMessage() == (
        f"{mode} projection stopped with status max_iters after 3 iterations{gap}")
    assert (res.gap is None) == (mode == "vne_constrained")


def test_converged_solve_logs_nothing(caplog):
    with caplog.at_level(logging.WARNING, logger="divkit"):
        res = project_vendi_penalized(gram_from_values(np.eye(6)), 0.5,
                                      ProjectionConfig())
    assert res.status == "converged"
    assert not [r for r in caplog.records if r.name == "divkit"]


# -- the Newton phase of vne_penalized -----------------------------------------------


def _interior_instance(rng, n, d):
    k = gram(EmbeddingSet(rng.normal(size=(n, d))), KernelSpec("gaussian", 1.5))
    raw = rng.dirichlet(np.full(n, 2.0))
    q = WeightVector((raw + 0.02) / (raw + 0.02).sum())
    return k, q, _spectrum(weighted_gram(k, q), vectors=True)[1]


def test_vne_hessian_matches_gradient_differences():
    # criterion 6's family: interior weights, central differences of the
    # gradient along unit simplex tangents
    rng = np.random.default_rng(6)
    worst, h = 0.0, 1e-6
    for _ in range(40):
        k, q, eig = _interior_instance(rng, int(rng.integers(5, 31)), int(rng.integers(2, 7)))
        v = rng.normal(size=k.n)
        v -= v.mean()
        v /= np.linalg.norm(v)
        fd = (vne_gradient(k, WeightVector(q.weights + h * v))
              - vne_gradient(k, WeightVector(q.weights - h * v))) / (2.0 * h)
        hv = _vne_hessian(q.weights, eig)(v)
        worst = max(worst, float(np.linalg.norm(hv - fd) / np.linalg.norm(fd)))
    assert worst <= 1e-5


@pytest.mark.parametrize("case", ["interior", "clamped"])
def test_vne_hessian_matches_explicit_oracle(case):
    rng = np.random.default_rng(7)
    if case == "interior":
        k, q, eig = _interior_instance(rng, 24, 3)
    else:  # eigenvalues far under SPECTRAL_FLOOR: their Daleckii-Krein weights are 0
        k = _clamped_gram()
        q = WeightVector(rng.dirichlet(np.ones(k.n)))
        eig = _spectrum(weighted_gram(k, q), vectors=True)[1]
        assert (eig[0] <= 1e-12).sum() >= 3
    full = vne_hessian(q.weights, eig)
    product = _vne_hessian(q.weights, eig)
    for v in rng.normal(size=(5, k.n)):
        ref = full @ v
        assert np.linalg.norm(product(v) - ref) <= 1e-10 * np.linalg.norm(ref)


def _cli_instance_gram(seed=3, offset=8.0):
    """The 16 points of tests/test_cli.py::test_project_command_weights_sum_to_one;
    seed 4 and offset 6 give those of its golden records."""
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(size=(12, 3)) * 0.2, rng.normal(size=(4, 3)) * 0.2 + offset])
    return gram(EmbeddingSet(x), KernelSpec("gaussian", 1.0))


def _vne_penalized_objective(k, lam, q):
    return kd_fixed_support(k, q, WeightVector.uniform(k.n)) - lam * vne_weighted(k, q)


@pytest.mark.parametrize("case, lam, most", [
    ("benchmark", 0.01, 10), ("benchmark-1", 0.01, 10), ("benchmark-2", 0.01, 10),
    ("criterion-8", 0.01, 10), ("cli", 0.01, None), ("cli", 0.1, None), ("cli", 1.0, None),
    ("golden", 1.0, None), ("cluster", 0.05, None)])
def test_vne_penalized_newton_phase_stops_certified(case, lam, most):
    # "converged" means a gap <= tol.  The last two optima put weights near 0
    # on points whose eigenvalues in A(q*) sit at rounding level: the Newton
    # steps creep there, and the solves stop "stalled" with the gap they reached
    if case.startswith("benchmark"):  # the benchmark's vne_penalized solve, jitter none/1/2
        k = _benchmark_family_gram(n=80, jitter=int(case[-1]) if "-" in case else None)
    elif case == "criterion-8":
        k = cluster_gram([128, 64, 32, 16, 8, 4, 2, 1])
    elif case == "golden":  # the vne_penalized config of tests/test_cli.py::GOLDEN_CONFIGS
        k = _cli_instance_gram(seed=4, offset=6.0)
    elif case == "cluster":
        k = _cluster_gram()
    else:
        k = _cli_instance_gram()
    cfg = ProjectionConfig(max_iters=50) if case == "golden" else ProjectionConfig()
    res = project_vendi_penalized(k, lam, cfg)
    if case in ("golden", "cluster"):
        assert res.status == "stalled" and res.gap > cfg.tol
    else:
        assert res.status == "converged" and res.gap <= cfg.tol
    if most is not None:
        assert res.iterations <= most
    # the gap is that of the traced objective at q*, and it bounds the
    # objective's excess over any other weighting
    q = res.q_star
    g = 2.0 * k.values @ (q.weights - 1.0 / k.n) - lam * live_vne_gradient(k, q)
    assert abs(float(g @ q.weights - g.min()) - res.gap) <= 1e-12
    best = _vne_penalized_objective(k, lam, q)
    assert res.objective_trace[-1] == pytest.approx(best, rel=1e-12, abs=1e-15)
    rng = np.random.default_rng(1)
    for p in rng.dirichlet(np.full(k.n, 0.5), size=5):
        assert best <= _vne_penalized_objective(k, lam, WeightVector(p)) + res.gap + 1e-12


def test_newton_phase_stalls_once_its_gap_stops_halving(monkeypatch):
    # on this clustered Gram the Newton steps creep along the boundary: the
    # gap has not halved over _NEWTON_WINDOW steps, and the solve stops there
    counts = {}
    _counting(monkeypatch, counts, divkit.projection, "_newton_step")
    cfg = ProjectionConfig()
    res = project_vendi_penalized(_cluster_gram(), 0.05, cfg)
    assert res.status == "stalled" and res.iterations >= _NEWTON_WINDOW
    assert counts["_newton_step"] == res.iterations  # no step failed: the window stopped it
    assert res.gap == pytest.approx(1.58e-4, rel=0.01) and res.gap > cfg.tol
    assert len(res.objective_trace) == res.iterations + 1
    assert (np.diff(res.objective_trace) <= 0.0).all()


def test_vne_gradient_matches_live_eigenpair_oracle_below_the_floor():
    # eigenvalues far under SPECTRAL_FLOOR and a weight of 1e-9, which
    # divides whatever they would contribute
    k = _clamped_gram()
    w = np.random.default_rng(5).dirichlet(np.ones(k.n))
    w[0] = 1e-9
    q = WeightVector(w)
    assert (_spectrum(weighted_gram(k, q), vectors=True)[1][0] <= 1e-12).sum() >= 3
    ref = live_vne_gradient(k, q)
    assert np.linalg.norm(vne_gradient(k, q) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_newton_step_holds_no_cubic_temporary(monkeypatch):
    import tracemalloc

    n, lam = 255, 0.01
    k = _benchmark_family_gram(n=n)
    q0 = WeightVector.uniform(n)
    at = _Point(q0, *_kd_and_grad(k, q0, q0), *_spectrum(weighted_gram(k, q0), vectors=True))
    g = at.kd_grad - lam * vne_gradient(k, q0, eig=at.eig)
    at_solve = []
    solver = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a: at_solve.append(tracemalloc.get_traced_memory()[0]) or solver(a))
    tracemalloc.start()
    try:
        new = divkit.projection._newton_step(k, q0, at, lam, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new is not None and len(at_solve) == 1
    # a few n x n buffers (the Daleckii-Krein weights, a GEMM operand and
    # product); the explicit Hessian's n^3 temporary would be 132 MB
    assert peak <= 6 * 8 * n * n
    # the weights are freed before the candidate's eigensolve: A(c) alone
    assert max(at_solve) <= 1.1 * 8 * n * n
