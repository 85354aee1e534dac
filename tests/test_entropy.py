import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divkit.bias_lab import CubeMixtureSpec, sample_cube_mixture
from divkit.dataio import EmbeddingSet, RunSeed
from divkit.discrepancy import compare, mmd2
import divkit.entropy
from divkit.entropy import (
    DEFAULT_SIZE_CAP,
    DiversityScore,
    WeightVector,
    _eigensolve,
    _spectrum,
    rke,
    score_gram,
    vendi,
    vendi_with_gram,
    vne_gradient,
    vne_weighted,
    weighted_gram,
)
from divkit.errors import (
    DataError,
    DimensionMismatch,
    NotPSD,
    NotUnitTrace,
    SizeCapExceeded,
)
from divkit.kernels import (
    KernelSpec,
    SelfBlock,
    _average_transpose,
    gram,
    unit_rows,
)
from oracles import full_exp_gaussian, gram_from_values, hadamard_square, inverse_rke_weighted


def random_gram(n, d, seed, bandwidth=1.5):
    rng = np.random.default_rng(seed)
    return gram(EmbeddingSet(rng.normal(size=(n, d))), KernelSpec("gaussian", bandwidth))


def cluster_embeddings(sizes, d=4, spread=100.0):
    """Tight clusters of duplicated points, far apart."""
    rows = []
    for c, m in enumerate(sizes):
        center = np.zeros(d)
        center[c % d] = spread * (1 + c)
        rows.extend([center] * m)
    return EmbeddingSet(np.asarray(rows))


# -- von Neumann entropy ------------------------------------------------------

def gated_entropy(a):
    """The entropy from the one spectral gate, on a float copy of ``a``."""
    return _spectrum(np.array(a, dtype=float))[0]


def test_vne_uniform_spectrum():
    n = 9
    assert gated_entropy(np.eye(n) / n) == pytest.approx(np.log(n), abs=1e-12)


def test_vne_rank_one():
    v = np.array([0.6, 0.8])
    assert gated_entropy(np.outer(v, v)) == pytest.approx(0.0, abs=1e-12)


def test_vne_closed_form_spectrum():
    a = np.diag([0.5, 0.25, 0.25])
    assert gated_entropy(a) == pytest.approx(1.5 * np.log(2.0), rel=1e-12)
    assert gated_entropy(a) == pytest.approx(1.0397207708399179, abs=1e-10)


def test_vne_rejects_bad_trace():
    with pytest.raises(NotUnitTrace):
        gated_entropy(np.eye(3))


def test_vne_rejects_indefinite():
    a = np.diag([1.5, -0.5])
    with pytest.raises(NotPSD):
        gated_entropy(a)


def test_spectrum_clamps_negative_eigenvalues_within_tolerance():
    # -1e-11 is rounding, not indefiniteness: it counts as 0 and the entropy is log 2
    h, vals = _spectrum(np.diag([0.5 + 1e-11, 0.5, -1e-11]))
    assert vals[0] == -1e-11
    assert h == pytest.approx(np.log(2.0), rel=1e-10)


# -- vendi / rke ---------------------------------------------------------------

def test_vendi_orthogonal_points():
    for n in (2, 16):
        x = EmbeddingSet(np.eye(n) * 40.0)
        s = vendi(x, KernelSpec("gaussian", 0.5))
        assert s.vendi == pytest.approx(n, rel=1e-9)
        assert s.rke == pytest.approx(n, rel=1e-12)


def test_vendi_identical_points():
    x = EmbeddingSet(np.tile([3.0, 1.0], (12, 1)))
    s = vendi(x, KernelSpec("gaussian", 1.0))
    assert s.vendi == pytest.approx(1.0, abs=1e-9)
    assert s.rke == pytest.approx(1.0, abs=1e-12)


def test_vendi_two_tight_clusters_block_oracle():
    m = 7
    x = cluster_embeddings([m, m])
    k = gram(x, KernelSpec("gaussian", 1.0))
    a = float(k.values[0, -1])  # across-cluster similarity, ~0
    # two-block spectrum of K/n: m(1+a)/n and m(1-a)/n, rest zero
    lam = np.array([(1 + a) / 2.0, (1 - a) / 2.0])
    expected = np.exp(-(lam * np.log(lam)).sum())
    s = score_gram(k)
    assert s.vendi == pytest.approx(2.0, abs=1e-6)
    assert s.vendi == pytest.approx(expected, rel=1e-12)


def test_rke_trivial_cases():
    assert rke(gram_from_values(np.eye(10))) == pytest.approx(10.0)
    assert rke(gram_from_values(np.ones((10, 10)))) == pytest.approx(1.0)


def test_rke_equal_clusters():
    r, m = 5, 6
    x = cluster_embeddings([m] * r, d=r)
    assert rke(gram(x, KernelSpec("gaussian", 1.0))) == pytest.approx(r, abs=1e-6)


def test_vendi_size_cap():
    x = EmbeddingSet(np.ones((30, 2)))
    with pytest.raises(SizeCapExceeded):
        vendi(x, KernelSpec("gaussian", 1.0), size_cap=20)


def test_score_invariants_random():
    for seed in range(5):
        k = random_gram(25, 4, seed)
        s = score_gram(k)
        assert 1.0 <= s.rke <= s.vendi * (1 + 1e-12)
        assert s.vendi <= k.n
        assert s.vendi == pytest.approx(np.exp(s.log_vendi), rel=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(17)
    data = rng.normal(size=(30, 5))
    spec = KernelSpec("gaussian", 1.0)
    a = vendi(EmbeddingSet(data), spec)
    b = vendi(EmbeddingSet(data[rng.permutation(30)]), spec)
    assert a.vendi == pytest.approx(b.vendi, abs=1e-10)
    assert a.rke == pytest.approx(b.rke, abs=1e-10)


def test_rke_duplication_law():
    rng = np.random.default_rng(23)
    data = rng.normal(size=(20, 3))
    spec = KernelSpec("gaussian", 1.0)
    once = rke(gram(EmbeddingSet(data), spec))
    twice = rke(gram(EmbeddingSet(np.vstack([data, data])), spec))
    assert twice == pytest.approx(once, abs=1e-9)


def test_spectral_equivalence_uniform_weights():
    k = random_gram(24, 4, 3)
    u = WeightVector.uniform(24)
    assert vne_weighted(k, u) == pytest.approx(score_gram(k).log_vendi, abs=1e-10)


# -- weighted measures ---------------------------------------------------------

def test_weighted_gram_uniform_is_k_over_n():
    k = random_gram(10, 3, 1)
    a = weighted_gram(k, WeightVector.uniform(10))
    assert np.abs(a - k.values / 10).max() < 1e-15


def test_weighted_gram_point_mass():
    k = random_gram(8, 3, 2)
    a = weighted_gram(k, WeightVector(np.eye(8)[3]))
    assert np.trace(a) == pytest.approx(1.0)
    assert np.linalg.matrix_rank(a) == 1


def test_weighted_gram_identity_kernel():
    q = WeightVector(np.array([0.5, 0.3, 0.2]))
    a = weighted_gram(gram_from_values(np.eye(3)), q)
    assert np.abs(a - np.diag(q.weights)).max() < 1e-15


def test_weighted_gram_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        weighted_gram(gram_from_values(np.eye(3)), WeightVector.uniform(4))


def test_vne_weighted_shannon_reduction():
    eye = gram_from_values(np.eye(12))
    assert vne_weighted(eye, WeightVector.uniform(12)) == pytest.approx(np.log(12), abs=1e-12)
    assert vne_weighted(eye, WeightVector(np.eye(12)[0])) == pytest.approx(0.0, abs=1e-12)


def test_vne_weighted_point_mass_any_kernel():
    k = random_gram(9, 2, 4)
    assert vne_weighted(k, WeightVector(np.eye(9)[5])) == pytest.approx(0.0, abs=1e-10)


def test_vne_weighted_matches_feature_factorization():
    # independent oracle: factor K = Phi Phi^T by eigendecomposition and take
    # the entropy of the d-side covariance sum_i q_i phi_i phi_i^T
    rng = np.random.default_rng(31)
    k = random_gram(20, 6, 31)
    q = WeightVector(rng.dirichlet(np.full(20, 1.5)))
    lam, vec = np.linalg.eigh(k.values)
    phi = vec @ np.diag(np.sqrt(np.maximum(lam, 0.0)))
    cov = phi.T @ np.diag(q.weights) @ phi
    assert vne_weighted(k, q) == pytest.approx(_spectrum(cov)[0], abs=1e-9)


def test_vne_concavity_probe():
    rng = np.random.default_rng(41)
    k = random_gram(15, 4, 41)
    for _ in range(25):
        q1 = WeightVector(rng.dirichlet(np.full(15, 1.0)))
        q2 = WeightVector(rng.dirichlet(np.full(15, 1.0)))
        alpha = rng.uniform(0.05, 0.95)
        mix = WeightVector(alpha * q1.weights + (1 - alpha) * q2.weights)
        lhs = vne_weighted(k, mix)
        rhs = alpha * vne_weighted(k, q1) + (1 - alpha) * vne_weighted(k, q2)
        assert lhs >= rhs - 1e-9


# -- gradient -------------------------------------------------------------------

def test_vne_gradient_shannon_case():
    q = WeightVector(np.array([0.1, 0.2, 0.3, 0.15, 0.05, 0.2]))
    g = vne_gradient(gram_from_values(np.eye(6)), q)
    assert np.abs(g + np.log(q.weights) + 1.0).max() < 1e-12


def test_vne_gradient_all_ones_symmetric():
    g = vne_gradient(gram_from_values(np.ones((7, 7))), WeightVector.uniform(7))
    assert np.abs(g - g[0]).max() < 1e-10


def fd_directional(k, q, d, h=1e-6):
    qp = WeightVector(q.weights + h * d)
    qm = WeightVector(q.weights - h * d)
    return (vne_weighted(k, qp) - vne_weighted(k, qm)) / (2 * h)


def test_vne_gradient_finite_difference():
    rng = np.random.default_rng(77)
    for trial in range(25):
        n = int(rng.integers(5, 31))
        k = random_gram(n, int(rng.integers(2, 7)), 1000 + trial)
        raw = rng.dirichlet(np.full(n, 2.0))
        q = WeightVector((raw + 0.02) / (raw + 0.02).sum())
        g = vne_gradient(k, q)
        d = rng.normal(size=n)
        d -= d.mean()
        d /= np.linalg.norm(d)
        fd = fd_directional(k, q, d)
        assert abs(float(g @ d) - fd) <= 1e-5 * max(abs(fd), 1e-8)


def test_vne_gradient_zero_weight_component():
    # dead components carry no spectral mass and get a zero gradient
    k = random_gram(6, 2, 8)
    w = np.array([0.4, 0.3, 0.3, 0.0, 0.0, 0.0])
    g = vne_gradient(k, WeightVector(w))
    assert np.all(np.isfinite(g))
    assert np.abs(g[3:]).max() < 1e-6


# -- inverse RKE -----------------------------------------------------------------

def test_inverse_rke_point_mass():
    k2 = hadamard_square(random_gram(7, 3, 5))
    assert inverse_rke_weighted(k2, WeightVector(np.eye(7)[2])) == pytest.approx(1.0)


def test_inverse_rke_identity_uniform():
    k2 = gram_from_values(np.eye(11))
    assert inverse_rke_weighted(k2, WeightVector.uniform(11)) == pytest.approx(1.0 / 11)


def test_inverse_rke_uniform_matches_frobenius():
    k = random_gram(14, 4, 6)
    k2 = hadamard_square(k)
    val = inverse_rke_weighted(k2, WeightVector.uniform(14))
    assert val == pytest.approx(1.0 / rke(k), rel=1e-12)


def test_weight_vector_validation():
    with pytest.raises(DataError):
        WeightVector(np.array([0.5, -0.2, 0.7]))
    w = WeightVector(np.array([2.0, 2.0]))
    assert w.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_diversity_score_invariant_enforced():
    with pytest.raises(Exception):
        DiversityScore(vendi=2.0, log_vendi=np.log(2.0), rke=3.0, n=10, spec=None)


# -- sub-rounding flush before LAPACK ------------------------------------------

FLUSH_RATIO = np.finfo(np.float64).eps ** 2


def cube_mixture_gram(n=200, seed=5):
    """Separated clusters under a narrow kernel: cross-vertex entries <= exp(-200)."""
    x = sample_cube_mixture(CubeMixtureSpec(10, 1e-4), n, RunSeed(seed))
    return x, gram(x, KernelSpec("gaussian", 0.1))


def test_eigensolves_never_see_sub_rounding_entries(monkeypatch):
    seen = []

    def spy(solver):
        def wrapped(a, *args, **kwargs):
            seen.append(np.array(a))
            return solver(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
    x, _ = cube_mixture_gram()
    # the kernel layer already sets entries below eps^2 / e to 0, so the gate
    # is handed the Gram of the same points with exp taken of every exponent
    k = gram_from_values(full_exp_gaussian(x.data, x.data, 0.1))
    assert k.values[k.values > 0.0].min() < 1e-80  # the input holds such entries
    score_gram(k)
    q = np.random.default_rng(0).dirichlet(np.ones(k.n))
    vne_gradient(k, WeightVector(q))
    assert len(seen) == 2
    for a in seen:
        mag = np.abs(a)
        live = mag[mag > 0.0]
        assert live.min() >= FLUSH_RATIO * mag.max()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 7.0),
)
def test_spectrum_without_sub_rounding_entries_is_plain_eigvalsh(n, d, seed, spread):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-spread, spread, size=(n, 1))
    a = x @ x.T
    a /= np.trace(a)
    assume(np.abs(a).min() >= FLUSH_RATIO * np.abs(a).max())
    assert np.array_equal(_eigensolve(a.copy()), np.linalg.eigvalsh((a + a.T) / 2.0))


def flushed(a):
    """``a`` with the entries the eigensolve flushes set to 0."""
    a = a.copy()
    a[np.abs(a) < FLUSH_RATIO * np.abs(a).max()] = 0.0
    return a


def split_matrix(sizes, seed, signed=False):
    """A unit-trace symmetric matrix whose diagonal blocks have the orders
    ``sizes``: Gaussian Grams, or f f^T with entries of both signs if
    ``signed``.  Every other entry is 0 or +-1e-40, below the flush cutoff,
    and rows and columns are shuffled."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a = rng.choice([-1e-40, 1e-40], size=(n, n))
    ofs = 0
    for m in sizes:
        if signed:
            f = rng.normal(size=(m, m))
            block = f @ f.T
        else:
            block = gram(EmbeddingSet(rng.normal(size=(m, 2))), KernelSpec("gaussian", 1.0)).values
        a[ofs:ofs + m, ofs:ofs + m] = block
        ofs += m
    a = (a + a.T) / 2.0
    perm = rng.permutation(n)
    return a[np.ix_(perm, perm)] / np.trace(a)


def chain_matrix(n=24):
    """K/n of points 1 apart on a line under bandwidth 0.1: entries exp(-50)
    to the next point survive the flush, those further out do not, so the
    flushed matrix is tridiagonal and connected."""
    k = gram(EmbeddingSet(np.arange(n, dtype=float)[:, None]), KernelSpec("gaussian", 0.1))
    return k.values / n


def test_cube_mixture_log_vendi_matches_blockwise_oracle():
    x, k = cube_mixture_gram()
    vertex = (x.data > 0) @ (1 << np.arange(x.d))
    lam = []
    for v in np.unique(vertex):
        idx = np.flatnonzero(vertex == v)
        lam.extend(np.linalg.eigvalsh(k.values[np.ix_(idx, idx)] / k.n))
    lam = np.maximum(np.asarray(lam), 0.0)
    live = lam[lam > 1e-12]
    oracle = min(float(-(live * np.log(live)).sum()), np.log(k.n))
    assert len(np.unique(vertex)) < k.n  # some vertices hold several samples
    assert score_gram(k).log_vendi == pytest.approx(oracle, abs=1e-13)
    # the spectrum solved component by component is the dense one
    cases = {
        "n=1": np.ones((1, 1)),
        "singletons": split_matrix([1] * 12, 1),
        "one component": chain_matrix(),
        "mixed orders": split_matrix([1, 2, 3, 3, 5, 1, 2, 4], 2),
        "negative entries": split_matrix([2, 3, 1, 4, 3], 3, signed=True),
        "cube mixture": k.values / k.n,
    }
    for name, a in cases.items():
        dense = np.linalg.eigvalsh(flushed(a))
        assert np.abs(_eigensolve(a.copy()) - dense).max() <= 1e-13, name


def test_split_matrices_are_solved_by_component_order(monkeypatch):
    orders = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: orders.append(a.shape[-1]) or solver(a))
    x, k = cube_mixture_gram()
    largest = np.bincount((x.data > 0) @ (1 << np.arange(x.d))).max()
    score_gram(k)
    assert orders and max(orders) <= largest < k.n
    # clusters 100 bandwidths apart: every cross entry underflows to exactly 0
    # in exp, so the flush has nothing to zero, and the split comes from the kernel
    rng = np.random.default_rng(6)
    sizes = rng.integers(1, 6, size=40)
    cluster = np.repeat(np.arange(sizes.size), sizes)
    x = 100.0 * cluster[:, None] + 0.3 * rng.normal(size=(cluster.size, 1))
    k = gram(EmbeddingSet(x), KernelSpec("gaussian", 1.0))
    assert np.array_equal(k.values != 0.0, cluster[:, None] == cluster)
    orders.clear()
    got = _eigensolve(k.values / k.n)
    assert orders and max(orders) <= sizes.max() < k.n
    assert np.abs(got - solver(k.values / k.n)).max() <= 1e-13
    # zero weights make lone points of A(q): only the live rows, one block, take a call
    k = gram(EmbeddingSet(rng.normal(size=(16, 3))), KernelSpec("gaussian", 2.0))
    q = np.zeros(16)
    q[rng.choice(16, size=6, replace=False)] = rng.dirichlet(np.ones(6))
    a = weighted_gram(k, WeightVector(q))
    assert np.count_nonzero(a) == 36  # no zero but those of the weights
    orders.clear()
    got = _eigensolve(a.copy())
    assert orders == [6]
    assert np.abs(got - solver(a)).max() <= 1e-13
    # still one call of order n, with the bits of that call: a matrix the flush
    # leaves connected, and one with a component of more than half its rows
    for a in (chain_matrix(), split_matrix([12, 4], 4)):
        orders.clear()
        got = _eigensolve(a.copy())
        assert orders == [a.shape[0]]
        assert got.tobytes() == solver(flushed(a)).tobytes()


# -- cosine scores from the feature factor ---------------------------------------

@st.composite
def cosine_sets(draw):
    """Sets with n in [2, 60], d in [1, 80]: d < n, d = n and d > n all occur.

    Rows are low-rank mixes, repeated in part, at scales spread over 10^+-6
    (the cosine kernel is scale-invariant per row).
    """
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 80))
    rank = draw(st.integers(1, d))
    unique = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(unique, rank)) @ rng.normal(size=(rank, d))
    x = x[rng.integers(0, unique, size=n)] * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    assume(np.linalg.norm(x, axis=1).min() > 0.0)
    return EmbeddingSet(x)


@settings(max_examples=150, deadline=None)
@given(x=cosine_sets())
def test_cosine_factor_scores_match_gram_oracle(x):
    spec = KernelSpec("cosine")
    got, k = vendi_with_gram(x, spec)
    want = score_gram(gram(x, spec))
    assert (k is None) == (x.d < x.n)
    assert got.vendi == pytest.approx(want.vendi, rel=1e-12)
    # log-Vendi's rounding error is absolute (that of Vendi is relative), and
    # log-Vendi is 0 when all rows are parallel
    assert got.log_vendi == pytest.approx(want.log_vendi, rel=1e-12, abs=1e-14)
    assert got.rke == pytest.approx(want.rke, rel=1e-12)


def test_cosine_factor_eigensolves_d_by_d(monkeypatch):
    seen = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or solver(a))
    x = EmbeddingSet(np.random.default_rng(4).normal(size=(50, 7)))
    vendi(x, KernelSpec("cosine"))
    vendi(EmbeddingSet(x.data[:5]), KernelSpec("cosine"))
    assert seen == [(7, 7), (5, 5)]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    d=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["gaussian", "cosine"]),
)
def test_scores_permutation_invariant_and_rke_below_vendi(n, d, seed, family):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    spec = KernelSpec(family, 1.0 if family == "gaussian" else None)
    a = vendi(EmbeddingSet(data), spec)
    b = vendi(EmbeddingSet(data[rng.permutation(n)]), spec)
    assert b.vendi == pytest.approx(a.vendi, rel=1e-12)
    assert b.rke == pytest.approx(a.rke, rel=1e-12)
    assert a.rke <= a.vendi * (1.0 + 1e-12)


def test_cosine_scores_of_rows_beyond_the_float_square_range():
    # squares of 1e+-200 over- or underflow; the cosine kernel only sees directions
    rng = np.random.default_rng(12)
    spec = KernelSpec("cosine")
    data = rng.normal(size=(30, 4))
    scaled = data * 10.0 ** rng.choice([-200.0, 0.0, 200.0], size=(30, 1))
    ref = EmbeddingSet(rng.normal(size=(10, 4)))
    for rows in (30, 3):  # feature-factor path and Gram path
        want = vendi(EmbeddingSet(data[:rows]), spec)
        got = vendi(EmbeddingSet(scaled[:rows]), spec)
        assert got.vendi == pytest.approx(want.vendi, rel=1e-12)
        assert got.rke == pytest.approx(want.rke, rel=1e-12)
        got_mmd = mmd2(EmbeddingSet(scaled[:rows]), ref, spec)
        assert got_mmd == pytest.approx(mmd2(EmbeddingSet(data[:rows]), ref, spec), abs=1e-12)


def _no_gram(*args, **kwargs):
    raise AssertionError("an n x n Gram was built")


def test_cosine_scores_past_the_size_cap(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(divkit.entropy, "gram", _no_gram)
    n = DEFAULT_SIZE_CAP + 1
    x = EmbeddingSet(np.random.default_rng(8).normal(size=(n, 3)))
    tracemalloc.start()
    try:
        s = vendi(x, KernelSpec("cosine"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n == n and 1.0 <= s.rke <= s.vendi <= 3.0 + 1e-9
    assert peak < 10 * x.data.nbytes  # an n x n float array would take 3.2 GB


def test_gaussian_past_the_size_cap_raises_before_any_gram(monkeypatch):
    monkeypatch.setattr(divkit.entropy, "gram", _no_gram)
    x = EmbeddingSet(np.random.default_rng(8).normal(size=(DEFAULT_SIZE_CAP + 1, 3)))
    with pytest.raises(SizeCapExceeded):
        vendi(x, KernelSpec("gaussian", 1.0))
    with pytest.raises(SizeCapExceeded):
        vendi(EmbeddingSet(x.data[:20]), KernelSpec("cosine"), size_cap=2)


# -- ownership: public entry points copy once and never write -----------------

@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 30),
    n=st.integers(2, 30),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0.3, 3.0, 30.0]),
    family=st.sampled_from(["gaussian", "cosine"]),
)
def test_public_entry_points_leave_callers_arrays_unchanged(m, n, d, seed, spread, family):
    rng = np.random.default_rng(seed)
    x = EmbeddingSet(rng.normal(size=(m, d)) * spread)
    y = EmbeddingSet(rng.normal(size=(n, d)) * spread + 0.5)
    spec = KernelSpec(family, 1.0 if family == "gaussian" else None)
    kx, ky = gram(x, spec), gram(y, spec)
    q = WeightVector(rng.dirichlet(np.ones(m)))
    arrays = (x.data, y.data, kx.values, ky.values, q.weights)
    before = [arr.tobytes() for arr in arrays]
    vne_weighted(kx, q)
    vne_gradient(kx, q)
    score_gram(kx)
    score_gram(ky)
    compare(x, y, spec, SelfBlock.of(kx), SelfBlock.of(ky))
    assert [arr.tobytes() for arr in arrays] == before


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 63, 64, 65, 127, 130, 200]),
    seed=st.integers(0, 2**32 - 1),
    cosine=st.booleans(),
)
def test_in_place_symmetrization_is_the_symmetric_part_bit_for_bit(n, seed, cosine):
    rng = np.random.default_rng(seed)
    if cosine:
        u = unit_rows(rng.normal(size=(3 * n, n)))
        a = u.T @ u
    else:
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6, size=(n, n))
    got = a.copy()
    _average_transpose(got)
    assert got.tobytes() == ((a + a.T) / 2.0).tobytes()


def test_gaussian_score_and_compare_hold_two_gram_sized_buffers(monkeypatch):
    import tracemalloc

    n = 1024
    rng = np.random.default_rng(3)
    x = EmbeddingSet(rng.normal(size=(n, 16)))
    y = EmbeddingSet(rng.normal(size=(n, 16)) + 0.3)
    spec = KernelSpec("gaussian", 4.0)
    # LAPACK's work copy is not traced, so also take what is held when it is made
    at_solve = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: at_solve.append(tracemalloc.get_traced_memory()[0]) or solver(a))
    tracemalloc.start()
    try:
        _, block = vendi_with_gram(x, spec)
        compare(x, y, spec, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n Gram at a time and the row blocks that build it: 1.57, where
    # squaring the Gram for the RKE sum took a second n x n buffer (2.0)
    assert peak <= 1.6 * 8 * n * n
    assert max(at_solve) <= 1.1 * 8 * n * n  # the Gram as K/n, next to LAPACK's copy


def test_weighted_entropy_holds_one_gram_sized_buffer(monkeypatch):
    import tracemalloc

    n = 1024
    rng = np.random.default_rng(3)
    k = gram(EmbeddingSet(rng.normal(size=(n, 16))), KernelSpec("gaussian", 4.0))
    q = WeightVector(rng.dirichlet(np.ones(n)))
    at_solve = []
    solver = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: at_solve.append(tracemalloc.get_traced_memory()[0]) or solver(a))
    tracemalloc.start()
    try:
        vne_weighted(k, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A(q) is built in one buffer and handed to LAPACK uncopied
    assert peak <= 1.1 * 8 * n * n
    assert at_solve and max(at_solve) <= 1.1 * 8 * n * n
