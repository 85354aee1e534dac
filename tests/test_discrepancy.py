import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.dataio import EmbeddingSet, RunSeed
from divkit.discrepancy import (
    compare,
    frechet_distance,
    kd_fixed_support,
    mmd2,
)
from divkit.entropy import WeightVector
from divkit.errors import DataError, DimensionMismatch, TooFewSamples
from divkit.kernels import KernelSpec, SelfBlock, cross, gram
from oracles import gaussian_kernel, gram_from_values


def test_kd_zero_at_equal_weights():
    k = gram_from_values(np.eye(5))
    q = WeightVector(np.array([0.4, 0.1, 0.2, 0.2, 0.1]))
    assert kd_fixed_support(k, q, q) == 0.0


def test_kd_identity_kernel_point_masses():
    k = gram_from_values(np.eye(4))
    e1 = WeightVector(np.eye(4)[0])
    e2 = WeightVector(np.eye(4)[1])
    assert kd_fixed_support(k, e1, e2) == pytest.approx(2.0)


def test_kd_matches_biased_mmd_on_shared_support():
    # expand the double sum directly as an independent oracle
    rng = np.random.default_rng(12)
    data = rng.normal(size=(9, 3))
    spec = KernelSpec("gaussian", 1.2)
    k = gram(EmbeddingSet(data), spec)
    q = WeightVector(rng.dirichlet(np.ones(9)))
    q0 = WeightVector(rng.dirichlet(np.ones(9)))
    direct = 0.0
    for i in range(9):
        for j in range(9):
            kij = gaussian_kernel(data[i], data[j], 1.2)
            direct += (q.weights[i] - q0.weights[i]) * (q.weights[j] - q0.weights[j]) * kij
    assert kd_fixed_support(k, q, q0) == pytest.approx(direct, abs=1e-10)


def test_kd_symmetry_and_triangle():
    rng = np.random.default_rng(13)
    k = gram(EmbeddingSet(rng.normal(size=(8, 2))), KernelSpec("gaussian", 1.0))
    a = WeightVector(rng.dirichlet(np.ones(8)))
    b = WeightVector(rng.dirichlet(np.ones(8)))
    c = WeightVector(rng.dirichlet(np.ones(8)))
    assert kd_fixed_support(k, a, b) == pytest.approx(kd_fixed_support(k, b, a), abs=1e-15)
    dab = np.sqrt(kd_fixed_support(k, a, b))
    dbc = np.sqrt(kd_fixed_support(k, b, c))
    dac = np.sqrt(kd_fixed_support(k, a, c))
    assert dac <= dab + dbc + 1e-12


def test_kd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kd_fixed_support(gram_from_values(np.eye(3)), WeightVector.uniform(3), WeightVector.uniform(4))


# -- MMD ----------------------------------------------------------------------

def test_mmd2_biased_same_set_zero():
    rng = np.random.default_rng(1)
    x = EmbeddingSet(rng.normal(size=(20, 4)))
    assert mmd2(x, x, KernelSpec("gaussian", 1.0))[0] == pytest.approx(0.0, abs=1e-12)


def test_mmd2_two_singletons():
    a = np.array([[0.0, 0.0]])
    b = np.array([[1.0, 2.0]])
    spec = KernelSpec("gaussian", 1.5)
    val, _ = mmd2(EmbeddingSet(a), EmbeddingSet(b), spec)
    expected = 2.0 - 2.0 * gaussian_kernel(a[0], b[0], 1.5)
    assert val == pytest.approx(expected, rel=1e-12)


def test_mmd2_biased_nonnegative():
    rng = np.random.default_rng(2)
    for seed in range(5):
        x = EmbeddingSet(rng.normal(size=(15, 3)))
        y = EmbeddingSet(rng.normal(size=(10, 3)))
        assert mmd2(x, y, KernelSpec("gaussian", 1.0))[0] >= -1e-12


def test_mmd2_unbiased_needs_two():
    x = EmbeddingSet(np.ones((1, 2)))
    assert mmd2(x, x, KernelSpec("gaussian", 1.0))[1] is None


def test_mmd2_unbiased_null_calibration():
    # same-distribution draws: the unbiased estimate sits inside three
    # permutation-null standard deviations of zero
    gen = RunSeed(99).generator()
    pool = gen.normal(size=(400, 2))
    x = EmbeddingSet(pool[:200])
    y = EmbeddingSet(pool[200:])
    spec = KernelSpec("gaussian", 1.0)
    observed = mmd2(x, y, spec)[1]
    null = []
    for _ in range(200):
        perm = gen.permutation(400)
        null.append(
            mmd2(EmbeddingSet(pool[perm[:200]]), EmbeddingSet(pool[perm[200:]]), spec)[1]
        )
    assert abs(observed) <= 3.0 * np.std(null) + 1e-12


@pytest.mark.parametrize("m, n", [(5, 4), (2, 7)])
def test_mmd2_both_estimators_match_double_loop(m, n):
    rng = np.random.default_rng(31 + m)
    x = rng.normal(size=(m, 3))
    y = rng.normal(size=(n, 3)) + 0.5
    bw = 1.1

    def block(a, b):
        return np.array([[gaussian_kernel(u, v, bw) for v in b] for u in a])

    kxx, kyy, kxy = block(x, x), block(y, y), block(x, y)
    biased = kxx.mean() + kyy.mean() - 2.0 * kxy.mean()
    unbiased = (
        (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
        + (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
        - 2.0 * kxy.mean()
    )
    spec = KernelSpec("gaussian", bw)
    got_biased, got_unbiased = mmd2(EmbeddingSet(x), EmbeddingSet(y), spec)
    assert got_biased == pytest.approx(biased, rel=1e-12, abs=1e-15)
    assert got_unbiased == pytest.approx(unbiased, rel=1e-12, abs=1e-15)
    rep = compare(EmbeddingSet(x), EmbeddingSet(y), spec)
    assert (rep.kd_squared, rep.mmd2_unbiased) == (got_biased, got_unbiased)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 60),
    n=st.integers(1, 60),
    d=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(0.0, 3.0),
)
def test_cosine_mmd2_from_row_sums_matches_block_oracle(m, n, d, seed, shift):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-6, 6, size=(m, 1))
    y = rng.normal(size=(n, d)) + shift
    spec = KernelSpec("cosine")
    kxx, kyy, kxy = cross(x, x, spec), cross(y, y, spec), cross(x, y, spec)
    biased = max(kxx.mean() + kyy.mean() - 2.0 * kxy.mean(), 0.0)
    got_biased, got_unbiased = mmd2(EmbeddingSet(x), EmbeddingSet(y), spec)
    assert got_biased == pytest.approx(biased, rel=0.0, abs=1e-12)
    if m < 2 or n < 2:
        assert got_unbiased is None
        return
    unbiased = (
        (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
        + (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
        - 2.0 * kxy.mean()
    )
    assert got_unbiased == pytest.approx(unbiased, rel=0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 50),
    n=st.integers(1, 50),
    d=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    bandwidth=st.floats(0.05, 20.0),
)
def test_compare_with_prebuilt_gaussian_grams_is_bitwise_equal(m, n, d, seed, bandwidth):
    rng = np.random.default_rng(seed)
    x = EmbeddingSet(rng.normal(size=(m, d)))
    y = EmbeddingSet(rng.normal(size=(n, d)) + 0.3)
    spec = KernelSpec("gaussian", bandwidth)
    plain = compare(x, y, spec)
    kxx, kyy = SelfBlock.of(gram(x, spec)), SelfBlock.of(gram(y, spec))
    assert compare(x, y, spec, kxx, kyy) == plain
    assert compare(x, y, spec, kxx) == plain


def test_prebuilt_gram_must_match_its_set():
    x = EmbeddingSet(np.random.default_rng(2).normal(size=(6, 2)))
    y = EmbeddingSet(np.random.default_rng(3).normal(size=(5, 2)))
    spec = KernelSpec("gaussian", 1.0)
    with pytest.raises(DataError):
        mmd2(x, y, spec, kxx=SelfBlock.of(gram(y, spec)))
    with pytest.raises(DataError):
        mmd2(x, y, spec, kyy=SelfBlock.of(gram(y, KernelSpec("gaussian", 2.0))))


# -- Frechet distance -----------------------------------------------------------

def test_fd_same_set_zero():
    rng = np.random.default_rng(3)
    x = EmbeddingSet(rng.normal(size=(50, 4)))
    assert frechet_distance(x, x) == pytest.approx(0.0, abs=1e-8)


def test_fd_symmetric():
    rng = np.random.default_rng(4)
    x = EmbeddingSet(rng.normal(size=(40, 3)))
    y = EmbeddingSet(rng.normal(size=(60, 3)) + 1.0)
    assert frechet_distance(x, y) == pytest.approx(frechet_distance(y, x), abs=1e-8)


def test_fd_mean_shift_closed_form():
    # equal covariances: FD reduces to the squared mean shift (= 1 here)
    gen = RunSeed(5).generator()
    x = EmbeddingSet(gen.normal(size=(50_000, 2)))
    y = EmbeddingSet(gen.normal(size=(50_000, 2)) + np.array([1.0, 0.0]))
    assert frechet_distance(x, y) == pytest.approx(1.0, abs=0.05)


def test_fd_covariance_scale_closed_form():
    # N(0, I) vs N(0, 4I) in 2D: tr(I + 4I - 2*2I) = 2
    gen = RunSeed(6).generator()
    x = EmbeddingSet(gen.normal(size=(50_000, 2)))
    y = EmbeddingSet(gen.normal(size=(50_000, 2)) * 2.0)
    assert frechet_distance(x, y) == pytest.approx(2.0, abs=0.05)


def test_fd_too_few_samples():
    with pytest.raises(TooFewSamples):
        frechet_distance(EmbeddingSet(np.ones((1, 2))), EmbeddingSet(np.ones((5, 2))))


def test_fd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        frechet_distance(EmbeddingSet(np.ones((5, 2))), EmbeddingSet(np.ones((5, 3))))


def test_compare_report():
    rng = np.random.default_rng(7)
    x = EmbeddingSet(rng.normal(size=(30, 3)))
    y = EmbeddingSet(rng.normal(size=(25, 3)))
    rep = compare(x, y, KernelSpec("gaussian", 1.0))
    assert rep.kd_squared >= 0.0
    assert rep.fd is not None and rep.fd >= 0.0
    assert rep.mmd2_unbiased is not None
    payload = rep.to_payload()
    assert payload["kernel"] == {"family": "gaussian", "bandwidth": 1.0}
