import numpy as np
import pytest

from divkit.dataio import EmbeddingSet, RunSeed
from divkit.discrepancy import (
    compare,
    frechet_distance,
    kd_fixed_support,
    mmd2,
)
from divkit.entropy import WeightVector
from divkit.errors import DimensionMismatch, TooFewSamples
from divkit.kernels import KernelSpec, gaussian_kernel, gram, gram_from_values


def test_kd_zero_at_equal_weights():
    k = gram_from_values(np.eye(5))
    q = WeightVector(np.array([0.4, 0.1, 0.2, 0.2, 0.1]))
    assert kd_fixed_support(k, q, q) == 0.0


def test_kd_identity_kernel_point_masses():
    k = gram_from_values(np.eye(4))
    e1 = WeightVector.point_mass(4, 0)
    e2 = WeightVector.point_mass(4, 1)
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
