import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.bias_lab import population_rke_mc
from divkit.dataio import EmbeddingSet, RunSeed
from divkit.discrepancy import mmd2
from divkit.errors import DataError, NonPositiveBandwidth, ZeroVector
from divkit.kernels import (
    GramMatrix,
    KernelSpec,
    _symmetrize,
    cosine_kernel,
    cross,
    gaussian_kernel,
    gram,
    gram_from_values,
    hadamard_square,
    load_gram,
    paired,
    save_gram,
)


def test_gaussian_kernel_closed_forms():
    assert gaussian_kernel([1.0, 2.0], [1.0, 2.0], 0.7) == 1.0
    # separation bandwidth*sqrt(2) gives exactly exp(-1)
    bw = 1.3
    val = gaussian_kernel([0.0], [bw * np.sqrt(2.0)], bw)
    assert val == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert gaussian_kernel([0.0, 0.0], [3.0, 4.0], 5.0) == pytest.approx(np.exp(-0.5), rel=1e-12)


def test_gaussian_kernel_bad_bandwidth():
    with pytest.raises(NonPositiveBandwidth):
        gaussian_kernel([0.0], [1.0], 0.0)
    with pytest.raises(NonPositiveBandwidth):
        KernelSpec("gaussian", -1.0)


def test_gaussian_monotone_and_translation_invariant():
    bw = 2.0
    dists = np.linspace(0.1, 5.0, 25)
    vals = [gaussian_kernel([0.0], [d], bw) for d in dists]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    shift = np.array([3.7, -1.2])
    x, y = np.array([0.5, 1.0]), np.array([-1.0, 2.0])
    assert gaussian_kernel(x, y, bw) == pytest.approx(
        gaussian_kernel(x + shift, y + shift, bw), rel=1e-14
    )


def test_cosine_kernel_values():
    v = np.array([2.0, 1.0])
    assert cosine_kernel(v, v) == 1.0
    assert cosine_kernel([1.0, 0.0], [0.0, 5.0]) == 0.0
    assert cosine_kernel([1.0, 0.0], [-1.0, 0.0]) == -1.0
    with pytest.raises(ZeroVector):
        cosine_kernel([0.0, 0.0], [1.0, 0.0])


def test_gram_identical_rows_all_ones():
    x = EmbeddingSet(np.tile([1.0, 2.0, 3.0], (6, 1)))
    k = gram(x, KernelSpec("gaussian", 1.0))
    assert np.array_equal(k.values, np.ones((6, 6)))


def test_gram_separated_points_identity():
    x = EmbeddingSet(np.eye(8) * 50.0)
    k = gram(x, KernelSpec("gaussian", 0.5))
    off = k.values - np.eye(8)
    assert np.abs(off).max() < 1e-12


def test_gram_psd_random():
    rng = np.random.default_rng(5)
    x = EmbeddingSet(rng.normal(size=(50, 8)))
    for spec in (KernelSpec("gaussian", 1.0), KernelSpec("cosine")):
        k = gram(x, spec)
        assert k.min_eigenvalue() >= -1e-10 * k.n
        assert np.array_equal(k.values, k.values.T)
        assert np.all(np.diagonal(k.values) == 1.0)


def test_gram_cosine_zero_row():
    x = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ZeroVector):
        gram(x, KernelSpec("cosine"))


@pytest.mark.parametrize("spec", [KernelSpec("gaussian", 1.3), KernelSpec("cosine")],
                         ids=["gaussian", "cosine"])
def test_cross_and_paired_kernel_layer(spec):
    rng = np.random.default_rng(21)
    x = rng.normal(size=(17, 7))
    y = rng.normal(size=(11, 7))

    # the Gram matrix is the symmetrized self block, bit for bit
    assert np.array_equal(_symmetrize(cross(x, x, spec)), gram(EmbeddingSet(x), spec).values)

    # entrywise agreement with the scalar kernels
    def oracle(a, b):
        if spec.family == "gaussian":
            return gaussian_kernel(a, b, spec.bandwidth)
        return cosine_kernel(a, b)

    expected = np.array([[oracle(a, b) for b in y] for a in x])
    np.testing.assert_allclose(cross(x, y, spec), expected, rtol=1e-12)

    y_aligned = rng.normal(size=x.shape)
    np.testing.assert_allclose(
        paired(x, y_aligned, spec), np.diagonal(cross(x, y_aligned, spec)), rtol=1e-12
    )

    if spec.family == "gaussian":
        return
    zero_in_y = y_aligned.copy()
    zero_in_y[3] = 0.0

    def zero_sampler(n, rng):
        rows = rng.generator().normal(size=(n, 7))
        rows[n // 2] = 0.0
        return EmbeddingSet(rows)

    for a, b in ((zero_in_y, x), (x, zero_in_y)):
        with pytest.raises(ZeroVector):
            cross(a, b, spec)
        with pytest.raises(ZeroVector):
            paired(a, b, spec)
        with pytest.raises(ZeroVector):
            mmd2(EmbeddingSet(a), EmbeddingSet(b), spec)
    with pytest.raises(ZeroVector):
        population_rke_mc(zero_sampler, spec, 100, RunSeed(0))


def test_hadamard_square_trivial():
    eye = gram_from_values(np.eye(5))
    assert np.array_equal(hadamard_square(eye).values, np.eye(5))
    ones = gram_from_values(np.ones((5, 5)))
    assert np.array_equal(hadamard_square(ones).values, np.ones((5, 5)))


def test_hadamard_square_psd():
    rng = np.random.default_rng(9)
    x = EmbeddingSet(rng.normal(size=(30, 4)))
    k2 = hadamard_square(gram(x, KernelSpec("gaussian", 1.2)))
    assert k2.min_eigenvalue() >= -1e-10 * k2.n


def test_hadamard_square_equals_shrunk_bandwidth():
    # squaring the gaussian gram halves the squared bandwidth
    rng = np.random.default_rng(11)
    x = EmbeddingSet(rng.normal(size=(20, 3)))
    sigma = 0.9
    k2 = hadamard_square(gram(x, KernelSpec("gaussian", sigma)))
    direct = gram(x, KernelSpec("gaussian", sigma / np.sqrt(2.0)))
    assert np.abs(k2.values - direct.values).max() < 1e-12


def test_gram_matrix_validation():
    with pytest.raises(DataError):
        GramMatrix(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(DataError):
        GramMatrix(np.array([[1.0, 0.5], [0.5, 0.9]]))  # bad diagonal
    with pytest.raises(DataError):
        GramMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))  # out of range


def test_gram_container_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    x = EmbeddingSet(rng.normal(size=(12, 5)))
    k = gram(x, KernelSpec("gaussian", 2.0))
    p = tmp_path / "k.gram"
    save_gram(k, str(p))
    assert p.read_bytes()[:4] == b"GRAM"
    back = load_gram(str(p))
    assert np.array_equal(back.values, k.values)
    assert back.spec is None


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
    bw=st.floats(min_value=0.2, max_value=8.0),
)
def test_gram_invariants_property(n, d, seed, bw):
    rng = np.random.default_rng(seed)
    x = EmbeddingSet(rng.normal(size=(n, d)) * 2.0)
    k = gram(x, KernelSpec("gaussian", bw))
    assert np.all(np.diagonal(k.values) == 1.0)
    assert np.array_equal(k.values, k.values.T)
    # mathematically in (0, 1]; distant pairs may underflow to exactly 0
    assert k.values.min() >= 0.0 and k.values.max() <= 1.0
    assert k.min_eigenvalue() >= -1e-10 * n
