import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.bias_lab import population_rke_mc
from divkit.dataio import EmbeddingSet, RunSeed, write_matrix_container
from divkit.discrepancy import mmd2
from divkit.entropy import _eigensolve
from divkit.errors import DataError, NonPositiveBandwidth, ZeroVector
from divkit.guidance import irke_gradient
from divkit.kernels import (
    _EXP_FLOOR,
    GramMatrix,
    KernelSpec,
    _sq_rows,
    _symmetrize,
    cross,
    gram,
    load_gram,
    paired,
)
from oracles import (
    cosine_kernel,
    full_exp_gaussian,
    gaussian_kernel,
    gram_from_values,
    hadamard_square,
)


def min_eigenvalue(k: GramMatrix) -> float:
    """Smallest eigenvalue of a Gram, through the library's one eigensolve path."""
    return float(_eigensolve(k.values.copy())[0])


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
    for bandwidth in (np.inf, np.nan):
        with pytest.raises(NonPositiveBandwidth, match=str(bandwidth)):
            KernelSpec("gaussian", bandwidth)
        with pytest.raises(NonPositiveBandwidth, match=str(bandwidth)):
            gaussian_kernel([0.0], [5.0], bandwidth)


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
        assert min_eigenvalue(k) >= -1e-10 * k.n
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
    # rows whose squares and products overflow: cross gives 0 (Gaussian) or
    # the cosine of the directions, and paired must agree without a warning
    huge = rng.normal(size=(2,) + x.shape) * 1e200
    for a, b in ((x, y_aligned), (huge[0], huge[1])):
        np.testing.assert_allclose(paired(a, b, spec), np.diagonal(cross(a, b, spec)), rtol=1e-12)

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
    assert min_eigenvalue(k2) >= -1e-10 * k2.n


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
    write_matrix_container(str(p), k.values)
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
    assert min_eigenvalue(k) >= -1e-10 * n


# -- Gaussian distances from one GEMM per block ------------------------------

def assembled_sq(x, y):
    """The squared distances of ``_sq_rows``; a self block's lower triangle is left NaN."""
    out = np.full((x.shape[0], y.shape[0]), np.nan)
    for r, lo, sq in _sq_rows(x, y):
        out[r:r + sq.shape[0], lo:] = sq
    if y is x:
        out[np.tril_indices(x.shape[0], -1)] = np.nan
    return out


def with_duplicates(x, rng, near):
    """``x`` with some rows replaced by exact (and, if ``near``, nearly exact) copies of others."""
    n = x.shape[0]
    k = int(rng.integers(1, n // 2 + 1))
    src, dst = rng.integers(0, n, size=k), rng.integers(0, n, size=k)
    x = x.copy()
    x[dst] = x[src]
    if near:
        x[dst[::2]] *= 1.0 + 1e-13 * rng.normal(size=(dst[::2].size, x.shape[1]))
    return x


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    m=st.integers(min_value=1, max_value=40),
    d=st.integers(min_value=1, max_value=80),
    offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
    spread=st.sampled_from([1e-9, 1e-4, 1.0, 10.0]),
    layout=st.sampled_from(["normal", "cube", "duplicates", "near_duplicates"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_gemm_distances_match_coordinate_difference_oracle(n, m, d, offset, spread, layout,
                                                           seed):
    # the recompute rule guarantees a relative error of 16 (d + 4) eps on every entry
    rng = np.random.default_rng(seed)
    if layout == "cube":
        x = rng.integers(0, 2, size=(n, d)) + spread * 1e-3 * rng.normal(size=(n, d))
    else:
        x = spread * rng.normal(size=(n, d))
    x += offset
    if layout in ("duplicates", "near_duplicates") and n > 1:
        x = with_duplicates(x, rng, near=layout == "near_duplicates")
    y = offset + spread * rng.normal(size=(m, d))
    bound = 16 * (d + 4) * np.finfo(float).eps
    for a, b in ((x, x), (x, y), (y, x)):
        got = assembled_sq(a, b)
        la, lb = a.astype(np.longdouble), b.astype(np.longdouble)
        want = ((la[:, None, :] - lb[None, :, :]) ** 2).sum(axis=-1)
        done = ~np.isnan(got)
        err = np.abs(got[done] - want[done])
        assert np.all(err <= bound * want[done]), float((err / want[done]).max())
        if b is a:
            assert np.all(np.diagonal(got) == 0.0)


@pytest.mark.parametrize("n, d", [(1, 3), (7, 1), (65, 3), (300, 17), (1000, 4)])
def test_gaussian_self_block_is_exactly_symmetric_with_unit_diagonal(n, d):
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d)) + 5.0
    spec = KernelSpec("gaussian", 0.8)
    k = cross(x, x, spec)
    assert np.array_equal(k, k.T)
    assert np.all(np.diagonal(k) == 1.0)
    assert np.array_equal(gram(EmbeddingSet(x), spec).values, k)


@pytest.mark.parametrize("n, d", [(12, 3), (257, 17), (700, 64)])
def test_gaussian_duplicate_rows_give_identical_kernel_rows(n, d):
    rng = np.random.default_rng(d)
    x = with_duplicates(rng.normal(size=(n, d)), rng, near=False)
    x[-1] = x[0]  # copies far apart, in different row blocks and mirror tiles
    k = gram(EmbeddingSet(x), KernelSpec("gaussian", 1.5)).values
    _, first, group = np.unique(x, axis=0, return_index=True, return_inverse=True)
    assert np.array_equal(k, k[first[group.ravel()]])
    assert np.unique(k, axis=0).shape[0] == first.size


@pytest.mark.parametrize("layout", ["cube mixture", "dense"])
def test_gaussian_entries_below_the_exponent_floor_are_zero(layout):
    # entries under exp(2 log(eps) - 1) = eps^2 / e are exactly 0, every other
    # entry is exp of its exponent; the self block spans three row blocks
    rng = np.random.default_rng(9)
    if layout == "cube mixture":
        x, y = (rng.integers(0, 2, size=(m, 10)) + 1e-4 * rng.normal(size=(m, 10))
                for m in (600, 150))
        spec = KernelSpec("gaussian", 0.1)
    else:
        x, y = rng.normal(size=(600, 8)), rng.normal(size=(150, 8))
        spec = KernelSpec("gaussian", 2.0)
    floor = np.exp(2.0 * np.log(np.finfo(float).eps) - 1.0)
    for a, b in ((x, x), (x, y)):
        full = full_exp_gaussian(a, b, spec.bandwidth)
        got = cross(a, b, spec)
        assert np.array_equal(got, np.where(full < floor, 0.0, full))
        if layout == "dense":
            assert got.min() > floor
        else:  # the floor zeroes entries that exp would leave tiny but nonzero
            assert np.any((full > 0.0) & (got == 0.0))


def test_gaussian_rows_near_1e200_give_zero_not_nan():
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(20, 3)) * 1e200, rng.normal(size=(15, 3)) * 1e200
    spec = KernelSpec("gaussian", 1.0)
    k = cross(x, x, spec)
    assert np.array_equal(k, np.eye(20))
    assert np.array_equal(cross(x, y, spec), np.zeros((20, 15)))


@pytest.mark.parametrize("rows", [
    [[1e308], [-1e308]],  # their difference overflows
    [[1e308], [1e308], [1.5e308]],  # the sum behind their mean overflows
    [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]],
])
def test_gaussian_rows_near_the_float_limit_are_quiet_and_agree_with_paired(rows):
    # pytest turns the warnings of an overflow into errors
    x, spec = np.array(rows), KernelSpec("gaussian", 1.0)
    k = cross(x, x, spec)
    i, j = np.triu_indices(len(x))
    assert np.array_equal(k[i, j], paired(x[i], x[j], spec))
    # equal rows give 1, the others are too far apart for anything but 0
    assert np.array_equal(k, (x[:, None, :] == x[None, :, :]).all(axis=2).astype(float))


#: the smallest bandwidth whose square is a normal float, and the largest whose
#: doubled square is finite
SMALLEST_BW = float(np.sqrt(np.finfo(float).tiny))
LARGEST_BW = float(np.sqrt(np.finfo(float).max / 2.0))


def test_kernel_spec_bandwidth_needs_a_normal_square():
    for bw in (SMALLEST_BW, LARGEST_BW):
        assert KernelSpec("gaussian", bw).bandwidth == bw
    for bw in (np.nextafter(SMALLEST_BW, 0.0), 1e-160, np.nextafter(LARGEST_BW, np.inf)):
        with pytest.raises(NonPositiveBandwidth, match="a normal one"):
            KernelSpec("gaussian", bw)


def floored_exp(exponent):
    """exp of each exponent, 0 where it is below ``_EXP_FLOOR``."""
    return np.where(exponent < _EXP_FLOOR, 0.0, np.exp(np.maximum(exponent, _EXP_FLOOR)))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 8),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    log_bw=st.floats(np.log10(1.01 * SMALLEST_BW), 150.0),
    log_scale=st.floats(-3.0, 3.0),
    absolute=st.booleans(),
    duplicates=st.booleans(),
)
def test_gaussian_exponent_is_finite_and_floored_at_every_scale(n, d, seed, log_bw, log_scale,
                                                                absolute, duplicates):
    # rows at a fixed multiple of the bandwidth, or at any scale up to 1e150
    rng = np.random.default_rng(seed)
    bw = 10.0**log_bw
    spec = KernelSpec("gaussian", bw)
    scale = 10.0 ** (50.0 * log_scale) if absolute else min(bw * 10.0**log_scale, 1e150)
    x, y = rng.normal(size=(2, n, d)) * scale
    if duplicates:
        y[::2] = x[::2]
    z, diff = x[0], x[0] - y
    with np.errstate(over="ignore"):  # the test's own exponents overflow to -inf
        exponent = ((x - y) ** 2).sum(axis=1) / (-2.0 * bw**2)
        exponent_sq = (diff**2).sum(axis=1) / -(bw**2)

    k = cross(x, y, spec)
    self_block = cross(x, x, spec)
    p = paired(x, y, spec)
    for values in (k, self_block, p):
        assert np.isfinite(values).all() and values.min() >= 0.0 and values.max() <= 1.0
    assert np.array_equal(np.diagonal(self_block), np.ones(n))

    # paired takes exp of the exponent, or 0 below the floor; cross agrees
    # within its distance error, and is exactly 0 well below the floor
    assert np.array_equal(p, floored_exp(exponent))
    diag = np.diagonal(k)
    above = (p > 0.0) & (diag > 0.0)
    np.testing.assert_allclose(diag[above], p[above], rtol=1e-12)
    assert np.all(diag[exponent < _EXP_FLOOR * (1.0 + 1e-12)] == 0.0)

    # the guidance gradient weighs each bank row by its squared kernel, 0 below the floor
    g = irke_gradient(z, y, spec)
    assert np.isfinite(g).all()
    assert np.array_equal(g, -2.0 / (n * bw**2) * (floored_exp(exponent_sq) @ diff))
