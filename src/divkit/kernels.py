"""Kernel functions and Gram matrix construction.

The Gaussian kernel uses the exp(-||x-y||^2 / (2*bandwidth^2)) convention;
bandwidths quoted elsewhere in this package assume that form.  Embeddings are
never normalized implicitly: the cosine kernel unit-normalizes internally,
the Gaussian kernel uses raw coordinates.  Every array kernel evaluation in
the package goes through :func:`cross` (all pairs of rows) or :func:`paired`
(aligned rows); the scalar kernels in ``tests/oracles.py`` are their
reference.  :func:`unit_rows` is the cosine feature factor U (K = U U^T),
from which the entropy and discrepancy modules compute cosine scores without
an n x n block; the [-1, 1] clip of :func:`cross` acts only at rounding level.

Gaussian squared distances come from BLAS products (one GEMM per block of
rows) of the rows centred on the mean of ``x``, as ||a||^2 + ||b||^2 - 2 a.b.
Entries that this form cannot resolve (not above 1/16 of the summed squared
norms, or NaN because the norms overflowed) are recomputed from coordinate
differences.  So every distance has a relative error of at most about
16 (d + 4) eps.  :func:`_gauss_exp` makes every Gaussian exponent, the guidance
gradient's too; one below 2 log(eps) - 1 gives exactly 0, with no call to
``exp`` (slow where it underflows): the eigensolve's flush (:mod:`divkit.entropy`)
zeroes such an entry of K/n or A(q) anyway, with a margin of e, so well-separated
clusters give a Gram whose zeros split it by cluster.  divkit loads no scipy.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import dataio
from .dataio import EmbeddingSet
from .errors import DataError, DimensionMismatch, NonPositiveBandwidth, ZeroVector

KERNEL_FAMILIES = ("gaussian", "cosine")


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to apply; both families satisfy k(x, x) = 1."""

    family: str
    bandwidth: float | None = None

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise DataError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            if self.bandwidth is None or not self.bandwidth > 0:
                raise NonPositiveBandwidth(f"gaussian bandwidth must be > 0, got {self.bandwidth}")
            bw = float(self.bandwidth)
            if not (np.finfo(float).tiny <= bw * bw and np.isfinite(2.0 * bw * bw)):
                raise NonPositiveBandwidth(  # the scales that _gauss_exp divides by
                    f"gaussian bandwidth must have a positive finite square, got {self.bandwidth} "
                    "(a normal one, so a bandwidth of about 1.4917e-154 to 9.4807e153)")
            object.__setattr__(self, "bandwidth", bw)
        elif self.bandwidth is not None:
            raise DataError("cosine kernel takes no bandwidth")

    def to_payload(self) -> dict:
        return {name: value for name, value in asdict(self).items() if value is not None}

    @staticmethod
    def from_payload(doc: dict) -> "KernelSpec":
        return KernelSpec(doc["family"], doc.get("bandwidth"))


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel similarity matrix with unit diagonal.

    ``spec`` records how the matrix was produced; it is None for matrices
    loaded from files that carry no kernel provenance.
    """

    values: np.ndarray
    spec: KernelSpec | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DataError(f"Gram matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError("Gram matrix contains non-finite entries")
        if not np.array_equal(arr, arr.T):
            raise DataError("Gram matrix must be exactly symmetric; symmetrize first")
        if np.abs(np.diagonal(arr) - 1.0).max() > 1e-12:
            raise DataError("Gram matrix must have unit diagonal")
        if arr.min() < -1.0 - 1e-12 or arr.max() > 1.0 + 1e-12:
            raise DataError("Gram entries must lie in [-1, 1]")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _trusted(values: np.ndarray, spec: KernelSpec | None) -> GramMatrix:
    """An unchecked GramMatrix of a block built finite, in [-1, 1], symmetric, unit-diagonal."""
    values.flags.writeable = False
    k = object.__new__(GramMatrix)
    vars(k).update(values=values, spec=spec)
    return k


@dataclass(frozen=True)
class SelfBlock:
    """Sum and trace of a kernel self block K(x, x): all that MMD needs of it."""

    n: int
    spec: KernelSpec | None
    sum: float
    trace: float

    @staticmethod
    def of(k: GramMatrix) -> "SelfBlock":
        return SelfBlock(k.n, k.spec, k.values.sum(), np.trace(k.values))


def _symmetrize(k: np.ndarray) -> np.ndarray:
    """(K + K^T)/2 with the diagonal pinned to exactly 1, in place."""
    _average_transpose(k)
    np.fill_diagonal(k, 1.0)
    return k


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms; the cosine kernel is undefined at a zero row.

    A row whose sum of squares overflows or underflows (entries beyond about
    1e154 or below 1e-154) is measured again scaled by its largest entry.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1)
    lost = np.flatnonzero((norms == 0.0) | np.isinf(norms))
    if lost.size:
        scale = np.abs(x[lost]).max(axis=1)
        scale[scale == 0.0] = 1.0
        norms[lost] = scale * np.linalg.norm(x[lost] / scale[:, None], axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVector(f"row {int(zero[0])} has zero norm")
    return norms


def unit_rows(x: np.ndarray) -> np.ndarray:
    """The cosine feature factor U: each row of ``x`` scaled to unit norm.

    The cosine kernel is K = U U^T, so every cosine score can be computed
    from U.  Raises ``ZeroVector`` naming the first zero row.
    """
    return x / _row_norms(x)[:, None]


#: float64 entries per temporary: a row block of a Gaussian block, or the
#: coordinate differences recomputed at once (1 MiB)
_CHUNK = 1 << 17


#: Gaussian exponents below this give kernel 0: exp of them is under eps^2 / e
_EXP_FLOOR = 2.0 * np.log(np.finfo(np.float64).eps) - 1.0


def _gauss_exp(sq: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """exp(sq / scale) into ``out``, for squared distances ``sq`` and a negative normal ``scale``
    (-2 h^2 for the kernel, -h^2 for its square); ``sq`` is overwritten with the exponent.
    Overflow gives -inf quietly, and an exponent below ``_EXP_FLOOR`` exactly 0."""
    with np.errstate(over="ignore"):
        np.divide(sq, scale, out=sq)
    if sq.min(initial=0.0) >= _EXP_FLOOR:  # exp is slow where it underflows
        return np.exp(sq, out=out)
    out.fill(0.0)
    return np.exp(sq, out=out, where=sq >= _EXP_FLOOR)


#: strictly lower triangle of a mirror tile
_LOWER = np.tri(64, k=-1, dtype=bool)


def _mirror_upper(m: np.ndarray) -> None:
    """Copy the upper triangle of the square ``m`` onto its lower one, in place.

    Tile by tile, so that the transposed reads stay in cache.
    """
    n, t = m.shape[0], _LOWER.shape[0]
    for r in range(0, n, t):
        block = m[r:r + t, r:r + t]
        np.copyto(block, block.T, where=_LOWER[:block.shape[0], :block.shape[0]])
        for c in range(r + t, n, t):
            m[c:c + t, r:r + t] = m[r:r + t, c:c + t].T


def _average_transpose(m: np.ndarray) -> None:
    """Overwrite the square ``m`` with (m + m^T)/2 in place, tile by tile, bit
    for bit: exactly symmetric, and a no-op on an exactly symmetric ``m``."""
    n, t = m.shape[0], _LOWER.shape[0]
    for r in range(0, n, t):
        for c in range(r, n, t):
            mean = (m[r:r + t, c:c + t] + m[c:c + t, r:r + t].T) / 2.0
            m[r:r + t, c:c + t], m[c:c + t, r:r + t] = mean, mean.T


def _exact_sq(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """||x_i - y_j||^2 from coordinate differences for index arrays ``i``, ``j``."""
    out = np.empty(i.size)
    step = max(1, _CHUNK // x.shape[1])
    for s in range(0, i.size, step):
        with np.errstate(over="ignore"):  # rows beyond about 1e154 apart give inf
            diff = x[i[s:s + step]] - y[j[s:s + step]]
            out[s:s + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _sq_rows(x: np.ndarray, y: np.ndarray):
    """Squared distances ||x_i - y_j||^2 by blocks of rows, as ``(r, lo, sq)``.

    ``sq`` holds the distances of rows r, r+1, ... of ``x`` to rows lo,
    lo+1, ... of ``y``.  A self block (``y is x``) has lo = r, so only the
    upper triangle and the diagonal squares are evaluated.  With
    a = x - mean(x) and b = y - mean(x), a distance is
    ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, one GEMM per block.  Where that value
    is not above 1/16 of the summed norms (cancellation: exact and near
    duplicates, tight clusters; or NaN from norms that overflowed, for rows
    beyond about 1e154), it is recomputed from the raw differences
    x_i - y_j, which overflow to inf rather than NaN.
    """
    self_block = y is x
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are redone below
        centre = x.mean(axis=0)
        a = x - centre
        b = a if self_block else y - centre
        na = np.einsum("ij,ij->i", a, a)
        nb = na if self_block else np.einsum("ij,ij->i", b, b)
    bt = b.T.copy()  # a copy also keeps numpy off syrk, whose triangle copy is slow
    step = max(1, _CHUNK // y.shape[0])
    for r in range(0, x.shape[0], step):
        lo = r if self_block else 0
        with np.errstate(over="ignore", invalid="ignore"):
            sq = a[r:r + step] @ bt[:, lo:]
            sq *= -2.0
            norms = na[r:r + step, None] + nb[lo:]
            sq += norms
            norms *= 1.0 / 16.0
            redo = np.flatnonzero(~(sq > norms))  # NaN included
        if redo.size:
            i, j = np.divmod(redo, sq.shape[1])
            sq.ravel()[redo] = _exact_sq(x, y, r + i, lo + j)
        yield r, lo, sq


def _gaussian(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """exp(-||x_i - y_j||^2 / (2 bandwidth^2)) from the distances of :func:`_sq_rows`.

    A self block copies its upper triangle onto the lower one, so it is
    exactly symmetric with a unit diagonal, and rows at distance exactly 0
    get the kernel row of their first copy.
    """
    n, scale = x.shape[0], -2.0 * bandwidth**2
    out = np.empty((n, y.shape[0]))
    first = np.full(n, n)  # per row, the first row at distance 0 before it
    for r, lo, sq in _sq_rows(x, y):
        if y is x:
            i, j = np.divmod(np.flatnonzero(sq == 0.0), sq.shape[1])
            later = r + i < lo + j
            np.minimum.at(first, lo + j[later], r + i[later])
        _gauss_exp(sq, scale, out[r:r + sq.shape[0], lo:])
    if y is x:
        _mirror_upper(out)
        later = np.flatnonzero(first < n)
        if later.size:
            out[later] = out[first[later]]
            out[:, later] = out[:, first[later]]
    return out


def cross(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x_i, y_j) for all rows of ``x`` against all rows of ``y``; O(n m d).

    Passing the same array twice marks a self block.  The cosine self block
    normalizes once and comes from one symmetric BLAS product, whose rounding
    can differ from a general product of two copies; it is not symmetrized
    or pinned, :func:`gram` does that.  The Gaussian self block is exactly
    symmetric with a unit diagonal, and duplicated rows give identical
    kernel rows.  Gaussian distances come from one GEMM per block of rows
    (:func:`_sq_rows`), with a relative error of at most about 16 (d + 4)
    eps; rows so far apart that the kernel is below eps^2 / e give 0.
    """
    if spec.family == "gaussian":
        return _gaussian(x, y, spec.bandwidth)
    ux = unit_rows(x)
    uy = ux if y is x else unit_rows(y)
    return np.clip(ux @ uy.T, -1.0, 1.0)


def paired(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x_i, y_i) for aligned rows of ``x`` and ``y``; O(n d)."""
    if spec.family == "gaussian":
        with np.errstate(over="ignore"):  # rows so far apart give 0, as in cross
            sq = ((x - y) ** 2).sum(axis=1)
        return _gauss_exp(sq, -2.0 * spec.bandwidth**2, np.empty_like(sq))
    return np.clip((unit_rows(x) * unit_rows(y)).sum(axis=1), -1.0, 1.0)


def gram(x: EmbeddingSet, spec: KernelSpec) -> GramMatrix:
    """Pairwise kernel matrix of all rows of ``x``; O(n^2 d).

    The Gaussian self block is already exactly symmetric with a unit
    diagonal, so only the cosine one is symmetrized; neither is checked again.
    """
    k = cross(x.data, x.data, spec)
    return _trusted(k if spec.family == "gaussian" else _symmetrize(k), spec)


def _check_square(values: np.ndarray) -> None:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DimensionMismatch(f"expected a square array, got shape {values.shape}")


def load_gram(path: str) -> GramMatrix:
    """Read a GRAM container as a Gram: entries clipped to [-1, 1], then
    (K + K^T)/2 with the diagonal pinned to 1.

    The reader has checked every entry finite, so clipping and symmetrizing
    the array it returns, in place, leaves a valid Gram in one buffer.
    """
    values = dataio.read_matrix_container(path)
    _check_square(values)
    np.clip(values, -1.0, 1.0, out=values)
    return _trusted(_symmetrize(values), None)
