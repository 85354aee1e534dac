"""Kernel functions and Gram matrix construction.

The Gaussian kernel uses the exp(-||x-y||^2 / (2*bandwidth^2)) convention;
bandwidths quoted elsewhere in this package assume that form.  Embeddings are
never normalized implicitly: the cosine kernel unit-normalizes internally,
the Gaussian kernel uses raw coordinates.  Every array kernel evaluation in
the package goes through :func:`cross` (all pairs of rows) or :func:`paired`
(aligned rows); the scalar kernels are their reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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
            object.__setattr__(self, "bandwidth", float(self.bandwidth))
        elif self.bandwidth is not None:
            raise DataError("cosine kernel takes no bandwidth")

    def to_payload(self) -> dict:
        out = {"family": self.family}
        if self.bandwidth is not None:
            out["bandwidth"] = self.bandwidth
        return out

    @staticmethod
    def from_payload(doc: dict) -> "KernelSpec":
        return KernelSpec(doc["family"], doc.get("bandwidth"))


def gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x-y||^2 / (2*bandwidth^2)); equals 1 iff x == y."""
    if not bandwidth > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-float(diff @ diff) / (2.0 * bandwidth * bandwidth)))


def cosine_kernel(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    if np.array_equal(x, y):
        return 1.0  # normalization contract k(x, x) = 1, exactly
    return float(np.clip((x @ y) / (nx * ny), -1.0, 1.0))


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

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.values)[0])


def _symmetrize(k: np.ndarray) -> np.ndarray:
    """(K + K^T)/2 with the diagonal pinned to exactly 1."""
    k = (k + k.T) / 2.0
    np.fill_diagonal(k, 1.0)
    return k


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms; the cosine kernel is undefined at a zero row."""
    norms = np.linalg.norm(x, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroVector(f"row {int(zero[0])} has zero norm")
    return norms


def cross(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x_i, y_j) for all rows of ``x`` against all rows of ``y``; O(n m d).

    Passing the same array twice normalizes it once, so the cosine self
    block comes from one symmetric BLAS product, whose rounding can differ
    from a general product of two copies.  The result is not symmetrized or
    pinned; :func:`gram` does that.
    """
    if spec.family == "gaussian":
        sq = cdist(x, y, metric="sqeuclidean")
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.bandwidth**2))
    ux = x / _row_norms(x)[:, None]
    uy = ux if y is x else y / _row_norms(y)[:, None]
    return np.clip(ux @ uy.T, -1.0, 1.0)


def paired(x: np.ndarray, y: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """k(x_i, y_i) for aligned rows of ``x`` and ``y``; O(n d)."""
    if spec.family == "gaussian":
        sq = ((x - y) ** 2).sum(axis=1)
        return np.exp(-sq / (2.0 * spec.bandwidth**2))
    return np.clip((x * y).sum(axis=1) / (_row_norms(x) * _row_norms(y)), -1.0, 1.0)


def gram(x: EmbeddingSet, spec: KernelSpec) -> GramMatrix:
    """Pairwise kernel matrix of all rows of ``x``; O(n^2 d)."""
    return GramMatrix(_symmetrize(cross(x.data, x.data, spec)), spec)


def hadamard_square(k: GramMatrix) -> GramMatrix:
    """Entrywise square K*K; PSD whenever K is (Schur product), diag stays 1."""
    return GramMatrix(_symmetrize(k.values * k.values), k.spec)


def gram_from_values(values: np.ndarray, spec: KernelSpec | None = None) -> GramMatrix:
    """Wrap a raw array, symmetrizing and pinning the diagonal first."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DimensionMismatch(f"expected a square array, got shape {values.shape}")
    return GramMatrix(_symmetrize(np.clip(values, -1.0, 1.0)), spec)


def save_gram(k: GramMatrix, path: str) -> None:
    dataio.write_matrix_container(path, k.values)


def load_gram(path: str, spec: KernelSpec | None = None) -> GramMatrix:
    values = dataio.read_matrix_container(path)
    return gram_from_values(values, spec)
