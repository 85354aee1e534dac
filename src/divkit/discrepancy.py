"""Kernel distance, MMD, and Frechet distance between embedding sets.

KD on a fixed support is the quadratic form (q - q0)^T K (q - q0), the
squared MMD between two reweightings of the same points.  The two-sample
:func:`mmd2` returns the biased and the unbiased estimator from one set of
kernel blocks built by :func:`kernels.cross`; FD is computed on raw
embedding vectors with unbiased (n-1) covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet
from .entropy import WeightVector
from .errors import DimensionMismatch, NumericError, TooFewSamples
from .kernels import GramMatrix, KernelSpec, cross


@dataclass(frozen=True)
class DiscrepancyReport:
    """Distances between two embedding sets under one kernel."""

    kd_squared: float
    fd: float | None
    mmd2_unbiased: float | None
    spec: KernelSpec

    def to_payload(self) -> dict:
        return {
            "kd_squared": self.kd_squared,
            "fd": self.fd,
            "mmd2_unbiased": self.mmd2_unbiased,
            "kernel": self.spec.to_payload(),
        }


def kd_fixed_support(k: GramMatrix, q: WeightVector, q0: WeightVector) -> float:
    """(q - q0)^T K (q - q0), clamped to 0 from below at -1e-12."""
    if q.n != k.n or q0.n != k.n:
        raise DimensionMismatch(
            f"weights of sizes {q.n} and {q0.n} against a {k.n}x{k.n} Gram"
        )
    diff = q.weights - q0.weights
    val = float(diff @ k.values @ diff)
    if val < -1e-12:
        raise NumericError(f"KD quadratic form is {val:.3e}, far below zero")
    return max(val, 0.0)


def mmd2(x: EmbeddingSet, y: EmbeddingSet, spec: KernelSpec) -> tuple[float, float | None]:
    """Squared MMD between two sets as (biased V-statistic, unbiased U-statistic).

    The unbiased value is None unless both sets hold at least 2 samples.
    """
    if x.d != y.d:
        raise DimensionMismatch(f"embedding dims differ: {x.d} vs {y.d}")
    m, n = x.n, y.n
    kxx = cross(x.data, x.data, spec)
    kyy = cross(y.data, y.data, spec)
    kxy_mean = cross(x.data, y.data, spec).mean()
    biased = max(float(kxx.mean() - 2.0 * kxy_mean + kyy.mean()), 0.0)
    if m < 2 or n < 2:
        return biased, None
    xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    return biased, float(xx + yy - 2.0 * kxy_mean)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clamped at 0."""
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    root = np.sqrt(np.maximum(vals, 0.0))
    return (vecs * root) @ vecs.T


def frechet_distance(x: EmbeddingSet, y: EmbeddingSet) -> float:
    """||mu_x - mu_y||^2 + tr(S_x + S_y - 2 (S_x S_y)^{1/2}) on raw embeddings."""
    if x.d != y.d:
        raise DimensionMismatch(f"embedding dims differ: {x.d} vs {y.d}")
    if x.n < 2 or y.n < 2:
        raise TooFewSamples("Frechet distance needs at least 2 samples per set")
    mu_x = x.data.mean(axis=0)
    mu_y = y.data.mean(axis=0)
    cov_x = np.cov(x.data, rowvar=False).reshape(x.d, x.d)
    cov_y = np.cov(y.data, rowvar=False).reshape(y.d, y.d)
    root_x = _sqrt_psd(cov_x)
    inner = root_x @ cov_y @ root_x
    cross_vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    tr_cross = np.sqrt(np.maximum(cross_vals, 0.0)).sum()
    diff = mu_x - mu_y
    val = float(diff @ diff + np.trace(cov_x) + np.trace(cov_y) - 2.0 * tr_cross)
    return max(val, 0.0)


def compare(x: EmbeddingSet, y: EmbeddingSet, spec: KernelSpec) -> DiscrepancyReport:
    """KD (biased MMD^2 under the scoring kernel), FD, and unbiased MMD^2."""
    kd, unbiased = mmd2(x, y, spec)
    fd = frechet_distance(x, y) if (x.n >= 2 and y.n >= 2) else None
    return DiscrepancyReport(kd_squared=kd, fd=fd, mmd2_unbiased=unbiased, spec=spec)
