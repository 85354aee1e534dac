"""Kernel distance, MMD, and Frechet distance between embedding sets.

KD on a fixed support is the quadratic form (q - q0)^T K (q - q0), the
squared MMD between two reweightings of the same points.  The two-sample
:func:`mmd2` returns the biased and the unbiased estimator from the kernel
block sums: under the Gaussian kernel from blocks built one at a time by
:func:`kernels.cross` and dropped once summed (or from self-block records),
under the cosine kernel from the row sums of the unit rows, with no n x n
block.  FD is computed on raw embedding vectors with unbiased (n-1)
covariances; its eigensolves go through ``entropy._eigensolve``, so an
overflowing covariance raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet
from .entropy import WeightVector, _eigensolve
from .errors import DataError, DimensionMismatch, NumericError, TooFewSamples
from .kernels import GramMatrix, KernelSpec, SelfBlock, cross, unit_rows


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


def _self_sums(x: EmbeddingSet, spec: KernelSpec, k: SelfBlock | None) -> tuple:
    if k is None:
        block = cross(x.data, x.data, spec)
        return block.sum(), np.trace(block)
    if k.n != x.n or k.spec != spec:
        raise DataError(
            f"self block ({k.n} rows, {k.spec}) does not match {x.n} rows under {spec}"
        )
    return k.sum, k.trace


def mmd2(
    x: EmbeddingSet,
    y: EmbeddingSet,
    spec: KernelSpec,
    kxx: SelfBlock | None = None,
    kyy: SelfBlock | None = None,
) -> tuple[float, float | None]:
    """Squared MMD between two sets as (biased V-statistic, unbiased U-statistic).

    The unbiased value is None unless both sets hold at least 2 samples.
    Both come from the block sums and the self blocks' traces.  Under the
    cosine kernel these are sums of the unit rows u_i, v_j, in O((m + n) d):
    sum Kxx = ||sum u||^2, trace Kxx = sum ||u_i||^2, sum Kxy = sum u . sum v.
    The Gaussian family builds its blocks with :func:`kernels.cross`, one at
    a time, or takes a self block's sum and trace from ``kxx``/``kyy``, a
    :class:`kernels.SelfBlock` record (n, spec, sum, trace) of x/y; the
    cosine family ignores them.
    """
    if x.d != y.d:
        raise DimensionMismatch(f"embedding dims differ: {x.d} vs {y.d}")
    m, n = x.n, y.n
    if spec.family == "cosine":
        u, v = unit_rows(x.data), unit_rows(y.data)
        su, sv = u.sum(axis=0), v.sum(axis=0)
        sxx, txx, syy, tyy, sxy = su @ su, (u * u).sum(), sv @ sv, (v * v).sum(), su @ sv
    else:
        (sxx, txx), (syy, tyy) = _self_sums(x, spec, kxx), _self_sums(y, spec, kyy)
        sxy = cross(x.data, y.data, spec).sum()
    kxy_mean = sxy / (m * n)
    biased = max(float(sxx / (m * m) - 2.0 * kxy_mean + syy / (n * n)), 0.0)
    if m < 2 or n < 2:
        return biased, None
    xx = (sxx - txx) / (m * (m - 1))
    yy = (syy - tyy) / (n * (n - 1))
    return biased, float(xx + yy - 2.0 * kxy_mean)


def _sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Symmetric square root with negative eigenvalues clamped at 0."""
    vals, vecs = _eigensolve(a, vectors=True)
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
    with np.errstate(over="ignore", invalid="ignore"):
        cov_x = np.cov(x.data, rowvar=False).reshape(x.d, x.d)
        cov_y = np.cov(y.data, rowvar=False).reshape(y.d, y.d)
        root_x = _sqrt_psd(cov_x.copy())
        cross_vals = _eigensolve(root_x @ cov_y @ root_x)
    tr_cross = np.sqrt(np.maximum(cross_vals, 0.0)).sum()
    diff = mu_x - mu_y
    val = float(diff @ diff + np.trace(cov_x) + np.trace(cov_y) - 2.0 * tr_cross)
    return max(val, 0.0)


def compare(
    x: EmbeddingSet,
    y: EmbeddingSet,
    spec: KernelSpec,
    kxx: SelfBlock | None = None,
    kyy: SelfBlock | None = None,
) -> DiscrepancyReport:
    """KD (biased MMD^2 under the scoring kernel), FD, and unbiased MMD^2.

    ``kxx``/``kyy`` are optional self blocks of x/y, passed to :func:`mmd2`.
    """
    kd, unbiased = mmd2(x, y, spec, kxx, kyy)
    fd = frechet_distance(x, y) if (x.n >= 2 and y.n >= 2) else None
    return DiscrepancyReport(kd_squared=kd, fd=fd, mmd2_unbiased=unbiased, spec=spec)
