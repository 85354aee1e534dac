"""Spectral entropy scores on Gram matrices and reweighted empirical measures.

Vendi is exp of the von Neumann entropy of K/n; RKE is exp of the order-2
Renyi entropy of the same matrix, computed directly from the Frobenius norm
(no eigendecomposition).  Reweighting a fixed sample set with a simplex
vector q replaces K/n by diag(sqrt(q)) K diag(sqrt(q)), which shares its
nonzero spectrum with the weighted covariance of the (implicit) kernel
features.

The cosine kernel's features are explicit: K = U U^T with U the unit rows.
When d < n, :func:`vendi_with_gram` scores the d x d matrix U^T U / n, which
has the nonzero spectrum of K/n, and takes RKE from ||U^T U||_F = ||U U^T||_F;
no n x n matrix is built.  The size cap bounds the order of the matrix
actually eigensolved.  The Gram path stays the Gaussian path and the test
oracle; it holds the Gram, divided by n in place, and LAPACK's copy.

Every entropy (each score, each weighted entropy, and the eigenpairs each
projection step and gradient use) passes one gate, ``_spectrum``: it checks
the shape and the unit trace, solves with ``_eigensolve``, checks that the
matrix is PSD and sums -lam*log(lam) over the clamped spectrum.  The weighted
entropy's gradient and Hessian product keep its one rule for which
eigenvalues count: none at or below SPECTRAL_FLOOR.  Only the Frechet
distance's covariance roots, not unit-trace, call ``_eigensolve`` directly.
In place on the array it is handed (a buffer the entry point built, never
the caller's), ``_eigensolve`` symmetrizes it and sets each entry with
|a_ij| < eps^2 * max|a| (eps = float64 machine epsilon) to exactly 0 before
LAPACK sees it.  Well-separated clusters under a narrow Gaussian
kernel give Grams with entries of 1e-87 and below, whose products in the
tridiagonal reduction fall into subnormal arithmetic and slow the solve
3-14x.  By Weyl's inequality the flush moves each eigenvalue by at most
n * eps^2 * max|a| <= (n * eps) * eps * ||A||_2, far below LAPACK's own
backward error of order n * eps * ||A||_2, so the cutoff is a constant and
not a setting.

Wherever the zeros of the flushed matrix split it, whatever made them (the
flush, a Gaussian kernel exactly 0 between far points, zero weights in A(q),
a GRAM file), ``_eigensolve`` solves the eigenvalues of each connected
component on its own: a matrix block diagonal up to a permutation has the
union of its blocks' spectra, at O(sum k^3) for blocks of order k in place of
O(n^3), and the bias lab's cube-mixture Grams fall apart by vertex.  The Weyl
bound above is on the flushed matrix, which the blocks make up exactly; each
block's eigenvalues carry LAPACK's backward error at that block's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet
from .errors import (
    DataError,
    DimensionMismatch,
    NotPSD,
    NotUnitTrace,
    NumericError,
    SizeCapExceeded,
)
from .kernels import GramMatrix, KernelSpec, SelfBlock, _average_transpose, gram, unit_rows

#: eigenvalues below this (relative to unit trace) count as zero inside logs,
#: implementing the 0*log(0) = 0 convention stably
SPECTRAL_FLOOR = 1e-12

#: weights at or below this are treated as off-support by the gradient
WEIGHT_FLOOR = 1e-15

#: exact eigendecomposition refused above this size by default
DEFAULT_SIZE_CAP = 20_000

#: entries below this times max|a| are flushed to 0 before an eigensolve
_FLUSH_RATIO = np.finfo(np.float64).eps ** 2

#: the component search reads rows in blocks of about this many entries
_BLOCK_ENTRIES = 1 << 17


def _components(a: np.ndarray) -> list[np.ndarray] | None:
    """The connected components of the nonzero pattern of the symmetric ``a``,
    as one (m, k) array of row indices per component order k, ascending in k;
    None if ``a`` is one component or a component holds more than half its rows.

    Each round gives every row the smallest label among its own and its
    neighbours', then moves each label to its label's label; a round that
    changes nothing leaves each row labelled with the first row of its
    component.  Rows are read in blocks of about ``_BLOCK_ENTRIES`` entries,
    so no temporary is larger than a block.
    """
    n = a.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    label = np.arange(n)
    while True:
        new = label.copy()
        for lo in range(0, n, rows):
            live = a[lo:lo + rows] != 0.0
            near = np.minimum.reduce(np.broadcast_to(label, live.shape), axis=1, where=live, initial=n)
            np.minimum(new[lo:lo + rows], near, out=new[lo:lo + rows])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    size = np.bincount(label)[label]
    if 2 * size.max() > n:
        return None
    order = np.lexsort((label, size))
    orders, first = np.unique(size[order], return_index=True)
    return [part.reshape(-1, k) for k, part in zip(orders.tolist(), np.split(order, first[1:]))]


def _eigensolve(a: np.ndarray, vectors: bool = False):
    """``eigvalsh`` (or ``eigh``) of the symmetric part of ``a``, flushed.

    ``a`` is handed over: it becomes (a + a^T)/2 in place, tile by tile (a
    no-op on a symmetric input), and its entries below ``_FLUSH_RATIO * max|a|``
    in magnitude become exactly 0 (see the module docstring), so the only copy
    is LAPACK's own; the flush's boolean temporaries are gone before LAPACK
    runs.  Non-finite entries and LAPACK failures surface as ``NumericError``.

    Eigenvalues alone of a flushed matrix that splits, whatever made its
    zeros (:func:`_components`), are solved block by block: one stacked
    ``eigvalsh`` per component order, a lone row's diagonal entry as it is,
    and the union sorted ascending.  The stacked copies and LAPACK's hold no
    more than the one n x n copy of a whole solve.  A connected matrix, one
    with a component over half its rows, and eigenvectors are solved whole.
    """
    _average_transpose(a)
    lo, hi = a.min(), a.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericError("eigendecomposition of a matrix with non-finite entries")
    cutoff = _FLUSH_RATIO * max(hi, -lo)
    blocks = None
    if lo < cutoff:
        np.copyto(a, 0.0, where=(a < cutoff) & (a > -cutoff))
        if not vectors and np.count_nonzero(a) < a.size:
            blocks = _components(a)
    try:
        if vectors:
            return np.linalg.eigh(a)
        if blocks is None:
            return np.linalg.eigvalsh(a)
        return np.sort(np.concatenate([
            a[idx[:, 0], idx[:, 0]] if idx.shape[1] == 1
            else np.linalg.eigvalsh(a[idx[:, :, None], idx[:, None, :]]).ravel()
            for idx in blocks
        ]))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _spectrum(a: np.ndarray, vectors: bool = False) -> tuple[float, np.ndarray | tuple]:
    """Von Neumann entropy -sum(lam * log(lam)) (nats) of the unit-trace PSD
    matrix ``a``, and the :func:`_eigensolve` result it came from.

    ``a`` is handed over to ``_eigensolve``.  Eigenvalues are summed in
    descending order, clamped at 0; those at or below SPECTRAL_FLOOR
    contribute nothing (0*log(0) = 0).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"expected a square matrix, got shape {a.shape}")
    trace = float(np.trace(a))
    if abs(trace - 1.0) > 1e-6:
        raise NotUnitTrace(f"trace is {trace!r}, expected 1")
    eig = _eigensolve(a, vectors)
    vals = eig[0] if vectors else eig
    if vals[0] < -1e-10:
        raise NotPSD(f"smallest eigenvalue {vals[0]:.3e} below tolerance")
    lam = np.maximum(vals[::-1], 0.0)
    live = lam[lam > SPECTRAL_FLOOR]
    return max(0.0, float(-(live * np.log(live)).sum())), eig


@dataclass(frozen=True)
class WeightVector:
    """A point on the n-simplex; renormalized to sum exactly 1 on construction."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.size < 1:
            raise DataError("weight vector must have at least one entry")
        if not np.isfinite(w).all():
            raise DataError("weights must be finite")
        if w.min() < -1e-12:
            raise DataError(f"weights must be nonnegative, min is {w.min():.3e}")
        w = np.maximum(w, 0.0)
        total = w.sum()
        if total <= 0:
            raise DataError("weights sum to zero")
        w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(n: int) -> "WeightVector":
        return WeightVector(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class DiversityScore:
    """Vendi and RKE of one sample set under one kernel.

    Both scores live in [1, n]; RKE never exceeds Vendi because Renyi
    entropies decrease in their order.
    """

    vendi: float
    log_vendi: float
    rke: float
    n: int
    spec: KernelSpec | None

    def __post_init__(self):
        if not (1.0 - 1e-9 <= self.vendi <= self.n * (1.0 + 1e-9)):
            raise NumericError(f"vendi {self.vendi!r} outside [1, {self.n}]")
        if not (1.0 - 1e-9 <= self.rke <= self.n * (1.0 + 1e-9)):
            raise NumericError(f"rke {self.rke!r} outside [1, {self.n}]")
        if self.rke > self.vendi * (1.0 + 1e-6):
            raise NumericError(f"rke {self.rke!r} exceeds vendi {self.vendi!r}")

    def to_payload(self) -> dict:
        return {
            "vendi": self.vendi,
            "log_vendi": self.log_vendi,
            "rke": self.rke,
            "n": self.n,
            "kernel": self.spec.to_payload() if self.spec else None,
        }


def rke(k: GramMatrix) -> float:
    """n^2 / sum(K_ij^2): the Frobenius form of the order-2 score, summed
    without an n x n temporary."""
    total = float(np.einsum("ij,ij->", k.values, k.values))
    return k.n * k.n / total


def _check_cap(order: int, size_cap: int) -> None:
    if order > size_cap:
        raise SizeCapExceeded(
            f"eigensolve of order {order} exceeds the exact-eigensolve cap {size_cap}"
        )


def _diversity(a: np.ndarray, n: int, rke_value: float, spec: KernelSpec | None) -> DiversityScore:
    """Scores of n samples from ``a``, a unit-trace matrix with the nonzero spectrum of K/n."""
    h = _spectrum(a)[0]
    log_vendi = min(h, np.log(n)) if n > 1 else 0.0
    return DiversityScore(
        vendi=float(np.exp(log_vendi)),
        log_vendi=float(log_vendi),
        rke=rke_value,
        n=n,
        spec=spec,
    )


def score_gram(k: GramMatrix, size_cap: int = DEFAULT_SIZE_CAP) -> DiversityScore:
    """Vendi (exact eigendecomposition of K/n) and RKE of one Gram matrix; ``k``
    is left as it is unless :func:`vendi_with_gram` hands its buffer over writable."""
    _check_cap(k.n, size_cap)
    rke_value, v = rke(k), k.values  # the RKE sum first: ``v`` may become K/n in place
    return _diversity(np.divide(v, k.n, out=v if v.flags.writeable else None), k.n, rke_value, k.spec)


def vendi(x: EmbeddingSet, spec: KernelSpec, size_cap: int = DEFAULT_SIZE_CAP) -> DiversityScore:
    """Diversity scores of an embedding set under ``spec``."""
    return vendi_with_gram(x, spec, size_cap)[0]


def vendi_with_gram(
    x: EmbeddingSet, spec: KernelSpec, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[DiversityScore, SelfBlock | None]:
    """:func:`vendi` and the sum and trace of the n x n Gram it scored, or None if it built none.

    Under the cosine kernel with d < n the scores come from the d x d matrix
    C = U^T U of the unit rows U, in O(n d^2) time and O(n d) memory:
    K/n = U U^T / n has the nonzero spectrum of C/n, and
    sum(K_ij^2) = ||C||_F^2.  Otherwise the Gram is built, its sum and trace
    are kept for a caller's MMD, and :func:`score_gram` scores the Gram's
    own buffer.  ``size_cap`` bounds the order of the matrix eigensolved
    (d or n), checked before anything of that size is allocated.
    """
    n = x.n
    if spec.family == "cosine" and x.d < n:
        _check_cap(x.d, size_cap)
        u = unit_rows(x.data)
        c = u.T @ u
        return _diversity(c / n, n, n * n / float((c * c).sum()), spec), None
    _check_cap(n, size_cap)
    k = gram(x, spec)
    block = SelfBlock.of(k)
    k.values.flags.writeable = True  # held nowhere else: score_gram may overwrite it
    return score_gram(k, size_cap), block


# ---------------------------------------------------------------------------
# reweighted empirical measures
# ---------------------------------------------------------------------------

def _check_dims(k: GramMatrix, q: WeightVector) -> None:
    if q.n != k.n:
        raise DimensionMismatch(f"weights have {q.n} entries, Gram is {k.n}x{k.n}")


def weighted_gram(k: GramMatrix, q: WeightVector) -> np.ndarray:
    """diag(sqrt(q)) K diag(sqrt(q)); unit trace because K has unit diagonal.

    One n x n buffer: the outer product of the root weights, times K in place.
    """
    _check_dims(k, q)
    root = np.sqrt(q.weights)
    a = np.outer(root, root)
    a *= k.values
    return a


def vne_weighted(k: GramMatrix, q: WeightVector) -> float:
    """Entropy of the q-reweighted measure; Shannon entropy of q when K = I."""
    return _spectrum(weighted_gram(k, q))[0]


def vne_gradient(k: GramMatrix, q: WeightVector, eig: tuple | None = None) -> np.ndarray:
    """Gradient of ``vne_weighted`` with respect to the weights.

    Evaluated in the eigenbasis of A(q) = diag(sqrt(q)) K diag(sqrt(q)):
    with A = U diag(lam) U^T the i-th component is

        g_i = -(1/q_i) * sum_j U_ij^2 * lam_j * (log(lam_j) + 1),

    which reproduces the quadratic form of the i-th kernel feature against
    log(C(q)) + I.  The sum runs over the eigenvalues above SPECTRAL_FLOOR
    only, those that ``_spectrum`` counts, so this is the exact gradient of
    that entropy wherever no eigenvalue sits on the floor.  Matches central
    finite differences along simplex tangent directions to relative 1e-5 at
    interior q.

    Weights at or below WEIGHT_FLOOR take the analytically continued
    limit with the floor substituted for q_i in the division.  A component
    with exactly zero weight carries no spectral mass and gets 0 by
    convention: that is not the slope of ``vne_weighted`` there, so no
    optimality certificate may use it.
    ``eig`` takes the eigenpairs of A(q) if they are already solved.
    """
    _check_dims(k, q)
    lam, u = _spectrum(weighted_gram(k, q), vectors=True)[1] if eig is None else eig
    live = lam > SPECTRAL_FLOOR
    lam_live = np.where(live, lam, 0.0)
    log_term = np.log(np.where(live, lam, 1.0)) + 1.0
    mass = (u * u) @ (lam_live * log_term)
    return -mass / np.maximum(q.weights, WEIGHT_FLOOR)


def _vne_hessian(q: np.ndarray, eig: tuple):
    """The product v -> (Hessian of H at q) v, from the eigenpairs (mu, U) of A(q).

    H(q) = -tr(C log C) with C(q) = Phi^T diag(q) Phi linear in q (K = Phi Phi^T),
    and the Daleckii-Krein formula for the derivative of log C gives

        d2H/dq_i dq_j = -(1/(q_i q_j)) * sum_ab M_ab u_ia u_ib u_ja u_jb,
        M_ab = mu_a mu_b (log mu_a - log mu_b) / (mu_a - mu_b),  M_aa = mu_a,

    so the product is -diag(U (M o X) U^T) / q with X = U^T diag(v/q) U: two
    GEMMs, and no temporary larger than n x n.  M is 0 where either eigenvalue
    is at or below SPECTRAL_FLOOR, as those carry no entropy.  Close pairs take
    the log ratio from log1p of (mu_a - mu_b) / mu_b, which is exact in that
    range, instead of a difference of two logs.
    """
    mu, u = eig
    live = mu > SPECTRAL_FLOOR
    m = np.where(live, mu, 1.0)
    log_m = np.log(m)
    delta = np.subtract.outer(m, m)
    delta /= m
    weight = np.subtract.outer(log_m, log_m)
    np.log1p(delta, out=weight, where=np.abs(delta) < 0.5)
    same = delta == 0.0
    weight[same] = delta[same] = 1.0
    weight /= delta
    del delta, same
    weight *= m[:, None]
    weight[~live] = 0.0
    weight[:, ~live] = 0.0

    def product(v: np.ndarray) -> np.ndarray:
        x = u.T @ (u * (v / q)[:, None])
        x *= weight
        return -np.einsum("ij,ij->i", u @ x, u) / q

    return product
