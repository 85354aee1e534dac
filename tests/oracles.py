"""Reference implementations the tests check divkit against.

Nothing in divkit calls these: each is the plain, direct form of a quantity
the library computes another way (scalar kernels for ``kernels.cross`` and
``kernels.paired``, the Gaussian block with no exponent floor, the
Hadamard-square Gram and q^T Ktilde q for the RKE solver, its grouping of
duplicate rows by ``np.unique`` and its out-of-place inverse-factor
updates, the entropy
gradient over live eigenpairs, the explicit entropy Hessian for the Newton
steps' products, the guidance objective for its closed-form gradient, the
noised log-density for the closed-form score, the guided pass stepping
one-row arrays through the batched step), or a small helper for building
test inputs and reading records back.
"""

from __future__ import annotations

import json
import math

import numpy as np

from divkit.dataio import ResultRecord, RunSeed
from divkit.entropy import SPECTRAL_FLOOR, WeightVector, _check_dims
from divkit.errors import NonPositiveBandwidth, ZeroVector
from divkit.guidance import (
    GuidanceConfig,
    MixtureSpec2D,
    NoiseSchedule,
    _noise,
    _reverse,
    _score,
    _Step,
    _step_table,
    irke_gradient,
)
from divkit.kernels import (
    GramMatrix,
    KernelSpec,
    _check_square,
    _sq_rows,
    _symmetrize,
    _trusted,
    cross,
)


# -- kernels ---------------------------------------------------------------------

def gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x-y||^2 / (2*bandwidth^2)); equals 1 iff x == y."""
    if not bandwidth > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    if not np.isfinite(bandwidth):
        raise NonPositiveBandwidth(f"bandwidth must be finite, got {bandwidth}")
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.exp(-float(diff @ diff) / (2.0 * bandwidth * bandwidth)))


def full_exp_gaussian(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    """The Gaussian block of ``kernels.cross`` with ``exp`` taken of every
    exponent, none set to 0 first: the squared distances of ``_sq_rows``, and
    a self block's upper triangle mirrored onto its lower one (for rows with
    no exact duplicates)."""
    k = np.empty((x.shape[0], y.shape[0]))
    for r, lo, sq in _sq_rows(x, y):
        k[r:r + sq.shape[0], lo:] = np.exp(sq / (-2.0 * bandwidth**2))
    if y is x:
        lower = np.tril_indices(x.shape[0], -1)
        k[lower] = k.T[lower]
    return k


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


def gram_from_values(values: np.ndarray, spec: KernelSpec | None = None) -> GramMatrix:
    """Wrap a raw array, symmetrizing and pinning the diagonal first."""
    values = np.asarray(values, dtype=np.float64)
    _check_square(values)
    return GramMatrix(_symmetrize(np.clip(values, -1.0, 1.0)), spec)


def cluster_gram(sizes, within=0.98, across=0.02) -> GramMatrix:
    """A Gram of consecutive clusters of the given sizes: ``within`` inside a
    cluster, ``across`` between clusters, 1 on the diagonal."""
    n = sum(sizes)
    k = np.full((n, n), across)
    ofs = 0
    for m in sizes:
        k[ofs:ofs + m, ofs:ofs + m] = within
        ofs += m
    np.fill_diagonal(k, 1.0)
    return gram_from_values(k)


def hadamard_square(k: GramMatrix) -> GramMatrix:
    """Entrywise square K*K; PSD whenever K is (Schur product), diag stays 1."""
    return _trusted(_symmetrize(k.values * k.values), k.spec)


# -- entropy ---------------------------------------------------------------------

def live_vne_gradient(k: GramMatrix, q: WeightVector) -> np.ndarray:
    """The gradient of the weighted von Neumann entropy at weights q, summed
    eigenpair by eigenpair over the eigenvalues of A(q) = diag(sqrt(q)) K
    diag(sqrt(q)) above SPECTRAL_FLOOR, the ones the entropy counts:

        g_i = -(1/q_i) * sum_{j live} U_ij^2 * lam_j * (log(lam_j) + 1).

    For positive weights only.
    """
    _check_dims(k, q)
    root = np.sqrt(q.weights)
    lam, u = np.linalg.eigh(k.values * np.outer(root, root))
    g = np.zeros(q.n)
    for j in np.flatnonzero(lam > SPECTRAL_FLOOR):
        g -= u[:, j] ** 2 * (lam[j] * (math.log(lam[j]) + 1.0))
    return g / q.weights


def vne_hessian(q: np.ndarray, eig: tuple) -> np.ndarray:
    """The n x n Hessian of the weighted von Neumann entropy at weights q,
    from the eigenpairs (mu, U) of A(q), entry by entry:

        -(1/(q_i q_j)) * sum_ab M_ab u_ia u_ib u_ja u_jb,
        M_ab = mu_a mu_b (log mu_a - log mu_b) / (mu_a - mu_b),  M_aa = mu_a,

    with M 0 wherever an eigenvalue is at or below SPECTRAL_FLOOR.  Holds an
    n^3 temporary.
    """
    mu, u = eig
    live = mu > SPECTRAL_FLOOR
    m = np.zeros((mu.size, mu.size))
    for a in np.flatnonzero(live):
        for b in np.flatnonzero(live):
            if mu[a] == mu[b]:
                m[a, b] = mu[a]
            else:
                m[a, b] = mu[a] * mu[b] * (math.log(mu[a]) - math.log(mu[b])) / (mu[a] - mu[b])
    pairs = u[:, :, None] * u[:, None, :]
    return -np.einsum("iab,ab,jab->ij", pairs, m, pairs) / np.outer(q, q)


def inverse_rke_weighted(k2: GramMatrix, q: WeightVector) -> float:
    """q^T Ktilde q for a Hadamard-square Gram Ktilde; in (0, 1].

    The RKE of the reweighted measure is the reciprocal of this value.
    """
    _check_dims(k2, q)
    return float(q.weights @ k2.values @ q.weights)


# -- rke_penalized's active set --------------------------------------------------

def duplicate_rows(a: np.ndarray):
    """The first index of each group of exactly equal rows and each row's group."""
    _, rep, group = np.unique(a, axis=0, return_index=True, return_inverse=True)
    return rep, group.ravel()


def border_factor(w: np.ndarray, g_bj: np.ndarray, g_jj: float, tiny: float):
    """The inverse factor w (w w^T = G^-1) of G bordered by column g_bj and
    diagonal g_jj, as a new array; None when the Schur complement is <= ``tiny``."""
    col = w.T @ g_bj
    s = g_jj - col @ col
    if s <= tiny:
        return None
    r = 1.0 / math.sqrt(s)
    return np.block([[w, -r * (w @ col)[:, None]], [np.zeros((1, col.size)), r]])


def drop_factor(w: np.ndarray, pos: int) -> np.ndarray:
    """The inverse factor w of G without row and column ``pos``, as a new
    array: the Givens rotations of ``projection._drop`` on whole columns."""
    r = w[pos, pos:]
    a = np.hypot.accumulate(r)
    x = np.cumsum(w[:, pos:] * r, axis=1) / a
    tail = (r[1:] * x[:, :-1] - a[:-1] * w[:, pos + 1:]) / a[1:]
    return np.delete(np.hstack([w[:, :pos], tail]), pos, axis=0)


# -- guidance --------------------------------------------------------------------

def irke_objective(z: np.ndarray, bank: np.ndarray, kernel: KernelSpec) -> float:
    """Mean squared kernel similarity of z to the bank rows; in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    k = cross(z[None, :], bank, kernel)[0]
    return float((k * k).mean())


def level(spec: MixtureSpec2D, sched: NoiseSchedule, t: int) -> _Step:
    """The noised mixture and reverse-step constants of level t on their own."""
    return _Step(spec, sched, t, np.log(spec.weights))


def noised_mixture_score(z: np.ndarray, t: int, spec: MixtureSpec2D, sched: NoiseSchedule) -> np.ndarray:
    """grad_z log p_t(z) from the library's closed-form score at level t."""
    return _score(np.asarray(z, dtype=np.float64), level(spec, sched, t))


def noised_log_density(z: np.ndarray, t: int, spec: MixtureSpec2D, sched: NoiseSchedule) -> float:
    """log p_t(z) of the mixture after t forward noising steps."""
    step = _Step(spec, sched, t, np.log(spec.weights))
    z = np.asarray(z, dtype=np.float64)
    sq = ((z[None, :] - step.centers) ** 2).sum(axis=1)
    logits = step.log_w - sq / step.two_var - math.log(2.0 * math.pi * step.var)
    peak = logits.max()
    return float(peak + np.log(np.exp(logits - peak).sum()))


def generate_rowwise(
    base: MixtureSpec2D,
    n_samples: int,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    rng: RunSeed,
    stochastic: bool,
    bank_policy: str,
) -> tuple[np.ndarray, int]:
    """The guided pass with each row a (2,) array stepped by the batched
    ``_reverse``: the bank, the first ``filled`` rows of ``bank``, holds each
    earlier final under ``all_finals`` and each earlier guided latent under
    ``every_k_steps``."""
    steps = sched.steps
    every_k = bank_policy == "every_k_steps"
    per_sample = len(range(0, steps, cfg.apply_every)) if every_k else 1
    bank = np.empty((n_samples * per_sample, 2))
    filled = 0
    table = _step_table(base, sched)
    out = np.empty((n_samples, 2))
    empty_hits = 0
    for i in range(n_samples):
        noise = _noise(rng, i, steps)
        z = noise[0]
        for j, step in enumerate(table):
            z = _reverse(z, step, noise[j + 1] if stochastic else None)
            if j % cfg.apply_every == 0:
                eta = cfg.eta_t[step.t - 1]
                if filled == 0:
                    empty_hits += 1
                elif eta != 0.0:
                    z = z - eta * irke_gradient(z, bank[:filled], cfg.kernel)
                if every_k:
                    bank[filled] = z
                    filled += 1
        out[i] = z
        if not every_k:
            bank[filled] = z
            filled += 1
    return out, empty_hits


# -- records ---------------------------------------------------------------------

def read_record(path) -> ResultRecord:
    """The ``ResultRecord`` a ``record.json`` file holds."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return ResultRecord(doc["kind"], doc["payload"], doc["config_hash"], doc["timestamp"])
