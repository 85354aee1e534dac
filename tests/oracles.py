"""Reference implementations the tests check divkit against.

Nothing in divkit calls these: each is the plain, direct form of a quantity
the library computes another way (scalar kernels for ``kernels.cross`` and
``kernels.paired``, the Hadamard-square Gram and q^T Ktilde q for the RKE
solver, the guidance objective for its closed-form gradient, the noised
log-density for the closed-form score), or a small helper for building test
inputs and reading records back.
"""

from __future__ import annotations

import json
import math

import numpy as np

from divkit.dataio import ResultRecord
from divkit.entropy import WeightVector, _check_dims
from divkit.errors import NonPositiveBandwidth, ZeroVector
from divkit.guidance import MixtureSpec2D, NoiseSchedule, _score, _Step
from divkit.kernels import GramMatrix, KernelSpec, _check_square, _symmetrize, _trusted, cross


# -- kernels ---------------------------------------------------------------------

def gaussian_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """exp(-||x-y||^2 / (2*bandwidth^2)); equals 1 iff x == y."""
    if not bandwidth > 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    if not np.isfinite(bandwidth):
        raise NonPositiveBandwidth(f"bandwidth must be finite, got {bandwidth}")
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


def gram_from_values(values: np.ndarray, spec: KernelSpec | None = None) -> GramMatrix:
    """Wrap a raw array, symmetrizing and pinning the diagonal first."""
    values = np.asarray(values, dtype=np.float64)
    _check_square(values)
    return GramMatrix(_symmetrize(np.clip(values, -1.0, 1.0)), spec)


def hadamard_square(k: GramMatrix) -> GramMatrix:
    """Entrywise square K*K; PSD whenever K is (Schur product), diag stays 1."""
    return _trusted(_symmetrize(k.values * k.values), k.spec)


# -- entropy ---------------------------------------------------------------------

def inverse_rke_weighted(k2: GramMatrix, q: WeightVector) -> float:
    """q^T Ktilde q for a Hadamard-square Gram Ktilde; in (0, 1].

    The RKE of the reweighted measure is the reciprocal of this value.
    """
    _check_dims(k2, q)
    return float(q.weights @ k2.values @ q.weights)


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


# -- records ---------------------------------------------------------------------

def read_record(path) -> ResultRecord:
    """The ``ResultRecord`` a ``record.json`` file holds."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return ResultRecord(doc["kind"], doc["payload"], doc["config_hash"], doc["timestamp"])
