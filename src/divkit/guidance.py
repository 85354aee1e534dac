"""Reverse-diffusion sandbox on 2D Gaussian mixtures with repulsion guidance.

The forward process is the usual variance-preserving noising, so the noised
marginal of a mixture stays a mixture in closed form and its score replaces a
learned denoiser exactly.  Guidance nudges each intermediate proposal down
the gradient of the mean squared kernel similarity to a memory bank of
previously generated latents, which steers new samples away from crowded
regions and raises order-2 diversity.

Sample generation is sequential by construction: the memory bank couples
every sample to the ones generated before it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import EmbeddingSet, RunSeed
from .discrepancy import compare
from .entropy import score_gram
from .errors import BadArguments, DataError, EmptyBank
from .kernels import KernelSpec, cross, gram

# ---------------------------------------------------------------------------
# mixture targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureSpec2D:
    """An isotropic Gaussian mixture in the plane."""

    centers: np.ndarray
    weights: np.ndarray
    component_std: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != 2 or centers.shape[0] < 1:
            raise DataError(f"centers must be (m, 2), got shape {centers.shape}")
        if len({tuple(c) for c in centers.tolist()}) != centers.shape[0]:
            raise DataError("mixture centers must be distinct")
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.shape[0] != centers.shape[0]:
            raise DataError("one weight per center required")
        if w.min() < 0 or not np.isfinite(w).all():
            raise DataError("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise DataError("weights sum to zero")
        if not self.component_std > 0:
            raise BadArguments("component_std must be > 0")
        w = w / total
        centers = np.ascontiguousarray(centers)
        centers.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", w)

    @property
    def n_modes(self) -> int:
        return self.centers.shape[0]

    def with_weights(self, weights) -> "MixtureSpec2D":
        return MixtureSpec2D(self.centers, weights, self.component_std)

    @staticmethod
    def circle(n_modes: int, radius: float, component_std: float) -> "MixtureSpec2D":
        ang = 2.0 * np.pi * np.arange(n_modes) / n_modes
        centers = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return MixtureSpec2D(centers, np.full(n_modes, 1.0 / n_modes), component_std)

    @staticmethod
    def grid(rows: int, cols: int, spacing: float, component_std: float) -> "MixtureSpec2D":
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        centers = spacing * np.stack(
            [ii.ravel() - (rows - 1) / 2.0, jj.ravel() - (cols - 1) / 2.0], axis=1
        )
        m = rows * cols
        return MixtureSpec2D(centers, np.full(m, 1.0 / m), component_std)


def sample_mixture(spec: MixtureSpec2D, n: int, rng: RunSeed) -> EmbeddingSet:
    """n fresh draws: component index by weight, then isotropic noise."""
    if n < 1:
        raise BadArguments(f"n must be >= 1, got {n}")
    gen = rng.generator()
    comp = gen.choice(spec.n_modes, size=n, p=spec.weights)
    noise = gen.standard_normal((n, 2)) * spec.component_std
    return EmbeddingSet(spec.centers[comp] + noise, label="mixture2d")


def geometric_weights(n_modes: int, ratio: float) -> np.ndarray:
    """Skewed component weights proportional to ratio**k; models a sampler
    that under-represents most modes."""
    if not 0 < ratio <= 1:
        raise BadArguments(f"ratio must be in (0, 1], got {ratio}")
    w = ratio ** np.arange(n_modes, dtype=np.float64)
    return w / w.sum()


# ---------------------------------------------------------------------------
# noise schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal fractions alpha_bar for T noising steps.

    Index convention: diffusion time t runs over 1..T with alpha_bar_at(0)
    = 1 (clean data) and alpha_bar_at(t) = alphas_bar[t-1].
    """

    alphas_bar: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        ab = np.asarray(self.alphas_bar, dtype=np.float64)
        if ab.ndim != 1 or ab.size < 10:
            raise BadArguments("schedule needs at least 10 steps")
        if ab.min() <= 0 or ab.max() > 1.0:
            raise BadArguments("alpha_bar values must lie in (0, 1]")
        if not (np.diff(ab) < 0).all():
            raise BadArguments("alpha_bar must be strictly decreasing")
        if ab[0] < 0.9:
            raise BadArguments("alpha_bar[0] must start near 1")
        ab = np.ascontiguousarray(ab)
        ab.flags.writeable = False
        object.__setattr__(self, "alphas_bar", ab)

    @property
    def steps(self) -> int:
        return self.alphas_bar.size

    def alpha_bar_at(self, t: int) -> float:
        if t == 0:
            return 1.0
        if 1 <= t <= self.steps:
            return float(self.alphas_bar[t - 1])
        raise BadArguments(f"step index {t} outside [0, {self.steps}]")

    @staticmethod
    def linear_beta(steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> "NoiseSchedule":
        betas = np.linspace(beta_start, beta_end, steps)
        return NoiseSchedule(np.cumprod(1.0 - betas), kind="linear_beta")

    @staticmethod
    def cosine(steps: int, offset: float = 0.008) -> "NoiseSchedule":
        t = np.arange(1, steps + 1) / steps
        f = np.cos((t + offset) / (1.0 + offset) * np.pi / 2.0) ** 2
        f0 = math.cos(offset / (1.0 + offset) * np.pi / 2.0) ** 2
        ab = np.clip(f / f0, 1e-9, 0.9999)
        ab = np.minimum.accumulate(ab)  # guard monotonicity at the tail
        ab -= np.arange(steps) * 1e-15  # break exact ties
        return NoiseSchedule(ab, kind="cosine")


# ---------------------------------------------------------------------------
# closed-form scores and reverse steps
# ---------------------------------------------------------------------------

def _noised_params(spec: MixtureSpec2D, sched: NoiseSchedule, t: int):
    ab = sched.alpha_bar_at(t)
    centers = math.sqrt(ab) * spec.centers
    var = ab * spec.component_std**2 + (1.0 - ab)
    return centers, var


def noised_log_density(z: np.ndarray, t: int, spec: MixtureSpec2D, sched: NoiseSchedule) -> float:
    """log p_t(z) of the mixture after t forward noising steps."""
    centers, var = _noised_params(spec, sched, t)
    z = np.asarray(z, dtype=np.float64)
    sq = ((z[None, :] - centers) ** 2).sum(axis=1)
    logits = np.log(spec.weights) - sq / (2.0 * var) - math.log(2.0 * math.pi * var)
    peak = logits.max()
    return float(peak + np.log(np.exp(logits - peak).sum()))


def noised_mixture_score(z: np.ndarray, t: int, spec: MixtureSpec2D, sched: NoiseSchedule) -> np.ndarray:
    """grad_z log p_t(z), stabilized with log-sum-exp responsibilities.

    p_t has centers scaled by sqrt(alpha_bar_t) and per-component variance
    alpha_bar_t * component_std^2 + (1 - alpha_bar_t).
    """
    centers, var = _noised_params(spec, sched, t)
    z = np.asarray(z, dtype=np.float64)
    sq = ((z[None, :] - centers) ** 2).sum(axis=1)
    logits = np.log(spec.weights) - sq / (2.0 * var)
    logits -= logits.max()
    resp = np.exp(logits)
    resp /= resp.sum()
    posterior_mean = resp @ centers
    return -(z - posterior_mean) / var


def reverse_step(
    z_t: np.ndarray,
    t: int,
    spec: MixtureSpec2D,
    sched: NoiseSchedule,
    gen: np.random.Generator | None = None,
) -> np.ndarray:
    """One reverse update from level t to t-1 using the exact score.

    With ``gen`` given this is the stochastic ancestral update (the posterior
    noise is zero automatically on the final step); without it, the
    deterministic DDIM update.
    """
    if t < 1:
        raise BadArguments(f"reverse step needs t >= 1, got {t}")
    z_t = np.asarray(z_t, dtype=np.float64)
    ab_t = sched.alpha_bar_at(t)
    ab_prev = sched.alpha_bar_at(t - 1)
    score = noised_mixture_score(z_t, t, spec, sched)
    if gen is None:
        eps_hat = -math.sqrt(1.0 - ab_t) * score
        x0_hat = (z_t + (1.0 - ab_t) * score) / math.sqrt(ab_t)
        return math.sqrt(ab_prev) * x0_hat + math.sqrt(1.0 - ab_prev) * eps_hat
    alpha_t = ab_t / ab_prev
    beta_t = 1.0 - alpha_t
    mean = (z_t + beta_t * score) / math.sqrt(alpha_t)
    post_var = (1.0 - ab_prev) / (1.0 - ab_t) * beta_t
    return mean + math.sqrt(post_var) * gen.standard_normal(2)


# ---------------------------------------------------------------------------
# memory bank and guidance
# ---------------------------------------------------------------------------

BANK_POLICIES = ("all_finals", "every_k_steps")


class MemoryBank:
    """FIFO store of previously generated latents."""

    def __init__(self, capacity: int, policy: str = "all_finals"):
        if capacity < 1:
            raise BadArguments("capacity must be >= 1")
        if policy not in BANK_POLICIES:
            raise DataError(f"unknown bank policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        self._entries: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def add(self, z: np.ndarray) -> None:
        z = np.asarray(z, dtype=np.float64).copy()
        if z.shape != (2,) or not np.isfinite(z).all():
            raise DataError("bank entries must be finite 2-vectors")
        self._entries.append(z)
        if len(self._entries) > self.capacity:
            self._entries.pop(0)

    def as_array(self) -> np.ndarray:
        if not self._entries:
            raise EmptyBank("memory bank has no entries")
        return np.stack(self._entries, axis=0)


@dataclass(frozen=True)
class GuidanceConfig:
    """Per-step guidance weights, cadence, and the latent-space kernel.

    The guidance kernel must be Gaussian; its squared-similarity gradient is
    applied in closed form.  A good default bandwidth is half the mode
    spacing of the target mixture.
    """

    eta_t: np.ndarray
    apply_every: int
    kernel: KernelSpec

    def __post_init__(self):
        eta = np.asarray(self.eta_t, dtype=np.float64).ravel()
        if eta.size < 1 or eta.min() < 0 or not np.isfinite(eta).all():
            raise BadArguments("eta_t must be finite and >= 0")
        if self.apply_every < 1:
            raise BadArguments("apply_every must be >= 1")
        if self.kernel.family != "gaussian":
            raise DataError("guidance requires a gaussian latent kernel")
        eta = np.ascontiguousarray(eta)
        eta.flags.writeable = False
        object.__setattr__(self, "eta_t", eta)

    @property
    def steps(self) -> int:
        return self.eta_t.size

    @staticmethod
    def constant(eta: float, steps: int, apply_every: int, kernel: KernelSpec) -> "GuidanceConfig":
        return GuidanceConfig(np.full(steps, float(eta)), apply_every, kernel)

    @staticmethod
    def linear_decay(eta0: float, steps: int, apply_every: int, kernel: KernelSpec) -> "GuidanceConfig":
        # eta_t is indexed by t-1 with t falling from steps to 1, so the
        # trajectory starts at eta0 and decays to 0 on the final step
        return GuidanceConfig(np.linspace(0.0, eta0, steps), apply_every, kernel)


def irke_objective(z: np.ndarray, bank: MemoryBank, kernel: KernelSpec) -> float:
    """Mean squared kernel similarity of z to the bank entries; in [0, 1]."""
    z = np.asarray(z, dtype=np.float64)
    k = cross(z[None, :], bank.as_array(), kernel)[0]
    return float((k * k).mean())


def irke_gradient(z: np.ndarray, bank: MemoryBank, kernel: KernelSpec) -> np.ndarray:
    """Closed-form gradient of :func:`irke_objective` for a gaussian kernel."""
    if kernel.family != "gaussian":
        raise DataError("analytic guidance gradient requires a gaussian kernel")
    entries = bank.as_array()
    z = np.asarray(z, dtype=np.float64)
    diff = z[None, :] - entries
    ksq = np.exp(-(diff**2).sum(axis=1) / kernel.bandwidth**2)
    return -2.0 / (len(bank) * kernel.bandwidth**2) * (ksq @ diff)


def guided_step(z_tilde: np.ndarray, bank: MemoryBank, cfg: GuidanceConfig, t: int) -> np.ndarray:
    """Repulsion update z - eta_t * grad J on scheduled steps, else identity.

    Applies when (T - t) is a multiple of apply_every; an empty bank leaves
    the proposal untouched.
    """
    z_tilde = np.asarray(z_tilde, dtype=np.float64)
    if not 1 <= t <= cfg.steps:
        raise BadArguments(f"step index {t} outside [1, {cfg.steps}]")
    if (cfg.steps - t) % cfg.apply_every != 0:
        return z_tilde
    if bank.is_empty:
        return z_tilde
    eta = float(cfg.eta_t[t - 1])
    if eta == 0.0:
        return z_tilde
    return z_tilde - eta * irke_gradient(z_tilde, bank, cfg.kernel)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleSetMetrics:
    """Diversity and target-proximity metrics of one generated sample set."""

    samples: EmbeddingSet
    vendi: float
    log_vendi: float
    rke: float
    covered_modes: int
    kd_to_target: float
    fd_to_target: float

    def to_payload(self) -> dict:
        return {
            "vendi": self.vendi,
            "log_vendi": self.log_vendi,
            "rke": self.rke,
            "covered_modes": self.covered_modes,
            "kd_to_target": self.kd_to_target,
            "fd_to_target": self.fd_to_target,
        }


@dataclass(frozen=True)
class GuidedRunResult:
    guided: SampleSetMetrics
    unguided: SampleSetMetrics
    n_modes: int
    empty_bank_steps: int

    def to_payload(self) -> dict:
        return {
            "guided": self.guided.to_payload(),
            "unguided": self.unguided.to_payload(),
            "n_modes": self.n_modes,
            "empty_bank_steps": self.empty_bank_steps,
        }


def count_covered_modes(samples: EmbeddingSet, spec: MixtureSpec2D) -> int:
    """Modes with at least one sample within 3 component standard deviations."""
    d = np.sqrt(((samples.data[:, None, :] - spec.centers[None, :, :]) ** 2).sum(axis=2))
    return int((d.min(axis=0) <= 3.0 * spec.component_std).sum())


def _generate(
    base: MixtureSpec2D,
    n_samples: int,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    rng: RunSeed,
    guided: bool,
    stochastic: bool,
    bank_policy: str,
    bank_capacity: int | None,
) -> tuple[np.ndarray, int, MemoryBank]:
    steps = sched.steps
    if bank_capacity is None:
        per_sample = 1 if bank_policy == "all_finals" else len(range(0, steps, cfg.apply_every))
        bank_capacity = max(n_samples * per_sample, 1)
    bank = MemoryBank(bank_capacity, policy=bank_policy)
    out = np.empty((n_samples, 2))
    empty_hits = 0
    for i in range(n_samples):
        gen = rng.child(i).generator()
        z = gen.standard_normal(2)
        for t in range(steps, 0, -1):
            z = reverse_step(z, t, base, sched, gen if stochastic else None)
            if guided:
                if bank.is_empty and (steps - t) % cfg.apply_every == 0:
                    empty_hits += 1
                z = guided_step(z, bank, cfg, t)
            if bank.policy == "every_k_steps" and (steps - t) % cfg.apply_every == 0:
                bank.add(z)
        out[i] = z
        if bank.policy == "all_finals":
            bank.add(z)
    return out, empty_hits, bank


def _measure(
    samples: np.ndarray,
    target: EmbeddingSet,
    spec: MixtureSpec2D,
    kernel: KernelSpec,
) -> SampleSetMetrics:
    xs = EmbeddingSet(samples, label="generated")
    score = score_gram(gram(xs, kernel))
    report = compare(xs, target, kernel)
    return SampleSetMetrics(
        samples=xs,
        vendi=score.vendi,
        log_vendi=score.log_vendi,
        rke=score.rke,
        covered_modes=count_covered_modes(xs, spec),
        kd_to_target=report.kd_squared,
        fd_to_target=report.fd,
    )


def run_guided_sampling(
    spec: MixtureSpec2D,
    base_weights,
    n_samples: int,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    rng: RunSeed,
    stochastic: bool = True,
    bank_policy: str = "all_finals",
    bank_capacity: int | None = None,
    metric_kernel: KernelSpec | None = None,
) -> GuidedRunResult:
    """Generate guided and unguided sample sets and score both.

    ``spec`` is the target mixture (its weights define the data
    distribution); ``base_weights`` are the possibly skewed weights the
    sampler actually draws from, standing in for a model with a diversity
    shortfall.  Guided and unguided passes consume identical noise streams,
    so with eta_t == 0 they coincide bitwise.  Metrics compare each set
    against one fresh draw from the target mixture, under ``metric_kernel``
    (defaults to the guidance kernel).
    """
    if n_samples < 2:
        raise BadArguments("need at least 2 samples")
    if cfg.steps != sched.steps:
        raise DataError(
            f"guidance schedule has {cfg.steps} steps, noise schedule {sched.steps}"
        )
    eval_kernel = metric_kernel or cfg.kernel
    base = spec.with_weights(base_weights)
    target = sample_mixture(spec, n_samples, rng.child(n_samples))
    guided_samples, empty_hits, _ = _generate(
        base, n_samples, sched, cfg, rng, True, stochastic, bank_policy, bank_capacity
    )
    unguided_samples, _, _ = _generate(
        base, n_samples, sched, cfg, rng, False, stochastic, bank_policy, bank_capacity
    )
    return GuidedRunResult(
        guided=_measure(guided_samples, target, spec, eval_kernel),
        unguided=_measure(unguided_samples, target, spec, eval_kernel),
        n_modes=spec.n_modes,
        empty_bank_steps=empty_hits,
    )
