"""Reverse-diffusion sandbox on 2D Gaussian mixtures with repulsion guidance.

The forward process is the usual variance-preserving noising, so the noised
marginal of a mixture stays a mixture in closed form and its score replaces a
learned denoiser exactly.  Guidance nudges each intermediate proposal down
the gradient of the mean squared kernel similarity to a memory bank of
previously generated latents, which steers new samples away from crowded
regions and raises order-2 diversity.

Only the guided pass is sequential: the memory bank couples every guided
sample to the ones generated before it.  The unguided pass has no coupling,
so it takes one vectorised reverse step per noise level over all samples.
Both passes run the same row-independent step from a per-run table of
schedule constants, and draw each sample's noise from that sample's own
stream, so with zero guidance they coincide bitwise.  The guided pass takes
its n*T one-row steps on a leaner path with the same bits: the
per-component work runs the batched step's numpy operations on preallocated
arrays shaped as a one-row batch, and the two coordinates are Python floats,
whose arithmetic is the same IEEE operations in the same order; the update
formulas (``_update``) are one function for both.
``test_batched_step_equals_row_steps`` pins the row step against the batched
one, and ``test_guided_pass_equals_rowwise_reference`` the whole guided pass
against one that steps one-row arrays through the batched step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dataio import EmbeddingSet, RunSeed
from .discrepancy import compare
from .entropy import vendi_with_gram
from .errors import BadArguments, DataError, EmptyBank
from .kernels import KernelSpec, SelfBlock, _gauss_exp, gram

# ---------------------------------------------------------------------------
# mixture targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureSpec2D:
    """An isotropic Gaussian mixture in the plane.

    ``weights`` are normalized to sum to 1, and None makes them uniform, as in
    the ``grid`` and ``circle`` layouts.
    """

    centers: np.ndarray
    weights: np.ndarray | None
    component_std: float

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim != 2 or centers.shape[1] != 2 or centers.shape[0] < 1:
            raise DataError(f"centers must be (m, 2), got shape {centers.shape}")
        if not np.isfinite(centers).all():
            raise BadArguments(f"centers must be finite, got {centers.tolist()}")
        if len({tuple(c) for c in centers.tolist()}) != centers.shape[0]:
            raise DataError("mixture centers must be distinct")
        m = centers.shape[0]
        w = np.full(m, 1.0 / m) if self.weights is None else self.weights
        w = np.asarray(w, dtype=np.float64).ravel()
        if w.shape[0] != m:
            raise DataError("one weight per center required")
        if w.min() < 0 or not np.isfinite(w).all():
            raise DataError("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0:
            raise DataError("weights sum to zero")
        std = self.component_std
        if not (0 < std and std * std < math.inf):  # the noised variances hold its square
            raise BadArguments(f"component_std must be > 0 with a finite square, got {std}")
        # _score divides squared distances to the centers by twice a noised variance, at
        # least 2 min(std^2, 1): a box diagonal D with D^2 up to min(std^2, 1) x max float
        # keeps them finite for samples within 0.41 D of the box, and mode_spacing's too
        diagonal = 2.0 * math.hypot(*np.ptp(centers / 2.0, axis=0))  # halves cannot overflow
        limit = math.sqrt(min(std * std, 1.0) * np.finfo(float).max)
        if not diagonal <= limit:
            raise DataError(f"centers {centers.tolist()} spread too far for float64: their bounding "
                            f"box diagonal {diagonal:.4g} is above {limit:.4g} at component_std {std}")
        w = w / total
        centers = np.ascontiguousarray(centers)
        centers.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", w)

    @property
    def n_modes(self) -> int:
        return self.centers.shape[0]

    @property
    def mode_spacing(self) -> float | None:
        """The smallest distance between two centers (None for one mode), with no
        m x m temporary; half of it is the guide command's default bandwidth."""
        c = self.centers
        gaps = [np.min(((c[i + 1:] - c[i]) ** 2).sum(axis=1)) for i in range(len(c) - 1)]
        return math.sqrt(min(gaps)) if gaps else None

    def with_weights(self, weights) -> "MixtureSpec2D":
        return MixtureSpec2D(self.centers, weights, self.component_std)

    @staticmethod
    def circle(n_modes: int, radius: float, component_std: float) -> "MixtureSpec2D":
        ang = 2.0 * np.pi * np.arange(n_modes) / n_modes
        centers = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return MixtureSpec2D(centers, None, component_std)

    @staticmethod
    def grid(rows: int, cols: int, spacing: float, component_std: float) -> "MixtureSpec2D":
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        centers = spacing * np.stack(
            [ii.ravel() - (rows - 1) / 2.0, jj.ravel() - (cols - 1) / 2.0], axis=1
        )
        return MixtureSpec2D(centers, None, component_std)


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
    def linear_beta(steps: int) -> "NoiseSchedule":
        betas = np.linspace(1e-4, 0.02, steps)  # Ho et al. (2020)
        return NoiseSchedule(np.cumprod(1.0 - betas))

    @staticmethod
    def cosine(steps: int) -> "NoiseSchedule":
        offset = 0.008  # Nichol and Dhariwal (2021)
        t = np.arange(1, steps + 1) / steps
        f = np.cos((t + offset) / (1.0 + offset) * np.pi / 2.0) ** 2
        f0 = math.cos(offset / (1.0 + offset) * np.pi / 2.0) ** 2
        ab = np.clip(f / f0, 1e-9, 0.9999)
        ab = np.minimum.accumulate(ab)  # guard monotonicity at the tail
        ab -= np.arange(steps) * 1e-15  # break exact ties
        return NoiseSchedule(ab)


# ---------------------------------------------------------------------------
# closed-form scores and reverse steps
# ---------------------------------------------------------------------------

class _Step:
    """Constants of the noised mixture at level t and of the reverse step to t-1.

    A run builds them once per level (:func:`_step_table`).  Level 0 has a
    score but no reverse step, so its step constants are unset.
    """

    __slots__ = ("t", "log_w", "centers", "centers_t", "var", "two_var",
                 "eps_coef", "x0_coef", "sqrt_ab", "sqrt_ab_prev", "sqrt_1m_ab_prev",
                 "beta", "sqrt_alpha", "post_std")

    def __init__(self, spec: MixtureSpec2D, sched: NoiseSchedule, t: int, log_w: np.ndarray):
        # p_t has centers scaled by sqrt(alpha_bar_t) and per-component
        # variance alpha_bar_t * component_std^2 + (1 - alpha_bar_t)
        ab_t = sched.alpha_bar_at(t)
        self.t = t
        self.log_w = log_w
        self.centers = math.sqrt(ab_t) * spec.centers
        self.centers_t = np.ascontiguousarray(self.centers.T)
        self.var = ab_t * spec.component_std**2 + (1.0 - ab_t)
        self.two_var = 2.0 * self.var
        if t == 0:
            return
        ab_prev = sched.alpha_bar_at(t - 1)
        # deterministic DDIM update
        self.eps_coef = -math.sqrt(1.0 - ab_t)
        self.x0_coef = 1.0 - ab_t
        self.sqrt_ab = math.sqrt(ab_t)
        self.sqrt_ab_prev = math.sqrt(ab_prev)
        self.sqrt_1m_ab_prev = math.sqrt(1.0 - ab_prev)
        # stochastic ancestral update; the posterior noise is zero at t = 1
        alpha_t = ab_t / ab_prev
        self.beta = 1.0 - alpha_t
        self.sqrt_alpha = math.sqrt(alpha_t)
        self.post_std = math.sqrt((1.0 - ab_prev) / (1.0 - ab_t) * self.beta)


def _step_table(spec: MixtureSpec2D, sched: NoiseSchedule) -> list[_Step]:
    """The reverse steps of one run in the order they are taken, t = T..1."""
    log_w = np.log(spec.weights)
    return [_Step(spec, sched, t, log_w) for t in range(sched.steps, 0, -1)]


def _score(z: np.ndarray, step: _Step) -> np.ndarray:
    """grad_z log p_t over a (..., 2) batch, with log-sum-exp responsibilities.

    Every reduction runs along a row's own last axis, and the posterior mean
    is an explicit multiply-and-sum over the components rather than a BLAS
    matmul, so the bits of a row do not depend on the batch it is in.
    """
    diff = z[..., None, :] - step.centers
    diff *= diff
    logits = step.log_w - np.add.reduce(diff, axis=-1) / step.two_var
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    resp = np.exp(logits, out=logits)
    resp /= np.add.reduce(resp, axis=-1, keepdims=True)
    score = np.add.reduce(resp[..., None, :] * step.centers_t, axis=-1)
    score -= z
    score /= step.var
    return score


def _update(z, score, step: _Step, noise):
    """The reverse update of ``z`` from its score: ancestral with ``noise``, else DDIM.

    ``z``, ``score`` and ``noise`` are all floats (one coordinate of one row)
    or all arrays (a batch); both run the same IEEE operations in the same
    order, so they give the same bits.
    """
    if noise is None:
        eps_hat = step.eps_coef * score
        x0_hat = (z + step.x0_coef * score) / step.sqrt_ab
        return step.sqrt_ab_prev * x0_hat + step.sqrt_1m_ab_prev * eps_hat
    return (step.beta * score + z) / step.sqrt_alpha + step.post_std * noise


def _reverse(z: np.ndarray, step: _Step, noise: np.ndarray | None) -> np.ndarray:
    """One reverse update of a (..., 2) batch: ancestral with ``noise``, else DDIM."""
    return _update(z, _score(z, step), step, noise)


def _row_scorer(m: int):
    """A function (z0, z1, step) -> :func:`_score` of the one row (z0, z1) of
    a mixture with m components, as two floats.

    The per-component work runs in numpy on buffers made once here: each
    element goes through the IEEE operations of :func:`_score` in the same
    order, and the max and the sums over the components reduce arrays of the
    shapes a one-row batch has, so the bits are the same.  The two
    coordinates stay Python floats.
    """
    z = np.empty(2)
    z_col = z[:, None]
    diff = np.empty((2, m))
    dx, dy = diff
    resp = np.empty(m)
    mean = np.empty(2)

    def score(z0: float, z1: float, step: _Step) -> tuple[float, float]:
        z[0], z[1] = z0, z1
        np.subtract(z_col, step.centers_t, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add(dx, dy, out=resp)
        np.divide(resp, step.two_var, out=resp)
        np.subtract(step.log_w, resp, out=resp)
        np.subtract(resp, np.maximum.reduce(resp), out=resp)
        np.exp(resp, out=resp)
        np.divide(resp, np.add.reduce(resp), out=resp)
        np.multiply(resp, step.centers_t, out=diff)
        m0, m1 = np.add.reduce(diff, axis=-1, out=mean).tolist()
        return (m0 - z0) / step.var, (m1 - z1) / step.var

    return score


def _noise(rng: RunSeed, index: int, steps: int) -> np.ndarray:
    """Start point (row 0) and per-step noise (rows 1..T) of sample ``index``.

    One draw of 2*(T+1) normals from the sample's own stream yields the same
    numbers as a draw of 2 for the start and one per reverse step.
    """
    return rng.child(index).generator().standard_normal(2 * (steps + 1)).reshape(steps + 1, 2)


def unguided_trajectories(
    spec: MixtureSpec2D,
    sched: NoiseSchedule,
    noise: np.ndarray,
    stochastic: bool = True,
) -> np.ndarray:
    """Unguided reverse paths of m samples from their ``noise``, shape (T+1, m, 2),
    whose column i is :func:`_noise` of sample i.

    Returns shape (T+1, m, 2): row k holds the batch after k reverse steps,
    so row 0 is at level T and row T is the final sample.  The samples share
    no state, so each level is one vectorised step over the whole batch; the
    noise and the path take 32 * (T+1) bytes per sample.
    """
    path = np.empty_like(noise)
    path[0] = z = noise[0]
    for j, step in enumerate(_step_table(spec, sched)):
        z = _reverse(z, step, noise[j + 1] if stochastic else None)
        path[j + 1] = z
    return path


# ---------------------------------------------------------------------------
# memory bank and guidance
# ---------------------------------------------------------------------------

BANK_POLICIES = ("all_finals", "every_k_steps")


@dataclass(frozen=True)
class GuidanceConfig:
    """Per-step guidance weights, cadence, and the latent-space kernel.

    The guidance kernel must be Gaussian; its squared-similarity gradient is
    applied in closed form.  A good default bandwidth, the guide command's, is
    half the ``mode_spacing`` of the target mixture.
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


def irke_gradient(z: np.ndarray, bank: np.ndarray, kernel: KernelSpec) -> np.ndarray:
    """Gradient of J(z) = mean_j k(z, b_j)^2, the mean squared kernel
    similarity of z to the bank rows b_j, in closed form for a gaussian
    kernel; J lies in [0, 1]."""
    if kernel.family != "gaussian":
        raise DataError("analytic guidance gradient requires a gaussian kernel")
    if len(bank) == 0:
        raise EmptyBank("memory bank has no entries")
    diff = np.asarray(z, dtype=np.float64)[None, :] - bank
    sq, h2 = (diff**2).sum(axis=1), kernel.bandwidth**2
    return -2.0 / (len(bank) * h2) * (_gauss_exp(sq, -h2, np.empty_like(sq)) @ diff)


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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}


@dataclass(frozen=True)
class GuidedRunResult:
    guided: SampleSetMetrics
    unguided: SampleSetMetrics
    n_modes: int
    empty_bank_steps: int
    unguided_paths: np.ndarray  # (T+1, n, 2), as unguided_trajectories gives them

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
    noise: np.ndarray,
    sched: NoiseSchedule,
    cfg: GuidanceConfig,
    stochastic: bool,
    bank_policy: str,
) -> tuple[np.ndarray, int]:
    """The guided pass over the samples of ``noise`` (as in :func:`unguided_trajectories`),
    one at a time: the bank, the first ``filled`` rows of ``bank``, holds each earlier
    final under ``all_finals`` and each earlier guided latent under ``every_k_steps``."""
    steps, n_samples = sched.steps, noise.shape[1]
    every_k = bank_policy == "every_k_steps"
    per_sample = len(range(0, steps, cfg.apply_every)) if every_k else 1
    bank = np.empty((n_samples * per_sample, 2))
    filled = 0
    table = _step_table(base, sched)
    eta_t = cfg.eta_t.tolist()
    row_score = _row_scorer(base.n_modes)
    out = np.empty((n_samples, 2))
    empty_hits = 0
    for i in range(n_samples):
        path_noise = noise[:, i].tolist()
        z0, z1 = path_noise[0]
        for j, step in enumerate(table):
            s0, s1 = row_score(z0, z1, step)
            n0, n1 = path_noise[j + 1] if stochastic else (None, None)
            z0, z1 = _update(z0, s0, step, n0), _update(z1, s1, step, n1)
            if j % cfg.apply_every == 0:
                eta = eta_t[step.t - 1]
                if filled == 0:
                    empty_hits += 1
                elif eta != 0.0:
                    g0, g1 = irke_gradient(np.array((z0, z1)), bank[:filled], cfg.kernel).tolist()
                    z0, z1 = z0 - eta * g0, z1 - eta * g1
                if every_k:
                    bank[filled] = z0, z1
                    filled += 1
        out[i] = z0, z1
        if not every_k:
            bank[filled] = z0, z1
            filled += 1
    return out, empty_hits


def _measure(
    samples: np.ndarray,
    target: EmbeddingSet,
    spec: MixtureSpec2D,
    kernel: KernelSpec,
    target_block: SelfBlock,
) -> SampleSetMetrics:
    xs = EmbeddingSet(samples, label="generated")
    score, block = vendi_with_gram(xs, kernel)
    report = compare(xs, target, kernel, block, target_block)
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
) -> GuidedRunResult:
    """Generate guided and unguided sample sets and score both.

    ``spec`` is the target mixture (its weights define the data
    distribution); ``base_weights`` are the possibly skewed weights the
    sampler actually draws from (None: uniform), standing in for a model with
    a diversity shortfall.  Each sample's noise is drawn once and drives both
    passes, so with eta_t == 0 they coincide bitwise; the result keeps the
    unguided paths.  Metrics compare each set against one fresh draw from the
    target mixture, under the guidance kernel.
    """
    if n_samples < 2:
        raise BadArguments("need at least 2 samples")
    if cfg.steps != sched.steps:
        raise DataError(
            f"guidance schedule has {cfg.steps} steps, noise schedule {sched.steps}"
        )
    if bank_policy not in BANK_POLICIES:
        raise DataError(f"unknown bank policy {bank_policy!r}")
    base = spec.with_weights(base_weights)
    target = sample_mixture(spec, n_samples, rng.child(n_samples))
    noise = np.stack([_noise(rng, i, sched.steps) for i in range(n_samples)], axis=1)
    guided, empty_hits = _generate(base, noise, sched, cfg, stochastic, bank_policy)
    paths = unguided_trajectories(base, sched, noise, stochastic)
    # both measures share the target's MMD self block
    kyy = SelfBlock.of(gram(target, cfg.kernel))
    return GuidedRunResult(
        guided=_measure(guided, target, spec, cfg.kernel, kyy),
        unguided=_measure(paths[-1], target, spec, cfg.kernel, kyy),
        n_modes=spec.n_modes,
        empty_bank_steps=empty_hits,
        unguided_paths=paths,
    )
