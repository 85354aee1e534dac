"""Finite-sample entropy-bias experiments and concentration checks.

Covers: plug-in Shannon entropy of discrete draws and its leading bias gap
(r-1)/(2n); Vendi curves over growing sample sizes (fresh i.i.d. draws or
subsampling of a fixed set) with normal-approximation confidence intervals;
the monotone expected log-Vendi check; the McDiarmid-style concentration
bound with stability constant c_m; and the Monte Carlo population RKE
1 / E[k^2(X, X')].
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Union

import numpy as np

from .dataio import EmbeddingSet, RunSeed, subsample
from .entropy import DEFAULT_SIZE_CAP, vendi
from .errors import (
    BadArguments,
    DataError,
    DimensionTooLarge,
    EmptyHistogram,
    InvalidGrid,
)
from .kernels import KernelSpec, paired

Sampler = Callable[[int, RunSeed], EmbeddingSet]
CurveSource = Union[EmbeddingSet, Sampler]


# ---------------------------------------------------------------------------
# source distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteLawSpec:
    """The uniform law on {0, ..., r-1}."""

    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise BadArguments(f"alphabet size must be >= 2, got {self.alphabet_size}")


@dataclass(frozen=True)
class CubeMixtureSpec:
    """Equal-weight Gaussian mixture on the 2^d vertices of [-1, 1]^d.

    Vertex k has coordinates 2*bit_j(k) - 1.  component_std = 0 degenerates
    to the bare vertices.
    """

    dimension: int
    component_std: float

    def __post_init__(self):
        if not 1 <= self.dimension <= 24:
            raise DimensionTooLarge(f"dimension must be in [1, 24], got {self.dimension}")
        if not 0 <= self.component_std < math.inf:
            raise BadArguments(f"component_std must be finite and >= 0, got {self.component_std}")

    @property
    def component_count(self) -> int:
        return 2**self.dimension


def sample_cube_mixture(spec: CubeMixtureSpec, n: int, rng: RunSeed) -> EmbeddingSet:
    """Draw n points: uniform vertex index, then isotropic Gaussian noise."""
    if n < 1:
        raise BadArguments(f"n must be >= 1, got {n}")
    gen = rng.generator()
    idx = gen.integers(0, spec.component_count, size=n)
    bits = (idx[:, None] >> np.arange(spec.dimension)) & 1
    centers = 2.0 * bits.astype(np.float64) - 1.0
    noise = gen.standard_normal((n, spec.dimension)) * spec.component_std
    return EmbeddingSet(centers + noise, label=f"cube_mixture_d{spec.dimension}")


def cube_mixture_sampler(spec: CubeMixtureSpec) -> Sampler:
    def draw(n: int, rng: RunSeed) -> EmbeddingSet:
        return sample_cube_mixture(spec, n, rng)

    return draw


# ---------------------------------------------------------------------------
# plug-in entropy
# ---------------------------------------------------------------------------

def plugin_entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of the empirical frequencies of a histogram."""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    if counts.min() < 0:
        raise DataError("histogram counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise EmptyHistogram("histogram has no observations")
    p = counts[counts > 0] / total
    return max(0.0, float(-(p * np.log(p)).sum()))


def miller_gap(r: int, n: int) -> float:
    """Leading finite-sample entropy bias (r - 1) / (2n) in nats."""
    if r < 2 or n < 1:
        raise BadArguments(f"need r >= 2 and n >= 1, got r={r}, n={n}")
    return (r - 1) / (2.0 * n)


# ---------------------------------------------------------------------------
# diversity curves
# ---------------------------------------------------------------------------

CURVE_METRICS = ("exp_shannon", "vendi")


@dataclass(frozen=True)
class DiversityCurve:
    """Score versus sample size, averaged over independent trials.

    ``mean`` holds the per-size average of the per-trial scores (already on
    the exponential scale for both metrics); the confidence band is the
    95% normal approximation mean +/- 1.96 * sd / sqrt(trials).
    """

    sizes: tuple
    mean: tuple
    ci_low: tuple
    ci_high: tuple
    trials: int
    metric: str

    def __post_init__(self):
        if self.metric not in CURVE_METRICS:
            raise DataError(f"unknown curve metric {self.metric!r}")
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 1 or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidGrid(f"sizes must be strictly ascending, got {sizes}")
        if not (len(sizes) == len(self.mean) == len(self.ci_low) == len(self.ci_high)):
            raise DataError("curve columns must have equal length")
        if self.trials < 2:
            raise BadArguments("confidence intervals need at least 2 trials")
        for lo, m, hi in zip(self.ci_low, self.mean, self.ci_high):
            if not (lo <= m <= hi):
                raise DataError(f"confidence interval [{lo}, {hi}] does not bracket {m}")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "mean", tuple(float(v) for v in self.mean))
        object.__setattr__(self, "ci_low", tuple(float(v) for v in self.ci_low))
        object.__setattr__(self, "ci_high", tuple(float(v) for v in self.ci_high))

    def to_payload(self) -> dict:
        return asdict(self)


def curve_to_plot_text(curve: DiversityCurve) -> str:
    """Whitespace-separated plot data: size, mean, ci_low, ci_high per line."""
    lines = ["# size mean ci_low ci_high"]
    for s, m, lo, hi in zip(curve.sizes, curve.mean, curve.ci_low, curve.ci_high):
        lines.append(
            f"{s} {format(m, '.17g')} {format(lo, '.17g')} {format(hi, '.17g')}"
        )
    return "\n".join(lines) + "\n"


def _validate_grid(sizes) -> list[int]:
    sizes = [int(s) for s in sizes]
    if not sizes or any(s < 1 for s in sizes):
        raise InvalidGrid(f"sizes must be positive, got {sizes}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InvalidGrid(f"sizes must be strictly ascending, got {sizes}")
    return sizes


def _summarize(values_per_size: list[np.ndarray], sizes, trials: int, metric: str) -> DiversityCurve:
    # sorted reduction: aggregation independent of trial completion order
    means, los, his = [], [], []
    for vals in values_per_size:
        vals = np.sort(vals)
        m = float(vals.mean())
        sd = float(vals.std(ddof=1))
        hw = 1.96 * sd / math.sqrt(trials)
        means.append(m)
        los.append(m - hw)
        his.append(m + hw)
    return DiversityCurve(tuple(sizes), tuple(means), tuple(los), tuple(his), trials, metric)


def _run_trials(task: Callable[[int, int], float], n_sizes: int, trials: int, jobs: int) -> list[np.ndarray]:
    grid = [(i, j) for i in range(n_sizes) for j in range(trials)]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            flat = list(pool.map(lambda ij: task(*ij), grid))
    else:
        flat = [task(i, j) for i, j in grid]
    out = np.asarray(flat, dtype=np.float64).reshape(n_sizes, trials)
    return [out[i] for i in range(n_sizes)]


def run_discrete_bias(
    spec: DiscreteLawSpec,
    sizes,
    trials: int,
    rng: RunSeed,
    jobs: int = 1,
) -> DiversityCurve:
    """exp(plug-in entropy) of fresh uniform draws, per size, over trials."""
    sizes = _validate_grid(sizes)
    if trials < 2:
        raise BadArguments("need at least 2 trials")
    r = spec.alphabet_size

    def one(i: int, j: int) -> float:
        gen = rng.child(i).child(j).generator()
        counts = np.bincount(gen.integers(0, r, size=sizes[i]), minlength=r)
        return math.exp(plugin_entropy(counts))

    values = _run_trials(one, len(sizes), trials, jobs)
    return _summarize(values, sizes, trials, "exp_shannon")


def vendi_curve(
    source: CurveSource,
    sizes,
    trials: int,
    spec: KernelSpec,
    rng: RunSeed,
    size_cap: int = DEFAULT_SIZE_CAP,
    jobs: int = 1,
) -> DiversityCurve:
    """Vendi score versus sample size with 95% confidence intervals.

    ``source`` is either a fixed EmbeddingSet (trials subsample it without
    replacement) or a sampler callable (n, seed) -> EmbeddingSet providing
    fresh independent draws per trial.  ``size_cap`` bounds the order of
    each eigensolved matrix, as in :func:`entropy.vendi_with_gram`.
    """
    sizes = _validate_grid(sizes)
    if trials < 2:
        raise BadArguments("need at least 2 trials")
    fixed = isinstance(source, EmbeddingSet)

    def one(i: int, j: int) -> float:
        stream = rng.child(i).child(j)
        x = subsample(source, sizes[i], stream) if fixed else source(sizes[i], stream)
        return vendi(x, spec, size_cap=size_cap).vendi

    values = _run_trials(one, len(sizes), trials, jobs)
    return _summarize(values, sizes, trials, "vendi")


@dataclass(frozen=True)
class MonotoneReport:
    """Adjacent-pair comparison of mean log scores against the CI slack."""

    pairs: tuple           # (size_k, size_{k+1}) per comparison
    slacks: tuple          # log-mean increase plus combined halfwidth; >= 0 passes
    passes: tuple
    passed: bool

    def to_payload(self) -> dict:
        return asdict(self)


def check_monotone_logvendi(curve: DiversityCurve) -> MonotoneReport:
    """Check mean log-Vendi is nondecreasing up to combined CI halfwidths.

    A pair (n_k, n_{k+1}) passes when log mean_{k+1} >= log mean_k minus the
    quadrature combination of the two log-scale CI halfwidths.
    """
    if curve.metric != "vendi":
        raise DataError(f"monotone log-Vendi check needs a vendi curve, got {curve.metric!r}")

    def log_halfwidth(mean: float, lo: float, hi: float) -> float:
        if lo > 0:
            return (math.log(hi) - math.log(lo)) / 2.0
        return (hi - lo) / (2.0 * mean)

    pairs, slacks, passes = [], [], []
    for k in range(len(curve.sizes) - 1):
        lv_a = math.log(curve.mean[k])
        lv_b = math.log(curve.mean[k + 1])
        hw_a = log_halfwidth(curve.mean[k], curve.ci_low[k], curve.ci_high[k])
        hw_b = log_halfwidth(curve.mean[k + 1], curve.ci_low[k + 1], curve.ci_high[k + 1])
        combined = math.hypot(hw_a, hw_b)
        slack = lv_b - lv_a + combined
        pairs.append((curve.sizes[k], curve.sizes[k + 1]))
        slacks.append(slack)
        passes.append(slack >= -1e-12)  # tolerate log round-off on flat curves
    return MonotoneReport(tuple(pairs), tuple(slacks), tuple(passes), all(passes))


# ---------------------------------------------------------------------------
# concentration of log-Vendi
# ---------------------------------------------------------------------------

def binary_entropy(t: float) -> float:
    """h(t) = -t log t - (1-t) log(1-t) in nats, with h(0) = h(1) = 0."""
    if not 0.0 <= t <= 1.0:
        raise BadArguments(f"binary entropy needs t in [0, 1], got {t}")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log(t) - (1.0 - t) * math.log(1.0 - t)


@dataclass(frozen=True)
class ConcentrationBound:
    """Deviation bound for a single log-Vendi evaluation at sample size m.

    c_m = log(2m - 1)/m + h(1/m) bounds the change from replacing one sample;
    t_delta = c_m * sqrt((m/2) * log(2/delta)) is the resulting two-sided
    high-probability deviation radius.

    c_m is the Fannes-Audenaert continuity bound on the von Neumann entropy
    (Audenaert, J. Phys. A 40, 2007) at trace distance 1/m in dimension 2m:
    with unit-norm kernel features, replacing one of m samples moves the
    empirical covariance operator (same nonzero spectrum as K/m) by at most
    1/m in trace distance, and the two sample sets together span at most 2m
    feature vectors.  For every m >= 2 it obeys
    2*log(m)/m <= c_m < 2*log(e*m)/m, because
    log m <= log(2m - 1) < 1 + log m and log(m)/m <= h(1/m) <= (1 + log m)/m.
    """

    m: int
    delta: float
    c_m: float
    t_delta: float


def concentration_bound(m: int, delta: float) -> ConcentrationBound:
    if m < 2:
        raise BadArguments(f"m must be >= 2, got {m}")
    if not 0.0 < delta < 1.0:
        raise BadArguments(f"delta must be in (0, 1), got {delta}")
    c_m = math.log(2 * m - 1) / m + binary_entropy(1.0 / m)
    t_delta = c_m * math.sqrt((m / 2.0) * math.log(2.0 / delta))
    return ConcentrationBound(m=m, delta=delta, c_m=c_m, t_delta=t_delta)


@dataclass(frozen=True)
class ConcentrationReport:
    m: int
    delta: float
    t_delta: float
    trials: int
    violation_fraction: float
    pass_threshold: float
    passed: bool
    log_vendi_values: tuple

    def to_payload(self) -> dict:
        return asdict(self)


def check_concentration(
    sampler: Sampler,
    m: int,
    trials: int,
    spec: KernelSpec,
    delta: float,
    rng: RunSeed,
    jobs: int = 1,
) -> ConcentrationReport:
    """Empirical check that log-Vendi deviates beyond t_delta at rate <= delta.

    Draws ``trials`` independent size-m samples, measures log-Vendi, and counts
    deviations from the across-trial mean exceeding t_delta.  Passes when the
    violation fraction is at most delta plus three binomial standard errors.
    """
    if trials < 30:
        raise BadArguments("need at least 30 trials for a meaningful rate estimate")
    bound = concentration_bound(m, delta)

    def one(_: int, j: int) -> float:
        x = sampler(m, rng.child(j))
        return vendi(x, spec).log_vendi

    values = np.sort(_run_trials(one, 1, trials, jobs)[0])
    center = float(values.mean())
    fraction = float((np.abs(values - center) > bound.t_delta).mean())
    threshold = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return ConcentrationReport(
        m=m,
        delta=delta,
        t_delta=bound.t_delta,
        trials=trials,
        violation_fraction=fraction,
        pass_threshold=threshold,
        passed=fraction <= threshold,
        log_vendi_values=tuple(float(v) for v in values),
    )


# ---------------------------------------------------------------------------
# population RKE via Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RkePopulationEstimate:
    """1 / E[k^2(X, X')] with a delta-method standard error."""

    estimate: float
    stderr: float
    pair_count: int
    mean_sq_kernel: float

    def to_payload(self) -> dict:
        return asdict(self)


#: pairs drawn per sampler call; the chunk index keys each chunk's streams
_PAIR_CHUNK = 250_000


def population_rke_mc(
    sampler: Sampler,
    spec: KernelSpec,
    pair_count: int,
    rng: RunSeed,
) -> RkePopulationEstimate:
    """Monte Carlo estimate of the population RKE from independent pairs."""
    if pair_count < 100:
        raise BadArguments(f"need at least 100 pairs, got {pair_count}")
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk_index = 0
    while done < pair_count:
        size = min(_PAIR_CHUNK, pair_count - done)
        x = sampler(size, rng.child(2 * chunk_index)).data
        y = sampler(size, rng.child(2 * chunk_index + 1)).data
        ksq = paired(x, y, spec) ** 2
        total += float(ksq.sum())
        total_sq += float((ksq * ksq).sum())
        done += size
        chunk_index += 1
    mean = total / pair_count
    var = max(total_sq / pair_count - mean * mean, 0.0) * pair_count / max(pair_count - 1, 1)
    se_mean = math.sqrt(var / pair_count)
    return RkePopulationEstimate(
        estimate=1.0 / mean,
        stderr=se_mean / (mean * mean),
        pair_count=pair_count,
        mean_sq_kernel=mean,
    )
