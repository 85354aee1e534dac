"""Kernel-entropy diversity toolkit.

Scores embedding sets with Vendi (exp von Neumann entropy of the normalized
kernel matrix) and RKE (exp order-2 Renyi entropy), measures kernel and
Frechet discrepancies, reproduces finite-sample entropy-bias experiments,
projects empirical weights onto high-entropy regions, and demonstrates
diversity guidance for reverse diffusion on analytic 2D mixtures.
"""

from .bias_lab import (
    ConcentrationBound,
    CubeMixtureSpec,
    DiscreteLawSpec,
    DiversityCurve,
    check_concentration,
    check_monotone_logvendi,
    concentration_bound,
    cube_mixture_sampler,
    curve_to_plot_text,
    miller_gap,
    plugin_entropy,
    population_rke_mc,
    run_discrete_bias,
    sample_cube_mixture,
    vendi_curve,
)
from .dataio import (
    EmbeddingSet,
    ResultRecord,
    RunSeed,
    canonical_json,
    config_hash,
    load_embeddings,
    load_record,
    save_embeddings,
    save_record,
    subsample,
)
from .discrepancy import DiscrepancyReport, compare, frechet_distance, kd_fixed_support, mmd2
from .entropy import (
    DiversityScore,
    SpectrumReport,
    WeightVector,
    inverse_rke_weighted,
    rke,
    score_gram,
    vendi,
    vne_gradient,
    vne_weighted,
    von_neumann_entropy,
    weighted_gram,
)
from .guidance import (
    GuidanceConfig,
    GuidedRunResult,
    MemoryBank,
    MixtureSpec2D,
    NoiseSchedule,
    guided_step,
    irke_gradient,
    irke_objective,
    noised_mixture_score,
    reverse_step,
    run_guided_sampling,
    sample_mixture,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    cosine_kernel,
    cross,
    gaussian_kernel,
    gram,
    hadamard_square,
    load_gram,
    paired,
    save_gram,
)
from .projection import (
    ProjectionConfig,
    ProjectionResult,
    eg_step,
    project_rke_penalized,
    project_vendi_penalized,
    project_vne,
)

__version__ = "0.1.0"
