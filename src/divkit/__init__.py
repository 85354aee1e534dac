"""Kernel-entropy diversity toolkit.

Scores embedding sets with Vendi (exp von Neumann entropy of the normalized
kernel matrix) and RKE (exp order-2 Renyi entropy), measures kernel and
Frechet discrepancies, reproduces finite-sample entropy-bias experiments,
projects empirical weights onto high-entropy regions, and demonstrates
diversity guidance for reverse diffusion on analytic 2D mixtures.

Warnings (such as a projection that stops without converging) go to the
``divkit`` logger, which stays silent until the application configures
logging.
"""

import logging

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
    save_embeddings,
    save_record,
    subsample,
)
from .discrepancy import DiscrepancyReport, compare, frechet_distance, kd_fixed_support, mmd2
from .entropy import (
    DiversityScore,
    WeightVector,
    rke,
    score_gram,
    vendi,
    vne_gradient,
    vne_weighted,
    weighted_gram,
)
from .guidance import (
    GuidanceConfig,
    GuidedRunResult,
    MixtureSpec2D,
    NoiseSchedule,
    irke_gradient,
    run_guided_sampling,
    sample_mixture,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    SelfBlock,
    cross,
    gram,
    load_gram,
    paired,
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

logging.getLogger("divkit").addHandler(logging.NullHandler())
