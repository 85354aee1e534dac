import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divkit.bias_lab import (
    CubeMixtureSpec,
    DiscreteLawSpec,
    DiversityCurve,
    binary_entropy,
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
from divkit.dataio import EmbeddingSet, RunSeed
from divkit.errors import BadArguments, DataError, EmptyHistogram, InvalidGrid
from divkit.kernels import KernelSpec


def test_plugin_entropy_single_bin():
    assert plugin_entropy(np.array([10, 0, 0])) == 0.0


def test_plugin_entropy_one_per_bin():
    n = 13
    assert plugin_entropy(np.ones(n)) == pytest.approx(math.log(n), rel=1e-12)


def test_plugin_entropy_closed_form():
    val = plugin_entropy(np.array([2, 1, 1]))
    assert val == pytest.approx(math.log(4) - 2 * math.log(2) / 4, rel=1e-12)
    assert val == pytest.approx(1.0397207708399179, abs=1e-10)


def test_plugin_entropy_empty():
    with pytest.raises(EmptyHistogram):
        plugin_entropy(np.zeros(4))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30))
def test_plugin_entropy_bounded_by_support(counts):
    counts = np.asarray(counts)
    if counts.sum() == 0:
        return
    nonzero = int((counts > 0).sum())
    assert plugin_entropy(counts) <= math.log(max(nonzero, 1)) + 1e-12


def test_miller_gap_values():
    assert miller_gap(2, 1) == 0.5
    assert miller_gap(1024, 20000) == pytest.approx(0.0255750, abs=1e-7)
    gaps = [miller_gap(2, n) for n in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_discrete_bias_single_draw_entropy_zero():
    spec = DiscreteLawSpec(2)
    curve = run_discrete_bias(spec, [1, 2], trials=4, rng=RunSeed(0))
    assert curve.mean[0] == pytest.approx(1.0)  # exp(0): one sample has zero entropy


def test_discrete_bias_downward_and_increasing():
    spec = DiscreteLawSpec(64)
    curve = run_discrete_bias(spec, [64, 256, 1024, 4096], trials=10, rng=RunSeed(1))
    assert all(b > a for a, b in zip(curve.mean, curve.mean[1:]))
    assert all(m < 64.0 for m in curve.mean)  # Jensen: below exp(log r)


def test_discrete_bias_miller_prediction():
    r, n = 64, 4096
    trials = 50
    rng = RunSeed(2)
    ents = []
    for j in range(trials):
        gen = rng.child(j).generator()
        counts = np.bincount(gen.integers(0, r, size=n), minlength=r)
        ents.append(plugin_entropy(counts))
    mean_h = float(np.mean(ents))
    assert mean_h <= math.log(r)  # Jensen: plug-in entropy is downward biased
    gap = math.log(r) - mean_h
    assert gap == pytest.approx(miller_gap(r, n), rel=0.25)


def test_discrete_bias_deterministic():
    spec = DiscreteLawSpec(16)
    a = run_discrete_bias(spec, [32, 64], trials=3, rng=RunSeed(5, 7))
    b = run_discrete_bias(spec, [32, 64], trials=3, rng=RunSeed(5, 7))
    assert a == b


def test_discrete_bias_bad_grid():
    with pytest.raises(InvalidGrid):
        run_discrete_bias(DiscreteLawSpec(4), [8, 8], trials=2, rng=RunSeed(0))


# -- cube mixture ----------------------------------------------------------------

def test_cube_mixture_zero_std_hits_vertices():
    spec = CubeMixtureSpec(2, 0.0)
    x = sample_cube_mixture(spec, 40, RunSeed(3))
    assert set(map(tuple, x.data.tolist())) <= {
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)
    }


def test_cube_mixture_mean_clt():
    spec = CubeMixtureSpec(10, 1e-4)
    x = sample_cube_mixture(spec, 10_000, RunSeed(4))
    # per-coordinate mean of +-1 vertices: sd = 1/sqrt(n)
    assert np.abs(x.data.mean(axis=0)).max() <= 3.0 / math.sqrt(10_000)


def test_cube_mixture_deterministic():
    spec = CubeMixtureSpec(6, 0.01)
    a = sample_cube_mixture(spec, 100, RunSeed(9, 1))
    b = sample_cube_mixture(spec, 100, RunSeed(9, 1))
    assert np.array_equal(a.data, b.data)


def test_cube_mixture_dimension_limit():
    with pytest.raises(Exception):
        CubeMixtureSpec(25, 0.1)


@pytest.mark.parametrize("std", [-0.1, np.inf, np.nan])
def test_cube_mixture_rejects_bad_component_std(std):
    # a non-finite std would otherwise surface only at sampling, as NonFiniteEntry
    with pytest.raises(BadArguments, match=str(std)):
        CubeMixtureSpec(3, std)


# -- vendi curves ------------------------------------------------------------------

def test_vendi_curve_identical_dataset_flat_at_one():
    x = EmbeddingSet(np.tile([1.0, 2.0], (64, 1)))
    curve = vendi_curve(x, [4, 8, 16], trials=3, spec=KernelSpec("gaussian", 1.0), rng=RunSeed(0))
    assert all(m == pytest.approx(1.0, abs=1e-9) for m in curve.mean)
    report = check_monotone_logvendi(curve)
    assert report.passed
    assert all(abs(s) < 1e-9 for s in report.slacks)


def test_vendi_curve_orthogonal_features_equals_sizes():
    x = EmbeddingSet(np.eye(64) * 50.0)
    curve = vendi_curve(x, [4, 8, 16, 32], trials=3, spec=KernelSpec("gaussian", 0.3), rng=RunSeed(1))
    for size, m in zip(curve.sizes, curve.mean):
        assert m == pytest.approx(size, rel=1e-9)


@pytest.mark.parametrize("dim", [6, 8])
def test_vendi_curve_fresh_draw_mode_increasing(dim):
    # d = 10 runs at full scale in the acceptance suite
    sampler = cube_mixture_sampler(CubeMixtureSpec(dim, 1e-4))
    curve = vendi_curve(sampler, [16, 32, 64, 128], trials=6,
                        spec=KernelSpec("gaussian", 0.1), rng=RunSeed(2))
    assert all(b > a for a, b in zip(curve.mean, curve.mean[1:]))
    assert all(m < 2.0**dim for m in curve.mean)
    assert check_monotone_logvendi(curve).passed


def test_vendi_curve_jobs_matches_serial():
    sampler = cube_mixture_sampler(CubeMixtureSpec(5, 1e-4))
    kw = dict(sizes=[8, 16, 32], trials=4, spec=KernelSpec("gaussian", 0.1), rng=RunSeed(7))
    assert vendi_curve(sampler, **kw) == vendi_curve(sampler, jobs=3, **kw)


def test_monotone_check_rejects_decreasing():
    curve = DiversityCurve(
        sizes=(10, 20), mean=(10.0, 5.0),
        ci_low=(9.999, 4.999), ci_high=(10.001, 5.001),
        trials=5, metric="vendi",
    )
    report = check_monotone_logvendi(curve)
    assert not report.passed and not report.passes[0]


def test_monotone_check_needs_vendi_metric():
    curve = DiversityCurve((1, 2), (1.0, 2.0), (0.9, 1.9), (1.1, 2.1), 3, "exp_shannon")
    with pytest.raises(DataError):
        check_monotone_logvendi(curve)


def test_curve_plot_text_format():
    curve = DiversityCurve((4, 8), (2.0, 3.0), (1.5, 2.5), (2.5, 3.5), 2, "vendi")
    text = curve_to_plot_text(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "# size mean ci_low ci_high"
    assert lines[1].split() == ["4", "2", "1.5", "2.5"]


# -- concentration ------------------------------------------------------------------

def test_concentration_bound_m2_closed_form():
    b = concentration_bound(2, 0.5)
    expected = 0.5 * math.log(3.0) + binary_entropy(0.5)
    assert b.c_m == pytest.approx(expected, rel=1e-12)
    assert b.c_m == pytest.approx(1.2424533, abs=1e-7)


def test_concentration_bound_t_delta_formula():
    b = concentration_bound(1000, 0.01)
    assert b.t_delta == pytest.approx(b.c_m * math.sqrt(500.0 * math.log(200.0)), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10**6))
def test_concentration_constant_provable_bounds(m):
    # h(1/m) <= log(em)/m is the provable per-term bound; the full constant
    # then satisfies c_m <= 2*log(em)/m (both terms are at most log(em)/m up
    # to log2 < 1 slack).  Acceptance criterion 5b checks the same cap, with
    # the lower edge 2*log(m)/m, at every integer m in [2, 1e6].
    b = concentration_bound(m, 0.1)
    assert binary_entropy(1.0 / m) <= math.log(math.e * m) / m + 1e-15
    assert b.c_m <= 2.0 * math.log(math.e * m) / m + 1e-15


def test_concentration_bad_arguments():
    with pytest.raises(BadArguments):
        concentration_bound(1, 0.1)
    with pytest.raises(BadArguments):
        concentration_bound(10, 0.0)


def test_check_concentration_degenerate_sampler():
    def constant_sampler(n, rng):
        return EmbeddingSet(np.tile([1.0, 2.0], (n, 1)))

    report = check_concentration(constant_sampler, 16, 30, KernelSpec("gaussian", 1.0),
                                 0.05, RunSeed(0))
    assert report.passed
    assert report.violation_fraction == 0.0
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in report.log_vendi_values)


def test_check_concentration_adversarial_zero_radius():
    sampler = cube_mixture_sampler(CubeMixtureSpec(4, 1e-3))
    report = check_concentration(sampler, 32, 40, KernelSpec("gaussian", 0.1), 0.01, RunSeed(1))
    assert report.passed
    # harness sanity: with the radius forced to zero every nonzero deviation counts
    values = np.asarray(report.log_vendi_values)
    frac_zero_radius = float((np.abs(values - values.mean()) > 0.0).mean())
    assert frac_zero_radius > report.pass_threshold


# -- population RKE -----------------------------------------------------------------

def test_population_rke_point_mass():
    def point_sampler(n, rng):
        return EmbeddingSet(np.tile([0.5, -1.0], (n, 1)))

    est = population_rke_mc(point_sampler, KernelSpec("gaussian", 1.0), 500, RunSeed(0))
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_population_rke_two_separated_modes():
    centers = np.array([[0.0, 0.0], [100.0, 0.0]])

    def sampler(n, rng):
        gen = rng.generator()
        idx = gen.integers(0, 2, size=n)
        return EmbeddingSet(centers[idx] + gen.standard_normal((n, 2)) * 1e-4)

    est = population_rke_mc(sampler, KernelSpec("gaussian", 0.5), 20_000, RunSeed(3))
    assert est.estimate == pytest.approx(2.0, rel=0.05)


def test_population_rke_cube_mixture_collision_oracle():
    # analytic oracle: within-cluster k^2 ~ 1, across ~ 0, collision prob 1/r
    d = 6
    sampler = cube_mixture_sampler(CubeMixtureSpec(d, 1e-4))
    est = population_rke_mc(sampler, KernelSpec("gaussian", 0.1), 100_000, RunSeed(4))
    r = 2**d
    assert est.estimate == pytest.approx(r, rel=0.1)
    assert abs(est.estimate - r) <= 4.0 * est.stderr + 1e-9
