"""The benchmark's own helper logic: percentiles, spans, self times, checks.

Run with ``python -m pytest benchmarks/tests -q`` from the repository root.
"""

import numpy as np
import pytest

import postcast.denoisers as denoisers
import postcast.fields as fields
import postcast.sampler as sampler
from checks import grid_problems, loglik_not_below, mixture_loglik, tail_percentile
from layers import TARGETS, layer_metrics
from spans import Span, Target, Tracer, covered_length, self_times
from postcast import (
    GuidanceConfig,
    KernelConfig,
    fit_gmm_prior,
    linear_schedule,
    postcast_deblur,
)
from postcast.fields import DATA_UNITS, Field


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0), (200, 95.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def _span(i, parent, start, end, name="x"):
    return Span("load-0", i, parent, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 7.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: pytest.approx(5.0), 1: pytest.approx(2.0),
                     2: pytest.approx(1.0), 3: pytest.approx(2.0)}
    # Self times of a tree add back up to its root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 5.0), _span(2, 0, 3.0, 8.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert covered_length([(0, 1), (2, 3), (2.5, 4), (5, 5)]) == pytest.approx(3.0)


def test_tracer_restores_the_original_bindings_even_on_error():
    originals = (
        sampler.distance,
        vars(denoisers.GaussianMixtureModel)["predict_noise"],
        vars(fields.Field)["__post_init__"],
    )
    tracer = Tracer(TARGETS + (Target("postcast.sampler", "no_such_binding", "gone"),))
    with pytest.raises(RuntimeError):
        with tracer.installed("load-0"):
            assert sampler.distance is not originals[0]
            assert vars(denoisers.GaussianMixtureModel)["predict_noise"] is not originals[1]
            assert vars(fields.Field)["__post_init__"] is not originals[2]
            raise RuntimeError("boom")
    assert sampler.distance is originals[0]
    assert vars(denoisers.GaussianMixtureModel)["predict_noise"] is originals[1]
    assert vars(fields.Field)["__post_init__"] is originals[2]
    assert tracer.missing == {"postcast.sampler.no_such_binding"}


def _small_fields(n=24, size=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.2, 0.8, size=(3, size, size))
    return [Field(np.clip(centers[i % 3] + 0.05 * rng.standard_normal((size, size)), 0, 1),
                  DATA_UNITS) for i in range(n)]


def _flat_model(fs):
    return np.stack([(2.0 * f.values - 1.0).ravel() for f in fs])


def test_saved_mixture_scores_at_least_the_last_em_value():
    fs = _small_fields()
    gmm, trace = fit_gmm_prior(fs, 3, iters=10, seed=1, return_trace=True)
    x = _flat_model(fs)
    means = gmm.means.reshape(3, -1)
    final = mixture_loglik(gmm.weights, means, gmm.sigmas, x)
    assert loglik_not_below(final, trace[-1])
    # A mixture that is clearly worse than the fit fails the check.
    worse = mixture_loglik(gmm.weights, means, 3.0 * gmm.sigmas, x)
    assert not loglik_not_below(worse, trace[-1])


def test_grid_problems_names_each_defect():
    assert grid_problems(np.full((64, 64), 0.5)) == []
    assert grid_problems(np.full((8, 8), 0.5)) == ["shape (8, 8) != (64, 64)"]
    bad = np.full((64, 64), 0.5)
    bad[0, 0] = np.nan
    assert grid_problems(bad) == ["non-finite values"]
    bad[0, 0] = 1.5
    assert len(grid_problems(bad)) == 1


def test_traced_deblur_counts_calls_per_step_and_accounts_for_step_time():
    schedule = linear_schedule(6, 1e-4, 0.05)
    gmm = fit_gmm_prior(_small_fields(), 2, iters=3, seed=0)
    target = _small_fields(1, seed=3)[0]
    tracer = Tracer(TARGETS)
    with tracer.installed("load-0"):
        with tracer.span("cli.main.deblur"):
            postcast_deblur(schedule, gmm, target, GuidanceConfig(lr=0.005),
                            seed=0, kernel_config=KernelConfig(3, 0.1, 0.01))
    metrics = layer_metrics(tracer.spans, tracer.events, {"load": 1}, 0.0)
    assert metrics["sampler.steps"] == 6
    assert metrics["denoisers.gmm_predict_noise_calls"] == 6
    assert metrics["kernel.residuals_per_step"] == 3
    assert metrics["kernel.correlate_calls"] == 3
    assert metrics["kernel.adjoint_calls"] == 1
    assert metrics["kernel.weight_grad_calls"] == 1
    assert metrics["fields.constructions_per_step"] > 0
    assert metrics["sampler.step_accounted_ratio"] == pytest.approx(1.0)
    assert metrics["sampler.step_self_s"] < metrics["sampler.step_s"]
